"""The package namespace and each module's __all__ name the same API."""

import ast
from pathlib import Path

import pytest

import zakwave
from zakwave import dynamics, spectral, wavefamily

_INIT = Path(zakwave.__file__)


def _package_imports(module_name):
    tree = ast.parse(_INIT.read_text())
    return {alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module == module_name
            for alias in node.names}


@pytest.mark.parametrize("module", [dynamics, spectral, wavefamily],
                         ids=lambda m: m.__name__)
def test_module_all_matches_package_exports(module):
    public = set(module.__all__)
    missing = sorted(n for n in public if not hasattr(zakwave, n))
    assert not missing, f"in {module.__name__}.__all__ but not exported: {missing}"
    unlisted = sorted(_package_imports(module.__name__.rsplit(".", 1)[1]) - public)
    assert not unlisted, f"exported but not in {module.__name__}.__all__: {unlisted}"
