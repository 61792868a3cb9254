"""The package namespace is exactly the union of its modules' __all__."""

from types import ModuleType

import pytest

import zakwave
from zakwave import dynamics, elliptic, errors, spectral, wavefamily

_MODULES = (elliptic, errors, wavefamily, spectral, dynamics)


def _package_public():
    return {n: v for n, v in vars(zakwave).items()
            if not n.startswith("_") and not isinstance(v, ModuleType)}


@pytest.mark.parametrize("module", [dynamics, spectral, wavefamily],
                         ids=lambda m: m.__name__)
def test_module_all_matches_package_exports(module):
    public = set(module.__all__)
    missing = sorted(n for n in public
                     if getattr(zakwave, n, None) is not getattr(module, n))
    assert not missing, f"in {module.__name__}.__all__ but not exported: {missing}"
    defined_here = {n for n, v in _package_public().items()
                    if getattr(v, "__module__", None) == module.__name__}
    unlisted = sorted(defined_here - public)
    assert not unlisted, f"exported but not in {module.__name__}.__all__: {unlisted}"


def test_package_exports_every_module_all():
    public = set(_package_public())
    listed = set().union(*(m.__all__ for m in _MODULES))
    assert public == listed, (sorted(public - listed), sorted(listed - public))
