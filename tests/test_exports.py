"""The package namespace is exactly the union of its modules' __all__,
and every public name without a program caller is named here with the
reason it stays."""

import ast
from pathlib import Path
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


ROOT = Path(__file__).resolve().parents[1]

# public names that no code in src/zakwave or scripts/ loads, each with the
# reason it stays; a new name that only the tests use fails below instead
# of piling up
NO_PROGRAM_CALLER = {
    "period_of": "oracle of T(eta2) = L for the Newton solve; the tracer "
                 "wraps it (ROADMAP item 8 moves it into the tests)",
    "distance_at_shift": "oracle of the save's shift search; the tracer wraps it (item 8)",
    "orbital_distance": "oracle of the fused save; the tracer wraps it (ROADMAP item 8)",
    "shift_distance": "oracle of the fused save; the tracer wraps it (ROADMAP item 8)",
    "q1_paper_form": "oracle of the fused save; the tracer wraps it (ROADMAP item 8)",
    "HillOperator.grid_matrix": "dense grid reference of the mode-space solves; "
                                "the tracer wraps it (item 8)",
    "mass_derivative": "paper check dM/dnu > 0, waiting on the certified sweep (item 7)",
    "semiperiodic_spectrum": "paper check of the semi-periodic spectrum, waiting on item 7",
    "lambda_from_rho": "paper check mapping the Lame edges to L3's spectrum, waiting on item 7",
    "constrained_rayleigh_min": "paper check of the constrained minima, waiting on item 7",
    "FamilyTable.column": "reads a sweep's chains for the paper's monotonicity checks, "
                          "waiting on item 7",
    "SolitaryWave.decay_rate": "benchmark reader: the solitary workload sizes its run by it",
}


def _public_names():
    """Each module's __all__, its public module-level defs and classes, and
    the public methods of its exported classes, as "Class.method"."""
    names = set()
    for path in sorted((ROOT / "src" / "zakwave").glob("*.py")):
        tree = ast.parse(path.read_text())
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported = set(ast.literal_eval(node.value))
        names |= exported
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                names.add(node.name)
            if isinstance(node, ast.ClassDef) and node.name in exported:
                names |= {f"{node.name}.{m.name}" for m in node.body
                          if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")}
    return names


def _loaded_names():
    """Every name read as a variable and every attribute read, in the
    program code; an attribute counts by its bare name, whatever object it
    is read from."""
    files = sorted((ROOT / "src" / "zakwave").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    assert ROOT / "src" / "zakwave" / "spectral.py" in files
    loaded = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    return loaded


def test_public_names_without_a_program_caller():
    loaded = _loaded_names()
    unused = {n for n in _public_names() if n.rsplit(".", 1)[-1] not in loaded}
    assert sorted(unused) == sorted(NO_PROGRAM_CALLER)
