"""Package surface: every exported name resolves, and no module keeps an
import it does not use (the usual leftover of a deletion)."""

import ast
import importlib
from pathlib import Path

import pytest

import edbeam

SRC = Path(edbeam.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"edbeam.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # names listed in __all__ are re-exports
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    assert _unused_imports(tree) == []


def test_one_strang_kernel():
    # the rotation tables belong to the kernel alone, and no driver builds
    # its own stepper to run a private copy of the kick and rotation
    for path in SRC.glob("*.py"):
        if path.stem != "integrate":
            text = path.read_text(encoding="utf-8")
            assert "sin_over" not in text and "omsin" not in text, path.name
    assert "_Stepper" not in (SRC / "experiments.py").read_text(encoding="utf-8")


def test_one_formula_per_damping_law():
    # each law is spelled once, as scalar_k; k maps it over its argument
    from edbeam import laws

    subclasses = [
        obj
        for obj in vars(laws).values()
        if isinstance(obj, type) and issubclass(obj, laws.DampingLaw)
    ]
    assert len(subclasses) == 7  # the base and the six families
    assert [c.__name__ for c in subclasses if "_k" in vars(c)] == []


def test_stationary_reads_no_source_parameters():
    # the functional and its derivatives go through the law's own f_primitive,
    # f and f_derivative, so stationary never spells a source formula
    tree = ast.parse((SRC / "stationary.py").read_text(encoding="utf-8"))
    attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(attrs & {"delta", "r", "sigma_c"}) == []
    assert sorted(names & {"DoublePower", "ZeroSource"}) == []


def test_one_reading_of_the_run_file():
    # config resolves the experiment and its options, and keeps the laws
    # themselves rather than mirror dataclasses of them
    from edbeam import config

    assert "EXPERIMENT_OPTIONS" not in (SRC / "cli.py").read_text(encoding="utf-8")
    assert not hasattr(config, "DampingConfig") and not hasattr(config, "SourceConfig")
