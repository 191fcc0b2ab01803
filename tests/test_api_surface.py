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
    # each law is spelled once, as scalar_k
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


def test_one_declaration_of_experiment_requirements():
    # a rule lives in the experiments tables alone: no function but
    # check_requirements raises a "requires" message or tests a law's type or
    # the scheme, and config keeps no predicate and no requirement text
    import inspect

    from edbeam import experiments

    tree = ast.parse((SRC / "experiments.py").read_text(encoding="utf-8"))
    own = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or fn.name == "check_requirements":
            continue
        for node in ast.walk(fn):
            texts = []
            if isinstance(node, ast.Raise):
                texts = [
                    c.value
                    for c in ast.walk(node)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                ]
            if (
                any("requires" in text for text in texts)
                or (isinstance(node, ast.Name) and node.id == "isinstance")
                or (isinstance(node, ast.Attribute) and node.attr == "scheme")
            ):
                own.append(f"{fn.name} (line {node.lineno})")
    assert own == []

    tree = ast.parse((SRC / "config.py").read_text(encoding="utf-8"))
    strings = {
        n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }
    assert sorted(strings & set(experiments.REQUIREMENTS)) == []
    assert [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Lambda)] == []
    # a bound on an argument the requirements read belongs in REQUIREMENTS
    read = {
        name
        for holds in experiments.REQUIREMENTS.values()
        for name in inspect.signature(holds).parameters
    }
    assert sorted(set(experiments.OPTION_BOUNDS) & read) == []


def test_cli_builds_no_report():
    # the drivers in experiments build every report and write every CSV;
    # cli dispatches and writes report.txt and manifest.ini
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(names & {"ExperimentReport", "write_csv"}) == []
    calls = [
        n.func.attr
        for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
    ]
    assert "add" not in calls


def test_one_runner_row_per_experiment():
    from edbeam import cli, config

    assert sorted(cli._RUNNERS) == sorted(config.EXPERIMENT_OPTIONS)
    for exp_id, (_, description) in cli._RUNNERS.items():
        assert description.strip(), exp_id


def test_one_nakao_candidate_stream():
    # only _candidates draws from the generator, so the order of the
    # variates of a random problem is spelled once
    tree = ast.parse((SRC / "nakao.py").read_text(encoding="utf-8"))

    def draws(node):
        return [
            n.lineno
            for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "rng"
        ]

    (stream,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_candidates"]
    assert len(draws(stream)) >= 9
    assert len(draws(tree)) == len(draws(stream))
