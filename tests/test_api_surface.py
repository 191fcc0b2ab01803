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


def _attribute_readers(attrs):
    # the modules that load one of ``attrs`` from anything but np or math
    readers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in attrs
                and isinstance(node.ctx, ast.Load)
                and not (isinstance(node.value, ast.Name) and node.value.id in {"np", "math"})
            ):
                readers.add(path.stem)
    return readers


def test_one_quadrature():
    # synthesis, projection, integrals and Gram matrices go through the
    # spectral helpers, so the quadrature rule is read in one module
    assert _attribute_readers({"basis_table", "quad_weight"}) == {"spectral"}


def test_one_strang_kernel():
    # the rotation tables belong to the kernel alone, and no driver builds
    # its own stepper to run a private copy of the kick and rotation
    assert _attribute_readers({"cos", "sin", "om"}) == {"integrate"}
    assert "_Stepper" not in (SRC / "experiments.py").read_text(encoding="utf-8")

    # inside integrate, only the two schemes' loops step in time, and only
    # the Strang loop reads the rotation tables or builds the phase rotation
    tree = ast.parse((SRC / "integrate.py").read_text(encoding="utf-8"))

    def owners(pred):
        found = set()
        for top in tree.body:
            for fn in top.body if isinstance(top, ast.ClassDef) else [top]:
                if isinstance(fn, ast.FunctionDef) and any(map(pred, ast.walk(fn))):
                    found.add(fn.name)
        return found

    def steps(node):
        loop = getattr(node, "iter" if isinstance(node, ast.For) else "test", None)
        return isinstance(node, (ast.For, ast.While)) and any(
            isinstance(n, ast.Name) and n.id == "n_steps" for n in ast.walk(loop)
        )

    def rotates(node):
        # the phase rotation is the only complex number in the module
        if isinstance(node, ast.Constant):
            return isinstance(node.value, complex)
        if isinstance(node, ast.Name):
            return node.id == "rot"
        return isinstance(node, ast.Attribute) and (
            node.attr == "rot"
            or node.attr in {"cos", "sin"}
            and isinstance(node.ctx, ast.Load)
            and not (isinstance(node.value, ast.Name) and node.value.id in {"np", "self"})
        )

    assert owners(steps) == {"_run_strang", "_run_rk4"}
    assert owners(rotates) == {"_run_strang"}
    # and every Strang run, free or not, takes the one stepping loop
    (strang,) = [n for n in tree.body if getattr(n, "name", None) == "_run_strang"]
    assert sum(map(steps, ast.walk(strang))) == 1


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
    # config keeps the laws themselves rather than mirror dataclasses of them
    from edbeam import config

    assert not hasattr(config, "DampingConfig") and not hasattr(config, "SourceConfig")


def test_one_declaration_of_experiment_options():
    # an experiment's option keys and requirement names are spelled in its
    # row of experiments.EXPERIMENTS and in REQUIREMENTS alone; config and
    # cli read them from there
    from edbeam import experiments

    names = set(experiments.REQUIREMENTS)
    names |= {key for row in experiments.EXPERIMENTS.values() for key in row.options}
    spelled = {}
    for path in SRC.glob("*.py"):
        if path.stem == "experiments":
            continue
        count = sum(
            isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value in names
            for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        )
        if count:
            spelled[path.stem] = count
    assert spelled == {}


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
    # cli dispatches through the registry, imports no driver, and writes
    # report.txt and manifest.ini
    from edbeam import experiments

    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(names & {"ExperimentReport", "write_csv"}) == []
    assert sorted(names & set(experiments.__all__)) == []
    calls = [
        n.func.attr
        for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
    ]
    assert "add" not in calls


def test_one_calling_convention_for_the_integrating_drivers():
    # every driver that integrates takes the run's model, damping, source
    # and forcing first, then its initial states and icfg, and keeps its
    # options, seed and out_dir keyword-only: no driver defaults an input
    import inspect

    from edbeam import experiments

    checked = []
    for name in experiments.__all__:
        params = inspect.signature(getattr(experiments, name)).parameters
        if "icfg" not in params:
            continue
        positional = [p.name for p in params.values() if p.kind is p.POSITIONAL_OR_KEYWORD]
        assert positional[:4] == ["model", "damping", "source", "forcing"], name
        assert positional[-1] == "icfg", name
        assert all(params[p].default is inspect.Parameter.empty for p in positional), name
        keyword = {k: p.default for k, p in params.items() if p.kind is p.KEYWORD_ONLY}
        assert keyword["seed"] is None and keyword["out_dir"] is None, name
        checked.append(name)
    assert len(checked) == 7


def test_one_runner_row_per_experiment():
    from edbeam.experiments import EXPERIMENTS

    for exp_id, row in EXPERIMENTS.items():
        assert row.about.strip() and callable(row.run), exp_id


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


def test_one_default_quadrature():
    # one function sizes the default quadrature: the 8N fallback (the only
    # integer product with 8) and the exact size of a polynomial source (the
    # only reader of a source's degree) are each spelled once, there
    def is_eight(node):
        return isinstance(node, ast.Constant) and type(node.value) is int and node.value == 8

    def spelled(tree):
        nodes = list(ast.walk(tree))
        eights = [
            n
            for n in nodes
            if isinstance(n, ast.BinOp)
            and isinstance(n.op, ast.Mult)
            and (is_eight(n.left) or is_eight(n.right))
        ]
        degrees = [
            n
            for n in nodes
            if (isinstance(n, ast.Attribute) and n.attr == "degree")
            or (isinstance(n, ast.Constant) and n.value == "degree")
        ]
        return len(eights), len(degrees)

    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    counts = {stem: spelled(tree) for stem, tree in trees.items()}
    assert {stem: c for stem, c in counts.items() if c != (0, 0)} == {"spectral": (1, 1)}
    (sizer,) = [
        n
        for n in trees["spectral"].body
        if isinstance(n, ast.FunctionDef) and n.name == "_default_quad_points"
    ]
    assert spelled(sizer) == (1, 1)


def test_one_csv_writer():
    # series.write_csv is the only CSV writer: no other module spells the
    # "%.17g" format or opens a file for writing, and no text file another
    # module writes is named *.csv
    writers = {}
    for path in SRC.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        found = {".17g"} if ".17g" in text else set()
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if name == "open":  # open(file, mode) or path.open(mode)
                at = 1 if isinstance(func, ast.Name) else 0
                mode = node.args[at] if len(node.args) > at else None
                mode = next((k.value for k in node.keywords if k.arg == "mode"), mode)
                if mode is not None and not (
                    isinstance(mode, ast.Constant) and set(str(mode.value)) <= set("rbt")
                ):
                    found.add("open for writing")
            elif name in {"savetxt", "tofile", "writer", "DictWriter"}:
                found.add(name)
            elif name in {"write_text", "write_bytes"}:
                constants = [n.value for n in ast.walk(func) if isinstance(n, ast.Constant)]
                if any(".csv" in str(c) for c in constants):
                    found.add(f"{name} of a .csv")
        if found:
            writers[path.stem] = sorted(found)
    assert writers == {"series": [".17g", "open for writing"]}
