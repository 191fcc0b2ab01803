"""Pin the artifacts the golden run files produce, by hash and by value.

Usage, from the repository root::

    PYTHONPATH=src python tests/golden/capture.py

Each ``runs/<id>.ini`` goes through ``edbeam.cli.run`` inside a temporary
directory, once.  The SHA-256 of the files it writes (CSVs, ``report.txt``,
``manifest.ini``) go to ``hashes.json`` next to this script, together with
the numpy and BLAS build they were taken on.  Their values go to
``values.json``: each CSV column's first, last, min and max, and each
``metric`` line of ``report.txt``.  ``tests/test_golden.py`` compares the
hashes on the pinning build and the values on every build.  Re-pin only
for a deliberate change to the numerics or the output format, and say why
in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = HERE / "runs"
HASHES = HERE / "hashes.json"
VALUES = HERE / "values.json"

_METRIC = "  metric "  # the prefix of a metric line in report.txt


def build_info():
    """The numpy version and BLAS library the hashes depend on."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def run_artifacts(run_file, workdir):
    """Run one run file from ``workdir``; return the run directory.

    The run files use a relative ``output_dir``, so ``manifest.ini`` does
    not depend on where the run happens.
    """
    from edbeam.cli import run
    from edbeam.config import parse_config

    cfg = parse_config(Path(run_file).read_text(encoding="utf-8"))
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        run(cfg, quiet=True)
    finally:
        os.chdir(cwd)
    return Path(workdir) / cfg.output_dir / f"{cfg.experiment_id}-seed{cfg.seed}"


def artifact_hashes(run_dir):
    """{artifact name: sha256} for every file of one run."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(run_dir).iterdir())
    }


def artifact_values(run_dir):
    """{artifact name: values} for one run: {column: [first, last, min, max]}
    for each CSV, and {metric: value} for ``report.txt``."""
    import numpy as np

    values = {}
    for p in sorted(Path(run_dir).glob("*.csv")):
        with open(p, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
        data = np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2)
        values[p.name] = {
            name: [float(x) for x in (col[0], col[-1], col.min(), col.max())]
            for name, col in zip(header, data.T)
        }
    report = (Path(run_dir) / "report.txt").read_text(encoding="utf-8")
    values["report.txt"] = {
        key: float(value)
        for key, value in (
            line[len(_METRIC) :].split(" = ")
            for line in report.splitlines()
            if line.startswith(_METRIC)
        )
    }
    return values


def main():
    hashes, values = {}, {}
    for run_file in sorted(RUNS.glob("*.ini")):
        with tempfile.TemporaryDirectory() as tmp:
            run_dir = run_artifacts(run_file, tmp)
            hashes[run_file.stem] = artifact_hashes(run_dir)
            values[run_file.stem] = artifact_values(run_dir)
    for path, runs in ((HASHES, hashes), (VALUES, values)):
        text = json.dumps({"build": build_info(), "runs": runs}, indent=2, sort_keys=True)
        path.write_text(text + "\n", encoding="utf-8")
        print(f"wrote {path} ({len(runs)} runs)")


if __name__ == "__main__":
    main()
