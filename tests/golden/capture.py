"""Pin the SHA-256 of every artifact the golden run files produce.

Usage, from the repository root::

    PYTHONPATH=src python tests/golden/capture.py

Each ``runs/<id>.ini`` goes through ``edbeam.cli.run`` inside a temporary
directory, and the hashes of the files it writes (CSVs, ``report.txt``,
``manifest.ini``) go to ``hashes.json`` next to this script, together with
the numpy and BLAS build they were taken on.  ``tests/test_golden.py``
compares against that file.  Re-pin only for a deliberate change to the
numerics or the output format, and say why in CHANGES.md.
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


def build_info():
    """The numpy version and BLAS library the hashes depend on."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def artifact_hashes(run_file, workdir):
    """Run one run file from ``workdir``; return {artifact name: sha256}.

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
    run_dir = Path(workdir) / cfg.output_dir / f"{cfg.experiment_id}-seed{cfg.seed}"
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(run_dir.iterdir())
    }


def main():
    runs = {}
    for run_file in sorted(RUNS.glob("*.ini")):
        with tempfile.TemporaryDirectory() as tmp:
            runs[run_file.stem] = artifact_hashes(run_file, tmp)
    text = json.dumps({"build": build_info(), "runs": runs}, indent=2, sort_keys=True)
    HASHES.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {HASHES} ({len(runs)} runs)")


if __name__ == "__main__":
    main()
