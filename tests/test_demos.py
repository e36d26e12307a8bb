"""Every script under demos/ runs to completion against the current API."""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import envgain

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def run_demo(path: Path) -> subprocess.CompletedProcess:
    src = str(Path(envgain.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, str(path)], env=env, capture_output=True, text=True)


def test_every_demo_exits_zero():
    assert DEMOS, "no demo scripts found"
    # two at a time, each on one BLAS thread
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(run_demo, DEMOS))
    failed = {path.name: run.stderr[-2000:] for path, run in zip(DEMOS, results)
              if run.returncode != 0}
    assert not failed, failed
