"""Which private names one envgain module reaches for in another, which
module may start threads or processes, and what importing envgain loads.

Each entry of `ALLOWED` is (module, other module, name); there are none. A
new entry means a module leans on another's internals: make the name
public where it belongs, or add it here on purpose.

Only `fanout` imports threads, processes or `ctypes`, so the process keeps
one fan-out however many call sites use it.

Importing the CLI loads no part of scipy: a command pays for it only when
it resamples, measures a speech level or synthesizes noise.

Every `<module>.<name>` the benchmark (`bench/run.py`) reads of envgain
exists, so a change to `src/` cannot silently break the benchmark.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import envgain

PACKAGE = Path(envgain.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}

CONCURRENCY = {"threading", "concurrent", "multiprocessing", "ctypes"}  # top-level names
ALLOWED: set = set()


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reaches(module: str) -> set:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    bound = set()  # envgain modules this one imports by name
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None and alias.name in MODULES:
                    bound.add(alias.asname or alias.name)
                elif node.module in MODULES and is_private(alias.name):
                    found.add((module, node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound and is_private(node.attr)):
            found.add((module, node.value.id, node.attr))
    return found


def test_cross_module_private_names_are_the_listed_ones():
    found = set().union(*(private_reaches(module) for module in MODULES))
    assert found == ALLOWED


def imported_packages(path: Path) -> set:
    """The top-level names of the absolute imports in `path`."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_only_fanout_imports_threads_processes_or_ctypes():
    users = {path.stem for path in PACKAGE.glob("*.py") if imported_packages(path) & CONCURRENCY}
    assert users == {"fanout"}


def test_importing_the_cli_loads_no_scipy():
    code = ("import sys, envgain.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(PACKAGE.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"


BENCH = Path(__file__).resolve().parents[1] / "bench" / "run.py"
BENCH_MODULES = ("envgain", "baseline", "cli", "mixing", "neural", "pipeline")  # its global names


def benchmark_reads() -> set:
    """(module, name) of every `<module>.<name>` read in `bench/run.py`."""
    return {(node.value.id, node.attr) for node in ast.walk(ast.parse(BENCH.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in BENCH_MODULES}


def test_every_name_the_benchmark_reads_exists():
    reads = benchmark_reads()
    assert {module for module, _ in reads} == set(BENCH_MODULES)
    modules = {name: importlib.import_module("envgain" if name == "envgain" else f"envgain.{name}")
               for name in BENCH_MODULES}
    assert sorted(f"{m}.{name}" for m, name in reads if not hasattr(modules[m], name)) == []
    # the benchmark's tracer reads a dataset's methods from `vars(cls)`, so an
    # inherited one gets no span, and names a span by the defining module
    for cls in (modules["mixing"].EnvelopeDataset, modules["baseline"].MagnitudeDataset):
        assert {"features", "targets"} <= set(vars(cls)), cls
    baseline = modules["baseline"]
    for fn in (baseline.train_classical, baseline.build_magnitude_dataset):
        assert fn.__module__ == "envgain.baseline", fn
