"""Start-up cost: a cold CLI process imports only what its command runs.

Each check runs in a fresh interpreter, because this test process has
long since imported everything.  The assertions pin heavy third-party
modules (numpy, scipy's statistics, dense linear algebra, sparse solvers
and graph routines) and the analysis layer.  Pure-Python ``repro``
modules are cheap and not pinned: ``repro.lint.sanitize``, for one,
legitimately pulls in ``repro.bisim`` on a batch.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules a timed-reachability batch never calls into.
HEAVY_FOR_BATCH = (
    "scipy.stats",
    "scipy.linalg",
    "scipy.sparse.linalg",
    "scipy.sparse.csgraph",
    "repro.analysis",
    "gzip",  # numpy's path-based file reading; the .tra reader reads a handle
)

#: Child: import the modules named in argv, print the loaded module set.
IMPORT_CHILD = """
import importlib, json, sys
for name in sys.argv[1:]:
    importlib.import_module(name)
print(json.dumps({"modules": sorted(sys.modules)}))
"""

#: Child: run ``repro.cli.main(argv)``, print its exit code, captured
#: output and the loaded module set.
CLI_CHILD = """
import contextlib, io, json, sys
import repro.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = repro.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "output": out.getvalue(), "modules": sorted(sys.modules)}))
"""


def run_child(code: str, *args: str) -> dict:
    paths = [str(SRC), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def loaded(modules: list[str], package: str) -> list[str]:
    return [m for m in modules if m == package or m.startswith(package + ".")]


def test_import_repro_loads_only_errors():
    modules = run_child(IMPORT_CHILD, "repro")["modules"]
    assert loaded(modules, "repro") == ["repro", "repro.errors"]


def test_import_cli_loads_no_numpy_or_scipy():
    modules = run_child(IMPORT_CHILD, "repro.cli")["modules"]
    assert loaded(modules, "numpy") == []
    assert loaded(modules, "scipy") == []


def test_version_loads_no_numpy():
    """Building the parser must not load numpy for a command that never uses it."""
    child = run_child(CLI_CHILD, "--version")
    assert child["code"] == 0
    assert child["output"].startswith("repro ")
    assert loaded(child["modules"], "numpy") == []


def test_batch_loads_no_heavy_module_on_build_and_disk_hit(tmp_path):
    queries = tmp_path / "queries.json"
    queries.write_text(
        json.dumps({"queries": [{"model": {"family": "ftwc", "n": 2}, "t": 100.0}]})
    )
    argv = ["batch", str(queries), "--cache-dir", str(tmp_path / "cache")]
    answers = []
    for expected_cache in ("build", "disk"):
        child = run_child(CLI_CHILD, *argv)
        assert child["code"] == 0
        (result,) = json.loads(child["output"])["results"]
        assert result["cache"] == expected_cache
        for name in HEAVY_FOR_BATCH:
            assert loaded(child["modules"], name) == [], (expected_cache, name)
        answers.append(
            (result["value"], result["iterations"], result["model_key"], result["certificate"])
        )
    assert answers[0] == answers[1]


#: Child: run one Table 1 row, print whether ``scipy.special`` was
#: loaded as each timed solve started.
TABLE1_CHILD = """
import json, sys
from repro.analysis import experiments
loaded = []
solve = experiments.PreparedTimedReachability.solve
def recording(self, *args, **kwargs):
    loaded.append("scipy.special" in sys.modules)
    return solve(self, *args, **kwargs)
experiments.PreparedTimedReachability.solve = recording
experiments.table1_row(1, time_bounds=(100.0, 200.0))
print(json.dumps({"loaded": loaded}))
"""


def test_table1_first_runtime_cell_times_no_import():
    """The certificate imports scipy.special lazily; Table 1 loads it
    before its first timer starts."""
    assert run_child(TABLE1_CHILD)["loaded"] == [True, True]
