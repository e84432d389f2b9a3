"""Child processes of the pipeline benchmark: start, time and reap them.

Every child runs the system under test from ``<root>/src``.  ``run.py``
starts one child at a time and waits for it, so the load stays within
two cores: ``run.py`` and one child.  CPU time and peak RSS come from the
``os.wait4`` rusage of each child; the long-lived ``repro serve`` child
is also read from ``/proc`` at the edges of the timed loop.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = ["Child", "Launcher", "Server", "child_env", "import_times"]

TRACED_CHILD = Path(__file__).resolve().with_name("traced_child.py")

#: A child still running after this long is killed and its answers fail.
CHILD_TIMEOUT_S = 150.0

#: One BLAS thread per child: an idle OpenBLAS pool spins on the second
#: core, which ``run.py`` needs and which would count as query CPU.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Modules whose cumulative ``-X importtime`` the traced run reports.
IMPORTED_MODULES = ("repro", "repro.analysis", "scipy.stats", "numpy")


def child_env(root: Path) -> dict[str, str]:
    """The environment of every child: ``REPRO_*`` removed (sanitizer,
    push gateway, cache location), ``src`` first on the path, BLAS pinned."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(root / "src"), os.environ.get("PYTHONPATH")) if part
    )
    env.update(PINNED_ENV)
    return env


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of :data:`IMPORTED_MODULES` from the
    ``-X importtime`` lines in ``stderr``."""
    found: dict[str, float] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:") :].split("|")
        if len(fields) != 3:
            continue
        module = fields[2].strip()
        if module in IMPORTED_MODULES and module not in found:
            found[module] = int(fields[1]) / 1e6
    return found


@dataclass
class Child:
    """One finished child: its cost and, when traced, its trace."""

    wall_s: float
    cpu_s: float
    maxrss_mb: float
    spans: list[dict[str, Any]] = field(default_factory=list)
    imports: dict[str, float] = field(default_factory=dict)


def _reap(proc: subprocess.Popen) -> Any:
    """Wait for ``proc`` (killing it after :data:`CHILD_TIMEOUT_S`) and
    return its rusage."""
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: leave no child behind
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)  # tell Popen it is reaped
    return usage


class Launcher:
    """Starts children for one pass of one workload and keeps their records.

    With ``traced`` every child runs ``traced_child.py`` under
    ``-X importtime`` instead of ``-m repro.cli``.  Files the children
    read and write live in a fresh directory under ``workdir``.
    """

    def __init__(self, root: Path, workdir: Path, traced: bool) -> None:
        self.root = root
        self.workdir = Path(tempfile.mkdtemp(dir=workdir))
        self.traced = traced
        self.env = child_env(root)
        self.children: list[Child] = []
        self._files = 0

    def path(self, stem: str, suffix: str = ".json") -> Path:
        """A fresh file or directory name in this launcher's directory."""
        self._files += 1
        return self.workdir / f"{stem}-{self._files}{suffix}"

    def command(self, argv: list[str]) -> tuple[list[str], dict[str, str], Path | None]:
        """``(command line, environment, span file)`` for ``repro <argv>``."""
        if not self.traced:
            return [sys.executable, "-m", "repro.cli", *argv], self.env, None
        spans = self.path("spans")
        env = dict(self.env, PIPELINE_SPANS=str(spans))
        return [sys.executable, "-X", "importtime", str(TRACED_CHILD), *argv], env, spans

    def record(self, wall_s: float, usage: Any, spans: Path | None, stderr: Path) -> Child:
        """Keep the record of a reaped child (with its trace, if traced)."""
        child = Child(
            wall_s=wall_s,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_mb=usage.ru_maxrss / 1024.0,
        )
        if spans is not None:
            child.imports = import_times(stderr.read_text(encoding="utf-8", errors="replace"))
            if spans.exists():
                trace = json.loads(spans.read_text(encoding="utf-8"))
                child.spans = [dict(span, pid=trace["pid"]) for span in trace["spans"]]
        self.children.append(child)
        return child

    def batch(
        self, queries: list[dict[str, Any]], cache_dir: Path | None = None
    ) -> tuple[Child, list[dict[str, Any] | None]]:
        """Run one ``repro batch`` over ``queries``; returns the child and
        one result record per query (``None`` where the child gave none)."""
        query_file = self.path("queries")
        query_file.write_text(json.dumps({"queries": queries}), encoding="utf-8")
        answers = self.path("answers")
        cache = ["--cache-dir", str(cache_dir)] if cache_dir is not None else ["--no-disk-cache"]
        argv, env, spans = self.command(["batch", str(query_file), "--out", str(answers), *cache])
        stderr = self.path("stderr", ".txt")
        with open(stderr, "wb") as errors:
            started = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=errors, env=env, cwd=self.root,
            )
            usage = _reap(proc)
            wall = time.perf_counter() - started
        child = self.record(wall, usage, spans, stderr)
        records: list[dict[str, Any] | None] = [None] * len(queries)
        if answers.exists():
            results = json.loads(answers.read_text(encoding="utf-8"))["results"]
            if len(results) == len(queries):
                records = results
        return child, records


class Server:
    """A ``repro serve --no-disk-cache`` child driven as a closed loop."""

    def __init__(self, launcher: Launcher) -> None:
        self.launcher = launcher
        argv, env, self._spans = launcher.command(["serve", "--no-disk-cache"])
        self._stderr_path = launcher.path("stderr", ".txt")
        self._stderr = open(self._stderr_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._stderr,
            env=env, cwd=launcher.root, text=True,
        )
        self._watchdog = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self._watchdog.start()

    def ask(self, request: dict[str, Any]) -> tuple[float, dict[str, Any] | None]:
        """Send one request; returns the time until its response was read
        and the response (``None`` if the server died)."""
        started = time.perf_counter()
        try:
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            return time.perf_counter() - started, None
        line = self.proc.stdout.readline()
        latency = time.perf_counter() - started
        return latency, (json.loads(line) if line else None)

    def cpu_s(self) -> float:
        """User plus system CPU seconds the server has used so far."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def close(self) -> Child:
        """Shut the server down, reap it and record it."""
        try:
            self.ask({"op": "shutdown"})
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        self._watchdog.cancel()
        usage = _reap(self.proc)
        self.proc.stdout.close()
        self._stderr.close()
        wall = time.perf_counter() - self.started
        return self.launcher.record(wall, usage, self._spans, self._stderr_path)
