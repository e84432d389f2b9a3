"""Every top-level function and class in ``src/repro`` is reached from ``src/repro``.

A module stays in the library only if a CLI command, ``repro selfcheck``,
the engine or the paper's pipeline reaches it.  Code that only tests or
benchmarks use lives under ``tests/``: reference implementations and
checkers in ``tests/oracles``, example models in ``tests/zoo.py``.

The scan approximates "reached" syntactically.  A top-level name counts
as used when it appears anywhere in ``src/repro`` as a name, an
attribute or an imported name (``import ... as`` included), except in
its own definition and in the re-exports of a package ``__init__``.
Dunder names are skipped.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Public names nothing in ``src/repro`` calls, kept on purpose.
ALLOWED = {
    # ROADMAP item 1, step 2 builds on it.
    "ctmdp_minimize",
    # Public FTWC API.
    "premium",
    # The many-choice stress model, used by its benchmark and an example.
    "build_job_scheduling",
    # Documented in docs/lint.md.
    "sanitizing",
    # The one writer of the .json format that `repro lint`, `repro analyze`
    # and `repro policy replay --against` read.
    "save_model",
    # The public tracer accessor, which benchmarks/test_bench_obs.py uses.
    "current_tracer",
}


def _definitions_and_uses() -> tuple[dict[str, str], set[str]]:
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    defined.setdefault(name, f"{path.relative_to(SRC)}:{node.lineno}")
        reexports = path.name == "__init__.py"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and not reexports:
                used.update(alias.name for alias in node.names)
    return defined, used


def test_every_library_name_is_reached():
    defined, used = _definitions_and_uses()
    unreached = sorted(
        f"{where} {name}"
        for name, where in defined.items()
        if name not in used and name not in ALLOWED
    )
    assert unreached == [], (
        "nothing in src/repro reaches these names; delete them, or move them "
        "into tests/ if a test or benchmark needs them"
    )
    stale = sorted(name for name in ALLOWED if name not in defined or name in used)
    assert stale == [], "drop these names from ALLOWED: they are gone or now reached"
