"""The AST self-lint behind ``repro lint --self`` (``Txxx`` codes).

Two passes over the Python sources of the package itself:

1. **Collection** builds a whole-program class table: for every class,
   its ``_guarded_by`` declaration (read straight out of the class body
   — the analyzed modules are *never* imported), the lock attributes it
   assigns, the classes its instance attributes are constructed from,
   and which of its methods acquire which of its locks.
2. **Checking** walks every function with a flow context of currently
   held locks (entered ``with R.<lock>`` blocks) and emits:

   * ``T001`` — read/write of a guarded attribute without holding the
     declared lock;
   * ``T002`` — a lock acquired while another lock is held: a nested
     ``with R.<lock>``, or a call to a resolved method that takes a lock
     (``with self._lock: self.count()`` relocks a non-reentrant lock).
     Code that never nests locks cannot form a lock-order cycle, so the
     rule needs no whole-program graph;
   * ``T003`` — a lock-valued attribute on a class whose ``_guarded_by``
     declaration does not name it;
   * ``T004`` — bare ``==``/``!=`` against a non-integral float
     literal (integral sentinels like ``t == 0.0`` are fine — they are
     exact in binary floating point and used deliberately);
   * ``T005`` — a builtin ``sum()`` whose argument mentions rates:
     accumulation order changes the result in floating point, which is
     exactly the drift ``P006`` exists to catch downstream.  Use
     ``math.fsum`` (order-independent, correctly rounded) or the
     quantizing :func:`repro.bisim.signatures.stable_rate_sum`.

A class declares its lock discipline as data::

    class ModelRegistry:
        _guarded_by = {"_lock": ("_memory",)}

Declarations are inherited (``EngineMetrics(MetricStore)`` needs no
re-declaration) and a subclass may extend its parent's.

``repro/bisim/signatures.py`` is exempt from T004/T005: it *is* the
sanctioned home of float comparison and rate summation policy.

Escape hatch: a trailing ``# tsan: ignore[T001]`` (or a blanket
``# tsan: ignore``) suppresses findings on that line.

The analysis is deliberately syntactic and conservative in what it
*claims*: receivers are resolved only through ``self``, annotated
parameters, ``self.x = ClassName(...)`` constructor assignments and
local ``x = ClassName(...)`` bindings; anything unresolved is skipped,
never guessed.  That keeps the pass fast (<1 s over the tree) and
false-positive-free at the cost of not chasing aliases.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.diagnostics import Diagnostic, LintReport, make_diagnostic

__all__ = ["lint_self", "lint_source", "source_root"]

#: Modules (by ``/``-normalised suffix) exempt from the numeric idiom
#: rules T004/T005 — the one place float policy is allowed to live.
NUMERIC_EXEMPT_SUFFIXES: tuple[str, ...] = ("repro/bisim/signatures.py",)

#: Class attribute declaring ``{lock attribute: (guarded attributes, ...)}``.
GUARDS_ATTR = "_guarded_by"

#: Methods where unguarded ``self`` access is fine: the instance is not
#: yet (or no longer) reachable from other threads.
_EXEMPT_METHODS = frozenset({"__init__", "__post_init__", "__new__", "__del__"})

#: Call targets (final name segment) whose result is a lock.
_LOCK_FACTORIES = frozenset({"Lock", "RLock"})

#: Final attribute-name fragments that mark a ``with`` target as a lock
#: acquisition even when the receiver's class cannot be resolved.
_LOCKISH_FRAGMENTS = ("lock", "mutex")

_IGNORE_RE = re.compile(r"#\s*tsan:\s*ignore(?:\[([A-Z0-9,\s]+)\])?")
_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def source_root() -> Path:
    """The ``src/`` directory containing the installed ``repro`` package."""
    return Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# Pass 1: collection
# ---------------------------------------------------------------------------


@dataclass
class _ClassInfo:
    """Everything the checker needs to know about one class."""

    name: str
    bases: tuple[str, ...] = ()
    #: lock attribute -> guarded attribute names (from ``_guarded_by``).
    guards: dict[str, set[str]] = field(default_factory=dict)
    #: attributes assigned a lock-valued expression anywhere in the class.
    lock_attrs: set[str] = field(default_factory=set)
    #: instance attribute -> name of the class it is constructed from.
    attr_types: dict[str, str] = field(default_factory=dict)
    #: method name -> lock attributes it acquires via ``with self.<lock>``.
    method_acquires: dict[str, set[str]] = field(default_factory=dict)
    #: lock attribute -> line where it is first assigned (for T003).
    lock_lines: dict[str, int] = field(default_factory=dict)

    def guard_for(self, attr: str) -> str | None:
        """The lock attribute guarding ``attr``, if declared."""
        for lock_attr, attrs in self.guards.items():
            if attr in attrs:
                return lock_attr
        return None

    def lock_names(self) -> set[str]:
        return set(self.guards) | self.lock_attrs

    def absorb(self, other: _ClassInfo) -> None:
        """Union ``other``'s declarations into this class (never the reverse)."""
        for lock_attr, attrs in other.guards.items():
            self.guards.setdefault(lock_attr, set()).update(attrs)
        self.lock_attrs |= other.lock_attrs
        for attr, type_name in other.attr_types.items():
            self.attr_types.setdefault(attr, type_name)
        for method, acquired in other.method_acquires.items():
            self.method_acquires.setdefault(method, set()).update(acquired)


def _final_name(node: ast.expr) -> str | None:
    """The last identifier of a ``Name``/``Attribute`` chain, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _declared_guards(node: ast.ClassDef) -> dict[str, set[str]]:
    """The literal ``_guarded_by`` map assigned in the class body.

    Entries that are not a string mapped to a tuple of strings are
    ignored, so a malformed declaration (say ``("_records")``, a bare
    string) surfaces as T003.
    """
    guards: dict[str, set[str]] = {}
    for item in node.body:
        if not (
            isinstance(item, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == GUARDS_ATTR for t in item.targets)
        ):
            continue
        try:
            declared = ast.literal_eval(item.value)
        except (ValueError, TypeError):
            continue
        if not isinstance(declared, dict):
            continue
        for lock_attr, attrs in declared.items():
            if (
                isinstance(lock_attr, str)
                and isinstance(attrs, tuple)
                and all(isinstance(attr, str) for attr in attrs)
            ):
                guards.setdefault(lock_attr, set()).update(attrs)
    return guards


def _collect_class(node: ast.ClassDef) -> _ClassInfo:
    info = _ClassInfo(
        name=node.name,
        bases=tuple(b for b in (_final_name(base) for base in node.bases) if b),
        guards=_declared_guards(node),
    )
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _scan_method_for_collection(item, info)
    return info


def _scan_method_for_collection(method: ast.FunctionDef | ast.AsyncFunctionDef,
                                info: _ClassInfo) -> None:
    for node in ast.walk(method):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            callee = _final_name(node.value.func)
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    if callee in _LOCK_FACTORIES:
                        info.lock_attrs.add(target.attr)
                        info.lock_lines.setdefault(target.attr, node.lineno)
                    elif callee:
                        info.attr_types.setdefault(target.attr, callee)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                expr = item.context_expr
                if (
                    isinstance(expr, ast.Attribute)
                    and isinstance(expr.value, ast.Name)
                    and expr.value.id == "self"
                    and _looks_like_lock(expr.attr)
                ):
                    info.method_acquires.setdefault(method.name, set()).add(expr.attr)


def _looks_like_lock(name: str) -> bool:
    lowered = name.lower()
    return any(fragment in lowered for fragment in _LOCKISH_FRAGMENTS)


def _merge_inherited(table: dict[str, _ClassInfo]) -> None:
    """Fold base-class declarations into subclasses (chains up to depth 3)."""
    for _ in range(3):
        for info in table.values():
            for base_name in info.bases:
                base = table.get(base_name)
                if base is not None and base is not info:
                    info.absorb(base)


# ---------------------------------------------------------------------------
# Pass 2: checking
# ---------------------------------------------------------------------------


class _FileChecker:
    """Checks one parsed module against the whole-program class table."""

    def __init__(
        self,
        tree: ast.Module,
        lines: Sequence[str],
        relpath: str,
        table: dict[str, _ClassInfo],
    ) -> None:
        self.tree = tree
        self.lines = lines
        self.relpath = relpath
        self.table = table
        self.numeric_exempt = any(
            relpath.replace("\\", "/").endswith(suffix)
            for suffix in NUMERIC_EXEMPT_SUFFIXES
        )
        self.diagnostics: list[Diagnostic] = []

    # -- reporting ----------------------------------------------------

    def _suppressed(self, lineno: int, code: str) -> bool:
        if not 1 <= lineno <= len(self.lines):
            return False
        match = _IGNORE_RE.search(self.lines[lineno - 1])
        if match is None:
            return False
        listed = match.group(1)
        if listed is None:
            return True
        return code in {part.strip() for part in listed.split(",")}

    def _report(self, code: str, lineno: int, message: str) -> None:
        if self._suppressed(lineno, code):
            return
        self.diagnostics.append(
            make_diagnostic(code, message, location=f"{self.relpath}:{lineno}")
        )

    # -- entry --------------------------------------------------------

    def run(self) -> None:
        self._check_module_body(self.tree.body, classinfo=None)
        self._check_lock_declarations()

    def _check_lock_declarations(self) -> None:
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            info = self.table.get(node.name)
            if info is None:
                continue
            for lock_attr in sorted(info.lock_attrs):
                if lock_attr not in info.guards:
                    self._report(
                        "T003",
                        info.lock_lines.get(lock_attr, node.lineno),
                        f"{info.name}.{lock_attr} holds a lock but no "
                        f"{GUARDS_ATTR} entry declares what it guards",
                    )

    def _check_module_body(self, body: Iterable[ast.stmt],
                           classinfo: _ClassInfo | None) -> None:
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                info = self.table.get(stmt.name)
                self._check_module_body(stmt.body, classinfo=info)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_function(stmt, classinfo)
            else:
                ctx = _Context(classinfo=None, funcname="<module>", env={},
                               exempt_self=False)
                self._scan(stmt, ctx)

    # -- per-function analysis ----------------------------------------

    def _check_function(self, func: ast.FunctionDef | ast.AsyncFunctionDef,
                        classinfo: _ClassInfo | None,
                        inherited: "_Context | None" = None) -> None:
        env = self._build_env(func, classinfo)
        exempt = func.name in _EXEMPT_METHODS
        if inherited is not None:
            env = {**inherited.env, **env}
            exempt = exempt or inherited.exempt_self
        ctx = _Context(
            classinfo=classinfo,
            funcname=func.name,
            env=env,
            exempt_self=exempt,
        )
        for stmt in func.body:
            self._scan(stmt, ctx)

    def _build_env(self, func: ast.FunctionDef | ast.AsyncFunctionDef,
                   classinfo: _ClassInfo | None) -> dict[str, str]:
        env: dict[str, str] = {}
        args = func.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            resolved = self._annotation_class(arg.annotation)
            if resolved:
                env[arg.arg] = resolved
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                callee = _final_name(node.value.func)
                if callee in self.table:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            env.setdefault(target.id, callee)
        return env

    def _annotation_class(self, annotation: ast.expr | None) -> str | None:
        if annotation is None:
            return None
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            text = annotation.value
        else:
            try:
                text = ast.unparse(annotation)
            except Exception:  # pragma: no cover - malformed annotation
                return None
        for word in _WORD_RE.findall(text):
            if word in self.table:
                return word
        return None

    def _resolve(self, node: ast.expr, ctx: "_Context") -> _ClassInfo | None:
        """Resolve a receiver expression to a class, or ``None``."""
        if isinstance(node, ast.Name):
            if node.id == "self" and ctx.classinfo is not None:
                return ctx.classinfo
            name = ctx.env.get(node.id)
            return self.table.get(name) if name else None
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and ctx.classinfo is not None
        ):
            name = ctx.classinfo.attr_types.get(node.attr)
            return self.table.get(name) if name else None
        return None

    def _scan(self, node: ast.AST, ctx: "_Context") -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            self._scan_with(node, ctx)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested function: fresh flow context (it may run later, when
            # the enclosing locks are no longer held), same class scope.
            # The __init__ exemption does carry over — a closure is part
            # of the method's body.
            self._check_function(node, ctx.classinfo, inherited=ctx)
            return
        if isinstance(node, ast.ClassDef):
            self._check_module_body(node.body, classinfo=self.table.get(node.name))
            return
        if isinstance(node, ast.Attribute):
            self._check_attribute(node, ctx)
        elif isinstance(node, ast.Call):
            self._check_call(node, ctx)
        elif isinstance(node, ast.Compare):
            self._check_compare(node)
        for child in ast.iter_child_nodes(node):
            self._scan(child, ctx)

    def _scan_with(self, node: ast.With | ast.AsyncWith, ctx: "_Context") -> None:
        acquired: list[tuple[str, str]] = []
        for item in node.items:
            expr = item.context_expr
            self._scan(expr, ctx)
            if item.optional_vars is not None:
                self._scan(item.optional_vars, ctx)
            entry = self._lock_acquisition(expr, ctx)
            if entry is None:
                continue
            key, name = entry
            self._check_nesting(name, expr.lineno, ctx)
            ctx.held[key] = name
            acquired.append(key)
        for stmt in node.body:
            self._scan(stmt, ctx)
        for key in acquired:
            ctx.held.pop(key, None)

    def _lock_acquisition(self, expr: ast.expr,
                          ctx: "_Context") -> tuple[tuple[str, str], str] | None:
        """Classify a with-item as a lock acquisition.

        Returns ``((receiver_key, lock_attr), display_name)``, where the
        display name is ``Class.lock`` when the receiver resolves.
        """
        if isinstance(expr, ast.Attribute):
            final = expr.attr
            resolved = self._resolve(expr.value, ctx)
            receiver = _unparse(expr.value)
            if resolved is not None and final in resolved.lock_names():
                return (receiver, final), f"{resolved.name}.{final}"
            if _looks_like_lock(final):
                return (receiver, final), f"{receiver}.{final}"
        elif isinstance(expr, ast.Name) and _looks_like_lock(expr.id):
            return ("", expr.id), expr.id
        return None

    # -- T002 ---------------------------------------------------------

    def _check_nesting(self, acquiring: str, lineno: int, ctx: "_Context") -> None:
        if not ctx.held:
            return
        self._report(
            "T002",
            lineno,
            f"nested lock acquisition (potential deadlock): {acquiring} "
            f"acquired while holding {', '.join(ctx.held.values())} "
            f"(in {ctx.funcname})",
        )

    # -- T001 ---------------------------------------------------------

    def _held(self, receiver: ast.expr, lock_attr: str, ctx: "_Context") -> bool:
        if ctx.exempt_self and isinstance(receiver, ast.Name) and receiver.id == "self":
            return True
        return (_unparse(receiver), lock_attr) in ctx.held

    def _check_attribute(self, node: ast.Attribute, ctx: "_Context") -> None:
        resolved = self._resolve(node.value, ctx)
        if resolved is None:
            return
        lock_attr = resolved.guard_for(node.attr)
        if lock_attr is None:
            return
        if self._held(node.value, lock_attr, ctx):
            return
        access = "written" if isinstance(node.ctx, (ast.Store, ast.Del)) else "read"
        self._report(
            "T001",
            node.lineno,
            f"{resolved.name}.{node.attr} is guarded by "
            f"{resolved.name}.{lock_attr} but {access} without holding it "
            f"(in {ctx.funcname})",
        )

    def _check_call(self, node: ast.Call, ctx: "_Context") -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and ctx.held:
            # Call-through: the callee takes its own locks while we hold ours.
            resolved = self._resolve(func.value, ctx)
            if resolved is not None:
                for lock_attr in sorted(resolved.method_acquires.get(func.attr, ())):
                    self._check_nesting(
                        f"{resolved.name}.{lock_attr} (via {func.attr}())",
                        node.lineno,
                        ctx,
                    )
        if (
            not self.numeric_exempt
            and isinstance(func, ast.Name)
            and func.id == "sum"
            and node.args
            and _mentions_rates(node.args[0])
        ):
            self._report(
                "T005",
                node.lineno,
                f"order-dependent builtin sum() over rates: "
                f"`{_unparse(node)[:80]}` -- use math.fsum or "
                f"repro.bisim.signatures.stable_rate_sum",
            )

    def _check_compare(self, node: ast.Compare) -> None:
        if self.numeric_exempt:
            return
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            return
        for operand in (node.left, *node.comparators):
            if (
                isinstance(operand, ast.Constant)
                and isinstance(operand.value, float)
                and not operand.value.is_integer()
            ):
                self._report(
                    "T004",
                    node.lineno,
                    f"bare float equality against {operand.value!r}: "
                    f"`{_unparse(node)[:80]}` -- compare quantized values "
                    f"(repro.bisim.signatures) or use an explicit tolerance",
                )
                return


@dataclass
class _Context:
    """Flow state while scanning one function body."""

    classinfo: _ClassInfo | None
    funcname: str
    env: dict[str, str]
    exempt_self: bool
    #: (receiver, lock attribute) -> display name, in acquisition order.
    held: dict[tuple[str, str], str] = field(default_factory=dict)


def _unparse(node: ast.expr) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - defensive
        return "<expr>"


def _mentions_rates(node: ast.expr) -> bool:
    """True when the expression mentions a rate-named identifier.

    Matching is token-wise on underscore-split identifier parts
    (``total_rate`` and ``rates`` match; ``generated`` does not).
    """
    for sub in ast.walk(node):
        name: str | None = None
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        elif isinstance(sub, ast.arg):
            name = sub.arg
        if name is None:
            continue
        tokens = name.lower().split("_")
        if "rate" in tokens or "rates" in tokens:
            return True
    return False


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def lint_source(
    paths: Sequence[Path],
    root: Path | None = None,
) -> list[Diagnostic]:
    """Run the concurrency/numeric self-lint over ``paths``.

    ``root`` anchors the relative paths used in diagnostic locations;
    files outside it fall back to their base name.  All files share one
    class table, so declarations in one module are visible while
    checking another.

    Raises
    ------
    OSError
        When a file cannot be read.
    SyntaxError
        When a file is not valid Python.
    """
    parsed: list[tuple[str, ast.Module, list[str]]] = []
    table: dict[str, _ClassInfo] = {}
    for path in sorted(paths):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        parsed.append((_relative_name(path, root), tree, source.splitlines()))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                info = _collect_class(node)
                existing = table.get(info.name)
                if existing is None:
                    table[info.name] = info
                else:
                    # Same-named classes in different modules: union them.
                    existing.absorb(info)
    _merge_inherited(table)

    diagnostics: list[Diagnostic] = []
    for relpath, tree, lines in parsed:
        checker = _FileChecker(tree, lines, relpath, table)
        checker.run()
        diagnostics.extend(checker.diagnostics)
    return diagnostics


def lint_self(root: Path | None = None) -> LintReport:
    """Lint the installed ``repro`` package tree itself."""
    base = root if root is not None else source_root()
    files = sorted(
        path
        for path in (base / "repro").rglob("*.py")
        if "__pycache__" not in path.parts
    )
    report = LintReport(target=f"{base / 'repro'} (self)", kind="python")
    report.extend(lint_source(files, root=base))
    return report


def _relative_name(path: Path, root: Path | None) -> str:
    if root is not None:
        try:
            return path.resolve().relative_to(Path(root).resolve()).as_posix()
        except ValueError:
            pass
    return path.name
