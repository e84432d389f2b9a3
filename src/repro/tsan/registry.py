"""Declared lock discipline: which lock guards which attributes.

The contract is deliberately *declarative*.  A class that owns a
``threading.Lock`` states, once, next to its definition::

    @guarded_by("_lock", "_records")
    class SpanLog:
        ...

and the declaration is consumed twice:

* at runtime, :func:`guards_of` lets the sanitizer associate observed
  acquisitions with the attributes they protect;
* statically, :mod:`repro.tsan.static` reads the *decorator call
  itself* out of the AST (no import of the decorated module is ever
  needed), so the self-lint works on broken trees too.

Methods that intentionally touch guarded state without taking the lock
— because their documented contract is "caller must hold the lock"
(e.g. ``MetricStore.as_dict_unlocked``) — are marked
``@holds_lock("_lock")``.  The static pass then treats the lock as held
for the whole method body, and charges the *callers* with acquiring it.

Declarations are additive across decorators and inherited by
subclasses (``EngineMetrics(MetricStore)`` needs no re-declaration).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any, TypeVar

_T = TypeVar("_T")

#: Class attribute holding the accumulated ``{lock_attr: frozenset(attrs)}``
#: mapping.  Name is part of the static-analysis contract — the AST pass
#: looks for the decorator by name, and tests look for this attribute.
GUARDS_ATTR = "__tsan_guards__"

#: Function attribute naming the lock a method assumes its caller holds.
HOLDS_ATTR = "__tsan_holds__"


def guarded_by(lock_attr: str, *attrs: str) -> Callable[[type[_T]], type[_T]]:
    """Declare that ``self.<lock_attr>`` guards each of ``self.<attr>``.

    ``lock_attr`` must name the attribute the lock is stored under
    (conventionally ``"_lock"``); ``attrs`` are the guarded attribute
    names.  Multiple decorations merge, so a class with two locks reads::

        @guarded_by("_lock", "_records")
        @guarded_by("_meta_lock", "_labels")
        class SpanLog: ...
    """
    if not attrs:
        raise ValueError("guarded_by() needs at least one guarded attribute")
    for name in (lock_attr, *attrs):
        if not isinstance(name, str) or not name.isidentifier():
            raise ValueError(f"guarded_by() arguments must be identifiers, got {name!r}")

    def decorate(cls: type[_T]) -> type[_T]:
        # Copy rather than mutate: the attribute may be inherited, and a
        # subclass extending the discipline must not edit its parent's map.
        merged: dict[str, frozenset[str]] = dict(getattr(cls, GUARDS_ATTR, {}))
        merged[lock_attr] = merged.get(lock_attr, frozenset()) | frozenset(attrs)
        setattr(cls, GUARDS_ATTR, merged)
        return cls

    return decorate


def holds_lock(lock_attr: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Mark a method whose contract is "caller already holds ``self.<lock_attr>``".

    The decorator is metadata only — it does not wrap or check anything
    at runtime (the runtime sanitizer verifies the promise separately
    when ``REPRO_SANITIZE`` is on, via the monitor's held-stack).
    """
    if not isinstance(lock_attr, str) or not lock_attr.isidentifier():
        raise ValueError(f"holds_lock() argument must be an identifier, got {lock_attr!r}")

    def decorate(func: Callable[..., Any]) -> Callable[..., Any]:
        setattr(func, HOLDS_ATTR, lock_attr)
        return func

    return decorate


def guards_of(cls: type) -> dict[str, frozenset[str]]:
    """Return the ``{lock_attr: guarded attrs}`` map for *cls* (inherited included)."""
    return dict(getattr(cls, GUARDS_ATTR, {}))


def held_by_caller(method: Callable[..., Any]) -> str | None:
    """Return the lock attribute a ``@holds_lock`` method assumes, else ``None``."""
    return getattr(method, HOLDS_ATTR, None)
