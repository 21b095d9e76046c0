"""Object lifetime: keep the built machine free of reference cycles.

A :class:`~repro.system.builder.System` is freed by reference counting
the moment its last user drops it, so the cyclic garbage collector
never has to find it.  Parts that need their owning system back hold it
through a :class:`WeakAttribute`; :func:`gc_paused` is safe around work
that makes no cyclic garbage.
"""

from __future__ import annotations

import functools
import gc
import weakref
from typing import Callable, TypeVar

_T = TypeVar("_T")


def gc_paused(function: Callable[..., _T]) -> Callable[..., _T]:
    """Run ``function`` with cyclic garbage collection paused.

    For work that allocates many long-lived objects and no cyclic
    garbage: a workload generator building its acyclic Ops, and
    :meth:`System.simulate <repro.system.builder.System.simulate>`.  A
    collector pass there would only re-traverse live objects.
    """
    @functools.wraps(function)
    def paused(*args, **kwargs) -> _T:
        enabled = gc.isenabled()
        gc.disable()
        try:
            return function(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


class WeakAttribute:
    """An instance attribute that refers to its value weakly.

    Reads return the value, or ``None`` once it has been freed (or was
    never set); assigning ``None`` clears it.
    """

    def __set_name__(self, owner: type, name: str) -> None:
        self._key = f"_{name}_ref"

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        ref = instance.__dict__.get(self._key)
        return ref() if ref is not None else None

    def __set__(self, instance, value) -> None:
        instance.__dict__[self._key] = \
            weakref.ref(value) if value is not None else None
