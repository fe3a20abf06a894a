"""The one owner of every cached table in the package.

``memo`` keys a function's results on its arguments, defaults filled in.  A
function whose first parameter is ``self`` keeps its table on that argument
(a method on its instance, ``czform._kernel_matrix`` on its kernel), so the
table goes with it; any other function's table lives for the process, until
``clear()``.  Callers share the values, so every array in one is read-only.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect

import numpy as np
from scipy import sparse

_COUNTS: dict[str, list[int]] = {}  # table name -> [hits, misses]
_SHARED: list[dict] = []  # the process-wide tables


def _freeze(value):
    """``value``, with every array in it made read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif sparse.issparse(value):
        _freeze([value.data, value.indices, value.indptr])
    elif dataclasses.is_dataclass(value):
        _freeze([getattr(value, field.name) for field in dataclasses.fields(value)])
    elif isinstance(value, (tuple, list)):
        for item in value:
            _freeze(item)
    return value


def memo(fn):
    """``fn`` with its results cached in the table ``module.qualname``."""
    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
    signature = inspect.signature(fn)
    nargs = len(signature.parameters)
    per_object = next(iter(signature.parameters)) == "self"
    shared = {}
    if not per_object:
        _SHARED.append(shared)
    counts = _COUNTS[name] = [0, 0]

    @functools.wraps(fn)
    def cached(*args, **kwargs):
        if kwargs or len(args) != nargs:  # fill in the defaults
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            args = bound.args
        if per_object:
            table, key = vars(args[0]).get(name), args[1:]
            if table is None:
                table = vars(args[0])[name] = {}
        else:
            table, key = shared, args
        try:
            value = table[key]
        except KeyError:
            pass  # a miss, built below so that its errors carry no KeyError
        else:
            counts[0] += 1
            return value
        counts[1] += 1
        value = table[key] = _freeze(fn(*args))
        return value

    return cached


def counts() -> dict[str, tuple[int, int]]:
    """(hits, misses) of every table since the last ``clear()``."""
    return {name: tuple(pair) for name, pair in _COUNTS.items()}


def clear() -> None:
    """Empty every process-wide table and zero every count."""
    for table in _SHARED:
        table.clear()
    for pair in _COUNTS.values():
        pair[:] = [0, 0]
