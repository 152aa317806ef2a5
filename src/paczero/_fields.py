"""One field contract: every field of ``TrainConfig``, ``MechanismSpec`` and
the task constructors is declared once, as ``name: Annotated[kind, *ranges]
= default``, its kind ``int``, ``float``, ``bool`` or ``str`` (with ``| None``
where it may be unset) and each range a (says, holds) pair."""

import functools
import inspect
import math
import sys
import typing

POSITIVE = ("positive", lambda v: v > 0)
NONNEGATIVE = ("nonnegative", lambda v: v >= 0)
EVEN = ("even", lambda v: v % 2 == 0)
FINITE = ("a finite number", math.isfinite)
_KIND_NAMES = {int: "integers", float: "a number", bool: "a boolean", str: "a string",
               type(None): "null"}


def at_least(low) -> tuple:
    return f">= {low}", lambda v: v >= low


def at_most(high) -> tuple:
    return f"<= {high}", lambda v: v <= high


def one_of(values: tuple) -> tuple:
    return f"one of {list(values)}", lambda v: v in values


def _fits(kind: type, value) -> bool:
    if kind is float:  # a float, or an int that does not overflow where it is used
        return isinstance(value, float) or type(value) is int and abs(value) <= sys.float_info.max
    return type(value) is kind  # no bool passes as an int


@functools.cache
def fields(cls: type) -> dict[str, tuple]:
    """Each field of ``cls`` in declaration order: name -> (kinds, ranges, default)."""
    table = {}
    for name, param in inspect.signature(cls, eval_str=True).parameters.items():
        hint = param.annotation
        annotated = typing.get_origin(hint) is typing.Annotated
        kind, *ranges = typing.get_args(hint) if annotated else (hint,)
        table[name] = (typing.get_args(kind) or (kind,), ranges, param.default)
    return table


def check(cls: type, values: dict) -> None:
    """Raise ValueError, ``<field> must be <what>, got <value>``, for the first
    field of ``cls`` whose value (or default) in ``values`` is of none of its
    kinds or out of range; a key that is no field is left to ``cls`` itself."""
    for name, (kinds, ranges, default) in fields(cls).items():
        value = values.get(name, default)
        if type(value) not in kinds and not any(_fits(kind, value) for kind in kinds):
            kind_names = " or ".join(map(_KIND_NAMES.get, kinds))
            raise ValueError(f"{name} must be {kind_names}, got {value!r}")
        for says, holds in ranges if value is not None else ():
            if not holds(value):
                raise ValueError(f"{name} must be {says}, got {value!r}")
