"""One declaration per knob: a config field states its domain once.

A tunable field of a config class is declared with :func:`knob`: the
values it accepts (its :class:`Domain`) and, where a flag restates it,
the flag's help. Derived from it: validation (:func:`knobs`: one loop,
one message, ``<field> must be <domain>: <value>``, before the class's
``__post_init__``, left with the rules relating two fields), the flags
of :mod:`repro.cli`, and the refusal tests. ``None`` passes only where
the annotation is ``Optional``; a ``bool`` is no number here. The
module imports nothing from the repo.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
from typing import Any, Callable, NamedTuple, Optional, Tuple


class Domain(NamedTuple):
    """The values one knob accepts, and the words that name them."""

    text: str
    admits: Callable[[Any], bool]
    options: Optional[Tuple[str, ...]] = None  # a choice's values


# Chained comparisons, so NaN fails each of them (``nan < 0`` and
# ``nan >= 0`` are both false); a value of the wrong type or shape
# makes them raise, which the loop reads as "not in the domain".
NON_NEGATIVE = Domain("finite and non-negative", lambda v: 0 <= v < math.inf)
POSITIVE = Domain("finite and positive", lambda v: 0 < v < math.inf)
FRACTION = Domain("in [0, 1]", lambda v: 0 <= v <= 1)
AT_LEAST_ONE = Domain("finite and >= 1", lambda v: 1 <= v < math.inf)


def integer(low: int) -> Domain:
    return Domain(f"an integer >= {low}", lambda v: type(v) is int and v >= low)


def choices(*options: str) -> Domain:
    return Domain(f"one of {list(options)}", options.__contains__, options)


def _weights(mix) -> bool:
    weights = [weight for _, weight in mix]
    return all(0 <= w < math.inf for w in weights) and abs(sum(weights) - 1) <= 1e-6


#: A user mix: ``(name, weight)`` pairs, every weight a probability.
WEIGHTS = Domain("weights that are finite, >= 0 and sum to 1", _weights)


def knob(default=dataclasses.MISSING, domain=None, **metadata):
    """One config field with its domain. ``metadata``: a flag's ``help``
    (and its ``flag``, ``metavar`` where the field's name does not give
    them) and what the class's rules read (``read_by``, ``scaled``)."""
    metadata["domain"] = domain
    return dataclasses.field(default=default, metadata=metadata)


def knobs(cls):
    """Check every knob ``cls``'s body declares, on each instance,
    before its own (or inherited) ``__post_init__``, and on every
    assignment when the class is not frozen. Class creation fails when
    a number field (``int`` or ``float``, ``Optional`` or not) declares
    no domain, as a ``RunResult`` field must a rule.

    The rules relating two fields run at construction only: a sequence
    of related assignments may pass through an invalid pair.
    """
    declared = {}
    for name, annotation in inspect.get_annotations(cls).items():
        if not isinstance(annotation, str):
            annotation = inspect.formatannotation(annotation)
        optional = annotation.startswith("Optional[")
        declaration = vars(cls).get(name)
        is_knob = isinstance(declaration, dataclasses.Field)
        domain = declaration.metadata.get("domain") if is_knob else None
        if domain is not None:
            declared[name] = (domain, optional)
        elif annotation.removeprefix("Optional[").rstrip("]") in ("int", "float"):
            raise TypeError(
                f"{cls.__name__}.{name} is a number with no domain: "
                f"declare it with knob(default, domain)"
            )
    # The rules relating two fields: the class's own, or those it inherits.
    owners = [base for base in cls.__mro__ if "__post_init__" in vars(base)]
    rules = vars(owners[0])["__post_init__"] if owners else None

    def check(name: str, value) -> None:
        domain, optional = declared[name]
        if value is None and optional:
            return
        try:
            admitted = domain.admits(value)
        except (TypeError, ValueError):  # not even the right shape
            admitted = False
        if not admitted:
            raise ValueError(f"{name} must be {domain.text}: {value!r}")

    def __setattr__(self, name: str, value) -> None:
        if name in declared:
            check(name, value)
        object.__setattr__(self, name, value)

    def __post_init__(self) -> None:
        for name in declared:
            check(name, getattr(self, name))
        if rules is not None:
            rules(self)
        # ``@dataclass`` runs after this decorator (its ``__init__``
        # must see ``__post_init__``), and a frozen one refuses a class
        # that defines ``__setattr__``: whether the class is frozen is
        # known from its first instance on.
        if "__setattr__" not in vars(cls) and not cls.__dataclass_params__.frozen:
            cls.__setattr__ = __setattr__

    cls.__post_init__ = __post_init__
    return cls
