"""Outcome records for identity verification, and the one encoding rule.

A VerificationReport carries both sides of a checked identity verbatim in
their canonical JSON encodings, so a failing report is direct evidence:
the reader can see exactly which polynomials or integers disagreed, not
just a boolean.

Encoding rule (encode): an int becomes its decimal string, so no value is
truncated to 64 bits; a str or a bool stays as it is, and True never
becomes "1"; a list or tuple becomes a list of encoded items; anything
else (QPoly, XQPoly, NormalForm) becomes its to_json().  Every computed
value that a command or a report writes goes through this rule; params
stay JSON numbers.  cell_json writes the same JSON text for an int or
QPoly triangle cell directly, with no list of strings in between, so a
triangle can be written cell by cell.

Verdict rule (VerificationReport.check): a report encodes both sides and
passes iff the two encodings are equal.  Each type's encoding is
canonical, so for two values of one type that is exact equality; across
types an int equals its decimal string and a tuple the list of its items,
which lets a pin state its expectation in the simplest form.  No other
code builds a report or decides passed.

dumps writes all JSON text through one module-level encoder with sorted
keys and no whitespace, the text json.dumps gives with those options,
without building an encoder per call.  VerificationReport and the opexpr
AST nodes are Records: plain __slots__ classes that are immutable, equal
field by field within one class, and repr and pickle like frozen
dataclasses, so importing them loads no dataclasses module.
"""

from __future__ import annotations

import json
from typing import Any

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys and no whitespace."""
    return _ENCODER.encode(obj)


def encode(value) -> Any:
    """The canonical JSON encoding of a value; see the module docstring."""
    if isinstance(value, (str, bool)):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    return value.to_json()


def cell_json(cell) -> str:
    """dumps(encode(cell)) for an int or QPoly cell, written directly."""
    if isinstance(cell, int):
        return f'"{cell}"'
    return '["' + '","'.join(map(str, cell.coeffs)) + '"]' if cell.coeffs else "[]"


class Record:
    """An immutable record whose fields are its __slots__, given in order.

    Two records are equal iff they are of the same class and their fields
    are equal; the repr is Class(field=value, ...).  Pickling goes through
    __reduce__ (the constructor and the field values), since the default
    protocol would restore the fields through the refusing __setattr__.
    """

    __slots__ = ()

    def __init__(self, *values) -> None:
        if len(values) != len(self.__slots__):
            raise TypeError(
                f"{type(self).__name__} takes {len(self.__slots__)} fields, "
                f"got {len(values)}"
            )
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class VerificationReport(Record):
    """One verified instance of an identity.

    identity: enum-like tag naming what was checked.
    variant:  "literal" or "corrected" for the adjudicated identities,
              "n/a" elsewhere.
    params:   the instance parameters (small integers, plus a kind string
              for the triangle-vs-oracle checks).
    lhs/rhs:  the encodings of both sides.
    passed:   whether the two encodings are equal.
    """

    __slots__ = ("identity", "variant", "params", "lhs", "rhs", "passed")
    identity: str
    variant: str
    params: dict
    lhs: Any
    rhs: Any
    passed: bool

    @classmethod
    def check(
        cls, identity: str, variant: str, params: dict, lhs, rhs
    ) -> "VerificationReport":
        """The report on lhs against rhs: both encoded, passed iff equal."""
        lhs, rhs = encode(lhs), encode(rhs)
        return cls(identity, variant, params, lhs, rhs, lhs == rhs)

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "variant": self.variant,
            "params": dict(self.params),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "passed": self.passed,
        }

    @classmethod
    def from_json(cls, data: dict) -> "VerificationReport":
        # bool() would read the string "false" as True
        if not isinstance(data["passed"], bool):
            raise TypeError(f"passed must be a JSON bool, got {data['passed']!r}")
        return cls(
            data["identity"],
            data["variant"],
            dict(data["params"]),
            data["lhs"],
            data["rhs"],
            data["passed"],
        )

    def to_json_line(self) -> str:
        return dumps(self.to_json())
