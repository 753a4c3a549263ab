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
stay JSON numbers.

Verdict rule (VerificationReport.check): a report encodes both sides and
passes iff the two encodings are equal.  Each type's encoding is
canonical, so for two values of one type that is exact equality; across
types an int equals its decimal string and a tuple the list of its items,
which lets a pin state its expectation in the simplest form.  No other
code builds a report or decides passed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys and no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def encode(value) -> Any:
    """The canonical JSON encoding of a value; see the module docstring."""
    if isinstance(value, (str, bool)):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    return value.to_json()


@dataclass(frozen=True)
class VerificationReport:
    """One verified instance of an identity.

    identity: enum-like tag naming what was checked.
    variant:  "literal" or "corrected" for the adjudicated identities,
              "n/a" elsewhere.
    params:   the instance parameters (small integers, plus a kind string
              for the triangle-vs-oracle checks).
    lhs/rhs:  the encodings of both sides.
    passed:   whether the two encodings are equal.
    """

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
            identity=data["identity"],
            variant=data["variant"],
            params=dict(data["params"]),
            lhs=data["lhs"],
            rhs=data["rhs"],
            passed=data["passed"],
        )

    def to_json_line(self) -> str:
        return dumps(self.to_json())
