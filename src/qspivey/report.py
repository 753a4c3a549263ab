"""Outcome records for identity verification.

A VerificationReport carries both sides of a checked identity verbatim in
their canonical JSON encodings, so a failing report is direct evidence:
the reader can see exactly which polynomials or integers disagreed, not
just a boolean.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys and no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class VerificationReport:
    """One verified instance of an identity.

    identity: enum-like tag naming what was checked.
    variant:  "literal" or "corrected" for the adjudicated identities,
              "n/a" elsewhere.
    params:   the instance parameters (small integers, plus a kind string
              for the triangle-vs-oracle checks).
    lhs/rhs:  canonical encodings of both sides (decimal strings for
              integers, string lists for polynomials, nested lists for
              anything bigger).
    passed:   exact equality of the two sides.
    """

    identity: str
    variant: str
    params: dict
    lhs: Any
    rhs: Any
    passed: bool

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
