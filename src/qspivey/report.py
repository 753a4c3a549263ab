"""Outcome records for identity verification, the one encoding rule and
its direct writers.

A VerificationReport carries both sides of a checked identity verbatim as
the JSON text of their canonical encodings, so a failing report is direct
evidence: the reader can see exactly which polynomials or integers
disagreed, not just a boolean.

Encoding rule (encode): an int becomes its decimal string, so no value is
truncated to 64 bits; a str or a bool stays as it is, and True never
becomes "1"; a list or tuple becomes a list of encoded items; a QPoly,
XQPoly or NormalForm becomes its to_json(); any other value raises
TypeError.  Every computed value that a command or a report writes
follows this rule; params stay JSON numbers.

Writers (json_text): one direct writer per value kind (int, bool, str,
QPoly, XQPoly, NormalForm, list and tuple) gives exactly
dumps(encode(value)), with no list of decimal strings and no encoder pass
in between; any other type goes through dumps(encode(value)) itself.
A QPoly or XQPoly writes the zeros below its span as one repeated
string, then its span.
term_json writes one NormalForm term, with which normal-order writes its
terms one at a time.

Verdict rule: a report is its two side texts, and it passes iff they are
equal; passed is derived from them, never stored.  check writes each
side once with json_text.  Canonical JSON text is injective on
encodings, so that is the verdict of comparing the encodings: for two
values of one type it is exact equality, and across types an int equals
its decimal string and a tuple the list of its items, which lets a pin
state its expectation in the simplest form.  A verifier that found its
two sides equal as values passes the one value as both (rhs is lhs),
and check writes it once, for both texts.  A report's line
(to_json_line) splices the two texts into its frame, with identity and
variant through the encoder's str writer and passed from the two texts,
so it dispatches on no type; lhs and rhs decode the texts on demand.
from_json writes the sides it reads with dumps, so criterion 11, which
parses every sweep line and re-renders it, checks each written side byte
for byte against the json module; it refuses a line whose passed its
sides contradict.

dumps writes all other JSON text, the text json.dumps gives with sorted
keys and no whitespace, through the json module's C encoder, built once
at import with those options and ASCII escaping, so no call builds an
encoder (JSONEncoder.encode builds one per call).  It keeps no
circular-reference markers, which a call that raised would leave behind;
what it writes (params, command heads and summaries, encodings, decoded
JSON) is a tree, never cyclic.  Without the C accelerator it is
JSONEncoder.encode.
VerificationReport and the opexpr AST nodes are Records: plain __slots__
classes that are immutable, equal field by field within one class, and
repr and pickle like frozen dataclasses, so importing them loads no
dataclasses module.  VerificationReport sets its five fields in its own
__init__, one object.__setattr__ each, rather than in Record's loop over
__slots__; a wrong field count is still a TypeError.
"""

from __future__ import annotations

import json
from typing import Any

from .boson import NormalForm
from .polys import QPoly, XQPoly

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
# _ENCODER's options in the C encoder, built once; see the module docstring
_C_ENCODER = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    None,
    _ENCODER.default,
    json.encoder.encode_basestring_ascii,
    None,
    _ENCODER.key_separator,
    _ENCODER.item_separator,
    _ENCODER.sort_keys,
    _ENCODER.skipkeys,
    _ENCODER.allow_nan,
)


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys and no whitespace."""
    if _C_ENCODER is None:  # no C accelerator
        return _ENCODER.encode(obj)
    return "".join(_C_ENCODER(obj, 0))


def encode(value) -> Any:
    """The canonical JSON encoding of a value; see the module docstring."""
    if isinstance(value, (str, bool)):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if isinstance(value, (QPoly, XQPoly, NormalForm)):
        return value.to_json()
    raise TypeError(f"cannot encode a value of type {type(value).__name__}")


def _qpoly_json(p: QPoly) -> str:
    span = p.span
    if not span:
        return "[]"
    # the zeros below the span, such as a shift by q^j leaves, are written
    # at once, and if a long span is a palindrome, as a product of
    # q-binomials is, only its first half is converted to decimal
    n = len(span)
    if n >= 64 and span[0] == span[-1] and span == span[::-1]:
        digits = list(map(str, span[: (n + 1) // 2]))
        digits += digits[: n // 2][::-1]
    else:
        digits = map(str, span)
    return "".join(("[", '"0",' * p.val, '"', '","'.join(digits), '"]'))


def _xqpoly_json(p: XQPoly) -> str:
    # the zero QPolys below the span, such as x^s holds, are written at once
    return "".join(("[", "[]," * p.val, ",".join(map(_qpoly_json, p.span)), "]"))


def term_json(term: tuple) -> str:
    """dumps(encode(...)) of one NormalForm term ((k, l), coeff): its record."""
    (k, l), c = term
    return "".join(('{"coeff":', _qpoly_json(c), f',"k":{k},"l":{l}}}'))


def _normal_form_json(nf: NormalForm) -> str:
    return "[" + ",".join(map(term_json, nf.terms)) + "]"


def _list_json(items) -> str:
    return "[" + ",".join(map(json_text, items)) + "]"


# the encoder's own str writer, with ASCII escaping
_str_json = json.encoder.encode_basestring_ascii

# exact type -> writer; a subclass of these goes through encode
_WRITERS = {
    int: lambda v: f'"{v}"',
    bool: lambda b: "true" if b else "false",
    str: _str_json,
    QPoly: _qpoly_json,
    XQPoly: _xqpoly_json,
    NormalForm: _normal_form_json,
    list: _list_json,
    tuple: _list_json,
}


def json_text(value) -> str:
    """dumps(encode(value)), written directly; see the module docstring."""
    writer = _WRITERS.get(type(value))
    return dumps(encode(value)) if writer is None else writer(value)


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
    lhs_text, rhs_text: the JSON texts of the encodings of both sides.

    passed (whether the two texts are equal) and lhs/rhs (the texts
    decoded) are derived, so no report holds a verdict its sides
    contradict.  check builds a report from raw values.
    """

    __slots__ = ("identity", "variant", "params", "lhs_text", "rhs_text")
    identity: str
    variant: str
    params: dict
    lhs_text: str
    rhs_text: str

    def __init__(
        self, identity: str, variant: str, params: dict, lhs_text: str, rhs_text: str
    ) -> None:
        # Record.__init__'s loop, unrolled: the sweep builds ~7000 reports
        setattr = object.__setattr__
        setattr(self, "identity", identity)
        setattr(self, "variant", variant)
        setattr(self, "params", params)
        setattr(self, "lhs_text", lhs_text)
        setattr(self, "rhs_text", rhs_text)

    @classmethod
    def check(
        cls, identity: str, variant: str, params: dict, lhs, rhs
    ) -> "VerificationReport":
        """The report on lhs against rhs: each side written once with
        json_text, and one side given twice (rhs is lhs) written once."""
        lhs_text = json_text(lhs)
        rhs_text = lhs_text if rhs is lhs else json_text(rhs)
        return cls(identity, variant, params, lhs_text, rhs_text)

    @property
    def passed(self) -> bool:
        return self.lhs_text == self.rhs_text

    @property
    def lhs(self) -> Any:
        return json.loads(self.lhs_text)

    @property
    def rhs(self) -> Any:
        return json.loads(self.rhs_text)

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
        """The report data describes; a non-bool passed raises TypeError."""
        passed = data["passed"]
        # bool() would read the string "false" as True
        if not isinstance(passed, bool):
            raise TypeError(f"passed must be a JSON bool, got {passed!r}")
        rep = cls(
            data["identity"],
            data["variant"],
            dict(data["params"]),
            dumps(data["lhs"]),
            dumps(data["rhs"]),
        )
        if rep.passed is not passed:  # a verdict its sides contradict
            raise ValueError(f"passed is {passed}, but the sides say {rep.passed}")
        return rep

    def to_json_line(self) -> str:
        """dumps(self.to_json()), with the two side texts spliced in; an
        identity or variant that is not a str raises TypeError."""
        lhs, rhs = self.lhs_text, self.rhs_text
        return (
            f'{{"identity":{_str_json(self.identity)},"lhs":{lhs},'
            f'"params":{dumps(self.params)},'
            f'"passed":{"true" if lhs == rhs else "false"},'
            f'"rhs":{rhs},"variant":{_str_json(self.variant)}}}'
        )
