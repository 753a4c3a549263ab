"""Exact polynomial arithmetic over the (q, x) coefficient tower.

QPoly is a dense univariate polynomial in q with Python-int coefficients,
so every value is exact at arbitrary precision.  XQPoly is a polynomial in
x whose coefficients are QPoly values.  These two types carry every
triangle entry, polynomial family and operator coefficient in the package;
there are no floats and no tolerances anywhere.

Both types are immutable: every operation returns a fresh normalized
value, so instances can be shared freely.  The zero polynomial is the
empty coefficient tuple.  The degree of zero is None rather than a
sentinel integer.  For both types 0**0 == 1; several double-sum identities
rely on the empty-product reading of their j = 0 terms.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union


def _trim(cs: list) -> tuple:
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return tuple(cs[:n])


def _power(base, e: int, one):
    """base**e by square-and-multiply, for either ring."""
    if not isinstance(e, int) or e < 0:
        raise ValueError("exponent must be a nonnegative integer")
    result = one
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


class QPoly:
    """Polynomial in q, coefficients stored dense and ascending by power.

    coeffs[i] is the integer coefficient of q**i.  The last stored
    coefficient is nonzero; the zero polynomial stores the empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficient expected, got {type(c).__name__}")
        self.coeffs: tuple[int, ...] = _trim(cs)

    @classmethod
    def zero(cls) -> "QPoly":
        return _QP_ZERO

    @classmethod
    def one(cls) -> "QPoly":
        return _QP_ONE

    @classmethod
    def const(cls, c: int) -> "QPoly":
        return cls((c,))

    @classmethod
    def monomial(cls, power: int, coeff: int = 1) -> "QPoly":
        """coeff * q**power."""
        if power < 0:
            raise ValueError("power must be nonnegative")
        return cls((0,) * power + (coeff,))

    @property
    def degree(self) -> int | None:
        """Degree in q, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("QPoly", self.coeffs))

    def __add__(self, other: Union["QPoly", int]) -> "QPoly":
        other = _as_qpoly(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other: Union["QPoly", int]) -> "QPoly":
        other = _as_qpoly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Union["QPoly", int]) -> "QPoly":
        other = _as_qpoly(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: Union["QPoly", int]) -> "QPoly":
        other = _as_qpoly(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _QP_ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "QPoly":
        return _power(self, e, _QP_ONE)

    def eval_int(self, v: int) -> int:
        """Evaluate at an integer point by Horner's rule."""
        if not isinstance(v, int):
            raise TypeError("evaluation point must be an integer")
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def to_json(self) -> list[str]:
        """List of decimal strings, ascending powers of q; [] is zero."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data: Iterable) -> "QPoly":
        return cls(int(c) for c in data)

    def __repr__(self) -> str:
        return f"QPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
                continue
            var = "q" if i == 1 else f"q^{i}"
            if c == 1:
                parts.append(var)
            elif c == -1:
                parts.append("-" + var)
            else:
                parts.append(f"{c}{var}")
        out = parts[0]
        for t in parts[1:]:
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return out


def _as_qpoly(v: object) -> QPoly | None:
    if isinstance(v, QPoly):
        return v
    if isinstance(v, int):
        return QPoly((v,))
    return None


_QP_ZERO = QPoly()
_QP_ONE = QPoly((1,))


class XQPoly:
    """Polynomial in x with QPoly coefficients, ascending by power of x."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Union[QPoly, int]] = ()) -> None:
        cs = []
        for c in coeffs:
            if isinstance(c, int):
                c = QPoly((c,))
            elif not isinstance(c, QPoly):
                raise TypeError(f"QPoly coefficient expected, got {type(c).__name__}")
            cs.append(c)
        self.coeffs: tuple[QPoly, ...] = _trim(cs)

    @classmethod
    def zero(cls) -> "XQPoly":
        return _XQ_ZERO

    @classmethod
    def one(cls) -> "XQPoly":
        return _XQ_ONE

    @classmethod
    def const(cls, c: Union[QPoly, int]) -> "XQPoly":
        return cls((c,))

    @classmethod
    def monomial(cls, power: int, coeff: Union[QPoly, int] = 1) -> "XQPoly":
        """coeff * x**power."""
        if power < 0:
            raise ValueError("power must be nonnegative")
        return cls((0,) * power + (coeff,))

    @property
    def degree(self) -> int | None:
        """Degree in x, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, XQPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("XQPoly", self.coeffs))

    def __iter__(self) -> Iterator[QPoly]:
        return iter(self.coeffs)

    def __add__(self, other: "XQPoly") -> "XQPoly":
        if not isinstance(other, XQPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return XQPoly(out)

    def __neg__(self) -> "XQPoly":
        return XQPoly([-c for c in self.coeffs])

    def __sub__(self, other: "XQPoly") -> "XQPoly":
        if not isinstance(other, XQPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union["XQPoly", QPoly, int]) -> "XQPoly":
        if isinstance(other, (QPoly, int)):
            c = other if isinstance(other, QPoly) else QPoly((other,))
            return XQPoly([ci * c for ci in self.coeffs])
        if not isinstance(other, XQPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _XQ_ZERO
        out = [QPoly.zero()] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                out[i + j] = out[i + j] + ai * bj
        return XQPoly(out)

    def __rmul__(self, other: Union[QPoly, int]) -> "XQPoly":
        if isinstance(other, (QPoly, int)):
            return self * other
        return NotImplemented

    def __pow__(self, e: int) -> "XQPoly":
        return _power(self, e, _XQ_ONE)

    def eval_x(self, s: int) -> QPoly:
        """Substitute a nonnegative integer for x; the result stays in q."""
        if not isinstance(s, int) or s < 0:
            raise ValueError("x substitution must be a nonnegative integer")
        acc = QPoly.zero()
        for c in reversed(self.coeffs):
            acc = acc * s + c
        return acc

    def to_json(self) -> list[list[str]]:
        """List of QPoly encodings, ascending powers of x."""
        return [c.to_json() for c in self.coeffs]

    @classmethod
    def from_json(cls, data: Iterable) -> "XQPoly":
        return cls(QPoly.from_json(c) for c in data)

    def __repr__(self) -> str:
        return f"XQPoly({[list(c.coeffs) for c in self.coeffs]!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            var = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            if not var:
                parts.append(f"({c})")
            elif c == QPoly.one():
                parts.append(var)
            else:
                parts.append(f"({c}){var}")
        return " + ".join(parts)


_XQ_ZERO = XQPoly()
_XQ_ONE = XQPoly((QPoly((1,)),))
