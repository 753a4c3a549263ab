"""Exact polynomial arithmetic over the (q, x) coefficient tower.

QPoly is a dense univariate polynomial in q with Python-int coefficients,
so every value is exact at arbitrary precision.  XQPoly is a polynomial in
x whose coefficients are QPoly values.  These two types carry every
triangle entry, polynomial family and operator coefficient in the package;
there are no floats and no tolerances anywhere.

Both rings are one dense body, _Dense, with one addition, one
convolution and one Horner loop; a class adds only its coefficient zero
and one, its coefficient check and its JSON and printed forms.  Each ring
takes its coefficient ring (int, and QPoly for XQPoly) as the other
operand of + - * on either side.  Such a scalar, or a value with a single
coefficient, is a one-term operand: _mul multiplies the other operand by
it in one pass over its coefficients, skipping zero ones, in O(deg).  A
unit monomial v^j, the ring's one at j = 0, takes no such pass: the
product is the other operand's coefficients shifted by j.

Two O(deg) kernels serve the products that q_falling, the q-Wick reorder
in boson.py and the Dowling slots in identities.py take: shift(s) is the
product by the monomial v^s (s zeros prepended) and window(k) the
product by [k] = 1 + v + ... + v^(k-1) (a sliding-window sum), v being
the ring's variable.  The Whitney row builder in triangles.py steps
spans of coefficients instead, and is tested against these two.  The
schoolbook convolution _mul is the reference they are tested against.
A third, unwindow(k), is the exact division by [k] that the q-Wick reorder in
boson.py steps each product's coefficient with; it is tested as the
inverse of window, whose own reference is the convolution, and it raises
on a nonzero remainder rather than truncate.  window(1) and unwindow(1)
return the value itself.  The convolution skips zero coefficients of both
operands, so a product by a sparse operand costs its nonzero terms.
XQPoly.eval_x, the substitution of an integer for x, is a kernel over
plain ints: it sums c_j·s^j into one list of ints, with no QPoly built
per term, and is tested against the Horner reference (QPoly.eval_int
keeps the Horner loop).

Validation stays at the boundary: the constructors, const, monomial and
from_json check every coefficient.  Ring operations build their results
from checked operands through one trusted builder, _Dense._make, which
only trims trailing zeros; a tuple that ends in a nonzero coefficient is
stored as it is, with no copy.

Both types are immutable: every operation returns a fresh normalized
value, so instances can be shared freely.  The zero polynomial is the
empty coefficient tuple.  The degree of zero is None rather than a
sentinel integer.  For both types 0**0 == 1; several double-sum identities
rely on the empty-product reading of their j = 0 terms.
"""

from __future__ import annotations

from operator import add
from typing import Iterable, Iterator


def _json_int(c: object) -> int:
    """A JSON coefficient: a non-bool int, or ASCII digits after an optional '-'.

    int() alone would read 1.5 and true as 1 and accept non-ASCII digits.
    """
    if isinstance(c, int) and not isinstance(c, bool):
        return c
    if isinstance(c, str):
        digits = c[1:] if c.startswith("-") else c
        if digits.isascii() and digits.isdigit():
            return int(c)
    raise TypeError(f"integer or decimal string expected, got {c!r}")


def _json_list(data: object) -> list:
    """A JSON array; a str would otherwise be read one character per item."""
    if not isinstance(data, list):
        raise TypeError(f"JSON list expected, got {data!r}")
    return data


def _trim(cs: list) -> tuple:
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return tuple(cs[:n])


class _Dense:
    """Dense polynomial, coefficients ascending by power.

    The last stored coefficient is nonzero; zero stores the empty tuple.
    A subclass sets _C0 and _C1 (the coefficient zero and one), _check
    (returns a checked coefficient or raises TypeError) and, after its
    body, _ZERO and _ONE.
    It binds the arithmetic dunders by name in its own body (QPoly also
    the shift, window and unwindow kernels it takes), because
    bench/tracer.py wraps only what it finds in a class's own namespace.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()) -> None:
        self.coeffs: tuple = _trim(list(map(self._check, coeffs)))

    @classmethod
    def _make(cls, cs: list | tuple):
        """Trusted builder: cs comes from checked operands, so only trim."""
        p = object.__new__(cls)
        p.coeffs = _trim(cs)
        return p

    @classmethod
    def zero(cls):
        return cls._ZERO

    @classmethod
    def one(cls):
        return cls._ONE

    @classmethod
    def const(cls, c):
        return cls((c,))

    @classmethod
    def monomial(cls, power: int, coeff=1):
        """coeff times the variable to the power."""
        if power < 0:
            raise ValueError("power must be nonnegative")
        return cls._make([cls._C0] * power + [cls._check(coeff)])

    @property
    def degree(self) -> int | None:
        """Degree in the ring's variable, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.coeffs))

    def _operand(self, other) -> tuple | None:
        """Coefficients of other read in this ring, or None if it is foreign."""
        if type(other) is type(self):
            return other.coeffs
        try:
            return (self._check(other),)
        except TypeError:
            return None

    def _sum(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        return self._make([*map(add, a, b), *a[len(b) :]])

    def _add(self, other):
        b = self._operand(other)
        return NotImplemented if b is None else self._sum(self.coeffs, b)

    def _neg(self):
        return self._make([-c for c in self.coeffs])

    def _sub(self, other):
        b = self._operand(other)
        return NotImplemented if b is None else self._sum(self.coeffs, [-c for c in b])

    def _rsub(self, other):
        b = self._operand(other)
        return NotImplemented if b is None else self._sum(b, [-c for c in self.coeffs])

    def _mul(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        a = self.coeffs
        if not a or not b:
            return self._ZERO
        # a unit monomial v^j (the ring's one at j = 0) shifts the other
        # operand: its coefficients are kept, with no pass over them
        one, zero = self._C1, self._C0
        if b[-1] == one and b.count(zero) == len(b) - 1:
            return self.shift(len(b) - 1)
        if a[-1] == one and a.count(zero) == len(a) - 1:
            return self._make(list(b)).shift(len(a) - 1)
        # a one-term operand scales the other: one pass, zeros kept as zeros
        if len(b) == 1 or len(a) == 1:
            if len(b) != 1:
                a, b = b, a
            c = b[0]
            return self._make([ai * c if ai else zero for ai in a])
        out = [self._C0] * (len(a) + len(b) - 1)
        # zeros are skipped on both sides, so a product by a sparse operand
        # such as a monomial costs its nonzero terms on either side
        nz = [(j, bj) for j, bj in enumerate(b) if bj]
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in nz:
                out[i + j] += ai * bj
        return self._make(out)

    def shift(self, s: int):
        """self times the variable to the power s: s zeros prepended."""
        if s < 0:
            raise ValueError("shift must be nonnegative")
        if not self.coeffs:
            return self
        return self._make([self._C0] * s + list(self.coeffs))

    def window(self, k: int):
        """self times [k] = 1 + v + ... + v^(k-1), in O(deg + k).

        Coefficient i of the product is a[i] + a[i-1] + ... + a[i-k+1]: one
        running sum gains a[i] and drops a[i-k] at each step.
        """
        if k < 0:
            raise ValueError("window length must be nonnegative")
        if k == 1:
            return self
        a = self.coeffs
        if not a or not k:
            return self._ZERO
        n = len(a)
        out = []
        acc = self._C0
        for i in range(n + k - 1):
            if i < n:
                acc = acc + a[i]
            if i >= k:
                acc = acc - a[i - k]
            out.append(acc)
        return self._make(out)

    def unwindow(self, k: int):
        """self divided by [k] exactly, in O(deg + k): the inverse of window.

        [k] = (1 - v^k) / (1 - v), so the quotient is d = self·(1 - v)
        divided by 1 - v^k: its coefficient i is d[i] plus its coefficient
        i - k, one running sum in steps of k.  The same sum must vanish at
        the top k coefficients of d; a nonzero remainder raises ValueError.
        """
        if k < 1:
            raise ValueError("divisor [k] needs k >= 1")
        if k == 1:
            return self
        a = self.coeffs
        n = len(a) - k + 1  # length of the quotient
        out = []
        prev = self._C0
        for i, ai in enumerate(a + (self._C0,)):
            t = ai - prev
            prev = ai
            if i >= k:
                t = t + out[i - k]
            if i < n:
                out.append(t)
            elif t:
                raise ValueError(f"not divisible by [{k}]")
        return self._make(out)

    def _pow(self, e: int):
        """self**e by square-and-multiply."""
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result, base = self._ONE, self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def _horner(self, v):
        acc = self._C0
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc


class QPoly(_Dense):
    """Polynomial in q: coeffs[i] is the integer coefficient of q**i."""

    __slots__ = ()
    _C0, _C1 = 0, 1

    @staticmethod
    def _check(c: object) -> int:
        if not isinstance(c, int):
            raise TypeError(f"integer coefficient expected, got {type(c).__name__}")
        return c

    __add__ = __radd__ = _Dense._add
    __sub__ = _Dense._sub
    __rsub__ = _Dense._rsub
    __neg__ = _Dense._neg
    __mul__ = __rmul__ = _Dense._mul
    __pow__ = _Dense._pow
    shift = _Dense.shift
    window = _Dense.window
    unwindow = _Dense.unwindow

    def eval_int(self, v: int) -> int:
        """Evaluate at an integer point by Horner's rule."""
        if not isinstance(v, int):
            raise TypeError("evaluation point must be an integer")
        return self._horner(v)

    def to_json(self) -> list[str]:
        """List of decimal strings, ascending powers of q; [] is zero."""
        return list(map(str, self.coeffs))

    @classmethod
    def from_json(cls, data: list) -> "QPoly":
        """Read to_json's list of decimal strings back; plain ints are
        accepted as items too, and anything but a list raises TypeError."""
        return cls(map(_json_int, _json_list(data)))

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


QPoly._ZERO = QPoly()
QPoly._ONE = QPoly((1,))


def _to_qpoly(c: object) -> QPoly:
    """Lift a scalar into Z[q]: the coefficient check of XQPoly and NormalForm."""
    if isinstance(c, QPoly):
        return c
    if isinstance(c, int):
        return QPoly._make([c])
    raise TypeError(f"QPoly or int coefficient expected, got {type(c).__name__}")


class XQPoly(_Dense):
    """Polynomial in x with QPoly coefficients, ascending by power of x."""

    __slots__ = ()
    _C0, _C1 = QPoly._ZERO, QPoly._ONE
    _check = staticmethod(_to_qpoly)

    __add__ = __radd__ = _Dense._add
    __sub__ = _Dense._sub
    __rsub__ = _Dense._rsub
    __neg__ = _Dense._neg
    __mul__ = __rmul__ = _Dense._mul
    __pow__ = _Dense._pow

    def __iter__(self) -> Iterator[QPoly]:
        return iter(self.coeffs)

    def eval_x(self, s: int) -> QPoly:
        """Substitute a nonnegative integer for x; the result stays in q."""
        if not isinstance(s, int) or s < 0:
            raise ValueError("x substitution must be a nonnegative integer")
        # acc[i] += c_j[i]·s^j over plain ints: no QPoly is built per term
        acc: list[int] = []
        power = 1
        for c in self.coeffs:
            if not power:
                break
            cs = c.coeffs
            if len(acc) < len(cs):
                acc.extend([0] * (len(cs) - len(acc)))
            for i, ci in enumerate(cs):
                acc[i] += ci * power
            power *= s
        return QPoly._make(acc)

    def to_json(self) -> list[list[str]]:
        """List of QPoly encodings, ascending powers of x; [] is a zero one."""
        return [list(map(str, c.coeffs)) if c.coeffs else [] for c in self.coeffs]

    @classmethod
    def from_json(cls, data: list) -> "XQPoly":
        return cls(QPoly.from_json(c) for c in _json_list(data))

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


XQPoly._ZERO = XQPoly()
XQPoly._ONE = XQPoly((QPoly._ONE,))
