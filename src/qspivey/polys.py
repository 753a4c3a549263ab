"""Exact polynomial arithmetic over the (q, x) coefficient tower.

QPoly is a univariate polynomial in q with Python-int coefficients, so
every value is exact at arbitrary precision.  XQPoly is a polynomial in
x whose coefficients are QPoly values.  These two types carry every
triangle entry, polynomial family and operator coefficient in the package;
there are no floats and no tolerances anywhere.

A value is stored as its valuation and its span: val counts the zeros
below the first nonzero coefficient, and span runs from that one to the
last nonzero one, so both ends of a span are nonzero; zero is val 0 with
the empty span.  Those zeros are never stored: a column-k Whitney cell
starts at q^C(k,2), so they are about half of all triangle coefficients.
coeffs, the dense tuple, is built on demand for callers outside the
kernels (from_json's round trip, repr and str, tests, the bench).

Both rings are one body, _Dense; a class adds only its coefficient zero
and one, its coefficient check and its JSON and printed forms.  Each ring
takes its coefficient ring (int, and QPoly for XQPoly) as the other
operand of + - * on either side.  A sum aligns its operands by val and
adds the spans over their overlap; it can cancel only where both spans
start or both end, and only there is it trimmed.  A product adds the vals
and convolves the spans, skipping zero coefficients of both; Z and Z[q]
have no zero divisors, so its span needs no trim.  A scalar, or a value
whose span is one coefficient c (a monomial c·v^j), is a one-term
operand: _mul scales the other span by c in one pass of map(mul, ...),
and at c = 1 (a unit monomial v^j) keeps it as it is.  So p·1, 1·p and
p·p.one() are p itself, with no value built, and so are p + 0, 0 + p
and p + p.zero().  Zeros inside the span stay zeros: 0·c is 0 in Z,
and a zero QPoly times anything is the shared zero.

With v the ring's variable, shift(s), the product by v^s, is O(1): it
adds s to val.  window(k), the product by [k] = 1 + v + ... + v^(k-1),
is a running sum over the span, and unwindow(k) the exact division by
[k], which raises on a nonzero remainder rather than truncate; both are
O(len(span) + k) and keep val.  They serve q_falling and the q-Wick
reorder in boson.py, and the Whitney step p·(m[k] + r) = p.window(k)·m +
p·r, which builds the rows in triangles.py and the Dowling slots in
identities.py; no module but this one builds a value from a span.  The
schoolbook convolution _mul is the reference shift and window are tested
against, and unwindow is tested as the inverse of window.  XQPoly.eval_x
sums c_j·s^j over plain ints, with no QPoly built per term, and is tested
against the Horner reference; QPoly.eval_int is Horner's rule over the
span, times v^val.

Validation stays at the boundary: the constructors, const, monomial and
from_json check every coefficient, and shift and monomial refuse a power
that is not an int.  Ring operations build their results from checked
operands through two trusted builders: _Dense._new stores a span whose
ends are nonzero as it is, and _Dense._make trims the zeros at the ends
of a coefficient sequence.  A zero result is the ring's shared zero.

Both types are immutable: every operation returns a normalized value,
so instances can be shared freely.  The degree of zero is None rather
than a sentinel integer.  For both types 0**0 == 1; several double-sum
identities rely on the empty-product reading of their j = 0 terms.
"""

from __future__ import annotations

from itertools import accumulate, chain, repeat
from operator import add, mul, neg, sub
from typing import Iterable

DIGITS = frozenset("0123456789")  # every integer reader's; int() also reads "٣"


def _json_int(c: object) -> int:
    """A JSON coefficient: a non-bool int, or ASCII digits after an optional '-'.

    int() alone would read 1.5 and true as 1 and accept non-ASCII digits.
    """
    if isinstance(c, int) and not isinstance(c, bool):
        return c
    if isinstance(c, str):
        digits = c[1:] if c.startswith("-") else c
        if digits and DIGITS.issuperset(digits):
            return int(c)
    raise TypeError(f"integer or decimal string expected, got {c!r}")


def _json_list(data: object) -> list:
    """A JSON array; a str would otherwise be read one character per item."""
    if not isinstance(data, list):
        raise TypeError(f"JSON list expected, got {data!r}")
    return data


def _split(cs) -> tuple[int, tuple]:
    """(val, span) of a coefficient sequence: its number of zeros below the
    first nonzero coefficient, and its coefficients from that one to the
    last nonzero one; zero is (0, ()).  A tuple with nonzero ends is kept,
    with no copy."""
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    if not n:
        return 0, ()
    i = 0
    while i < n - 1 and not cs[i]:  # cs[n - 1] is known to be nonzero
        i += 1
    return i, tuple(cs[i:n])


class _Dense:
    """Polynomial stored as its valuation and its span, ascending by power.

    val counts the zero coefficients below the first nonzero one, and span
    runs from that one to the last nonzero one, so both ends of a span are
    nonzero; zero is val 0 with the empty span.
    A subclass sets _C0 and _C1 (the coefficient zero and one), _check
    (returns a checked coefficient or raises TypeError) and, after its
    body, _ZERO and _ONE.
    It binds the arithmetic dunders by name in its own body, because
    bench/tracer.py wraps only what it finds in a class's own namespace.
    The shift, window and unwindow kernels are not re-bound: both rings
    inherit them, so a patch of _Dense reaches both.
    """

    __slots__ = ("val", "span")

    def __init__(self, coeffs: Iterable = ()) -> None:
        self.val, self.span = _split(list(map(self._check, coeffs)))

    @classmethod
    def _new(cls, val: int, span: tuple):
        """Trusted builder of v^val·span: span comes from checked operands
        and its ends are nonzero, so it is stored as it is; the empty span
        is the shared zero."""
        if not span:
            return cls._ZERO
        p = object.__new__(cls)
        p.val = val
        p.span = span
        return p

    @classmethod
    def _make(cls, cs, val: int = 0):
        """Trusted builder of v^val·cs, for coefficients cs from checked
        operands whose ends may be zero: only those are trimmed."""
        v, span = _split(cs)
        return cls._new(val + v, span)

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
        if not isinstance(power, int):
            raise TypeError(f"integer power expected, got {type(power).__name__}")
        if power < 0:
            raise ValueError("power must be nonnegative")
        return cls._make((cls._check(coeff),), power)

    @property
    def coeffs(self) -> tuple:
        """The dense coefficient tuple, ascending by power, with the zeros
        below the span written out; () is zero.  Built on each call, for
        callers outside the kernels."""
        return (self._C0,) * self.val + self.span

    @property
    def degree(self) -> int | None:
        """Degree in the ring's variable, or None for the zero polynomial."""
        return self.val + len(self.span) - 1 if self.span else None

    def __bool__(self) -> bool:
        return bool(self.span)

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return self.val == other.val and self.span == other.span
        return NotImplemented

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.val, self.span))

    def _operand(self, other) -> tuple | None:
        """(val, span) of other read in this ring, or None if it is foreign."""
        if type(other) is type(self):
            return other.val, other.span
        try:
            c = self._check(other)
        except TypeError:
            return None
        return 0, ((c,) if c else ())

    def _sum(self, u: int, a: tuple, w: int, b: tuple):
        """v^u·a + v^w·b for spans a and b, aligned by valuation.

        The spans are added over their overlap; a sum can cancel only where
        both spans start or both end, so _make trims at most those ends.
        """
        if not a:
            return self._new(w, b)
        if not b:
            return self._new(u, a)
        if w < u:
            u, a, w, b = w, b, u, a
        d = w - u  # b starts d places after a
        na = len(a)
        if d >= na:  # no overlap, so nothing cancels
            return self._new(u, (*a, *repeat(self._C0, d - na), *b))
        end = d + len(b)
        tail = a[end:] if end < na else b[na - d :]
        return self._make((*a[:d], *map(add, a[d:end], b), *tail), u)

    def _add(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        if not o[1]:  # a sum with zero is the other operand itself
            return self
        if not self.span and type(other) is type(self):
            return other
        return self._sum(self.val, self.span, *o)

    def _neg(self):
        return self._new(self.val, tuple(map(neg, self.span)))

    def _sub(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        v, b = o
        return self._sum(self.val, self.span, v, tuple(map(neg, b)))

    def _rsub(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self._sum(*o, self.val, tuple(map(neg, self.span)))

    def _mul(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        v, b = o
        a = self.span
        if not a or not b:
            return self._ZERO
        val = self.val + v
        # a one-term operand c·v^j scales the other operand p (the left one
        # if both have one term) in one pass, zeros kept as zeros; at c = 1,
        # a unit monomial, p's span is kept as it is, and at j = 0 too, the
        # ring's one, the product is p itself
        if len(b) == 1 or len(a) == 1:
            p = self
            if len(b) != 1:  # so other has a longer span: it is of this ring
                a, b, p = b, a, other
            c = b[0]
            if c == self._C1:
                return p if val == p.val else self._new(val, a)
            return self._new(val, tuple(map(mul, a, repeat(c))))
        out = [self._C0] * (len(a) + len(b) - 1)
        # zeros are skipped on both sides, so a sparse operand costs its
        # nonzero terms
        nz = [(j, bj) for j, bj in enumerate(b) if bj]
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in nz:
                out[i + j] += ai * bj
        # the coefficient rings have no zero divisors, so the ends, a[0]·b[0]
        # and a[-1]·b[-1], are nonzero: the product is a span
        return self._new(val, tuple(out))

    def shift(self, s: int):
        """self times the variable to the power s, in O(1): s is added to val."""
        if not isinstance(s, int):
            raise TypeError(f"integer shift expected, got {type(s).__name__}")
        if s < 0:
            raise ValueError("shift must be nonnegative")
        return self._new(self.val + s, self.span)

    def window(self, k: int):
        """self times [k] = 1 + v + ... + v^(k-1), in O(len(span) + k).

        Coefficient i of the product is a[i] + a[i-1] + ... + a[i-k+1]: one
        running sum of a[i] - a[i-k] over the span a.  [k] has constant
        term and leading coefficient 1, so the product keeps val and the
        ends of the span.
        """
        if k < 0:
            raise ValueError("window length must be nonnegative")
        if k == 1:
            return self
        a = self.span
        if not a or not k:
            return self._ZERO
        z = self._C0
        steps = map(sub, chain(a, repeat(z, k - 1)), chain(repeat(z, k), a))
        return self._new(self.val, tuple(accumulate(steps)))

    def unwindow(self, k: int):
        """self divided by [k] exactly, in O(len(span) + k): the inverse of
        window.

        [k] = (1 - v^k) / (1 - v), so the quotient of the span is d =
        span·(1 - v) divided by 1 - v^k: its coefficient i is d[i] plus its
        coefficient i - k, one running sum in steps of k.  The same sum
        must vanish at the top k coefficients of d; a nonzero remainder
        raises ValueError.  An exact quotient keeps val and, as in window,
        the ends of the span.
        """
        if k < 1:
            raise ValueError("divisor [k] needs k >= 1")
        if k == 1:
            return self
        a = self.span
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
        return self._new(self.val, tuple(out))

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

    def eval_int(self, v: int) -> int:
        """Evaluate at an integer point: Horner's rule over the span, times
        v^val."""
        if not isinstance(v, int):
            raise TypeError("evaluation point must be an integer")
        acc = 0
        for c in reversed(self.span):
            acc = acc * v + c
        return acc * v**self.val

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
        return QPoly._make((c,))
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

    def eval_x(self, s: int) -> QPoly:
        """Substitute a nonnegative integer for x; the result stays in q."""
        if not isinstance(s, int) or s < 0:
            raise ValueError("x substitution must be a nonnegative integer")
        # acc[i] += c_j[i]·s^j over plain ints, with acc[0] the coefficient
        # of q^lo, the lowest val of a nonzero c_j: no QPoly is built per term
        lo = min((c.val for c in self.span if c.span), default=0)
        acc: list[int] = []
        power = s**self.val
        for c in self.span:
            if not power:
                break
            off, cs = c.val - lo, c.span
            if len(acc) < off + len(cs):
                acc.extend([0] * (off + len(cs) - len(acc)))
            for i, ci in enumerate(cs, off):
                acc[i] += ci * power
            power *= s
        return QPoly._make(acc, lo)

    def to_json(self) -> list[list[str]]:
        """List of QPoly encodings, ascending powers of x; [] is a zero one."""
        return [c.to_json() for c in self.coeffs]

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
