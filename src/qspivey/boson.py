"""Two independent engines for the deformed ladder algebra a·ad - q·ad·a = 1.

NormalForm does exact symbolic normal ordering.  Every operator value is a
finite sum of monomials c_{k,l}(q) · ad^k · a^l with all raising factors
on the left, and products reorder each middle word a^l · ad^k by the
closed q-Wick form (Katriel & Kibler 1992, J. Phys. A 25)

    a^l · ad^k  =  Σ_j T_j · q^((l-j)(k-j)) · ad^(k-j) · a^(l-j),
    T_0 = 1,  T_j = T_(j-1) · [l-j+1] · [k-j+1] / [j].

No T_j is built on its own.  The product of two terms steps its own
coefficient u = c1·c2 through the chain, u ← u·[l-j+1]·[k-j+1]/[j], with
two windows and one exact division per j, each O(deg); c·T_j is a
polynomial, so the division by [j] leaves no remainder.  Nothing is
memoized; a bare word a^l · ad^k is the product of its two monomials.
The one-factor rewrite a · ad^k = q^k · ad^k · a + [k] · ad^(k-1) it
sums is kept as the reference in the tests, written there with
schoolbook products.  Coefficients are QPoly values, so results are
exact.

FockVector simulates the same algebra on a truncated occupancy basis.
Amplitudes are stored in a rescaled basis chosen so that a lowers
occupancy with coefficient 1 while ad raises occupancy s with coefficient
[s+1]; the commutation relation is preserved and every amplitude stays a
polynomial (no radicals).  Occupancy-diagonal operators such as ad^k a^k
have the same eigenvalues in either scaling, which is what the identity
checks consume.  Truncation is a hard boundary: if a nonzero amplitude
would land above the cap the apply raises CapOverflowError instead of
silently dropping it, so any result that is returned is exact.

The two engines share no code beyond the polynomial ring, which is the
point: agreement between them certifies the triangle recurrences built in
triangles.py.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Iterable, Iterator, Tuple, Union

from .polys import QPoly, XQPoly, _json_int, _to_qpoly
from .qcalc import q_falling

Scalar = Union[int, QPoly]
TermKey = Tuple[int, int]


class CapOverflowError(Exception):
    """A raising term would push a nonzero amplitude above the cap."""


class NormalForm:
    """Normally ordered operator: a sum of ad^k a^l monomials.

    terms is a tuple of ((k, l), coefficient) pairs, sorted by (k, l),
    with zero coefficients dropped.  The empty tuple is the zero operator.
    An exponent must be a nonnegative int: any other type (a float, a
    bool) raises TypeError.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Union[Mapping, Iterable] = ()) -> None:
        acc: dict[TermKey, QPoly] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for (k, l), c in items:
            if (type(k), type(l)) != (int, int):
                raise TypeError(f"exponents must be ints, got {(k, l)!r}")
            if k < 0 or l < 0:
                raise ValueError("exponents must be nonnegative")
            c = _to_qpoly(c)
            if not c:
                continue
            prev = acc.get((k, l))
            merged = c if prev is None else prev + c
            if merged:
                acc[(k, l)] = merged
            elif (k, l) in acc:
                del acc[(k, l)]
        self.terms: tuple[tuple[TermKey, QPoly], ...] = tuple(sorted(acc.items()))

    @classmethod
    def zero(cls) -> "NormalForm":
        return cls()

    @classmethod
    def identity(cls) -> "NormalForm":
        return cls({(0, 0): 1})

    @classmethod
    def lowering(cls) -> "NormalForm":
        """The operator a."""
        return cls({(0, 1): 1})

    @classmethod
    def raising(cls) -> "NormalForm":
        """The operator ad."""
        return cls({(1, 0): 1})

    @classmethod
    def number(cls) -> "NormalForm":
        """The occupancy operator ad·a."""
        return cls({(1, 1): 1})

    @classmethod
    def monomial(cls, k: int, l: int, coeff: Scalar = 1) -> "NormalForm":
        return cls({(k, l): coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, NormalForm):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("NormalForm", self.terms))

    def __add__(self, other: "NormalForm") -> "NormalForm":
        if not isinstance(other, NormalForm):
            return NotImplemented
        return NormalForm(list(self.terms) + list(other.terms))

    def __neg__(self) -> "NormalForm":
        return NormalForm([(kl, -c) for kl, c in self.terms])

    def __sub__(self, other: "NormalForm") -> "NormalForm":
        if not isinstance(other, NormalForm):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union["NormalForm", Scalar]) -> "NormalForm":
        if isinstance(other, (int, QPoly)):
            return NormalForm([(kl, c * other) for kl, c in self.terms])
        if not isinstance(other, NormalForm):
            return NotImplemented
        acc: dict[TermKey, QPoly] = {}
        for (k1, l1), c1 in self.terms:
            for (k2, l2), c2 in other.terms:
                # (ad^k1 a^l1)(ad^k2 a^l2): reorder the middle a^l1 ad^k2
                for j, val in _wick(c1 * c2, l1, k2):
                    key = (k1 + k2 - j, l1 - j + l2)
                    prev = acc.get(key)
                    acc[key] = val if prev is None else prev + val
        return NormalForm(acc)

    def __rmul__(self, other: Scalar) -> "NormalForm":
        if isinstance(other, (int, QPoly)):
            return self * other
        return NotImplemented

    def __pow__(self, e: int) -> "NormalForm":
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = NormalForm.identity()
        # linear on purpose: squaring a dense normal form costs more than it saves
        for _ in range(e):
            result = result * self
        return result

    def q_commutator(self, other: "NormalForm", t: int) -> "NormalForm":
        """self·other - q**t · other·self."""
        if t < 0:
            raise ValueError("twist exponent must be nonnegative")
        return self * other - (other * self) * QPoly.monomial(t)

    def coefficient(self, k: int, l: int) -> QPoly:
        """Coefficient of ad^k a^l, zero if absent."""
        for (kk, ll), c in self.terms:
            if (kk, ll) == (k, l):
                return c
        return QPoly.zero()

    def apply(self, vec: "FockVector") -> "FockVector":
        """Act on a truncated vector; exact, or CapOverflowError.

        A term ad^k a^l annihilates amplitudes with occupancy below l
        exactly, so those need no headroom; any surviving amplitude that
        would land above the cap is a hard error.
        """
        amps = [XQPoly.zero()] * (vec.cap + 1)
        for (k, l), c in self.terms:
            for s in range(l, vec.cap + 1):
                amp = vec.amps[s]
                if not amp:
                    continue
                target = s - l + k
                if target > vec.cap:
                    raise CapOverflowError(
                        f"ad^{k} a^{l} sends occupancy {s} to {target}, above cap {vec.cap}"
                    )
                # lowering steps contribute 1 each; raising from s-l picks
                # up [s-l+1][s-l+2]...[s-l+k]
                weight = c * q_falling(s - l + k, k)
                amps[target] = amps[target] + amp * weight
        return FockVector(vec.cap, amps)

    def to_json(self) -> list[dict]:
        """Sorted records {k, l, coeff} with QPoly-encoded coefficients."""
        return [{"k": k, "l": l, "coeff": c.to_json()} for (k, l), c in self.terms]

    @classmethod
    def from_json(cls, data: Iterable[dict]) -> "NormalForm":
        return cls(
            [
                ((_json_int(d["k"]), _json_int(d["l"])), QPoly.from_json(d["coeff"]))
                for d in data
            ]
        )

    def __repr__(self) -> str:
        return f"NormalForm({[((k, l), list(c.coeffs)) for (k, l), c in self.terms]!r})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (k, l), c in self.terms:
            word = " ".join(
                p
                for p in (
                    ("ad" if k == 1 else f"ad^{k}") if k else "",
                    ("a" if l == 1 else f"a^{l}") if l else "",
                )
                if p
            )
            if not word:
                parts.append(f"({c})")
            else:
                parts.append(word if c == QPoly.one() else f"({c}) {word}")
        return " + ".join(parts)


def _wick(c: QPoly, l: int, k: int) -> Iterator[tuple[int, QPoly]]:
    """c · a^l · ad^k in normal order, by the q-Wick closed form.

    Yields (j, c·T_j·q^((l-j)(k-j))), the coefficient of ad^(k-j) a^(l-j),
    for j = 0..min(l, k).  c·T_j = [l choose j]·[k choose j]·[j]!·c is
    stepped from c·T_(j-1) in O(deg): the product by [l-j+1]·[k-j+1] comes
    before the division by [j], so the division is exact.
    """
    u = c
    for j in range(min(l, k) + 1):
        if j:
            u = u.window(l - j + 1).window(k - j + 1).unwindow(j)
        yield j, u.shift((l - j) * (k - j))


class FockVector:
    """Occupancy-indexed amplitude table with a hard truncation cap.

    amps[s] is the XQPoly amplitude at occupancy s for 0 <= s <= cap.
    Vectors with different caps are never equal; comparisons across caps
    go through truncated().
    """

    __slots__ = ("cap", "amps")

    def __init__(self, cap: int, amps: Iterable[Union[XQPoly, QPoly, int]] | None = None) -> None:
        if cap < 0:
            raise ValueError("cap must be nonnegative")
        self.cap = cap
        if amps is None:
            self.amps: tuple[XQPoly, ...] = (XQPoly.zero(),) * (cap + 1)
            return
        vals = []
        for a in amps:
            if not isinstance(a, XQPoly):
                a = XQPoly.const(a)
            vals.append(a)
        if len(vals) != cap + 1:
            raise ValueError(f"expected {cap + 1} amplitudes, got {len(vals)}")
        self.amps = tuple(vals)

    @classmethod
    def unit(cls, s: int, cap: int) -> "FockVector":
        """Amplitude 1 at occupancy s, zero elsewhere."""
        if not 0 <= s <= cap:
            raise ValueError("occupancy must lie in 0..cap")
        amps = [XQPoly.zero()] * (cap + 1)
        amps[s] = XQPoly.one()
        return cls(cap, amps)

    def amplitude(self, s: int) -> XQPoly:
        if not 0 <= s <= self.cap:
            raise ValueError("occupancy must lie in 0..cap")
        return self.amps[s]

    def scale(self, c: Union[XQPoly, QPoly, int]) -> "FockVector":
        if not isinstance(c, XQPoly):
            c = XQPoly.const(c)
        return FockVector(self.cap, [a * c for a in self.amps])

    def __add__(self, other: "FockVector") -> "FockVector":
        if not isinstance(other, FockVector):
            return NotImplemented
        if self.cap != other.cap:
            raise ValueError("cannot add vectors with different caps")
        return FockVector(self.cap, [a + b for a, b in zip(self.amps, other.amps)])

    def truncated(self, new_cap: int) -> "FockVector":
        """Deliberate window onto occupancies 0..new_cap, for comparisons."""
        if not 0 <= new_cap <= self.cap:
            raise ValueError("new cap must lie in 0..cap")
        return FockVector(new_cap, self.amps[: new_cap + 1])

    def __bool__(self) -> bool:
        return any(self.amps)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FockVector):
            return self.cap == other.cap and self.amps == other.amps
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("FockVector", self.cap, self.amps))

    def __repr__(self) -> str:
        return f"FockVector(cap={self.cap}, amps={[str(a) for a in self.amps]!r})"


def coherent_truncated(cap: int) -> FockVector:
    """Amplitude x**s at occupancy s, for s = 0..cap.

    This is the truncation of the vector the q-exponential generates from
    the vacuum, expressed in the rescaled basis; the lowering operator
    acts on it as multiplication by x up to the cap window.
    """
    return FockVector(cap, [XQPoly.monomial(s) for s in range(cap + 1)])
