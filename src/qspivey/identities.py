"""Verifiers for the Spivey-type expansion identities and their q-analogues.

Each verifier recomputes both sides of one identity instance from scratch
and returns VerificationReport.check of the two, which encodes both sides
and gives the verdict (see report).  Three of the identities exist in two
printed shapes, selected by ``variant``:

  result1 (q-Bell polynomials)
      literal:   the summand carries the q-falling factor [x][x-1]..[x-j+1]
      corrected: the summand carries x^j instead

  result2 ((q,r)-Dowling polynomials)
      literal:   the summand carries an extra m^j and the q-falling factor
      corrected: no m^j, and x^j instead of the q-falling factor

  result3 (classical r-Dowling numbers, the q = 1, x = 1 shadow)
      literal:   the summand carries an extra m^j
      corrected: no m^j

The corrected shapes are the ones the operator algebra produces; the
verifiers treat both shapes as data and let the arithmetic decide.

katriel, result1 (and result1_xpoly) and result2 (and result2_xpoly) are
all one (q,r)-Dowling expansion,

    D_{m,r}(n+l) == Σ_j Σ_k W[l,j]·C(n,k)·(m[j]+r)^(n-k)·q^(jk)·D_{m,0}(k)·X_j,

whose two sides the private _dowling_sides computes at an integer x or
symbolically in x; the wrappers keep their own tags, parameters, variants
and argument checks.  katriel and result1 are its (m, r) = (1, 0) case:
there W is the q-Stirling triangle, m[j] + r is [j] and D_{1,0} the q-Bell
polynomial, which is how the paper's (q,r)-Dowling formula generalises the
q-Bell form of Spivey's formula.  All five read the one q-triangle
builder, so they check the expansion, not the triangle; the triangle is
checked against the normal-ordering engine (triangle-oracle) and, at
q = 1, against the integer triangle.  spivey, stirling-def and bell-rec
read that integer triangle, and result3 keeps its own integer double sum.

IDENTITIES is the one table of tags: verifier, axes with their default
ranges, variant support and per-axis lower bounds; run_case and the CLI
read it.

Identities in x are checked at integer substitutions.  Both sides are
polynomials in x of degree at most n plus the shift, so agreement at
degree + 1 distinct points is agreement as polynomials; for the corrected
shapes verify_result1_xpoly and verify_result2_xpoly also compare the two
sides directly as XQPoly values.
"""

from __future__ import annotations

from functools import partial
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from . import triangles
from .boson import NormalForm, coherent_truncated
from .polys import QPoly, XQPoly
from .qcalc import binom, falling_classic, q_falling, q_int
from .report import VerificationReport

_VARIANTS = ("literal", "corrected")


def _check_variant(variant: str) -> None:
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")


def verify_stirling_def(n: int) -> VerificationReport:
    """t^n == sum_k S(n,k) · t(t-1)..(t-k+1), checked at t = 0..n.

    n + 1 points pin down a degree-n polynomial, so passing here certifies
    the defining expansion of the classical triangle as polynomials in t.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    row = triangles.stirling2(n)[n]
    lhs = [t**n for t in range(n + 1)]
    rhs = [
        sum(row[k] * falling_classic(t, k) for k in range(n + 1))
        for t in range(n + 1)
    ]
    return VerificationReport.check("stirling-def", "n/a", {"n": n}, lhs, rhs)


def verify_bell_recurrence(n: int) -> VerificationReport:
    """Row sums B_i against the binomial recurrence, for all i <= n.

    The recurrence sequence is seeded with 1 and built only from its own
    earlier values, so the two routes are independent.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    sums = triangles.bell(n)
    rec = [1]
    for i in range(n):
        rec.append(sum(binom(i, k) * rec[k] for k in range(i + 1)))
    return VerificationReport.check("bell-rec", "n/a", {"n": n}, sums, rec)


def verify_spivey(n: int, mshift: int) -> VerificationReport:
    """B_{n+mshift} == sum_j sum_k j^(n-k) · S(mshift,j) · C(n,k) · B_k.

    0^0 counts as 1, which is what makes the j = 0 column collapse
    correctly at k = n.
    """
    if n < 0 or mshift < 0:
        raise ValueError("arguments must be nonnegative")
    bells = triangles.bell(n + mshift)
    srow = triangles.stirling2(mshift)[mshift]
    lhs = bells[n + mshift]
    rhs = 0
    for j in range(mshift + 1):
        if not srow[j]:
            continue
        for k in range(n + 1):
            rhs += j ** (n - k) * srow[j] * binom(n, k) * bells[k]
    params = {"n": n, "mshift": mshift}
    return VerificationReport.check("spivey", "n/a", params, lhs, rhs)


def _xfactor(variant: str, x: int, m: int):
    """X_j at integer x: m^j·[x][x-1]..[x-j+1] when literal, x^j when corrected."""
    if variant == "literal":
        return lambda j: q_falling(x, j) * (m**j)
    return lambda j: QPoly.const(x**j)


def _dowling_sides(n: int, l: int, m: int, r: int, x=None, variant="corrected"):
    """Both sides of the (q,r)-Dowling expansion

        D_{m,r}(n+l) == Σ_j Σ_k W[l,j]·C(n,k)·(m[j]+r)^(n-k)·q^(jk)·D_{m,0}(k)·X_j

    at the integer x, or symbolically in x when x is None; the symbolic
    form has only the corrected shape, X_j = x^j.  Each (m[j]+r)^(n-k) is
    built once per j.
    """
    row = triangles.qr_whitney(l, m, r)[l]
    lhs = triangles.qr_dowling_poly(n + l, m, r)
    d = [triangles.qr_dowling_poly(k, m, 0) for k in range(n + 1)]
    if x is None:
        xfactor, rhs = XQPoly.monomial, XQPoly.zero()
    else:
        lhs, d = lhs.eval_x(x), [p.eval_x(x) for p in d]
        xfactor, rhs = _xfactor(variant, x, m), QPoly.zero()
    for j, w in enumerate(row):
        if not w:
            continue
        xj = xfactor(j)
        if not xj:
            continue
        b = q_int(j) * m + r
        powers = [QPoly.one()]
        for _ in range(n):
            powers.append(powers[-1] * b)
        for k in range(n + 1):
            c = (w * binom(n, k) * powers[n - k]).shift(j * k)
            rhs = rhs + d[k] * c * xj
    return lhs, rhs


def verify_katriel(n: int, l: int) -> VerificationReport:
    """q-Bell numbers: B_{n+l} == sum_{j,k} S[l,j] C(n,k) [j]^(n-k) q^(jk) B_k."""
    if n < 0 or l < 0:
        raise ValueError("arguments must be nonnegative")
    lhs, rhs = _dowling_sides(n, l, 1, 0, 1)
    return VerificationReport.check("katriel", "n/a", {"n": n, "l": l}, lhs, rhs)


def verify_result1(n: int, mshift: int, x: int, variant: str) -> VerificationReport:
    """q-Bell polynomials at integer x, in the literal or corrected shape.

    Both shapes share the summand S[mshift,j] · C(n,k) · [j]^(n-k) · q^(jk)
    · B_k(x); they differ in the final x-dependent factor (see the module
    docstring).
    """
    _check_variant(variant)
    if n < 0 or mshift < 0 or x < 0:
        raise ValueError("arguments must be nonnegative")
    lhs, rhs = _dowling_sides(n, mshift, 1, 0, x, variant)
    params = {"n": n, "mshift": mshift, "x": x}
    return VerificationReport.check("result1", variant, params, lhs, rhs)


def verify_result1_xpoly(n: int, mshift: int) -> VerificationReport:
    """The corrected q-Bell expansion compared symbolically in x."""
    if n < 0 or mshift < 0:
        raise ValueError("arguments must be nonnegative")
    lhs, rhs = _dowling_sides(n, mshift, 1, 0)
    params = {"n": n, "mshift": mshift}
    return VerificationReport.check("result1-poly", "corrected", params, lhs, rhs)


def verify_result2(
    n: int, l: int, m: int, r: int, x: int, variant: str
) -> VerificationReport:
    """(q,r)-Dowling polynomials at integer x, literal or corrected shape.

    The shared summand is W[l,j] · C(n,k) · (m[j]+r)^(n-k) · q^(jk) ·
    D_{m,0}(k; x); the literal shape additionally multiplies by m^j and the
    q-falling factor, the corrected shape by x^j only.
    """
    _check_variant(variant)
    if m < 1:
        raise ValueError("weight m must be >= 1")
    if n < 0 or l < 0 or r < 0 or x < 0:
        raise ValueError("arguments must be nonnegative")
    lhs, rhs = _dowling_sides(n, l, m, r, x, variant)
    params = {"n": n, "l": l, "m": m, "r": r, "x": x}
    return VerificationReport.check("result2", variant, params, lhs, rhs)


def verify_result2_xpoly(n: int, l: int, m: int, r: int) -> VerificationReport:
    """The corrected (q,r)-Dowling expansion compared symbolically in x."""
    if m < 1:
        raise ValueError("weight m must be >= 1")
    if n < 0 or l < 0 or r < 0:
        raise ValueError("arguments must be nonnegative")
    lhs, rhs = _dowling_sides(n, l, m, r)
    params = {"n": n, "l": l, "m": m, "r": r}
    return VerificationReport.check("result2-poly", "corrected", params, lhs, rhs)


def verify_result3(n: int, l: int, m: int, r: int, variant: str) -> VerificationReport:
    """Classical r-Dowling numbers, the q = 1, x = 1 shadow of result2."""
    _check_variant(variant)
    if m < 1:
        raise ValueError("weight m must be >= 1")
    if n < 0 or l < 0 or r < 0:
        raise ValueError("arguments must be nonnegative")
    wrow = triangles.r_whitney(l, m, r)[l]
    d0 = triangles.r_dowling(n, m, 0)
    lhs = triangles.r_dowling(n + l, m, r)[n + l]
    rhs = 0
    for j in range(l + 1):
        if not wrow[j]:
            continue
        scale = m**j if variant == "literal" else 1
        for k in range(n + 1):
            rhs += scale * wrow[j] * binom(n, k) * (m * j + r) ** (n - k) * d0[k]
    params = {"n": n, "l": l, "m": m, "r": r}
    return VerificationReport.check("result3", variant, params, lhs, rhs)


def verify_lemma(
    which: str, k: int, m: int = 0, r: int = 0, cap: int = 0
) -> VerificationReport:
    """Operator-level ground truths used by everything above.

    lem1: the q^k-twisted commutator of a with ad^k is [k]·ad^(k-1).
    lem2: a^k acts on the truncated coherent vector as multiplication by
          x^k, compared on the cap - k window where the truncation is
          faithful.
    lem3: N·ad^k == ad^k·([k] + q^k·N).
    lem4: (m·N + r)·ad^k == ad^k·(m[k] + r + m·q^k·N).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    ad = NormalForm.raising()
    if which == "lem1":
        if k < 1:
            raise ValueError("lem1 needs k >= 1")
        lhs = NormalForm.lowering().q_commutator(ad**k, k)
        rhs = (ad ** (k - 1)) * q_int(k)
        return VerificationReport.check("lem1", "n/a", {"k": k}, lhs, rhs)
    if which == "lem2":
        if cap < k:
            raise ValueError("lem2 needs cap >= k")
        lowered = (NormalForm.lowering() ** k).apply(coherent_truncated(cap))
        lhs = lowered.truncated(cap - k).amps
        rhs = coherent_truncated(cap - k).scale(XQPoly.monomial(k)).amps
        params = {"k": k, "cap": cap}
        return VerificationReport.check("lem2", "n/a", params, lhs, rhs)
    if which == "lem3":
        lhs = NormalForm.number() * (ad**k)
        rhs = (ad**k) * (
            NormalForm.identity() * q_int(k)
            + NormalForm.number() * QPoly.monomial(k)
        )
        return VerificationReport.check("lem3", "n/a", {"k": k}, lhs, rhs)
    if which == "lem4":
        if m < 0 or r < 0:
            raise ValueError("m and r must be nonnegative")
        op = NormalForm.number() * m + NormalForm.identity() * r
        lhs = op * (ad**k)
        rhs = (ad**k) * (
            NormalForm.identity() * (q_int(k) * m + r)
            + NormalForm.number() * (QPoly.monomial(k) * m)
        )
        params = {"k": k, "m": m, "r": r}
        return VerificationReport.check("lem4", "n/a", params, lhs, rhs)
    raise ValueError(f"unknown lemma {which!r}")


# highest power of m·N + r built so far per (m, r), as (e, (m·N + r)^e),
# so rows n = 0..N cost N NormalForm products rather than N(N+1)/2
_POWERS: dict[tuple[int, int], tuple[int, NormalForm]] = {}


def _whitney_power(m: int, r: int, n: int) -> NormalForm:
    """(m·N + r)^n, extended from the highest power kept for (m, r).

    It multiplies by the base on the right, as NormalForm.__pow__ does; a
    call below the kept power starts again from the identity.
    """
    base = NormalForm.number() * m + NormalForm.identity() * r
    kept = _POWERS.get((m, r))
    e, p = kept if kept is not None and kept[0] <= n else (0, NormalForm.identity())
    for _ in range(n - e):
        p = p * base
    if kept is None or n > kept[0]:
        _POWERS[(m, r)] = (n, p)
    return p


def verify_triangle_vs_oracle(
    kind: str, n: int, m: int = 0, r: int = 0
) -> VerificationReport:
    """Row n of a recurrence-built triangle against normal-ordering coefficients.

    For the (q,r)-Whitney triangle, m^k·W[n,k] must be the (k,k)
    coefficient of (m·N + r)^n.  The q-Stirling triangle is its (m, r) =
    (1, 0) case, so S[n,k] must be the (k,k) coefficient of N^n; its params
    name only the kind and n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if kind == "q-stirling":
        m, r, params = 1, 0, {"kind": kind, "n": n}
    elif kind == "qr-whitney":
        params = {"kind": kind, "n": n, "m": m, "r": r}
    else:
        raise ValueError(f"unknown triangle kind {kind!r}")
    # qr_whitney rejects m < 1 and r < 0 before any operator is built
    row = triangles.qr_whitney(n, m, r)[n]
    op = _whitney_power(m, r, n)
    lhs = [c * (m**k) for k, c in enumerate(row)]
    rhs = [op.coefficient(k, k) for k in range(n + 1)]
    return VerificationReport.check("triangle-oracle", "n/a", params, lhs, rhs)


class IdentitySpec(NamedTuple):
    """How one identity tag is driven over parameter ranges.

    verify:  takes one keyword argument per axis, plus variant if it has one
    axes:    (name, (lo, hi)) pairs in sweep order, (lo, hi) the default range
    variant: whether the verifier takes the literal/corrected shape
    lower:   per-axis lower bounds, where an axis must stay above 0
    """

    verify: Callable[..., VerificationReport]
    axes: tuple[tuple[str, tuple[int, int]], ...]
    variant: bool = False
    lower: Mapping[str, int] = MappingProxyType({})


# default ranges are deliberately small
_N = ("n", (0, 6))
_MSHIFT = ("mshift", (0, 4))
_L = ("l", (0, 4))
_M = ("m", (1, 2))
_R = ("r", (0, 1))
_K = ("k", (1, 6))
_M_GE_1 = MappingProxyType({"m": 1})
_K_GE_1 = MappingProxyType({"k": 1})

IDENTITIES: dict[str, IdentitySpec] = {
    "spivey": IdentitySpec(verify_spivey, (_N, _MSHIFT)),
    "bell-rec": IdentitySpec(verify_bell_recurrence, (_N,)),
    "stirling-def": IdentitySpec(verify_stirling_def, (_N,)),
    "result1": IdentitySpec(verify_result1, (_N, _MSHIFT, ("x", (0, 3))), True),
    "result2": IdentitySpec(
        verify_result2, (_N, _L, _M, _R, ("x", (0, 3))), True, _M_GE_1
    ),
    "result3": IdentitySpec(verify_result3, (_N, _L, _M, _R), True, _M_GE_1),
    "katriel": IdentitySpec(verify_katriel, (_N, _L)),
    "lem1": IdentitySpec(partial(verify_lemma, "lem1"), (_K,), lower=_K_GE_1),
    "lem2": IdentitySpec(
        partial(verify_lemma, "lem2"), (("k", (0, 3)), ("cap", (10, 10)))
    ),
    "lem3": IdentitySpec(partial(verify_lemma, "lem3"), (_K,), lower=_K_GE_1),
    "lem4": IdentitySpec(
        partial(verify_lemma, "lem4"), (_K, ("m", (0, 2)), ("r", (0, 2)))
    ),
    # --kind q-stirling keeps only the n axis; the CLI handles that case
    "triangle-oracle": IdentitySpec(
        verify_triangle_vs_oracle, (_N, _M, _R), lower=_M_GE_1
    ),
    "whitney-special": IdentitySpec(
        lambda k, m: triangles.whitney_special_check(k, m),
        (("k", (6, 6)), _M),
        lower=_M_GE_1,
    ),
}


def run_case(identity: str, variant: str | None, params: dict) -> VerificationReport:
    """Run one verification by identity tag, params holding one value per axis."""
    spec = IDENTITIES.get(identity)
    if spec is None:
        raise ValueError(f"unknown identity {identity!r}")
    if spec.variant:
        return spec.verify(**params, variant=variant or "corrected")
    return spec.verify(**params)
