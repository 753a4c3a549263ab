"""Every verifier: the Spivey-type expansion identities and their
q-analogues, the operator lemmas (verify_lem1..verify_lem4), the
triangle against normal ordering (verify_triangle_vs_oracle), the r = 0
Whitney reduction (verify_whitney_special) and the q-expansion law
(verify_q_expansion).

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

katriel, result1 and result2 are all one (q,r)-Dowling expansion,

    D_{m,r}(n+l) == Σ_j Σ_k W[l,j]·C(n,k)·(m[j]+r)^(n-k)·q^(jk)·D_{m,0}(k)·X_j,

whose two sides the private _dowling_sides computes at each x of a range
of integers, building its x-free parts once, or symbolically in x.  The
private _dowling_reports is its one caller: it owns the argument checks
and turns those sides into reports.  verify_result1_xs and
verify_result2_xs give one report per x of any iterable of x, and for
xs=None the one symbolic report, tagged result1-poly or result2-poly,
which only the corrected shape has: verify_result1_xs(n, mshift, None,
"corrected")[0] and verify_result2_xs(n, l, m, r, None, "corrected")[0]
are the symbolic form; verify_katriel is the corrected result1 at
xs = [1] under its own tag.
_dowling_sides sums over j first: S_k = Σ_j X_j·q^(jk)·W[l,j]·(m[j]+r)^(n-k)
is built from powers stepped by t.window(j)·m + t·r, the O(deg) step
of the Whitney recurrence, and by shift, so the only dense products are
the n + 1 products D_{m,0}(k)·S_k per x.  katriel and result1 are its
(m, r) = (1, 0) case: there W is the q-Stirling triangle, m[j] + r is [j]
and D_{1,0} the q-Bell polynomial, which is how the paper's (q,r)-Dowling
formula generalises the q-Bell form of Spivey's formula.  All three read
the one q-triangle builder, so they check the expansion, not the
triangle; the triangle is checked against the normal-ordering engine
(triangle-oracle) and, at q = 1, against the integer triangle.  spivey,
stirling-def, bell-rec and result3 read that integer triangle (result3
its rows and their row sums, the r-Dowling numbers), never the q-rows at
q = 1.  spivey is result3's body at (m, r) = (1, 0) under its own tag,
as lem3 is lem4's.

IDENTITIES is the one table of tags: verifier, axes with their default
ranges, variant support and per-axis lower bounds; run_case and the CLI
read it.  A verifier's parameters are exactly its row's axes, the x axis
as xs, plus variant or kind where the row has one, and each lower bound
is the least value it accepts; tests/test_identities.py holds every row
to both.

Identities in x are checked at integer substitutions.  Both sides are
polynomials in x of degree at most n plus the shift, so agreement at
degree + 1 distinct points is agreement as polynomials; for the corrected
shapes the symbolic form, verify_result{1,2}_xs(..., None, "corrected"),
also compares the two sides directly as XQPoly values.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple

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
    """B_{n+mshift} == sum_j sum_k j^(n-k) · S(mshift,j) · C(n,k) · B_k,
    result3's body at (m, r) = (1, 0), where W is the Stirling triangle
    and the r-Dowling numbers are the Bell numbers.

    0^0 counts as 1, which is what makes the j = 0 column collapse
    correctly at k = n.
    """
    return _result3("spivey", "n/a", {"n": n, "mshift": mshift}, n, mshift, 1, 0)


def _dowling_sides(n: int, l: int, m: int, r: int, xs=None, variant="corrected"):
    """Both sides of the (q,r)-Dowling expansion

        D_{m,r}(n+l) == Σ_k C(n,k)·D_{m,0}(k)·S_k,
        S_k = Σ_j X_j·q^(jk)·W[l,j]·(m[j]+r)^(n-k),

    as one (lhs, rhs) pair per integer x in xs, or as one pair symbolic in
    x when xs is None; the symbolic form has only the corrected shape,
    X_j = x^j.  The Whitney row, lhs, the D_{m,0}(k) and the slots of the
    S_k do not depend on x, so they are built once and read at each x.
    For each j with W[l,j] != 0 and X_j != 0 at some x in xs,
    t = W[l,j]·(m[j]+r)^(n-k) steps from k = n down to 0 by
    t.window(j)·m + t·r, and t·q^(jk) is slot j of S_k.  A slot may be
    left out only if X_j is 0 at every x: the literal [x][x-1]..[x-j+1]
    vanishes for j > x, so one x at which it does not keeps the slot.
    S_k is the XQPoly of its slots: read at x for the corrected shape,
    summed against X_j = m^j·[x][x-1]..[x-j+1] for the literal one.  The
    n + 1 products D_{m,0}(k)·S_k per x are the only dense products.
    """
    row = triangles.qr_whitney(l, m, r)[l]
    lhs = triangles.qr_dowling_poly(n + l, m, r)
    d = [triangles.qr_dowling_poly(k, m, 0) for k in range(n + 1)]
    if xs is None:
        xfs = None
    elif variant == "literal":
        xfs = [[q_falling(x, j) * (m**j) for j in range(l + 1)] for x in xs]
    else:
        xfs = [[x**j for j in range(l + 1)] for x in xs]
    slots = [[QPoly.zero()] * (l + 1) for _ in range(n + 1)]
    for j, t in enumerate(row):
        if not t or xfs is not None and not any(xf[j] for xf in xfs):
            continue
        for k in range(n, -1, -1):
            # t is W[l,j]·(m[j]+r)^(n-k)
            slots[k][j] = t.shift(j * k)
            if k:
                t = t.window(j) * m + t * r
    sums = [XQPoly(slot) for slot in slots]
    if xs is None:
        points = [(lhs, d, sums)]
    else:
        points = []
        for x, xf in zip(xs, xfs):
            if variant == "literal":
                s_x = [
                    sum((c * f for c, f in zip(slot, xf) if c), QPoly.zero())
                    for slot in slots
                ]
            else:
                s_x = [s.eval_x(x) for s in sums]
            points.append((lhs.eval_x(x), [p.eval_x(x) for p in d], s_x))
    pairs = []
    for lhs_x, d_x, s_x in points:
        rhs = d_x[0] * s_x[0]  # C(n,0) = 1
        for k in range(1, n + 1):
            rhs = rhs + d_x[k] * (s_x[k] * binom(n, k))
        pairs.append((lhs_x, rhs))
    return pairs


def _dowling_reports(
    identity: str, params: dict, n: int, l: int, m: int, r: int, xs, variant: str
) -> list[VerificationReport]:
    """The reports of one (q,r)-Dowling instance, from one _dowling_sides:
    one per x in xs, in order, with x added to params, or for xs None the
    one symbolic report, tagged identity + "-poly", which the literal shape
    does not have.  xs is read once, so a one-shot iterator gives the same
    reports as a list.
    """
    _check_variant(variant)
    if xs is None and variant == "literal":
        raise ValueError("the literal shape has no symbolic form in x")
    if m < 1:
        raise ValueError("weight m must be >= 1")
    if xs is not None:
        xs = tuple(xs)
    if n < 0 or l < 0 or r < 0 or any(x < 0 for x in xs or ()):
        raise ValueError("arguments must be nonnegative")
    sides = _dowling_sides(n, l, m, r, xs, variant)
    if xs is None:
        [(lhs, rhs)] = sides
        tag = f"{identity}-poly"
        return [VerificationReport.check(tag, variant, params, lhs, rhs)]
    return [
        VerificationReport.check(identity, variant, {**params, "x": x}, lhs, rhs)
        for x, (lhs, rhs) in zip(xs, sides)
    ]


def verify_result1_xs(
    n: int, mshift: int, xs: Iterable[int] | None, variant: str
) -> list[VerificationReport]:
    """q-Bell polynomials at each integer x in xs, in order, or for xs None
    symbolically in x.  Both shapes share the summand S[mshift,j] · C(n,k)
    · [j]^(n-k) · q^(jk) · B_k(x) and differ in the final x-dependent
    factor (see the module docstring)."""
    params = {"n": n, "mshift": mshift}
    return _dowling_reports("result1", params, n, mshift, 1, 0, xs, variant)


def verify_katriel(n: int, l: int) -> VerificationReport:
    """q-Bell numbers: B_{n+l} == sum_{j,k} S[l,j] C(n,k) [j]^(n-k) q^(jk) B_k,
    the sides of the corrected result1 at x = 1."""
    [rep] = verify_result1_xs(n, l, [1], "corrected")
    params = {"n": n, "l": l}
    return VerificationReport("katriel", "n/a", params, rep.lhs_text, rep.rhs_text)


def verify_result2_xs(
    n: int, l: int, m: int, r: int, xs: Iterable[int] | None, variant: str
) -> list[VerificationReport]:
    """(q,r)-Dowling polynomials at each integer x in xs, in order, or for
    xs None symbolically in x.  The shared summand is W[l,j] · C(n,k) ·
    (m[j]+r)^(n-k) · q^(jk) · D_{m,0}(k; x); the literal shape also
    multiplies by m^j and the q-falling factor, the corrected one by x^j."""
    params = {"n": n, "l": l, "m": m, "r": r}
    return _dowling_reports("result2", params, n, l, m, r, xs, variant)


def _result3(
    identity: str, variant: str, params: dict, n: int, l: int, m: int, r: int
) -> VerificationReport:
    """D_{m,r}(n+l) == Σ_j Σ_k W(l,j)·C(n,k)·(m·j + r)^(n-k)·D_{m,0}(k) over
    the integer rows (an extra m^j in the literal shape), under identity."""
    if m < 1:
        raise ValueError("weight m must be >= 1")
    if n < 0 or l < 0 or r < 0:
        raise ValueError("arguments must be nonnegative")
    wrow = triangles.r_whitney_classic(l, m, r)[l]
    d0 = triangles.r_dowling(n, m, 0)
    lhs = triangles.r_dowling(n + l, m, r)[n + l]
    rhs = 0
    for j in range(l + 1):
        if not wrow[j]:
            continue
        scale = m**j if variant == "literal" else 1
        for k in range(n + 1):
            rhs += scale * wrow[j] * binom(n, k) * (m * j + r) ** (n - k) * d0[k]
    return VerificationReport.check(identity, variant, params, lhs, rhs)


def verify_result3(n: int, l: int, m: int, r: int, variant: str) -> VerificationReport:
    """Classical r-Dowling numbers, the q = 1, x = 1 shadow of result2."""
    _check_variant(variant)
    return _result3("result3", variant, {"n": n, "l": l, "m": m, "r": r}, n, l, m, r)


def verify_lem1(k: int) -> VerificationReport:
    """lem1: the q^k-twisted commutator of a with ad^k is [k]·ad^(k-1)."""
    if k < 1:
        raise ValueError("lem1 needs k >= 1")
    ad = NormalForm.raising()
    lhs = NormalForm.lowering().q_commutator(ad**k, k)
    rhs = (ad ** (k - 1)) * q_int(k)
    return VerificationReport.check("lem1", "n/a", {"k": k}, lhs, rhs)


def verify_lem2(k: int, cap: int) -> VerificationReport:
    """lem2: a^k acts on the truncated coherent vector as multiplication by
    x^k, compared on the cap - k window where the truncation is faithful."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if cap < k:
        raise ValueError("lem2 needs cap >= k")
    lowered = (NormalForm.lowering() ** k).apply(coherent_truncated(cap))
    lhs = lowered.truncated(cap - k).amps
    rhs = coherent_truncated(cap - k).scale(XQPoly.monomial(k)).amps
    return VerificationReport.check("lem2", "n/a", {"k": k, "cap": cap}, lhs, rhs)


def _lem4(identity: str, params: dict, k: int, m: int, r: int) -> VerificationReport:
    """(m·N + r)·ad^k == ad^k·(m[k] + r + m·q^k·N), reported under identity."""
    if k < 0 or m < 0 or r < 0:
        raise ValueError("arguments must be nonnegative")
    ad = NormalForm.raising()
    op = NormalForm.number() * m + NormalForm.identity() * r
    lhs = op * (ad**k)
    rhs = (ad**k) * (
        NormalForm.identity() * (q_int(k) * m + r)
        + NormalForm.number() * (QPoly.monomial(k) * m)
    )
    return VerificationReport.check(identity, "n/a", params, lhs, rhs)


def verify_lem3(k: int) -> VerificationReport:
    """lem3: N·ad^k == ad^k·([k] + q^k·N), lem4 at (m, r) = (1, 0) under
    its own tag, with params k alone."""
    return _lem4("lem3", {"k": k}, k, 1, 0)


def verify_lem4(k: int, m: int, r: int) -> VerificationReport:
    """lem4: (m·N + r)·ad^k == ad^k·(m[k] + r + m·q^k·N)."""
    return _lem4("lem4", {"k": k, "m": m, "r": r}, k, m, r)


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
    name only the kind and n, and it refuses a nonzero m or r.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if kind == "q-stirling":
        if m or r:
            raise ValueError(f"q-stirling takes no m or r, got m={m}, r={r}")
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


def verify_whitney_special(k: int, m: int) -> VerificationReport:
    """W_{m,0}[n,i] == m^(n-i) · S[n,i] for all i <= n <= k; at m = 1, where
    W is the q-Stirling triangle, this only pins the triangle's bytes."""
    qs = triangles.q_stirling2(k)
    rhs = [[qs[n][i] * (m ** (n - i)) for i in range(n + 1)] for n in range(k + 1)]
    params = {"k": k, "m": m}
    return VerificationReport.check(
        "whitney-special", "n/a", params, triangles.qr_whitney(k, m, 0), rhs
    )


def verify_q_expansion(s: int, n: int) -> VerificationReport:
    """The q-expansion law [s]^n == Σ_k S[n,k] · [s][s-1]..[s-k+1], as QPoly
    values; criterion 10 runs it, and it has no tag, so verify has no --s."""
    lhs = q_int(s) ** n
    row = triangles.q_stirling2(n)[n]
    rhs = QPoly.zero()
    for k in range(n + 1):
        rhs = rhs + row[k] * q_falling(s, k)
    return VerificationReport.check("q-expansion", "n/a", {"s": s, "n": n}, lhs, rhs)


class IdentitySpec(NamedTuple):
    """How one identity tag is driven over parameter ranges.

    verify:  takes exactly the axes, plus variant or kind where it has one
    axes:    (name, (lo, hi)) pairs in sweep order, (lo, hi) the default range
    variant: whether the verifier takes the literal/corrected shape
    lower:   each axis's least value that verify accepts, where it is above 0

    An axis named x is always the last one, and it is passed whole: the
    verifier takes xs, an iterable of x, and returns one report per x in
    order, so one task checks one instance of the other axes at every x
    and builds its x-free parts once.
    """

    verify: Callable[..., VerificationReport | list[VerificationReport]]
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
    "result1": IdentitySpec(verify_result1_xs, (_N, _MSHIFT, ("x", (0, 3))), True),
    "result2": IdentitySpec(
        verify_result2_xs, (_N, _L, _M, _R, ("x", (0, 3))), True, _M_GE_1
    ),
    "result3": IdentitySpec(verify_result3, (_N, _L, _M, _R), True, _M_GE_1),
    "katriel": IdentitySpec(verify_katriel, (_N, _L)),
    "lem1": IdentitySpec(verify_lem1, (_K,), lower=_K_GE_1),
    "lem2": IdentitySpec(verify_lem2, (("k", (0, 3)), ("cap", (10, 10)))),
    "lem3": IdentitySpec(verify_lem3, (_K,)),
    "lem4": IdentitySpec(verify_lem4, (_K, ("m", (0, 2)), ("r", (0, 2)))),
    # --kind q-stirling keeps only the n axis; the CLI handles that case
    "triangle-oracle": IdentitySpec(
        verify_triangle_vs_oracle, (_N, _M, _R), lower=_M_GE_1
    ),
    "whitney-special": IdentitySpec(
        verify_whitney_special, (("k", (6, 6)), _M), lower=_M_GE_1
    ),
}


def run_case(
    identity: str, variant: str | None, params: dict
) -> VerificationReport | list[VerificationReport]:
    """Run one verification by identity tag, params holding one value per
    axis, or xs for the x axis, whose one report per x comes as a list."""
    spec = IDENTITIES.get(identity)
    if spec is None:
        raise ValueError(f"unknown identity {identity!r}")
    if spec.variant:
        return spec.verify(**params, variant=variant or "corrected")
    return spec.verify(**params)
