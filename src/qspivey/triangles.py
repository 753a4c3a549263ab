"""Triangle and polynomial families built by recurrence.

The (q,r)-Whitney triangle with weight m >= 1 and shift r >= 0 is

    W[n,k] = q^(k-1) · W[n-1,k-1] + (m[k] + r) · W[n-1,k],

seeded with a single 1 at n = k = 0.  At (m, r) = (1, 0) it is the
q-Stirling triangle S[n,k] = q^(k-1) · S[n-1,k-1] + [k] · S[n-1,k], and at
q = 1 it is the classical r-Whitney triangle, whose (1, 0) case is the
Stirling triangle S(n,k) = S(n-1,k-1) + k·S(n-1,k).  So there are two row
loops: qr_whitney over q-polynomials and r_whitney_classic over the
integers; q_stirling2, q_bell_poly and stirling2 are their (1, 0) cases.
r_whitney_classic never touches the q-triangle, so the q = 1
specialization of qr_whitney has an independent route to be checked
against.

The k = 0 column comes out as r^n, so 0 for n >= 1 in the Stirling case,
which matches the operator picture: m^k·W[n,k] is the coefficient of
ad^k a^k in the normal ordering of (m·N + r)^n, and S[n,k] that of N^n.
That correspondence is not taken on faith; it is certified row by row
against the normal-ordering engine by identities.verify_triangle_vs_oracle.

Row sums at x = 1 give the q-Bell numbers and (q,r)-Dowling numbers; with
x kept symbolic they give the q-Bell and (q,r)-Dowling polynomials.

All builders return nested tuples and keep one triangle per parameter
set, the longest built so far: a request for fewer rows is a prefix of
it, and a request for more rows extends it bottom-up, so the work and the
stack depth stay flat in n.
"""

from __future__ import annotations

from .polys import QPoly, XQPoly
from .report import VerificationReport


# longest triangle built so far per builder and parameter set; a call for
# a larger n_max extends it row by row, so no call recurses on n_max - 1
_BUILT: dict[tuple, tuple] = {}


def _prefix(key: tuple, n_max: int) -> tuple | None:
    """Rows 0..n_max of triangle key if they are built already."""
    rows = _BUILT.get(key, ())
    return rows[: n_max + 1] if len(rows) > n_max else None


def _resume(key: tuple, seed: tuple) -> list:
    return list(_BUILT.get(key, (seed,)))


def _keep(key: tuple, rows: list, n_max: int) -> tuple:
    rows = tuple(rows)
    if len(rows) > len(_BUILT.get(key, ())):
        _BUILT[key] = rows
    return rows[: n_max + 1]


def stirling2(n_max: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..n_max of the classical Stirling-set triangle: W at m = 1, r = 0."""
    return r_whitney_classic(n_max, 1, 0)


def bell(n_max: int) -> tuple[int, ...]:
    """Bell numbers B_0..B_n_max as Stirling row sums."""
    return tuple(sum(row) for row in stirling2(n_max))


def q_stirling2(n_max: int) -> tuple[tuple[QPoly, ...], ...]:
    """Rows 0..n_max of the q-Stirling triangle: the (q,r)-Whitney triangle
    at m = 1, r = 0."""
    return qr_whitney(n_max, 1, 0)


def q_bell_poly(n: int) -> XQPoly:
    """The q-Bell polynomial: the (q,r)-Dowling polynomial at m = 1, r = 0."""
    return qr_dowling_poly(n, 1, 0)


def qr_whitney(n_max: int, m: int, r: int) -> tuple[tuple[QPoly, ...], ...]:
    """Rows 0..n_max of the (q,r)-Whitney triangle for weight m, shift r."""
    if m < 1:
        raise ValueError("weight m must be >= 1")
    if r < 0:
        raise ValueError("shift r must be nonnegative")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    done = _prefix(("qr_whitney", m, r), n_max)
    if done is not None:
        return done
    rows = _resume(("qr_whitney", m, r), (QPoly.one(),))
    for n in range(len(rows), n_max + 1):
        last = rows[-1]
        row = []
        for k in range(n + 1):
            v = last[k - 1].shift(k - 1) if k >= 1 else QPoly.zero()
            if k <= n - 1:
                # (m[k] + r)·p; the products by m = 1 and r = 0 are skipped,
                # since a full product per cell would more than double the
                # cost of the q-Stirling case
                w = last[k].window(k)
                if m != 1:
                    w = w * m
                if r:
                    w = w + last[k] * r
                v = v + w
            row.append(v)
        rows.append(tuple(row))
    return _keep(("qr_whitney", m, r), rows, n_max)


def qr_dowling_poly(n: int, m: int, r: int) -> XQPoly:
    """The (q,r)-Dowling polynomial: Whitney row n read in x."""
    return XQPoly(qr_whitney(n, m, r)[n])


def r_whitney(n_max: int, m: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Classical r-Whitney rows, obtained by evaluating the q-rows at q = 1."""
    return tuple(
        tuple(c.eval_int(1) for c in row) for row in qr_whitney(n_max, m, r)
    )


def r_dowling(n_max: int, m: int, r: int) -> tuple[int, ...]:
    """Classical r-Dowling numbers as r-Whitney row sums."""
    return tuple(sum(row) for row in r_whitney(n_max, m, r))


def r_whitney_classic(n_max: int, m: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Independent classical recurrence W(n,k) = W(n-1,k-1) + (mk+r)·W(n-1,k).

    Built directly over the integers, never touching the q-triangle; used
    to cross-check the q = 1 specialization.
    """
    if m < 1:
        raise ValueError("weight m must be >= 1")
    if r < 0 or n_max < 0:
        raise ValueError("arguments must be nonnegative")
    done = _prefix(("r_whitney_classic", m, r), n_max)
    if done is not None:
        return done
    rows = _resume(("r_whitney_classic", m, r), (1,))
    for n in range(len(rows), n_max + 1):
        last = rows[-1]
        row = []
        for k in range(n + 1):
            v = last[k - 1] if k >= 1 else 0
            if k <= n - 1:
                v += (m * k + r) * last[k]
            row.append(v)
        rows.append(tuple(row))
    return _keep(("r_whitney_classic", m, r), rows, n_max)


def whitney_special_check(k_max: int, m: int) -> VerificationReport:
    """Certify W_{m,0}[k,i] == m^(k-i) · S[k,i] for all i <= k <= k_max."""
    qs = q_stirling2(k_max)
    rhs = [
        [qs[k][i] * (m ** (k - i)) for i in range(k + 1)] for k in range(k_max + 1)
    ]
    params = {"k": k_max, "m": m}
    return VerificationReport.check(
        "whitney-special", "n/a", params, qr_whitney(k_max, m, 0), rhs
    )
