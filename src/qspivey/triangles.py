"""Triangle and polynomial families built by recurrence; this module only
builds, and every check of what it builds lives in identities.

The (q,r)-Whitney triangle with weight m >= 1 and shift r >= 0 is

    W[n,k] = q^(k-1) · W[n-1,k-1] + (m[k] + r) · W[n-1,k],

seeded with a single 1 at n = k = 0.  At (m, r) = (1, 0) it is the
q-Stirling triangle S[n,k] = q^(k-1) · S[n-1,k-1] + [k] · S[n-1,k], and at
q = 1 it is the classical r-Whitney triangle, whose (1, 0) case is the
Stirling triangle S(n,k) = S(n-1,k-1) + k·S(n-1,k).  So there are two row
loops, each a row generator: qr_whitney_rows over q-polynomials and
r_whitney_classic_rows over the integers; q_stirling2, q_bell_poly and
stirling2 are their (1, 0) cases.  Every integer answer (stirling2,
bell, r_whitney_classic, r_dowling) comes from the integer rows, which
never touch the q-triangle.  r_whitney, the q-rows evaluated at q = 1,
is that specialization alone: the cross-route checks compare it with
r_whitney_classic, so the two routes stay independent.

The k = 0 column comes out as r^n, so 0 for n >= 1 in the Stirling case,
which matches the operator picture: m^k·W[n,k] is the coefficient of
ad^k a^k in the normal ordering of (m·N + r)^n, and S[n,k] that of N^n.
That correspondence is not taken on faith; it is certified row by row
against the normal-ordering engine by identities.verify_triangle_vs_oracle.

Row sums at x = 1 give the q-Bell numbers and (q,r)-Dowling numbers; with
x kept symbolic they give the q-Bell and (q,r)-Dowling polynomials.

The q-rows hold each cell as (v, span): its number v of leading zeros
(a column-k cell starts at q^C(k,2), so about half of all coefficients
are such zeros) and its span, the coefficients from its first nonzero
one to its last.  A cell is built from spans alone, in C: q^(k-1)·left
only moves left's v, p·[k] is itertools.accumulate over a[i] - a[i-k],
the products by m and r are map(mul, ...) (skipped at m = 1 and r = 0),
and the two terms are added by one map(add, ...) over their overlap.
The spans are written out once per row, as QPolys (0,)*v + span.
_weight_step, the (m[k] + r)·p step on one QPoly, is that same span
step; identities._dowling_sides takes it too.  The dense shift and
window kernels of polys are the reference the span step is tested
against.

A row generator holds only the last row.  The builders return nested
tuples and keep one triangle per parameter set, the longest built so
far: a request for fewer rows is a prefix of it, and a request for more
rows drives the generator on from its last row, so the work and the
stack depth stay flat in n.  The CLI drives the generators directly,
with no cache, so its memory stays flat in n as well.
"""

from __future__ import annotations

from itertools import accumulate, chain, compress, count, islice, repeat
from operator import add, mul, sub
from typing import Iterator

from .polys import QPoly, XQPoly


# longest triangle built so far per builder and parameter set; a call for
# a larger n_max extends it row by row, so no call recurses on n_max - 1
_BUILT: dict[tuple, tuple] = {}


def _built(rows_after, m: int, r: int, n_max: int) -> tuple:
    """Rows 0..n_max of the triangle that the row generator rows_after
    makes for (m, r): the rows built so far, extended by
    rows_after(m, r, last row built, or None when there is none)."""
    key = (rows_after, m, r)
    rows = _BUILT.get(key, ())
    if len(rows) <= n_max:
        more = rows_after(m, r, rows[-1] if rows else None)
        rows += tuple(islice(more, n_max + 1 - len(rows)))
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
    return _built(qr_whitney_rows, m, r, n_max)


def qr_whitney_rows(
    m: int, r: int, last: tuple[QPoly, ...] | None = None
) -> Iterator[tuple[QPoly, ...]]:
    """The (q,r)-Whitney rows after row last, or from row 0 when last is
    None, without end.

    Only the last row is kept, as the (v, span) of each cell, so a caller
    that drops each row holds two rows at a time.  m >= 1 and r >= 0 are
    the caller's to check, as qr_whitney does.
    """
    if last is None:
        spans = [(0, (1,))]
        yield (QPoly.one(),)
    else:
        spans = list(map(_span_of, last))
    while True:
        n = len(spans)
        # column 0 has no left neighbour, and column n no cell above it
        row = [_cell(None, spans[0], 0, m, r)]
        row += [_cell(spans[k - 1], spans[k], k, m, r) for k in range(1, n)]
        v, span = spans[n - 1]
        row.append((v + n - 1, span))
        spans = row
        yield tuple(_qpoly(v, span) for v, span in row)


def _span_of(p: QPoly) -> tuple[int, tuple]:
    """(v, span) of p: its number v of leading zeros and its coefficients
    from the first nonzero one on; zero is (0, ())."""
    cs = p.coeffs
    if not cs:
        return 0, ()
    v = next(compress(count(), cs))  # the index of the first nonzero one
    return v, cs[v:]


def _qpoly(v: int, span: tuple) -> QPoly:
    """The QPoly q^v·span; an empty span is the shared zero.  The tuple
    ends in a nonzero coefficient, so _make keeps it with no copy."""
    return QPoly._make((0,) * v + span if v else span) if span else QPoly.zero()


def _cell(left, p, k: int, m: int, r: int) -> tuple[int, tuple]:
    """(v, span) of q^(k-1)·left + (m[k] + r)·p, from the (v, span) of
    left and of p; left None is an absent term.

    The weighted span keeps p's v and never needs trimming (_span_step),
    and the shift by q^(k-1) only moves left's v.  The two spans are added
    over their overlap; a sum can cancel only where both spans start or
    both end, so only those ends are checked and trimmed.
    """
    v, b = p
    b = _span_step(b, k, m, r)
    if left is None or not left[1]:
        return (v, b) if b else (0, ())
    u, a = left[0] + k - 1, left[1]
    if not b:
        return u, a
    if v < u:
        u, a, v, b = v, b, u, a
    # a starts d places before b
    d = v - u
    na, nb = len(a), len(b)
    if d >= na:
        return u, a + (0,) * (d - na) + b
    end = d + nb
    s = tuple(map(add, islice(a, d, None), b))
    if d:
        s = a[:d] + s
    if end < na:
        s += a[end:]
    elif end > na:
        s += b[na - d :]
    if d == 0 and not s[0] or end == na and not s[-1]:
        return _trimmed(u, s)
    return u, s


def _trimmed(u: int, s: tuple) -> tuple[int, tuple]:
    """(v, span) of q^u·s for an s that may start or end with zeros."""
    nz = list(compress(count(), s))
    if not nz:
        return 0, ()
    return u + nz[0], s[nz[0] : nz[-1] + 1]


def _span_step(a: tuple, k: int, m: int, r: int) -> tuple:
    """The span of a·(m[k] + r), for a span a (first and last items nonzero).

    Since m >= 1 and r >= 0, m[k] + r has a nonzero constant term, so the
    product keeps a's leading-zero count, and for k >= 1 its first item is
    (m + r)·a[0] and its last m·a[-1] (k >= 2) or (m + r)·a[-1] (k = 1):
    the product is a span again, with no trim.  a·[k] is the running sum
    of a[i] - a[i-k]; the products by m = 1 and r = 0 are skipped.
    """
    if not a:
        return a
    if k == 0 or k == 1:
        c = m + r if k else r
        if c == 1:
            return a
        return tuple(map(mul, a, repeat(c))) if c else ()
    b = tuple(map(mul, a, repeat(m))) if m != 1 else a
    w = accumulate(map(sub, chain(b, repeat(0, k - 1)), chain(repeat(0, k), b)))
    if not r:
        return tuple(w)
    w = list(w)
    w[: len(a)] = map(add, w, map(mul, a, repeat(r)))
    return tuple(w)


def _weight_step(p: QPoly, k: int, m: int, r: int) -> QPoly:
    """p·(m[k] + r), the step of the Whitney recurrence in column k: the
    row builder's span step, on a QPoly."""
    v, span = _span_of(p)
    return _qpoly(v, _span_step(span, k, m, r))


def qr_dowling_poly(n: int, m: int, r: int) -> XQPoly:
    """The (q,r)-Dowling polynomial: Whitney row n read in x."""
    # the row's cells are checked QPolys already
    return XQPoly._make(list(qr_whitney(n, m, r)[n]))


def r_whitney(n_max: int, m: int, r: int) -> tuple[tuple[int, ...], ...]:
    """The q-rows evaluated at q = 1: the q = 1 specialization that the
    cross-route checks compare with r_whitney_classic."""
    return tuple(
        tuple(c.eval_int(1) for c in row) for row in qr_whitney(n_max, m, r)
    )


def r_dowling(n_max: int, m: int, r: int) -> tuple[int, ...]:
    """Classical r-Dowling numbers as r-Whitney row sums."""
    return tuple(sum(row) for row in r_whitney_classic(n_max, m, r))


def r_whitney_classic(n_max: int, m: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Independent classical recurrence W(n,k) = W(n-1,k-1) + (mk+r)·W(n-1,k).

    Built directly over the integers, never touching the q-triangle; it
    serves every integer answer and cross-checks r_whitney.
    """
    if m < 1:
        raise ValueError("weight m must be >= 1")
    if r < 0 or n_max < 0:
        raise ValueError("arguments must be nonnegative")
    return _built(r_whitney_classic_rows, m, r, n_max)


def r_whitney_classic_rows(
    m: int, r: int, last: tuple[int, ...] | None = None
) -> Iterator[tuple[int, ...]]:
    """The classical r-Whitney rows after row last, or from row 0 when last
    is None, without end; as qr_whitney_rows, over the integers."""
    if last is None:
        last = (1,)
        yield last
    while True:
        n = len(last)
        row = []
        for k in range(n + 1):
            v = last[k - 1] if k >= 1 else 0
            if k <= n - 1:
                v += (m * k + r) * last[k]
            row.append(v)
        last = tuple(row)
        yield last
