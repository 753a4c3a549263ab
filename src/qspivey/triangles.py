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

A q-row cell is q^(k-1)·left + m·(p·[k]) + r·p on plain QPolys, built
from polys' public kernels alone: shift, window and two scalings.  polys
stores each value as its leading-zero count and its span, so the shift
only moves left's count, window is a running sum over p's span, a
scaling is one pass over it (none at m = 1, and r = 0 gives the shared
zero), and the sums add spans over their overlap; the builder holds no
span state of its own.  identities._dowling_sides steps its slots by the
same expression.

A row generator holds only the last row.  The builders return nested
tuples and keep one triangle per parameter set, the longest built so
far: a request for fewer rows is a prefix of it, and a request for more
rows drives the generator on from its last row, so the work and the
stack depth stay flat in n.  r_dowling keeps its row sums the same way,
beside the last integer row alone, so spivey, which reads B_0..B_(n+mshift)
and Stirling row mshift, keeps no integer row past mshift.  The CLI drives
the generators directly, with no cache, so its memory stays flat in n as
well.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Iterator

from .polys import QPoly, XQPoly


# longest triangle built so far per builder and parameter set, with its
# last row; a call for a larger n_max extends it row by row, so no call
# recurses on n_max - 1
_BUILT: dict[tuple, tuple] = {}


def _built(
    rows_after, m: int, r: int, n_max: int, read: Callable | None = None
) -> tuple:
    """Rows 0..n_max of the triangle that the row generator rows_after
    makes for (m, r), or read(row) of each when read is given: those kept
    so far, extended by rows_after(m, r, last row made, or None when there
    is none).  With read, only the values read and the last row are kept
    under their own key, not the rows."""
    key = (rows_after, m, r) if read is None else (read, rows_after, m, r)
    kept, last = _BUILT.get(key, ((), None))
    if len(kept) <= n_max:
        more = []
        for last in islice(rows_after(m, r, last), n_max + 1 - len(kept)):
            more.append(last if read is None else read(last))
        kept += tuple(more)
        _BUILT[key] = kept, last
    return kept[: n_max + 1]


def stirling2(n_max: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..n_max of the classical Stirling-set triangle: W at m = 1, r = 0."""
    return r_whitney_classic(n_max, 1, 0)


def bell(n_max: int) -> tuple[int, ...]:
    """Bell numbers B_0..B_n_max: the r-Dowling numbers at m = 1, r = 0,
    the Stirling row sums."""
    return r_dowling(n_max, 1, 0)


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

    Only the last row is kept, so a caller that drops each row holds two
    rows at a time.  m >= 1 and r >= 0 are the caller's to check, as
    qr_whitney does.
    """
    if last is None:
        last = (QPoly.one(),)
        yield last
    while True:
        n = len(last)
        # column 0 has no left neighbour, and column n no cell above it
        row = [last[0] * r]
        row += [
            last[k - 1].shift(k - 1) + last[k].window(k) * m + last[k] * r
            for k in range(1, n)
        ]
        row.append(last[n - 1].shift(n - 1))
        last = tuple(row)
        yield last


def qr_dowling_poly(n: int, m: int, r: int) -> XQPoly:
    """The (q,r)-Dowling polynomial: Whitney row n read in x."""
    return XQPoly(qr_whitney(n, m, r)[n])


def r_whitney(n_max: int, m: int, r: int) -> tuple[tuple[int, ...], ...]:
    """The q-rows evaluated at q = 1: the q = 1 specialization that the
    cross-route checks compare with r_whitney_classic."""
    return tuple(
        tuple(c.eval_int(1) for c in row) for row in qr_whitney(n_max, m, r)
    )


def _check_classic(n_max: int, m: int, r: int) -> None:
    if m < 1:
        raise ValueError("weight m must be >= 1")
    if r < 0 or n_max < 0:
        raise ValueError("arguments must be nonnegative")


def r_dowling(n_max: int, m: int, r: int) -> tuple[int, ...]:
    """Classical r-Dowling numbers as r-Whitney row sums, kept as sums:
    the integer rows they are read from are not."""
    _check_classic(n_max, m, r)
    return _built(r_whitney_classic_rows, m, r, n_max, sum)


def r_whitney_classic(n_max: int, m: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Independent classical recurrence W(n,k) = W(n-1,k-1) + (mk+r)·W(n-1,k).

    Built directly over the integers, never touching the q-triangle; it
    serves every integer answer and cross-checks r_whitney.
    """
    _check_classic(n_max, m, r)
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
        # column 0 has no left neighbour, and column n no cell above it
        row = [last[0] * r]
        row += [last[k - 1] + (m * k + r) * last[k] for k in range(1, n)]
        row.append(last[n - 1])
        last = tuple(row)
        yield last
