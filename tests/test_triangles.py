"""Triangle builders against enumeration oracles and frozen values."""

import random
import subprocess
import sys
from itertools import islice, zip_longest
from math import comb, factorial

import pytest

from qspivey import QPoly, q_falling, q_int, triangles


def _partitions_by_block_count(n):
    """Count set partitions of an n-element set, grouped by block count.

    Pure enumeration: each element joins an existing block or opens a new
    one.  Returns counts[k] for k = 0..n.
    """
    counts = [0] * (n + 1)

    def place(i, blocks):
        if i == n:
            counts[len(blocks)] += 1
            return
        for b in blocks:
            b.append(i)
            place(i + 1, blocks)
            b.pop()
        blocks.append([i])
        place(i + 1, blocks)
        blocks.pop()

    place(0, [])
    return counts


def test_stirling_rows_match_enumeration():
    rows = triangles.stirling2(7)
    for n in range(8):
        assert list(rows[n]) == _partitions_by_block_count(n)[: n + 1]


def test_bell_frozen_values():
    assert triangles.bell(7) == (1, 1, 2, 5, 15, 52, 203, 877)


def test_stirling_rejects_negative():
    with pytest.raises(ValueError):
        triangles.stirling2(-1)


def test_builders_extend_bottom_up_under_a_small_stack():
    # far fewer frames than rows: a builder that recursed once per row, or
    # a reorder that recursed once per lowering factor, would overflow
    code = (
        "import sys\n"
        "from qspivey import NormalForm, triangles\n"
        "sys.setrecursionlimit(50)\n"
        "triangles.stirling2(100)\n"
        "triangles.r_whitney_classic(100, 2, 1)\n"
        "triangles.q_stirling2(30)\n"
        "triangles.qr_whitney(30, 2, 1)\n"
        "NormalForm.monomial(0, 100) * NormalForm.monomial(2, 0)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_q_stirling_small_rows():
    rows = triangles.q_stirling2(3)
    assert rows[0] == (QPoly.one(),)
    assert rows[1] == (QPoly.zero(), QPoly.one())
    assert rows[2] == (QPoly.zero(), QPoly.one(), QPoly.monomial(1))
    # S[3,2] = q·S[2,1] + [2]·S[2,2] = q + (1+q)·q = 2q + q^2
    assert rows[3] == (
        QPoly.zero(),
        QPoly.one(),
        QPoly([0, 2, 1]),
        QPoly.monomial(3),
    )


def test_q_stirling_collapses_to_classical_at_one():
    qrows = triangles.q_stirling2(12)
    crows = triangles.stirling2(12)
    for n in range(13):
        assert tuple(c.eval_int(1) for c in qrows[n]) == crows[n]


def test_q_stirling_diagonal_and_positivity():
    rows = triangles.q_stirling2(10)
    for n in range(11):
        assert rows[n][n] == QPoly.monomial(n * (n - 1) // 2)
        for cell in rows[n]:
            assert all(c >= 0 for c in cell.coeffs)


def test_q_bell_polynomial_row_three():
    p = triangles.q_bell_poly(3)
    assert p.coeffs == (
        QPoly.zero(),
        QPoly.one(),
        QPoly([0, 2, 1]),
        QPoly.monomial(3),
    )
    # at q = 1 and x = 1 this is the Bell number 5
    assert p.eval_x(1).eval_int(1) == 5


def test_whitney_row_two_general():
    for m in range(1, 4):
        for r in range(3):
            rows = triangles.qr_whitney(2, m, r)
            assert rows[1] == (QPoly.const(r), QPoly.one())
            assert rows[2] == (
                QPoly.const(r * r),
                QPoly.const(m + 2 * r),
                QPoly.monomial(1),
            )


def test_whitney_weight_one_shift_zero_is_q_stirling():
    w = triangles.qr_whitney(9, 1, 0)
    s = triangles.q_stirling2(9)
    assert w == s


def test_whitney_validates_parameters():
    with pytest.raises(ValueError):
        triangles.qr_whitney(3, 0, 0)
    with pytest.raises(ValueError):
        triangles.qr_whitney(3, 2, -1)
    with pytest.raises(ValueError):
        triangles.r_whitney_classic(3, 0, 0)
    for args in ((3, 0, 0), (3, 1, -1), (-1, 1, 0)):
        with pytest.raises(ValueError):
            triangles.r_dowling(*args)


def test_dowling_polynomial_witness():
    p = triangles.qr_dowling_poly(2, 2, 1)
    assert p.coeffs == (QPoly.one(), QPoly.const(4), QPoly.monomial(1))


def test_r_whitney_matches_independent_classical_recurrence():
    # the q-rows at q = 1 against the integer rows that the CLI and result3
    # read, far enough out that the two routes cannot agree by accident
    for m in range(1, 4):
        for r in range(3):
            assert triangles.r_whitney(40, m, r) == triangles.r_whitney_classic(
                40, m, r
            )


def test_r_dowling_values():
    assert triangles.r_dowling(3, 2, 1) == (1, 2, 6, 24)
    # weight 1, shift 0 gives plain Bell numbers
    assert triangles.r_dowling(7, 1, 0) == triangles.bell(7)


def test_r_dowling_resumes_its_sums_from_the_last_row_kept(monkeypatch):
    """r_dowling keeps its sums and the last integer row under their own
    key, not the rows, and a longer request resumes from that row."""
    want = tuple(map(sum, triangles.r_whitney_classic(20, 2, 1)))
    monkeypatch.setattr(triangles, "_BUILT", {})
    assert triangles.r_dowling(5, 2, 1) == want[:6]
    assert triangles.r_dowling(20, 2, 1) == want
    assert triangles.r_dowling(3, 2, 1) == want[:4]
    (key, (sums, last)), = triangles._BUILT.items()
    assert key == (sum, triangles.r_whitney_classic_rows, 2, 1)
    assert sums == want and last == triangles.r_whitney_classic(20, 2, 1)[20]


def test_builders_return_fresh_equal_structures():
    # memoized builders must be pure: same arguments, same value
    assert triangles.q_stirling2(5) == triangles.q_stirling2(5)
    assert triangles.qr_whitney(5, 2, 1)[5] == triangles.qr_whitney(5, 2, 1)[5]


def test_builders_match_the_recurrence_with_plain_products(monkeypatch):
    """The q-rows take the span step and q_falling the shift and window
    products; the same recurrences written here with the schoolbook * must
    give the same rows, so a bug shared by the kernels cannot hide behind
    agreeing oracles."""
    monkeypatch.setattr(triangles, "_BUILT", {})
    n_max = 25
    for m, r, rows in (
        (1, 0, triangles.q_stirling2(n_max)),
        (1, 0, triangles.qr_whitney(n_max, 1, 0)),
        (2, 1, triangles.qr_whitney(n_max, 2, 1)),
        (3, 2, triangles.qr_whitney(n_max, 3, 2)),
    ):
        want = [(QPoly.one(),)]
        for n in range(1, n_max + 1):
            last = want[-1] + (QPoly.zero(),)
            want.append(tuple(
                (last[k - 1] * QPoly.monomial(k - 1) if k else QPoly.zero())
                + last[k] * (q_int(k) * m + r)
                for k in range(n + 1)
            ))
        assert rows == tuple(want)
    for s in range(n_max + 1):
        want = QPoly.one()
        for k in range(n_max + 1):
            assert q_falling(s, k) == want
            want = want * q_int(s - k) if s > k else QPoly.zero()


def test_integer_builder_matches_the_closed_form(monkeypatch):
    """W(n,k) = Σ_i (-1)^(k-i) C(k,i) (m·i + r)^n / (m^k k!) cell by cell.

    The explicit sum shares nothing with the recurrence; at (1, 0) it is
    the Stirling triangle, which has no recurrence line of its own."""
    monkeypatch.setattr(triangles, "_BUILT", {})
    n_max = 30
    for m, r, rows in (
        (1, 0, triangles.stirling2(n_max)),
        (2, 1, triangles.r_whitney_classic(n_max, 2, 1)),
        (3, 2, triangles.r_whitney_classic(n_max, 3, 2)),
        (1, 2, triangles.r_whitney_classic(n_max, 1, 2)),
    ):
        for n in range(n_max + 1):
            for k in range(n + 1):
                num = sum(
                    (-1) ** (k - i) * comb(k, i) * (m * i + r) ** n
                    for i in range(k + 1)
                )
                den = m**k * factorial(k)
                assert num % den == 0, (m, r, n, k)
                assert rows[n][k] == num // den, (m, r, n, k)


def _random_span(rng, length):
    """A span of signed coefficients: nonzero at both ends."""
    span = [rng.choice((-3, -2, -1, 0, 1, 2, 3, 10**30)) for _ in range(length)]
    span[0] = span[0] or 1
    span[-1] = span[-1] or -1
    return tuple(span)


def _list_sum(a, b):
    """a + b on plain coefficient lists, trimmed of trailing zeros."""
    out = [x + y for x, y in zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


def _is_normal(p):
    """p's span has nonzero ends, and a zero p is the shared zero."""
    return bool(p.span and p.span[0] and p.span[-1]) or p is QPoly.zero()


def test_cell_step_matches_the_dense_kernels():
    """A Whitney cell q^(k-1)·left + (m[k] + r)·p as the row builder adds
    it, QPoly + and - across valuations, against plain lists: on random
    signed spans for k = 0..12, m = 1..4 and r = 0..3, with left absent,
    zero, random, or built to cancel the weighted term at its low end, its
    high end, both, or entirely, so that the sum is trimmed at either end
    and can vanish."""
    rng = random.Random(20)
    modes = ("absent", "zero", "random", "low", "high", "both", "all")
    checked = set()
    for _ in range(12):
        for k in range(13):
            for m in range(1, 5):
                for r in range(4):
                    mode = "absent" if k == 0 else rng.choice(modes)
                    v = rng.randrange(4) + max(k - 1, 0)
                    p = [0] * v + list(_random_span(rng, rng.randrange(1, 9)))
                    # (m[k] + r)·p = r·p + m·(p + q·p + ... + q^(k-1)·p)
                    weighted = _list_sum([], [r * c for c in p])
                    for i in range(k):
                        weighted = _list_sum(weighted, [0] * i + [m * c for c in p])
                    b = QPoly(p).window(k) * m + QPoly(p) * r
                    assert list(b.coeffs) == weighted and _is_normal(b)
                    if mode == "absent":
                        checked.add((mode, not weighted))
                        continue
                    if mode == "zero":
                        left = []
                    elif mode == "random":
                        left = [0] * rng.randrange(12)
                        left += _random_span(rng, rng.randrange(1, 9))
                    else:
                        # q^(k-1)·left is -weighted, kept at the ends that are
                        # to cancel and changed at the others; weighted has
                        # p's v >= k - 1 leading zeros, which the shift needs
                        target = [-c for c in weighted]
                        lo = next(i for i, c in enumerate(target) if c)
                        if mode in ("high", "both"):
                            target[lo + 1 : -1] = [
                                c + rng.choice((0, 5)) for c in target[lo + 1 : -1]
                            ]
                        if mode == "high":
                            target[lo] += 7
                        if mode == "low":
                            target[-1] += 7
                        left = target[k - 1 :]
                    shifted = [0] * (k - 1) + left
                    want = _list_sum(shifted, weighted)
                    a = QPoly(left).shift(k - 1)
                    neg_a = QPoly([-c for c in shifted])
                    neg_b = QPoly([-c for c in weighted])
                    for total in (a + b, b + a, a - neg_b, b - neg_a):
                        assert list(total.coeffs) == want, (k, m, r, mode)
                        assert _is_normal(total), (k, m, r, mode)
                    difference = _list_sum(shifted, [-c for c in weighted])
                    for diff in (a - b, neg_b - neg_a):
                        assert list(diff.coeffs) == difference, (k, m, r, mode)
                        assert _is_normal(diff), (k, m, r, mode)
                    checked.add((mode, not want))
    assert ("all", True) in checked
    assert {mode for mode, _ in checked} == set(modes)


def test_whitney_step_matches_the_schoolbook_product():
    """The Whitney step p·(m[k] + r) as the builders take it, window(k)·m +
    p·r, against the schoolbook product by m[k] + r, on random signed spans
    at random valuations for k = 0..12, m = 1..4 and r = 0..3: the result
    is normal, and a zero result is the shared zero."""
    rng = random.Random(21)
    zeros = 0
    for _ in range(40):
        v = rng.choice((0, 1, 2, 3, 64, 150))
        p = QPoly([0] * v + list(_random_span(rng, rng.randrange(1, 12))))
        for k in range(13):
            for m in range(1, 5):
                for r in range(4):
                    got = p.window(k) * m + p * r
                    assert got == p * (q_int(k) * m + r), (v, k, m, r)
                    assert _is_normal(got), (v, k, m, r)
                    zeros += not got
    # k = 0 with r = 0 is the only zero weight
    assert zeros == 40 * 4
    z = QPoly.zero()
    assert z.window(3) * 2 + z * 1 is QPoly.zero()


def test_rows_resumed_from_any_cached_row_equal_the_fresh_run():
    for m, r in ((1, 0), (2, 0), (1, 2), (3, 2)):
        fresh = list(islice(triangles.qr_whitney_rows(m, r), 16))
        for i, row in enumerate(fresh):
            resumed = islice(triangles.qr_whitney_rows(m, r, row), 15 - i)
            assert list(resumed) == fresh[i + 1 :], (m, r, i)


def test_emitted_cells_are_normalised_and_zero_is_shared():
    """No cell's span starts or ends in a zero coefficient, and a zero
    cell is QPoly.zero() itself, as every ring operation gives it."""
    for m, r in ((1, 0), (2, 0), (1, 2), (3, 2)):
        zeros = 0
        for row in islice(triangles.qr_whitney_rows(m, r), 20):
            for cell in row:
                assert type(cell) is QPoly
                assert not cell.coeffs or cell.coeffs[-1], cell
                assert not cell or cell.span[0] and cell.span[-1], cell
                assert cell or cell is QPoly.zero()
                zeros += not cell
        assert zeros == (19 if r == 0 else 0)
