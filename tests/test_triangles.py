"""Triangle builders against enumeration oracles and frozen values."""

import subprocess
import sys
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
        "from qspivey import boson, triangles\n"
        "sys.setrecursionlimit(50)\n"
        "triangles.stirling2(100)\n"
        "triangles.r_whitney_classic(100, 2, 1)\n"
        "triangles.q_stirling2(30)\n"
        "triangles.qr_whitney(30, 2, 1)\n"
        "boson._reorder(100, 2)\n"
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


def test_dowling_polynomial_witness():
    p = triangles.qr_dowling_poly(2, 2, 1)
    assert p.coeffs == (QPoly.one(), QPoly.const(4), QPoly.monomial(1))


def test_r_whitney_matches_independent_classical_recurrence():
    for m in range(1, 4):
        for r in range(3):
            assert triangles.r_whitney(10, m, r) == triangles.r_whitney_classic(
                10, m, r
            )


def test_r_dowling_values():
    assert triangles.r_dowling(3, 2, 1) == (1, 2, 6, 24)
    # weight 1, shift 0 gives plain Bell numbers
    assert triangles.r_dowling(7, 1, 0) == triangles.bell(7)


def test_whitney_special_reduction_report():
    rep = triangles.whitney_special_check(8, 3)
    assert rep.passed
    assert rep.identity == "whitney-special"
    assert rep.params == {"k": 8, "m": 3}


def test_q_expansion_of_powers():
    # [s]^n = sum_k S[n,k] · [s][s-1]..[s-k+1]
    rows = triangles.q_stirling2(7)
    for s in range(8):
        for n in range(8):
            lhs = q_int(s) ** n
            rhs = QPoly.zero()
            for k, cell in enumerate(rows[n]):
                rhs = rhs + cell * q_falling(s, k)
            assert lhs == rhs


def test_builders_return_fresh_equal_structures():
    # memoized builders must be pure: same arguments, same value
    assert triangles.q_stirling2(5) == triangles.q_stirling2(5)
    assert triangles.qr_whitney(5, 2, 1)[5] == triangles.qr_whitney(5, 2, 1)[5]


def test_builders_match_the_recurrence_with_plain_products(monkeypatch):
    """The builders and q_falling take shift and window products; the same
    recurrences written here with the schoolbook * must give the same rows,
    so a bug shared by the kernels cannot hide behind agreeing oracles."""
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
