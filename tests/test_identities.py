"""Identity verifiers: pass sweeps, cross-reductions, and failure witnesses.

The literal and corrected shapes are both exercised on purpose.  The
literal shapes must fail at specific small parameters with specific
payloads; those failures are pinned here as hard expectations, not
tolerated flakiness.
"""

import inspect
import random

import pytest

from qspivey import (
    NormalForm,
    QPoly,
    VerificationReport,
    XQPoly,
    identities,
    triangles,
)
from qspivey.qcalc import binom, q_falling, q_int
from qspivey.report import dumps


@pytest.fixture(autouse=True)
def fresh_caches(monkeypatch):
    """Each test starts with no rows, operator powers or Dowling values
    kept, so none leaks from one test or parameter into the next."""
    monkeypatch.setattr(triangles, "_BUILT", {})
    monkeypatch.setattr(identities, "_POWERS", {})
    monkeypatch.setattr(identities, "_DOWLING_AT", {})


def test_spivey_keeps_no_integer_row_past_mshift():
    """spivey reads B_0..B_(n+mshift) and Stirling row mshift: the (1, 0)
    integer rows kept stop at row mshift, and the Bell numbers are kept as
    sums beside one row."""
    assert identities.verify_spivey(40, 3).passed
    rows, _ = triangles._BUILT[triangles.r_whitney_classic_rows, 1, 0]
    assert len(rows) == 4
    bells, last = triangles._BUILT[sum, triangles.r_whitney_classic_rows, 1, 0]
    assert len(bells) == 44 and len(last) == 44
    assert bells == tuple(map(sum, triangles.r_whitney_classic(43, 1, 0)))


def test_stirling_def_and_bell_recurrence():
    for n in range(9):
        assert identities.verify_stirling_def(n).passed
    rep = identities.verify_bell_recurrence(12)
    assert rep.passed
    assert rep.lhs[7] == "877"


def test_spivey_passes_and_is_symmetric_in_the_split():
    for n in range(7):
        for mshift in range(7):
            a = identities.verify_spivey(n, mshift)
            b = identities.verify_spivey(mshift, n)
            assert a.passed and b.passed
            # both splits compute the same Bell number
            assert a.lhs == b.lhs


def test_spivey_witness_value():
    rep = identities.verify_spivey(1, 2)
    assert rep.lhs == "5" and rep.rhs == "5"


def test_katriel_small_witness():
    rep = identities.verify_katriel(1, 1)
    assert rep.passed
    assert rep.lhs == ["1", "1"]  # the q-Bell number 1 + q
    assert rep.rhs == ["1", "1"]


def test_katriel_sweep():
    for n in range(6):
        for l in range(6):
            assert identities.verify_katriel(n, l).passed


def test_katriel_is_result1_at_x_one():
    """Over criterion 5's range, n + l <= 9: katriel's side texts are those
    of the corrected result1 at x = 1, under katriel's own tag and params."""
    for total in range(10):
        for n in range(total + 1):
            l = total - n
            kat = identities.verify_katriel(n, l)
            [one] = identities.verify_result1_xs(n, l, [1], "corrected")
            assert (kat.lhs_text, kat.rhs_text) == (one.lhs_text, one.rhs_text)
            assert (kat.identity, kat.variant) == ("katriel", "n/a")
            assert kat.params == {"n": n, "l": l}
    with pytest.raises(ValueError, match="nonnegative"):
        identities.verify_katriel(-1, 0)


def test_result1_corrected_passes():
    for n in range(5):
        for mshift in range(5):
            for x in range(5):
                [rep] = identities.verify_result1_xs(n, mshift, [x], "corrected")
                assert rep.passed, (n, mshift, x)


def test_result1_literal_fails_with_pinned_payload():
    [rep] = identities.verify_result1_xs(1, 2, [1], "literal")
    assert not rep.passed
    assert rep.lhs == ["1", "2", "1", "1"]
    assert rep.rhs == ["1", "1"]


def test_result1_literal_agrees_when_the_factors_coincide():
    # at x = 1 and mshift <= 1 every surviving q-falling factor equals x^j
    for n in range(5):
        assert identities.verify_result1_xs(n, 1, [1], "literal")[0].passed
        assert identities.verify_result1_xs(n, 0, [3], "literal")[0].passed


def test_result1_variant_validation():
    with pytest.raises(ValueError):
        identities.verify_result1_xs(1, 1, [1], "fixed")
    with pytest.raises(ValueError):
        identities.verify_result1_xs(-1, 0, [0], "corrected")


def test_result1_xpoly_passes_and_matches_pointwise():
    """The symbolic form, xs=None, over criterion 6's whole range,
    n + mshift <= 8: a side has degree n + mshift in x, so the sweep's 7
    x-points alone certify the polynomial identity only up to
    n + mshift <= 6."""
    for total in range(9):
        for n in range(total + 1):
            mshift = total - n
            [rep] = identities.verify_result1_xs(n, mshift, None, "corrected")
            assert rep.passed
            assert (rep.identity, rep.variant) == ("result1-poly", "corrected")
            assert rep.params == {"n": n, "mshift": mshift}
            lhs = XQPoly.from_json(rep.lhs)
            for x in range(4):
                [point] = identities.verify_result1_xs(n, mshift, [x], "corrected")
                assert lhs.eval_x(x) == QPoly.from_json(point.lhs)


def test_result1_at_q_one_is_the_classical_polynomial_identity():
    # decoding either side at q = 1 must reproduce the classical Bell
    # polynomial sum_k S(n+mshift,k) x^k, computed here over plain ints
    for n in range(4):
        for mshift in range(4):
            for x in range(4):
                [rep] = identities.verify_result1_xs(n, mshift, [x], "corrected")
                row = triangles.stirling2(n + mshift)[n + mshift]
                classical = sum(row[k] * x**k for k in range(len(row)))
                assert QPoly.from_json(rep.lhs).eval_int(1) == classical
                assert QPoly.from_json(rep.rhs).eval_int(1) == classical


def test_result2_corrected_passes():
    for n in range(4):
        for l in range(4):
            for m in (1, 2, 3):
                for r in (0, 2):
                    for x in (0, 1, 3):
                        args = (n, l, m, r, [x], "corrected")
                        [rep] = identities.verify_result2_xs(*args)
                        assert rep.passed, (n, l, m, r, x)


def test_result2_literal_fails_with_pinned_payload():
    [rep] = identities.verify_result2_xs(1, 1, 2, 1, [1], "literal")
    assert not rep.passed
    assert QPoly.from_json(rep.lhs).eval_int(1) == 6
    assert QPoly.from_json(rep.rhs).eval_int(1) == 10
    assert rep.lhs == ["5", "1"]
    assert rep.rhs == ["8", "2"]


def _ref_horner(p, x):
    """The XQPoly p at the integer x by Horner's rule on its coefficients."""
    acc = QPoly.zero()
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def _ref_dowling_sides(n, l, m, r, x=None, variant="corrected"):
    """The (q,r)-Dowling double sum term by term, with no O(deg) kernel:
    every power of m[j] + r, every q^(jk) and every X_j is a schoolbook
    product, and x is substituted by Horner's rule."""
    row = triangles.qr_whitney(l, m, r)[l]
    lhs = triangles.qr_dowling_poly(n + l, m, r)
    d = [triangles.qr_dowling_poly(k, m, 0) for k in range(n + 1)]
    if x is None:
        rhs = XQPoly.zero()
    else:
        lhs, d, rhs = _ref_horner(lhs, x), [_ref_horner(p, x) for p in d], QPoly.zero()
    for j, w in enumerate(row):
        if x is None:
            xj = XQPoly.monomial(j)
        elif variant == "literal":
            xj = q_falling(x, j) * (m**j)
        else:
            xj = QPoly.const(x**j)
        b = q_int(j) * m + r
        for k in range(n + 1):
            power = QPoly.one()
            for _ in range(n - k):
                power = power * b
            term = w * binom(n, k) * power * QPoly.monomial(j * k)
            rhs = rhs + d[k] * term * xj
    return lhs, rhs


def test_dowling_sides_match_the_term_by_term_sum():
    for n in range(5):
        for l in range(5):
            for m in (1, 2, 3):
                for r in (0, 1, 2):
                    args = (n, l, m, r)
                    assert identities._dowling_sides(*args) == [
                        _ref_dowling_sides(*args)
                    ], args
                    for x in range(5):
                        for variant in ("literal", "corrected"):
                            got = identities._dowling_sides(*args, [x], variant)
                            want = [_ref_dowling_sides(*args, x, variant)]
                            assert got == want, (args, x, variant)
    # the literal witness of result2 stays what it was
    [(lhs, rhs)] = identities._dowling_sides(1, 1, 2, 1, [1], "literal")
    assert (lhs.to_json(), rhs.to_json()) == (["5", "1"], ["8", "2"])


def test_many_x_corrected_sides_are_the_symbolic_sides_at_each_x():
    """With n, n + 1 or n + 2 points, on either side of the size rule, the
    corrected sides at each x are the symbolic sides read there and the
    term-by-term sums at that x."""
    for n in range(4):
        for l in range(4):
            for m in (1, 2, 3):
                for r in (0, 1, 2):
                    args = (n, l, m, r)
                    [(lhs, rhs)] = identities._dowling_sides(*args)
                    for size in (n, n + 1, n + 2):
                        xs = range(size)
                        got = identities._dowling_sides(*args, xs)
                        read = [(lhs.eval_x(x), rhs.eval_x(x)) for x in xs]
                        assert got == read, (args, size)
                        ref = [_ref_dowling_sides(*args, x) for x in xs]
                        assert got == ref, (args, size)


@pytest.mark.parametrize(
    "size, variant, evals",
    [
        (3, "corrected", 3 * 9),  # per x: lhs, 4 D_{m,0}(k) and 4 S_k
        (4, "corrected", 4),  # per x: the symbolic lhs, which equals the rhs
        (4, "literal", 4 * 5),  # per x: lhs and 4 D_{m,0}(k)
    ],
)
def test_the_size_rule_reads_only_many_x_corrected_calls_symbolically(
    monkeypatch, size, variant, evals
):
    """At n = 3 a corrected call with 4 points takes the sides once in x
    and evaluates both at each x; 3 points, or the literal shape, keep the
    per-x read.  Counted by XQPoly.eval_x calls."""
    calls = 0
    eval_x = XQPoly.eval_x

    def counting(self, s):
        nonlocal calls
        calls += 1
        return eval_x(self, s)

    monkeypatch.setattr(XQPoly, "eval_x", counting)
    identities._dowling_sides(3, 2, 2, 1, range(size), variant)
    assert calls == evals


def test_equal_sides_are_handed_back_as_one_value():
    """Sides found equal come back as one value, at every x of the
    symbolic read and of the per-x read and in the symbolic form, and
    check writes that value's text once; sides that differ stay two."""
    for args in ((2, 1, 2, 1), (3, 2, 1, 0), (0, 2, 3, 2), (4, 1, 3, 0)):
        n = args[0]
        for xs in (range(n), range(n + 2)):  # per x, then symbolic in x
            pairs = identities._dowling_sides(*args, xs)
            assert len(pairs) == len(xs) and all(rhs is lhs for lhs, rhs in pairs)
        [(lhs, rhs)] = identities._dowling_sides(*args)
        assert rhs is lhs
        for rep in identities.verify_result2_xs(*args, range(n + 2), "corrected"):
            assert rep.rhs_text is rep.lhs_text
    [(lhs, rhs)] = identities._dowling_sides(1, 1, 2, 1, [1], "literal")
    assert lhs != rhs
    rep = identities.verify_triangle_vs_oracle("qr-whitney", 5, 2, 1)
    assert rep.passed and rep.rhs_text is rep.lhs_text


def test_the_dowling_store_reads_each_lhs_value_once(monkeypatch):
    """The n + l + 1 instances of one total at (m, r) evaluate D_{m,r}(n+l)
    once per x between them, criterion 7's order; the store keeps only the
    last total per (m, r), and its values are those of a fresh read."""
    calls = []
    eval_x = XQPoly.eval_x

    def counting(self, s):
        calls.append((self, s))
        return eval_x(self, s)

    monkeypatch.setattr(XQPoly, "eval_x", counting)
    for total in range(5):
        for n in range(total + 1):
            for m, r in ((3, 2), (2, 1)):
                identities._dowling_sides(n, total - n, m, r, range(3))
    for m, r in ((3, 2), (2, 1)):
        lhs = triangles.qr_dowling_poly(4, m, r)
        assert sum(p == lhs for p, _ in calls) == 3  # x = 0, 1, 2, once each
        kept_total, values = identities._DOWLING_AT[(m, r)]
        assert kept_total == 4
        assert values == {x: eval_x(lhs, x) for x in range(3)}
    assert sorted(identities._DOWLING_AT) == [(2, 1), (3, 2)]


def test_batched_verifiers_match_one_x_at_a_time():
    """One call over the x range of criteria 6 and 7 gives the single-x
    reports in x order, for both shapes and every instance of the two
    criteria.  In the literal shape [x][x-1]..[x-j+1] vanishes for j > x,
    so a slot that only some x of the range zero must still be summed."""
    literal_failures = 0
    for variant in ("literal", "corrected"):
        for total in range(9):
            for n in range(total + 1):
                args = (n, total - n)
                got = identities.verify_result1_xs(*args, range(7), variant)
                want = [
                    identities.verify_result1_xs(*args, [x], variant)[0]
                    for x in range(7)
                ]
                assert got == want, (args, variant)
                literal_failures += sum(not rep.passed for rep in got)
        for total in range(8):
            for n in range(total + 1):
                for m in (1, 2, 3):
                    for r in (0, 1, 2):
                        args = (n, total - n, m, r)
                        got = identities.verify_result2_xs(*args, range(6), variant)
                        want = [
                            identities.verify_result2_xs(*args, [x], variant)[0]
                            for x in range(6)
                        ]
                        assert got == want, (args, variant)
                        literal_failures += sum(not rep.passed for rep in got)
    # only the literal shape fails, and it does at many instances
    assert literal_failures > 100
    assert identities.verify_result1_xs(1, 2, [], "literal") == []
    with pytest.raises(ValueError):
        identities.verify_result1_xs(1, 2, [0, -1], "corrected")
    with pytest.raises(ValueError):
        identities.verify_result2_xs(1, 1, 2, 1, [3, -1], "corrected")


def test_batched_verifiers_read_a_one_shot_iterator_once():
    """A generator of x gives the same reports as the list of those x; an
    argument check that used it up first would leave no x to report."""
    assert identities.verify_result1_xs(1, 2, iter([0, 1]), "corrected") == (
        identities.verify_result1_xs(1, 2, [0, 1], "corrected")
    )
    got = identities.verify_result2_xs(1, 1, 2, 1, (x for x in range(3)), "literal")
    assert got == identities.verify_result2_xs(1, 1, 2, 1, range(3), "literal")
    assert len(got) == 3
    with pytest.raises(ValueError, match="nonnegative"):
        identities.verify_result1_xs(1, 2, iter([0, -1]), "corrected")


def test_result2_reduces_to_katriel_at_weight_one():
    for n in range(5):
        for l in range(5):
            [two] = identities.verify_result2_xs(n, l, 1, 0, [1], "corrected")
            kat = identities.verify_katriel(n, l)
            assert two.passed and kat.passed
            assert two.lhs == kat.lhs
            assert two.rhs == kat.rhs


def test_result2_validates():
    with pytest.raises(ValueError):
        identities.verify_result2_xs(1, 1, 0, 0, [1], "corrected")
    with pytest.raises(ValueError):
        identities.verify_result2_xs(1, 1, 1, 0, [1], "original")


def test_result2_xpoly_passes():
    """The symbolic form, xs=None, over criterion 7's whole range,
    n + l <= 7, m in 1..3, r in 0..2: a side has degree n + l in x, so the
    sweep's 6 x-points alone certify the polynomial identity only up to
    n + l <= 5."""
    for total in range(8):
        for n in range(total + 1):
            for m in (1, 2, 3):
                for r in (0, 1, 2):
                    args = (n, total - n, m, r)
                    [rep] = identities.verify_result2_xs(*args, None, "corrected")
                    assert rep.passed, args
                    assert rep.identity == "result2-poly"


def test_the_literal_shape_has_no_symbolic_form():
    """xs=None asks for the symbolic form, which only the corrected shape
    has; the literal shape fails at (n, mshift, x) = (1, 2, 1), so a
    passing symbolic report under its name would hide that."""
    with pytest.raises(ValueError, match="no symbolic form"):
        identities.verify_result1_xs(1, 2, None, "literal")
    with pytest.raises(ValueError, match="no symbolic form"):
        identities.verify_result2_xs(1, 1, 2, 1, None, "literal")
    # the pointwise literal reports are unchanged
    assert not identities.verify_result1_xs(1, 2, [1], "literal")[0].passed


def test_result2_lhs_rebuilt_from_the_operator_engine():
    """D_{m,r}(n; x) recovered from normal-ordering coefficients alone.

    The (k,k) coefficient of (m·N + r)^n is m^k · W[n,k]; dividing it by
    m^k (exactly) and attaching x^k must rebuild the Dowling polynomial.
    """
    for n in range(6):
        for m in (1, 2, 3):
            for r in (0, 1, 2):
                op = (NormalForm.number() * m + NormalForm.identity() * r) ** n
                parts = []
                for k in range(n + 1):
                    c = op.coefficient(k, k)
                    scale = m**k
                    divided = []
                    for coeff in c.coeffs:
                        assert coeff % scale == 0
                        divided.append(coeff // scale)
                    parts.append(QPoly(divided))
                rebuilt = XQPoly(parts)
                assert rebuilt == triangles.qr_dowling_poly(n, m, r)


def test_result3_corrected_passes():
    for n in range(5):
        for l in range(5):
            for m in (1, 2, 3):
                for r in (0, 1, 2):
                    assert identities.verify_result3(n, l, m, r, "corrected").passed


def test_result3_literal_fails_with_pinned_payload():
    rep = identities.verify_result3(1, 1, 2, 1, "literal")
    assert not rep.passed
    assert rep.lhs == "6"
    assert rep.rhs == "10"


def test_result3_reduces_to_spivey_at_weight_one():
    for n in range(6):
        for l in range(6):
            three = identities.verify_result3(n, l, 1, 0, "corrected")
            sp = identities.verify_spivey(n, l)
            assert three.lhs == sp.lhs
            assert three.rhs == sp.rhs


def _ref_result3_rhs(n, l, m, r, variant):
    """result3's double sum term by term, each power taken with ** (so 0^0
    is 1), over the same integer rows."""
    wrow = triangles.r_whitney_classic(l, m, r)[l]
    d0 = triangles.r_dowling(n, m, 0)
    return sum(
        (m**j if variant == "literal" else 1)
        * wrow[j]
        * binom(n, k)
        * (m * j + r) ** (n - k)
        * d0[k]
        for j in range(l + 1)
        for k in range(n + 1)
    )


def test_result3_horner_sum_is_the_term_by_term_double_sum():
    """r = 0 puts m·j + r = 0 in column j = 0; spivey is the (1, 0) case."""
    for n in range(7):
        for l in range(6):
            for m in (1, 2, 3):
                for r in (0, 1, 2):
                    for variant in ("literal", "corrected"):
                        rep = identities.verify_result3(n, l, m, r, variant)
                        want = _ref_result3_rhs(n, l, m, r, variant)
                        assert rep.rhs == str(want), (n, l, m, r, variant)
            want = _ref_result3_rhs(n, l, 1, 0, "corrected")
            assert identities.verify_spivey(n, l).rhs == str(want), (n, l)


def test_lemma_sweeps():
    for k in range(1, 9):
        assert identities.verify_lem1(k).passed
    for k in range(9):
        assert identities.verify_lem3(k).passed
    for k in range(6):
        for m in range(3):
            for r in range(3):
                assert identities.verify_lem4(k, m=m, r=r).passed
    for k in range(5):
        assert identities.verify_lem2(k, cap=9).passed


def test_lemma_validation():
    with pytest.raises(ValueError):
        identities.verify_lem1(0)
    with pytest.raises(ValueError):
        identities.verify_lem2(5, cap=4)
    with pytest.raises(ValueError):
        identities.verify_lem3(-1)


def test_lem3_is_the_printed_lemma():
    """lem3 runs lem4's body at (m, r) = (1, 0); the lemma as printed,
    N·ad^k == ad^k·([k] + q^k·N), is built here directly."""
    N, ad = NormalForm.number(), NormalForm.raising()
    for k in range(13):
        rep = identities.verify_lem3(k)
        printed = (ad**k) * (NormalForm.identity() * q_int(k) + N * QPoly.monomial(k))
        assert rep.passed and rep.identity == "lem3" and rep.params == {"k": k}
        assert rep.lhs == (N * (ad**k)).to_json()
        assert rep.rhs == printed.to_json()


def test_whitney_special_reduction_report():
    rep = identities.verify_whitney_special(8, 3)
    assert rep.passed
    assert rep.identity == "whitney-special"
    assert rep.params == {"k": 8, "m": 3}


def test_q_expansion_of_powers():
    # [s]^n = sum_k S[n,k] · [s][s-1]..[s-k+1], summed here cell by cell
    rows = triangles.q_stirling2(7)
    for s in range(8):
        for n in range(8):
            lhs = q_int(s) ** n
            rhs = QPoly.zero()
            for k, cell in enumerate(rows[n]):
                rhs = rhs + cell * q_falling(s, k)
            assert lhs == rhs
            rep = identities.verify_q_expansion(s, n)
            assert rep.passed and rep.params == {"s": s, "n": n}
            assert (rep.lhs, rep.rhs) == (lhs.to_json(), rhs.to_json())


def test_triangle_oracle_sweep_and_witness():
    for n in range(7):
        assert identities.verify_triangle_vs_oracle("q-stirling", n).passed
    for n in range(5):
        for m in (1, 2, 3):
            for r in (0, 1, 2):
                rep = identities.verify_triangle_vs_oracle("qr-whitney", n, m, r)
                assert rep.passed
    wit = identities.verify_triangle_vs_oracle("q-stirling", 3)
    assert wit.lhs == [[], ["1"], ["0", "2", "1"], ["0", "0", "0", "1"]]
    with pytest.raises(ValueError):
        identities.verify_triangle_vs_oracle("pascal", 3)
    with pytest.raises(ValueError):
        identities.verify_triangle_vs_oracle("qr-whitney", 3, 0, 0)


def _fresh_oracle_report(kind, n, m, r):
    """The triangle-oracle report with (m·N + r)^n built by __pow__."""
    op = (NormalForm.number() * m + NormalForm.identity() * r) ** n
    row = triangles.qr_whitney(n, m, r)[n]
    lhs = [(c * m**k).to_json() for k, c in enumerate(row)]
    rhs = [op.coefficient(k, k).to_json() for k in range(n + 1)]
    params = {"kind": kind, "n": n}
    if kind == "qr-whitney":
        params.update(m=m, r=r)
    return VerificationReport("triangle-oracle", "n/a", params, dumps(lhs), dumps(rhs))


def test_triangle_oracle_power_chain_matches_fresh_powers(monkeypatch):
    """Any order of n, with (m, r) pairs interleaved, reads the kept power
    chain up, down and across pairs; every report equals the one built
    from a fresh op ** n."""
    monkeypatch.setattr(identities, "_POWERS", {})
    cases = [
        ("qr-whitney", n, m, r) for m, r in ((2, 1), (3, 2), (1, 2)) for n in range(10)
    ]
    cases += [("q-stirling", n, 1, 0) for n in range(10)]
    random.Random(71).shuffle(cases)
    for kind, n, m, r in cases:
        args = (kind, n) if kind == "q-stirling" else (kind, n, m, r)
        got = identities.verify_triangle_vs_oracle(*args)
        assert got == _fresh_oracle_report(kind, n, m, r), (kind, n, m, r)
        assert got.passed


def test_triangle_oracle_range_takes_one_product_per_n(monkeypatch):
    """n = 0..32 for one (m, r) extends one chain: 32 NormalForm products,
    where rebuilding each power from the identity takes 528."""
    monkeypatch.setattr(identities, "_POWERS", {})
    products = 0
    mul = NormalForm.__mul__

    def counting_mul(self, other):
        nonlocal products
        products += isinstance(other, NormalForm)
        return mul(self, other)

    monkeypatch.setattr(NormalForm, "__mul__", counting_mul)
    for n in range(33):
        assert identities.verify_triangle_vs_oracle("qr-whitney", n, 3, 2).passed
    assert products == 32


def test_run_case_dispatch():
    rep = identities.run_case("spivey", None, {"n": 2, "mshift": 2})
    assert rep.identity == "spivey" and rep.passed
    [rep] = identities.run_case("result1", "literal", {"n": 1, "mshift": 2, "xs": [1]})
    assert not rep.passed
    rep = identities.run_case("lem2", None, {"k": 2, "cap": 8})
    assert rep.passed
    rep = identities.run_case("whitney-special", None, {"k": 5, "m": 2})
    assert rep.passed
    with pytest.raises(ValueError):
        identities.run_case("fermat", None, {"n": 3})


def _fixed(identity):
    """What a row's verifier takes besides its axes: variant where the row
    has one, and kind for triangle-oracle, whose axes are qr-whitney's."""
    if identities.IDENTITIES[identity].variant:
        return {"variant": "corrected"}
    return {"kind": "qr-whitney"} if identity == "triangle-oracle" else {}


def _verify_at(identity, values):
    """The row's verifier at one value per axis, the x axis passed whole as
    xs=[value], and its one report."""
    spec = identities.IDENTITIES[identity]
    args = {name: value for name, value in values.items() if name != "x"}
    if "x" in values:
        [rep] = spec.verify(**args, xs=[values["x"]], **_fixed(identity))
        return rep
    return spec.verify(**args, **_fixed(identity))


@pytest.mark.parametrize("identity", sorted(identities.IDENTITIES))
def test_a_verifier_takes_exactly_its_rows_axes(identity):
    """The x axis, where a row has one, is its last and is passed as xs."""
    spec = identities.IDENTITIES[identity]
    axes = [name for name, _ in spec.axes]
    assert "x" not in axes[:-1]
    names = {"xs" if name == "x" else name for name in axes} | set(_fixed(identity))
    assert set(inspect.signature(spec.verify).parameters) == names


@pytest.mark.parametrize("identity", sorted(identities.IDENTITIES))
def test_each_lower_bound_is_the_least_value_its_verifier_accepts(identity):
    """With every axis at its lower bound the verifier runs, and one below
    any single bound it refuses the instance."""
    spec = identities.IDENTITIES[identity]
    least = {name: spec.lower.get(name, 0) for name, _ in spec.axes}
    assert _verify_at(identity, least).identity == identity
    for name, bound in least.items():
        with pytest.raises(ValueError):
            _verify_at(identity, {**least, name: bound - 1})


@pytest.mark.parametrize(
    "which, kwargs, name",
    [
        ("lem3", {"m": 2}, "m"),
        ("lem3", {"r": 1}, "r"),
        ("lem3", {"cap": 5}, "cap"),
        ("lem1", {"m": 2}, "m"),
        ("lem1", {"r": 1}, "r"),
        ("lem1", {"cap": 5}, "cap"),
        ("lem2", {"m": 2, "cap": 5}, "m"),
        ("lem2", {"r": 1, "cap": 5}, "r"),
        ("lem4", {"m": 2, "r": 1, "cap": 5}, "cap"),
    ],
)
def test_a_lemma_refuses_an_argument_it_would_ignore(which, kwargs, name):
    """lem3 at m = 2 would report lem3 at (1, 0) and pass; a lemma's
    signature takes only its own axes, so any other argument is refused."""
    verify = identities.IDENTITIES[which].verify
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
        verify(4, **kwargs)
    # the same call without the ignored argument runs
    kept = {key: v for key, v in kwargs.items() if key != name}
    assert verify(4, **kept).passed


@pytest.mark.parametrize("m, r", [(2, 1), (2, 0), (0, 1)])
def test_the_q_stirling_oracle_refuses_a_weight_or_shift(m, r):
    with pytest.raises(ValueError, match="q-stirling takes no m or r"):
        identities.verify_triangle_vs_oracle("q-stirling", 3, m, r)


@pytest.mark.parametrize(
    "verify, params, lhs, rhs",
    [
        (identities.verify_result1_xs, (0, 1, [2]), ["2"], ["1", "1"]),
        (identities.verify_result2_xs, (0, 1, 2, 0, [1]), ["1"], ["2"]),
        (identities.verify_result3, (0, 1, 2, 0), "1", "2"),
    ],
    ids=["result1", "result2", "result3"],
)
def test_the_literal_shapes_fail_already_at_n_zero(verify, params, lhs, rhs):
    """At n = 0 each expansion is only D(l) = sum_j W[l,j]·X_j, so these
    witnesses put the literal fault in the basis X_j; the corrected shape
    passes at each.  result1 and result2 take their one x as xs."""

    def one(variant):
        rep = verify(*params, variant)
        return rep[0] if isinstance(rep, list) else rep

    rep = one("literal")
    assert (rep.lhs, rep.rhs, rep.passed) == (lhs, rhs, False)
    assert one("corrected").passed
