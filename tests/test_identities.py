"""Identity verifiers: pass sweeps, cross-reductions, and failure witnesses.

The literal and corrected shapes are both exercised on purpose.  The
literal shapes must fail at specific small parameters with specific
payloads; those failures are pinned here as hard expectations, not
tolerated flakiness.
"""

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


def test_result1_corrected_passes():
    for n in range(5):
        for mshift in range(5):
            for x in range(5):
                rep = identities.verify_result1(n, mshift, x, "corrected")
                assert rep.passed, (n, mshift, x)


def test_result1_literal_fails_with_pinned_payload():
    rep = identities.verify_result1(1, 2, 1, "literal")
    assert not rep.passed
    assert rep.lhs == ["1", "2", "1", "1"]
    assert rep.rhs == ["1", "1"]


def test_result1_literal_agrees_when_the_factors_coincide():
    # at x = 1 and mshift <= 1 every surviving q-falling factor equals x^j
    for n in range(5):
        assert identities.verify_result1(n, 1, 1, "literal").passed
        assert identities.verify_result1(n, 0, 3, "literal").passed


def test_result1_variant_validation():
    with pytest.raises(ValueError):
        identities.verify_result1(1, 1, 1, "fixed")
    with pytest.raises(ValueError):
        identities.verify_result1(-1, 0, 0, "corrected")


def test_result1_xpoly_passes_and_matches_pointwise():
    for n in range(5):
        for mshift in range(4):
            rep = identities.verify_result1_xpoly(n, mshift)
            assert rep.passed
            lhs = XQPoly.from_json(rep.lhs)
            for x in range(4):
                point = identities.verify_result1(n, mshift, x, "corrected")
                assert lhs.eval_x(x) == QPoly.from_json(point.lhs)


def test_result1_at_q_one_is_the_classical_polynomial_identity():
    # decoding either side at q = 1 must reproduce the classical Bell
    # polynomial sum_k S(n+mshift,k) x^k, computed here over plain ints
    for n in range(4):
        for mshift in range(4):
            for x in range(4):
                rep = identities.verify_result1(n, mshift, x, "corrected")
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
                        rep = identities.verify_result2(n, l, m, r, x, "corrected")
                        assert rep.passed, (n, l, m, r, x)


def test_result2_literal_fails_with_pinned_payload():
    rep = identities.verify_result2(1, 1, 2, 1, 1, "literal")
    assert not rep.passed
    assert QPoly.from_json(rep.lhs).eval_int(1) == 6
    assert QPoly.from_json(rep.rhs).eval_int(1) == 10
    assert rep.lhs == ["5", "1"]
    assert rep.rhs == ["8", "2"]


def test_result2_reduces_to_katriel_at_weight_one():
    for n in range(5):
        for l in range(5):
            two = identities.verify_result2(n, l, 1, 0, 1, "corrected")
            kat = identities.verify_katriel(n, l)
            assert two.passed and kat.passed
            assert two.lhs == kat.lhs
            assert two.rhs == kat.rhs


def test_result2_validates():
    with pytest.raises(ValueError):
        identities.verify_result2(1, 1, 0, 0, 1, "corrected")
    with pytest.raises(ValueError):
        identities.verify_result2(1, 1, 1, 0, 1, "original")


def test_result2_xpoly_passes():
    for n in range(4):
        for l in range(4):
            for m in (1, 2):
                for r in (0, 1):
                    assert identities.verify_result2_xpoly(n, l, m, r).passed


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


def test_lemma_sweeps():
    for k in range(1, 9):
        assert identities.verify_lemma("lem1", k).passed
    for k in range(9):
        assert identities.verify_lemma("lem3", k).passed
    for k in range(6):
        for m in range(3):
            for r in range(3):
                assert identities.verify_lemma("lem4", k, m=m, r=r).passed
    for k in range(5):
        assert identities.verify_lemma("lem2", k, cap=9).passed


def test_lemma_validation():
    with pytest.raises(ValueError):
        identities.verify_lemma("lem1", 0)
    with pytest.raises(ValueError):
        identities.verify_lemma("lem2", 5, cap=4)
    with pytest.raises(ValueError):
        identities.verify_lemma("lem9", 1)
    with pytest.raises(ValueError):
        identities.verify_lemma("lem3", -1)


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
    return VerificationReport("triangle-oracle", "n/a", params, lhs, rhs, lhs == rhs)


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
    rep = identities.run_case("result1", "literal", {"n": 1, "mshift": 2, "x": 1})
    assert not rep.passed
    rep = identities.run_case("lem2", None, {"k": 2, "cap": 8})
    assert rep.passed
    rep = identities.run_case("whitney-special", None, {"k": 5, "m": 2})
    assert rep.passed
    with pytest.raises(ValueError):
        identities.run_case("fermat", None, {"n": 3})
