"""Normal ordering engine against the truncated occupancy simulator.

The two engines implement the same algebra through unrelated code paths,
so their agreement on random words is the strongest internal evidence the
package has.  Witness values in here were worked out by hand.
"""

import random

import pytest

from qspivey import (
    CapOverflowError,
    FockVector,
    NormalForm,
    QPoly,
    XQPoly,
    boson,
    coherent_truncated,
    q_falling,
    q_int,
)

A = NormalForm.lowering()
AD = NormalForm.raising()
N = NormalForm.number()
ONE = NormalForm.identity()


def test_defining_relation():
    # a ad - q ad a = 1
    assert A * AD - (AD * A) * QPoly.monomial(1) == ONE


def test_number_powers_hand_values():
    assert (N**2).terms == (((1, 1), QPoly([1])), ((2, 2), QPoly([0, 1])))
    n3 = N**3
    assert n3.coefficient(1, 1) == QPoly.one()
    assert n3.coefficient(2, 2) == QPoly([0, 2, 1])
    assert n3.coefficient(3, 3) == QPoly([0, 0, 0, 1])
    assert n3.coefficient(0, 0) == QPoly.zero()


def test_reordering_one_lowering_past_two_raisings():
    # a ad^2 = q^2 ad^2 a + (1+q) ad
    got = A * (AD**2)
    assert got.terms == (
        ((1, 0), QPoly([1, 1])),
        ((2, 1), QPoly([0, 0, 1])),
    )


def test_identity_is_neutral():
    w = N * AD + A * 3
    assert ONE * w == w
    assert w * ONE == w
    assert (NormalForm.zero() * w) == NormalForm.zero()


def test_q_commutator_twisted_by_power():
    # [a, ad^k] twisted by q^k collapses to [k] ad^(k-1)
    for k in range(1, 11):
        got = A.q_commutator(AD**k, k)
        assert got == (AD ** (k - 1)) * q_int(k)


def test_scalar_multiplication_and_subtraction():
    w = N * 2 - N
    assert w == N
    assert (N * QPoly.monomial(1)).coefficient(1, 1) == QPoly.monomial(1)
    assert N - N == NormalForm.zero()


def test_pow_validates():
    with pytest.raises(ValueError):
        N**-1
    assert N**0 == ONE


def test_from_json_rejects_non_integer_exponents():
    # int() would read 1.5 and true as 1 and "٣" as 3
    for bad in (1.5, True, "1.5", "٣"):
        for key in ("k", "l"):
            rec = {"k": 1, "l": 1, "coeff": ["1"], key: bad}
            with pytest.raises(TypeError):
                NormalForm.from_json([rec])


def test_from_json_takes_only_a_coefficient_list():
    # "12" would otherwise read as the coefficient 1 + 2q
    for bad in ("12", {"0": "1"}, 12):
        with pytest.raises(TypeError):
            NormalForm.from_json([{"k": 1, "l": 1, "coeff": bad}])


def test_json_round_trip():
    w = A * AD - (AD * A) * 2  # has a negative coefficient entry
    enc = w.to_json()
    assert NormalForm.from_json(enc) == w
    assert enc == sorted(enc, key=lambda d: (d["k"], d["l"]))
    assert NormalForm.zero().to_json() == []


def test_unit_vectors_and_amplitudes():
    v = FockVector.unit(2, 4)
    assert v.amplitude(2) == XQPoly.one()
    assert v.amplitude(0) == XQPoly.zero()
    with pytest.raises(ValueError):
        v.amplitude(5)
    with pytest.raises(ValueError):
        FockVector.unit(5, 4)


def test_lowering_annihilates_vacuum():
    v = FockVector.unit(0, 3)
    assert not A.apply(v)


def test_ladder_actions_in_rescaled_basis():
    v = FockVector.unit(2, 4)
    down = A.apply(v)
    assert down.amplitude(1) == XQPoly.one()
    up = AD.apply(v)
    assert up.amplitude(3) == XQPoly([q_int(3)])


def test_diagonal_action_gives_q_falling():
    # ad^k a^k has eigenvalue [s][s-1]..[s-k+1] on occupancy s
    for s in range(9):
        for k in range(9):
            v = FockVector.unit(s, 8)
            got = NormalForm.monomial(k, k).apply(v)
            expect_amp = XQPoly([q_falling(s, k)])
            for t in range(9):
                want = expect_amp if t == s else XQPoly.zero()
                assert got.amplitude(t) == want


def test_number_operator_eigenvalue():
    v = FockVector.unit(5, 6)
    assert N.apply(v).amplitude(5) == XQPoly([q_int(5)])


def test_cap_overflow_is_a_hard_error():
    v = FockVector.unit(3, 3)
    with pytest.raises(CapOverflowError):
        AD.apply(v)


def test_annihilated_amplitudes_need_no_headroom():
    # ad^5 a^3 would overflow from occupancy 1 only if the amplitude
    # survived the lowering, and it does not
    v = FockVector.unit(1, 2)
    assert not NormalForm.monomial(5, 3).apply(v)


def test_coherent_amplitudes():
    v = coherent_truncated(3)
    assert [a for a in v.amps] == [XQPoly.monomial(s) for s in range(4)]


def test_lowering_coherent_multiplies_by_x():
    cap = 6
    got = A.apply(coherent_truncated(cap)).truncated(cap - 1)
    want = coherent_truncated(cap - 1).scale(XQPoly.monomial(1))
    assert got == want


def test_truncated_validates():
    v = coherent_truncated(4)
    with pytest.raises(ValueError):
        v.truncated(5)
    assert v.truncated(4) == v


def test_vector_addition_requires_same_cap():
    with pytest.raises(ValueError):
        FockVector.unit(0, 2) + FockVector.unit(0, 3)
    v = FockVector.unit(1, 3)
    assert (v + v).amplitude(1) == XQPoly.const(2)


def _rand_nf(rng):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        k, l = rng.randint(0, 2), rng.randint(0, 2)
        terms[(k, l)] = QPoly([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
    return NormalForm(terms)


def test_apply_is_multiplicative_on_random_words():
    """apply(A*B, v) must equal apply(A, apply(B, v)).

    This is the cross-engine check: the left side exercises the symbolic
    reordering, the right side never reorders anything.
    """
    rng = random.Random(424242)
    for _ in range(150):
        fa, fb = _rand_nf(rng), _rand_nf(rng)
        v = FockVector.unit(rng.randint(0, 3), 10)
        assert (fa * fb).apply(v) == fa.apply(fb.apply(v))


def test_apply_is_linear_on_random_words():
    rng = random.Random(31337)
    for _ in range(100):
        fa, fb = _rand_nf(rng), _rand_nf(rng)
        v = FockVector.unit(rng.randint(0, 3), 8)
        assert (fa + fb).apply(v) == fa.apply(v) + fb.apply(v)


def test_vector_amplitudes_must_be_a_sequence():
    # a single QPoly is one amplitude, not an amplitude list
    with pytest.raises(TypeError):
        FockVector(1, QPoly([1, 2]))
    assert FockVector(1, [QPoly([1]), 2]).amplitude(1) == XQPoly.const(2)


def test_reorder_matches_the_rewrite_with_plain_products(monkeypatch):
    """_reorder sums the q-Wick closed form with the shift, window and
    unwindow kernels; the one-factor rewrite a^l ad^k =
    q^k (a^(l-1) ad^k) a + [k] (a^(l-1) ad^(k-1)), filled bottom-up here
    with the schoolbook *, pins it independently of them."""
    monkeypatch.setattr(boson, "_REORDERED", {})
    want = {}
    for l in range(16):
        for k in range(16):
            if l == 0 or k == 0:
                want[l, k] = {(k, l): QPoly.one()}
                continue
            terms = {
                (kt, lt + 1): c * QPoly.monomial(k)
                for (kt, lt), c in want[l - 1, k].items()
            }
            for key, c in want[l - 1, k - 1].items():
                terms[key] = terms.get(key, QPoly.zero()) + c * q_int(k)
            want[l, k] = terms
    for (l, k), terms in want.items():
        assert dict(boson._reorder(l, k).terms) == terms, (l, k)


def test_q_commutator_matches_the_product_by_the_monomial():
    """q_commutator twists by a shift; the schoolbook product by q^t is the
    reference."""
    rng = random.Random(2024)
    forms = [A, AD**3, N * QPoly([0, -1, 2]) + ONE] + [_rand_nf(rng) for _ in range(4)]
    for x in forms:
        for y in forms:
            for t in range(21):
                want = x * y - (y * x) * QPoly.monomial(t)
                assert x.q_commutator(y, t) == want
