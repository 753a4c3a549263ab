"""Exactness and ring behavior of the two polynomial types."""

import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspivey import QPoly, XQPoly, q_int


def test_constructor_normalizes_trailing_zeros():
    assert QPoly([1, 0, 0]) == QPoly([1])
    assert QPoly([0, 0, 0]) == QPoly.zero()
    assert QPoly([1, 0, 0]).coeffs == (1,)


def test_zero_has_no_degree():
    assert QPoly.zero().degree is None
    assert QPoly([7]).degree == 0
    assert QPoly([0, 0, 3]).degree == 2
    assert XQPoly.zero().degree is None


def test_rejects_non_integer_coefficients():
    with pytest.raises(TypeError):
        QPoly([1.5])
    with pytest.raises(TypeError):
        QPoly.monomial(2, 1.5)
    with pytest.raises(TypeError):
        QPoly.const("1")
    with pytest.raises(TypeError):
        XQPoly(["1"])
    with pytest.raises(TypeError):
        XQPoly.monomial(1, "1")
    with pytest.raises(TypeError):
        XQPoly([QPoly([1]), XQPoly([1])])
    # a QPoly is a coefficient, not a coefficient sequence
    with pytest.raises(TypeError):
        XQPoly(QPoly([1]))
    # JSON coefficients are ints or ASCII decimal strings, nothing int() reads
    for bad in (1.5, True, "1.5"):
        with pytest.raises(TypeError):
            QPoly.from_json([bad])
        with pytest.raises(TypeError):
            XQPoly.from_json([["1"], [bad]])


def test_from_json_takes_only_a_list():
    # a str is iterable, so "12" would otherwise read as the coefficients 1, 2
    for bad in ("12", "", {"0": "1"}, 12, None):
        with pytest.raises(TypeError):
            QPoly.from_json(bad)
        with pytest.raises(TypeError):
            XQPoly.from_json(bad)
        with pytest.raises(TypeError):
            XQPoly.from_json([["1"], bad])


def test_foreign_operands_raise_and_cross_ring_equality_is_false():
    p, x = QPoly([1, 2]), XQPoly([1])
    for bad in (1.5, "1", None):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(p, bad)
            with pytest.raises(TypeError):
                op(bad, x)
    assert QPoly([1]) != XQPoly([1]) and XQPoly([1]) != QPoly([1])
    assert QPoly([1]) != 1 and XQPoly.zero() != QPoly.zero()


def test_add_examples():
    # (1 + q) + q = 1 + 2q
    assert QPoly([1, 1]) + QPoly([0, 1]) == QPoly([1, 2])
    p = QPoly([3, 0, 2])
    assert p + QPoly.zero() == p
    # exact cancellation collapses to the canonical zero
    assert QPoly([1, 1, 1]) + QPoly([-1, -1, -1]) == QPoly.zero()


def test_mul_examples():
    # (1 + q + q^2)(1 + q) = 1 + 2q + 2q^2 + q^3, by hand convolution
    assert QPoly([1, 1, 1]) * QPoly([1, 1]) == QPoly([1, 2, 2, 1])
    assert (QPoly([1, 1]) * QPoly([1, 1])).coeffs == (1, 2, 1)
    p = QPoly([5, -3])
    assert p * QPoly.one() == p
    assert p * QPoly.zero() == QPoly.zero()
    assert p * 2 == QPoly([10, -6])
    assert 2 * p == QPoly([10, -6])


def test_pow_conventions():
    assert QPoly.zero() ** 0 == QPoly.one()
    assert QPoly([1, 1]) ** 2 == QPoly([1, 2, 1])
    assert QPoly.monomial(1) ** 3 == QPoly.monomial(3)
    with pytest.raises(ValueError):
        QPoly.one() ** -1


def test_eval_int():
    assert QPoly([1, 1, 1]).eval_int(1) == 3
    assert QPoly([0, 2, 1]).eval_int(1) == 3
    assert QPoly([0, 2, 1]).eval_int(2) == 8
    assert QPoly.zero().eval_int(5) == 0
    assert QPoly([1, -1]).eval_int(-2) == 3


def _rand_coeffs(rng):
    """Raw int list: empty, length 1, negative, >= 10**40 or trailing zeros."""
    shape = rng.randrange(5)
    n = 0 if shape == 0 else 1 if shape == 1 else rng.randint(2, 6)
    cs = [rng.randint(-9, 9) for _ in range(n)]
    if cs and shape == 2:
        cs[rng.randrange(n)] = rng.choice((-1, 1)) * rng.randint(10**40, 10**41)
    if shape == 3:
        cs += [0] * rng.randint(1, 3)
    return cs


def _rand_xcoeffs(rng):
    """Raw list of int lists, with empty and trailing-zero rows as above."""
    rows = [_rand_coeffs(rng) for _ in range(rng.choice((0, 1, 2, 3, 4)))]
    if rng.random() < 0.2:
        rows.append([0, 0])
    return rows


def _rand_qpoly(rng):
    return QPoly(_rand_coeffs(rng))


def test_ring_axioms_random():
    """Commutativity, associativity and distributivity on random inputs."""
    rng = random.Random(20250819)
    for _ in range(200):
        a, b, c = _rand_qpoly(rng), _rand_qpoly(rng), _rand_qpoly(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + QPoly.zero() == a
        assert a * QPoly.one() == a


def test_eval_is_ring_homomorphism():
    rng = random.Random(77)
    for _ in range(200):
        a, b = _rand_qpoly(rng), _rand_qpoly(rng)
        v = rng.randint(-4, 4)
        assert (a + b).eval_int(v) == a.eval_int(v) + b.eval_int(v)
        assert (a * b).eval_int(v) == a.eval_int(v) * b.eval_int(v)


def test_big_coefficients_stay_exact():
    big = 10**40
    p = QPoly([big, -big])
    assert (p * p).coeffs == (big * big, -2 * big * big, big * big)
    assert QPoly.from_json(p.to_json()) == p


def test_qpoly_json_round_trip():
    for coeffs in [(), (1,), (0, 1), (1, -2, 0, 3)]:
        p = QPoly(coeffs)
        enc = p.to_json()
        assert all(isinstance(s, str) for s in enc)
        assert QPoly.from_json(enc) == p
    assert QPoly.zero().to_json() == []


def test_xqpoly_basics():
    x = XQPoly.monomial(1)
    assert x * x == XQPoly.monomial(2)
    p = XQPoly([QPoly.zero(), QPoly.one(), QPoly.monomial(1)])  # x + q x^2
    assert p.eval_x(1) == QPoly([1, 1])
    assert p.eval_x(0) == QPoly.zero()
    assert p.eval_x(2) == QPoly([2, 4])
    assert (p * QPoly.monomial(1)).coeffs[1] == QPoly.monomial(1)
    with pytest.raises(ValueError):
        p.eval_x(-1)


def test_xqpoly_mul_matches_pointwise_eval():
    rng = random.Random(99)
    for _ in range(100):
        a = XQPoly(QPoly(c) for c in _rand_xcoeffs(rng))
        b = XQPoly(QPoly(c) for c in _rand_xcoeffs(rng))
        s = rng.randint(0, 5)
        assert (a * b).eval_x(s) == a.eval_x(s) * b.eval_x(s)
        assert (a + b).eval_x(s) == a.eval_x(s) + b.eval_x(s)


def test_xqpoly_pow_and_scale():
    x = XQPoly.monomial(1)
    assert x**0 == XQPoly.one()
    assert x**3 == XQPoly.monomial(3)
    assert (x * 3).eval_x(2) == QPoly([6])
    assert (QPoly.monomial(1) * x).coeffs == (QPoly.zero(), QPoly.monomial(1))


def test_xqpoly_json_round_trip():
    p = XQPoly([QPoly([1]), QPoly.zero(), QPoly([0, 2, 1])])
    enc = p.to_json()
    assert enc == [["1"], [], ["0", "2", "1"]]
    assert XQPoly.from_json(enc) == p
    assert XQPoly.zero().to_json() == []


def test_str_forms():
    assert str(QPoly.zero()) == "0"
    assert str(QPoly([1, 2, 1])) == "1 + 2q + q^2"
    assert str(QPoly([0, -1])) == "-q"
    assert str(XQPoly([QPoly([1]), QPoly([1, 1])])) == "(1) + (1 + q)x"


# plain list-of-ints reference for the differential test below; an XQPoly
# is a list of such lists, and results are compared after trimming


def _ref_trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _ref_add(a, b, add=operator.add, zero=0):
    n = max(len(a), len(b))
    a = list(a) + [zero] * (n - len(a))
    b = list(b) + [zero] * (n - len(b))
    return [add(x, y) for x, y in zip(a, b)]


def _ref_mul(a, b, add=operator.add, mul=operator.mul, zero=0):
    out = [zero] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = add(out[i + j], mul(x, y))
    return out


def _ref_horner(cs, v, add=operator.add, mul=operator.mul, zero=0):
    acc = zero
    for c in reversed(cs):
        acc = add(mul(acc, v), c)
    return acc


# the same operations one level up, on lists of int lists
def _x_add(a, b):
    return _ref_add(a, b, _ref_add, [])


def _x_mul(a, b):
    return _ref_mul(a, b, _ref_add, _ref_mul, [])


def _x_neg(a):
    return [[-c for c in row] for row in a]


def _x_norm(rows):
    return _ref_trim([_ref_trim(row) for row in rows])


def _check_normal(p):
    """Last stored coefficient nonzero; coefficients int or normal QPoly."""
    assert type(p.coeffs) is tuple
    assert not p.coeffs or p.coeffs[-1]
    if isinstance(p, QPoly):
        assert all(type(c) is int for c in p.coeffs)
    else:
        assert all(type(c) is QPoly for c in p.coeffs)
        for c in p.coeffs:
            _check_normal(c)


def _q(p, want):
    _check_normal(p)
    assert isinstance(p, QPoly) and list(p.coeffs) == _ref_trim(want)


def _x(p, want):
    _check_normal(p)
    assert isinstance(p, XQPoly)
    assert [list(c.coeffs) for c in p.coeffs] == _x_norm(want)


def test_differential_against_plain_lists():
    """Both rings and every mixed pairing against the list reference."""
    rng = random.Random(20261018)
    for _ in range(150):
        a, b = _rand_coeffs(rng), _rand_coeffs(rng)
        k = rng.choice((0, 1, -1, 7, -(10**40)))
        pa, pb = QPoly(a), QPoly(b)
        _q(pa + pb, _ref_add(a, b))
        _q(pa - pb, _ref_add(a, [-c for c in b]))
        _q(-pa, [-c for c in a])
        _q(pa * pb, _ref_mul(a, b))
        e = rng.randint(0, 3)
        want = [1]
        for _ in range(e):
            want = _ref_mul(want, a)
        _q(pa**e, want)
        # QPoly with an int on either side
        _q(pa * k, [c * k for c in a])
        _q(k * pa, [c * k for c in a])
        _q(pa + k, _ref_add(a, [k]))
        _q(k + pa, _ref_add(a, [k]))
        _q(pa - k, _ref_add(a, [-k]))
        _q(k - pa, _ref_add([k], [-c for c in a]))
        v = rng.randint(-3, 3)
        assert pa.eval_int(v) == _ref_horner(a, v)

        xa, xb = _rand_xcoeffs(rng), _rand_xcoeffs(rng)
        pxa, pxb = XQPoly(QPoly(c) for c in xa), XQPoly(QPoly(c) for c in xb)
        _check_normal(pxa)
        _x(pxa + pxb, _x_add(xa, xb))
        _x(pxa - pxb, _x_add(xa, _x_neg(xb)))
        _x(-pxa, _x_neg(xa))
        _x(pxa * pxb, _x_mul(xa, xb))
        _x(pxa**2, _x_mul(xa, xa))
        # XQPoly with a QPoly or an int on either side
        for s, sc in ((pa, a), (k, [k])):
            _x(pxa * s, [_ref_mul(row, sc) for row in xa])
            _x(s * pxa, [_ref_mul(row, sc) for row in xa])
            _x(pxa + s, _x_add(xa, [sc]))
            _x(s + pxa, _x_add(xa, [sc]))
            _x(pxa - s, _x_add(xa, [[-c for c in sc]]))
            _x(s - pxa, _x_add([sc], _x_neg(xa)))
        s = rng.randint(0, 4)
        _q(pxa.eval_x(s), _ref_horner(xa, [s], _ref_add, _ref_mul, []))

        # sparse operands on either side: a monomial of degree up to 200
        # and an operand with leading zeros, so that both operands' zeros
        # are skipped
        mono = [0] * rng.randint(0, 200) + [rng.choice((1, -3, 10**40))]
        for sp in (mono, [0] * rng.randint(1, 4) + b):
            want = _ref_mul(a, sp)
            _q(pa * QPoly(sp), want)
            _q(QPoly(sp) * pa, want)
        xsp = [[]] * rng.randint(1, 4) + xb
        pxsp = XQPoly(QPoly(c) for c in xsp)
        _x(pxa * pxsp, _x_mul(xa, xsp))
        _x(pxsp * pxa, _x_mul(xa, xsp))

        # the O(deg) kernels: shift by s = 0..4 and window [w] for w = 0, 1,
        # 2 and past the operand's length
        w = rng.choice((0, 1, 2, len(a) + rng.randint(1, 3)))
        _q(pa.shift(s), _ref_mul(a, [0] * s + [1]))
        _q(pa.window(w), _ref_mul(a, [1] * w))
        _x(pxa.shift(s), _x_mul(xa, [[]] * s + [[1]]))
        _x(pxa.window(w), _x_mul(xa, [[1]] * w))
        assert pa.shift(s) == pa * QPoly.monomial(s)
        assert pa.window(w) == pa * q_int(w)
        assert pxa.shift(s) == pxa * XQPoly.monomial(s)
        assert pxa.window(w) == pxa * XQPoly([1] * w)
        # unwindow, the exact division by [k], inverts window
        k = rng.randint(1, 9)
        for p in (pa, pxa):
            got = p.window(k).unwindow(k)
            _check_normal(got)
            assert got == p


def test_kernels_reject_negative_lengths():
    with pytest.raises(ValueError):
        QPoly([1]).shift(-1)
    with pytest.raises(ValueError):
        XQPoly([1]).window(-1)


def test_unwindow_raises_on_a_remainder():
    """Exact division never truncates: a nonzero remainder and k < 1 raise."""
    with pytest.raises(ValueError):
        QPoly([1, 0, 1]).unwindow(2)  # 1 + q^2 = (1 + q)·(q - 1) + 2
    with pytest.raises(ValueError):
        QPoly([1, 1]).unwindow(3)  # degree below that of [3]
    for k in (0, -1):
        with pytest.raises(ValueError):
            QPoly([1]).unwindow(k)
    assert QPoly.zero().unwindow(4) == QPoly.zero()
    rng = random.Random(3)
    for _ in range(100):
        p, k = _rand_qpoly(rng), rng.randint(2, 9)
        # p·[k] plus a nonzero constant: [k] has positive degree, so no
        # quotient exists
        with pytest.raises(ValueError):
            (p.window(k) + rng.choice((1, -2, 10**40))).unwindow(k)
        x = XQPoly([p, QPoly(_rand_coeffs(rng))])
        with pytest.raises(ValueError):
            (x.window(k) + XQPoly.monomial(k - 2)).unwindow(k)


_COEFF = st.one_of(
    st.integers(-9, 9),
    st.integers(10**40, 10**41),
    st.integers(-(10**41), -(10**40)),
)
# raw coefficient lists, some padded with trailing zeros
_COEFFS = st.tuples(st.lists(_COEFF, max_size=8), st.integers(0, 3)).map(
    lambda t: t[0] + [0] * t[1]
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(a=_COEFFS, b=_COEFFS, s=st.integers(0, 12), w=st.integers(0, 12))
def test_kernels_match_schoolbook_product(a, b, s, w):
    """shift and window against the convolution, in both rings, and
    unwindow, the exact division by [k], as the convolution's inverse."""
    p = QPoly(a)
    x = XQPoly([p, QPoly(b)])
    k = w + 1
    for got, want in (
        (p.shift(s), p * QPoly.monomial(s)),
        (p.window(w), p * q_int(w)),
        (x.shift(s), x * XQPoly.monomial(s)),
        (x.window(w), x * XQPoly([1] * w)),
        ((p * q_int(k)).unwindow(k), p),
        ((x * XQPoly([1] * k)).unwindow(k), x),
    ):
        _check_normal(got)
        assert type(got) is type(want) and got == want
