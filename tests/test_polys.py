"""Exactness and ring behavior of the two polynomial types."""

import operator
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspivey import QPoly, XQPoly, q_int, qr_dowling_poly


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
    for bad in (1.5, True, "1.5", "", "-", "٣", "²", " 1"):
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
    assert str(qr_dowling_poly(2, 2, 1)) == "(1) + (4)x + (q)x^2"
    assert str(XQPoly.monomial(2)) == "x^2"


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


def _val_span(rng, coeff, zero, vals, lengths):
    """A dense coefficient list: a number of zeros drawn from vals, then a
    span of a length drawn from lengths whose ends are nonzero and whose
    inner items may be zero; coeff draws one item, zero allowed."""
    span = [coeff() for _ in range(rng.choice(lengths))]
    while not span[0] or not span[-1]:
        span[0], span[-1] = span[0] or coeff(), span[-1] or coeff()
    return [zero] * rng.choice(vals) + span


def _cancelling(rng, a, neg, add):
    """An operand that cancels a at its low end, its high end, entirely,
    or elsewhere: neg(a) with its top, its bottom, nothing or a random
    item changed."""
    b = [neg(c) for c in a]
    lo = next(i for i, c in enumerate(a) if c)
    where = rng.choice((len(b) - 1, lo, None, rng.randrange(len(b))))
    if where is not None:
        b[where] = add(b[where], add(b[lo], b[lo]))
    return b


def _cancelled(p, a, b, seen):
    """Note in seen where the sum p of the lists a and b cancelled: to
    zero, at its low end or at its high end."""
    def top(cs):
        return len(_ref_trim(cs))

    def low(cs):
        return next((i for i, c in enumerate(cs) if c), None)

    if not p:
        seen.add("zero")
        return
    if p.val > min(low(a), low(b)):
        seen.add("low")
    if p.degree + 1 < max(top(a), top(b)):
        seen.add("high")


def _ring_result(p, want):
    """A ring operation's result p against the plain list want: its dense
    coefficients, nonzero span ends, the shared zero, and degree, equality
    and hash against the value the constructor builds from coeffs."""
    if type(p) is QPoly:
        _q(p, want)
    else:
        _x(p, want)
    if p:
        assert p.span[0] and p.span[-1] and p.val >= 0
    else:
        assert p is type(p).zero()
    assert p.degree == (len(p.coeffs) - 1 if p.coeffs else None)
    built = type(p)(p.coeffs)
    assert p == built and hash(p) == hash(built)
    return p


def test_every_kernel_on_random_valuations():
    """Both rings on operands with up to ~150 zeros below spans shorter
    and longer than 64, against the schoolbook list reference: + and -
    across valuations with cancellation at either end and to zero, neg, *
    (with the one-term scaling by c = 1, -1, 3, 10**40 and 0 on either
    side), shift, window, unwindow, eval_int and eval_x, ==, hash, degree
    and coeffs."""
    rng = random.Random(20261019)
    vals = (0, 1, 2, 64, 150)
    seen = {QPoly: set(), XQPoly: set()}

    def q_coeff():
        return rng.choice((0, 1, -1, 3, -7, 10**40))

    for _ in range(40):
        a = _val_span(rng, q_coeff, 0, vals, (1, 2, 5, 63, 64, 65, 90))
        b = rng.choice((
            _val_span(rng, q_coeff, 0, vals, (1, 3, 70)),
            _cancelling(rng, a, operator.neg, operator.add),
        ))
        pa, pb = QPoly(a), QPoly(b)
        _cancelled(_ring_result(pa + pb, _ref_add(a, b)), a, b, seen[QPoly])
        _ring_result(pb + pa, _ref_add(a, b))
        _ring_result(pa - QPoly([-c for c in b]), _ref_add(a, b))
        _ring_result(pa - pb, _ref_add(a, [-c for c in b]))
        _ring_result(-pa, [-c for c in a])
        _ring_result(pa * pb, _ref_mul(a, b))
        for c in (1, -1, 3, 10**40, 0):
            _ring_result(pa * c, [ai * c for ai in a])
            _ring_result(c * pa, [ai * c for ai in a])
        s, w = rng.choice(vals), rng.choice((0, 1, 2, 5, 64, 100))
        _ring_result(pa.shift(s), [0] * s + a)
        _ring_result(pa.window(w), _ref_mul(a, [1] * w))
        k = rng.choice((2, 3, 70))
        _ring_result(pa.window(k).unwindow(k), a)
        for v in (0, 1, -1, 2, -3):
            assert pa.eval_int(v) == _ref_horner(a, v)
        assert pa.shift(s) == QPoly([0] * s + a) and pa != pa.shift(s + 1)
        assert hash(pa.shift(s)) == hash(QPoly([0] * s + a))

    def x_coeff():
        if rng.random() < 0.2:
            return []
        return _ref_trim(_val_span(rng, q_coeff, 0, (0, 1, 9), (1, 2)))

    def x_neg(row):
        return [-c for c in row]

    for _ in range(24):
        xa = _val_span(rng, x_coeff, [], vals, (1, 2, 5, 64, 66))
        xb = rng.choice((
            _val_span(rng, x_coeff, [], vals, (1, 3)),
            _cancelling(rng, xa, x_neg, _ref_add),
        ))
        xa, xb = [_ref_trim(row) for row in xa], [_ref_trim(row) for row in xb]
        pxa = XQPoly(QPoly(row) for row in xa)
        pxb = XQPoly(QPoly(row) for row in xb)
        _cancelled(_ring_result(pxa + pxb, _x_add(xa, xb)), xa, xb, seen[XQPoly])
        _ring_result(pxb + pxa, _x_add(xa, xb))
        _ring_result(pxa - XQPoly(QPoly(row) for row in _x_neg(xb)), _x_add(xa, xb))
        _ring_result(pxa - pxb, _x_add(xa, _x_neg(xb)))
        _ring_result(-pxa, _x_neg(xa))
        _ring_result(pxa * pxb, _x_mul(xa, xb))
        for c in (1, -1, 3, 10**40, 0):
            term = [0] * rng.choice((0, 1, 9)) + [c]
            one_term = QPoly(term)
            _ring_result(pxa * one_term, _x_mul(xa, [term]))
            _ring_result(one_term * pxa, _x_mul(xa, [term]))
        s, w = rng.choice(vals), rng.choice((0, 1, 2, 5, 64))
        _ring_result(pxa.shift(s), [[]] * s + xa)
        _ring_result(pxa.window(w), _x_mul(xa, [[1]] * w))
        k = rng.choice((2, 3, 65))
        _ring_result(pxa.window(k).unwindow(k), xa)
        for t in (0, 1, 2, 5):
            _ring_result(pxa.eval_x(t), _ref_horner(xa, [t], _ref_add, _ref_mul, []))
        assert pxa.shift(s) == XQPoly([0] * s + list(pxa.coeffs))
        assert hash(pxa.shift(s)) == hash(XQPoly([0] * s + list(pxa.coeffs)))
    assert seen == {QPoly: {"zero", "low", "high"}, XQPoly: {"zero", "low", "high"}}


def test_powers_are_ints_and_equal_values_are_one_value():
    """A non-int power is refused at the call, and x^2 built four ways is
    one value: equal, with one hash, through a pickle round trip."""
    for bad in (1.5, 2.0, "2", None):
        for call in (
            lambda: QPoly([1, 2]).shift(bad),
            lambda: QPoly.monomial(bad),
            lambda: XQPoly([1, 2]).shift(bad),
            lambda: XQPoly.monomial(bad),
        ):
            with pytest.raises(TypeError):
                call()
    for cls, x in ((QPoly, QPoly([0, 1])), (XQPoly, XQPoly([0, 1]))):
        values = [cls([0, 0, 1]), cls.monomial(2), cls.one().shift(2), x**2]
        for p in values:
            back = pickle.loads(pickle.dumps(p))
            for v in (p, back):
                assert v == values[0] and hash(v) == hash(values[0])
                assert v.coeffs == values[0].coeffs and v.degree == 2
                assert repr(v) == repr(values[0])


def test_one_term_operand_matches_plain_convolution():
    """A one-term operand on either side scales the other in one pass;
    the list convolution is the reference.  Operands include zero,
    negative, interior-zero and 10**40-sized coefficients."""
    rng = random.Random(20261020)
    ints = (0, 1, -1, 3, -(10**40))
    for _ in range(150):
        a = _rand_coeffs(rng)
        if len(a) > 2 and rng.random() < 0.5:
            a[rng.randrange(1, len(a) - 1)] = 0  # interior zero
        xa = _rand_xcoeffs(rng) + [[], _rand_coeffs(rng)]  # interior zero row
        pa, pxa = QPoly(a), XQPoly(QPoly(c) for c in xa)
        k = rng.choice(ints)
        one = QPoly.const(rng.choice(ints))
        for s, sc in ((k, [k]), (one, list(one.coeffs))):
            want = _ref_mul(a, sc)
            _q(pa * s, want)
            _q(s * pa, want)
            _x(pxa * s, [_ref_mul(row, sc) for row in xa])
            _x(s * pxa, [_ref_mul(row, sc) for row in xa])
        # XQPoly by a QPoly: a one-term operand in x with a dense q-coefficient
        _x(pxa * pa, [_ref_mul(row, a) for row in xa])
        _x(pa * pxa, [_ref_mul(row, a) for row in xa])
        # one-term values of the same ring, on the left and on the right
        cx = XQPoly([pa])
        _x(cx * pxa, _x_mul([a], xa))
        _x(pxa * cx, _x_mul(xa, [a]))
        _q(one * pa, _ref_mul(list(one.coeffs), a))
        _q(pa * one, _ref_mul(a, list(one.coeffs)))


def test_unit_monomial_operand_matches_plain_convolution():
    """A unit monomial v^j on either side, the ring's one at j = 0, shifts
    the other operand's coefficients; near misses (-1, 2·q^j, -q^j, an
    inner nonzero below the unit) take the scaling or convolution paths.
    The list convolution is the reference for all of them, on operands
    with zero inner coefficients and on units whose zeros are equal but
    not one object."""
    rng = random.Random(20261022)
    for _ in range(150):
        a = _rand_coeffs(rng)
        if len(a) > 2 and rng.random() < 0.5:
            a[rng.randrange(1, len(a) - 1)] = 0  # interior zero
        xa = _rand_xcoeffs(rng) + [[], _rand_coeffs(rng)]  # interior zero row
        pa, pxa = QPoly(a), XQPoly(QPoly(c) for c in xa)
        j = rng.randint(0, 6)
        near = [0] * j + [1]
        near[rng.randrange(len(near))] = rng.choice((1, 3, -(10**40)))
        scalars = [
            ([1], 1), ([-1], -1), ([1], QPoly.one()),
            ([0] * j + [1], QPoly.monomial(j)),
            ([0] * j + [2], QPoly.monomial(j, 2)),
            ([0] * j + [-1], QPoly.monomial(j, -1)),
            (near, QPoly(near)),
        ]
        for sc, s in scalars:
            _q(pa * s, _ref_mul(a, sc))
            _q(s * pa, _ref_mul(sc, a))
            _x(pxa * s, [_ref_mul(row, sc) for row in xa])
            _x(s * pxa, [_ref_mul(sc, row) for row in xa])
        units = [
            ([[1]], XQPoly.one()),
            ([[]] * j + [[1]], XQPoly.monomial(j)),
            ([[0]] * j + [[1]], XQPoly([QPoly([0])] * j + [QPoly([1])])),
            ([[]] * j + [[0, 1]], XQPoly.monomial(j, QPoly.monomial(1))),
            ([[]] * j + [[2]], XQPoly.monomial(j, 2)),
            ([[1]] + [[]] * j + [[1]], XQPoly([1] + [0] * j + [1])),
        ]
        for sxc, sx in units:
            _x(pxa * sx, _x_mul(xa, sxc))
            _x(sx * pxa, _x_mul(sxc, xa))
            _x(sx * pa, _x_mul(sxc, [a]))
            _x(pa * sx, _x_mul([a], sxc))


def test_products_by_one_and_sums_with_zero_are_the_operand_itself():
    """p·1, 1·p, p·p.one(), p + 0, 0 + p and p + p.zero() are p itself, in
    both rings, and each is the value the list convolution and sum give
    and _sum builds; a unit monomial past j = 0 is a new value."""
    rng = random.Random(20261024)
    for _ in range(100):
        a = _rand_coeffs(rng)
        xa = _rand_xcoeffs(rng)
        # the constructor builds a zero of its own, the kernels the shared one
        pa = QPoly(a) or QPoly.zero()
        pxa = XQPoly(QPoly(c) for c in xa) or XQPoly.zero()
        for p, ones, zeros in (
            (pa, (1, QPoly.one()), (0, QPoly.zero())),
            (pxa, (1, QPoly.one(), XQPoly.one()), (0, QPoly.zero(), XQPoly.zero())),
        ):
            summed = p._sum(p.val, p.span, 0, ())
            assert summed == p
            for one in ones:
                assert p * one is p
            assert 1 * p is p
            for zero in zeros:
                for total in (p + zero, zero + p):
                    assert total is p and total == summed
            assert p * p.one() is p and p + p.zero() is p
        _q(pa * 1, _ref_mul(a, [1]))
        _q(pa + 0, _ref_add(a, []))
        _x(pxa * QPoly.one(), [_ref_mul(row, [1]) for row in xa])
        _x(pxa + XQPoly.zero(), _x_add(xa, []))
        if pa:
            assert pa * QPoly.monomial(1) is not pa
            assert pa * QPoly.monomial(1) == pa.shift(1)


def test_a_unit_monomial_product_tests_no_coefficient(monkeypatch):
    """x^s · x^k and x^s · 1 look at no zero QPoly coefficient of x^s: x^s
    stores none, and its span is the one unit coefficient."""
    calls = []
    real = QPoly.__bool__

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(QPoly, "__bool__", counting)
    xs = XQPoly.monomial(100)
    for other in (XQPoly.monomial(7), QPoly.one(), 1, XQPoly.one()):
        calls.clear()
        for product in (xs * other, other * xs):
            assert product.degree == 100 + (7 if other == XQPoly.monomial(7) else 0)
        assert len(calls) <= 4, (other, len(calls))


def test_unit_window_and_unwindow_return_the_value():
    rng = random.Random(20261021)
    for _ in range(50):
        for p in (_rand_qpoly(rng), XQPoly(QPoly(c) for c in _rand_xcoeffs(rng))):
            assert p.window(1) == p.unwindow(1) == p


@pytest.mark.parametrize("kernel", ["shift", "window", "unwindow"])
def test_a_patch_of_a_kernel_reaches_both_rings(monkeypatch, kernel):
    """shift, window and unwindow have one binding, on _Dense, so a patch
    of it (a fault injected to audit the routes, say) reaches QPoly,
    XQPoly and every module that steps its values with them."""
    from qspivey import NormalForm, polys

    seen = []
    real = getattr(polys._Dense, kernel)

    def spy(self, k):
        seen.append(type(self))
        return real(self, k)

    monkeypatch.setattr(polys._Dense, kernel, spy)
    for cls in (QPoly, XQPoly):
        assert kernel not in vars(cls)
        getattr(cls.monomial(2), kernel)(1)
    assert seen == [QPoly, XQPoly]
    seen.clear()
    # the q-Wick reorder of a^2·ad^2 takes all three kernels
    NormalForm.lowering() ** 2 * NormalForm.raising() ** 2
    assert QPoly in seen


def test_eval_x_against_horner_on_edge_inputs():
    """The integer eval_x kernel against the Horner reference: zero, s = 0
    and 1, s >= 10**6, coefficients past 2**64 and negative ones."""
    rng = random.Random(20261019)
    big = 2**64
    cases = [[], [[]], [[], [], [5]], [[-1], [], [0, -big]], [[big + 1, -3], [], [-big]]]
    for _ in range(60):
        cases.append(
            [
                [rng.choice((-1, 1)) * rng.getrandbits(rng.choice((1, 8, 64, 65, 200)))
                 for _ in range(rng.randint(0, 6))]
                for _ in range(rng.randint(0, 6))
            ]
        )
    for xa in cases:
        p = XQPoly(QPoly(c) for c in xa)
        for s in (0, 1, 2, 7, 10**6, 10**6 + 3, big):
            _q(p.eval_x(s), _ref_horner(xa, [s], _ref_add, _ref_mul, []))
    assert XQPoly.zero().eval_x(0) == XQPoly.zero().eval_x(10**6) == QPoly.zero()
    with pytest.raises(ValueError):
        XQPoly([1]).eval_x(-1)


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
