"""The one encoding rule (report.encode) and the one verdict rule
(VerificationReport.check) that every report goes through.

check must pass exactly when the two values are equal: a verdict that
differs from value equality on any pair would let a broken identity pass
or a sound one fail.  The pairs are seeded, so a failure reproduces.
"""

import random

from qspivey import FockVector, NormalForm, QPoly, XQPoly
from qspivey.report import VerificationReport, encode


def _coeffs(rng, size=4):
    # small coefficients so independent draws collide often; one big one
    # keeps the 64-bit boundary in play
    pool = (-1, 0, 1, 2, 10**40)
    return [rng.choice(pool) for _ in range(rng.randint(0, size))]


def _qpoly(rng):
    return QPoly(_coeffs(rng))


def _xqpoly(rng):
    return XQPoly(_qpoly(rng) for _ in range(rng.randint(0, 3)))


def _normal_form(rng):
    return NormalForm(
        [((rng.randint(0, 2), rng.randint(0, 2)), _qpoly(rng)) for _ in range(3)]
    )


def _amps(rng):
    return FockVector(3, [_xqpoly(rng) for _ in range(4)]).amps


def _rows(rng):
    return [_coeffs(rng, 3) for _ in range(rng.randint(0, 3))]


def _perturbed(rng, value):
    """A value of the same kind that differs from value."""
    if isinstance(value, QPoly):
        return value + QPoly.monomial(rng.randint(0, 4))
    if isinstance(value, XQPoly):
        return value + XQPoly.monomial(rng.randint(0, 3))
    if isinstance(value, NormalForm):
        return value + NormalForm({(rng.randint(0, 2), rng.randint(0, 2)): 1})
    if isinstance(value, tuple):  # FockVector amplitudes
        i = rng.randrange(len(value))
        return value[:i] + (value[i] + XQPoly.one(),) + value[i + 1 :]
    return value + [[1]]  # rows


_KINDS = {
    "qpoly": _qpoly,
    "xqpoly": _xqpoly,
    "normal-form": _normal_form,
    "fock-amps": _amps,
    "int-rows": _rows,
}


def test_check_verdict_is_value_equality_on_random_pairs():
    rng = random.Random(8)
    seen = {name: {True: 0, False: 0} for name in _KINDS}
    for name, draw in _KINDS.items():
        for _ in range(300):
            seed = rng.random()
            a = draw(random.Random(seed))
            twin = draw(random.Random(seed))  # equal, built independently
            b = rng.choice((twin, _perturbed(rng, a), draw(rng)))
            rep = VerificationReport.check(name, "n/a", {}, a, b)
            assert rep.passed == (a == b), (name, a, b)
            assert rep.lhs == encode(a) and rep.rhs == encode(b)
            seen[name][rep.passed] += 1
    # both verdicts are exercised for every kind
    assert all(counts[True] and counts[False] for counts in seen.values()), seen


def test_encode_follows_the_rule():
    p = QPoly([0, 2, 1])
    assert encode(7) == "7" and encode(-(10**40)) == "-" + "1" + "0" * 40
    assert encode(p) == p.to_json() == ["0", "2", "1"]
    assert encode(XQPoly([p])) == [["0", "2", "1"]]
    nf = NormalForm({(1, 1): p})
    assert encode(nf) == nf.to_json()
    # tuples and lists encode alike, to any depth
    assert encode(((1, 2), [p, (3,)])) == [["1", "2"], [["0", "2", "1"], ["3"]]]
    assert encode(()) == [] and encode([]) == []


def test_bools_and_strings_pass_through_unchanged():
    for value in (True, False, "", "877", "n/a", ["1", "2"]):
        assert encode(value) == value
    assert encode(True) is True and encode(False) is False
    assert encode([True, 1, "1"]) == [True, "1", "1"]
    # True == 1 in Python, but a verdict bool never encodes as a number
    assert not VerificationReport.check("t", "n/a", {}, True, 1).passed
    assert not VerificationReport.check("t", "n/a", {}, True, "1").passed
    assert not VerificationReport.check("t", "n/a", {}, [False], [0]).passed
    # an int and its decimal string encode alike, which pins rely on
    assert VerificationReport.check("t", "n/a", {}, 877, "877").passed
