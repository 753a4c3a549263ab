"""The one encoding rule (report.encode) and the one verdict rule
(VerificationReport.check) that every report goes through.

check must pass exactly when the two values are equal: a verdict that
differs from value equality on any pair would let a broken identity pass
or a sound one fail.  The pairs are seeded, so a failure reproduces.
"""

import json
import pickle
import random

import pytest

from qspivey import FockVector, NormalForm, QPoly, XQPoly, report
from qspivey.report import VerificationReport, dumps, encode, json_text, term_json


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


def test_an_unsupported_value_is_a_type_error():
    """A value the rule does not cover raises TypeError naming its type,
    from encode and from json_text alike."""
    for value, name in ((None, "NoneType"), (1.5, "float"), ({}, "dict")):
        for write in (encode, json_text):
            with pytest.raises(TypeError, match=name):
                write(value)
        with pytest.raises(TypeError, match=name):
            json_text([1, value])


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


def test_json_text_of_a_cell_is_dumps_of_encode():
    """The writer of a triangle cell, an int or a QPoly, writes exactly the
    text of the one rule."""
    rng = random.Random(9)
    cells = [QPoly.zero(), QPoly([0]), 0, -1, 2**64, -(2**64) - 1]
    for _ in range(400):
        bits = (1, 8, 63, 64, 65, 200)
        coeffs = [
            rng.choice((-1, 1)) * rng.getrandbits(rng.choice(bits))
            for _ in range(rng.randint(0, 8))
        ]
        cells += [QPoly(coeffs), rng.choice((-1, 1)) * rng.getrandbits(rng.choice(bits))]
    for cell in cells:
        assert json_text(cell) == dumps(encode(cell)), cell
    assert json_text(QPoly.zero()) == "[]"
    assert json_text(QPoly([-(2**64), 0, 3])) == '["-18446744073709551616","0","3"]'


def test_direct_encodings_match_the_per_coefficient_rule():
    """QPoly.to_json and XQPoly.to_json, which write their lists directly,
    give what encoding one coefficient at a time gives, read back to the
    same value, and agree with json_text, also with zero coefficients."""
    rng = random.Random(10)
    pool = (0, 0, 0, 1, -1, 7, -(2**64), 10**40)
    for _ in range(400):
        q = QPoly([rng.choice(pool) for _ in range(rng.randint(0, 8))])
        x = XQPoly(
            QPoly([rng.choice(pool) for _ in range(rng.randint(0, 4))])
            for _ in range(rng.randint(0, 6))
        )
        assert q.to_json() == [str(c) for c in q.coeffs]
        assert x.to_json() == [[str(c) for c in row.coeffs] for row in x.coeffs]
        assert QPoly.from_json(q.to_json()) == q
        assert XQPoly.from_json(x.to_json()) == x
        assert json_text(q) == dumps(encode(q))
    assert XQPoly([QPoly([1]), 0, QPoly([0, 2])]).to_json() == [["1"], [], ["0", "2"]]


def _long_qpoly(rng):
    """A QPoly whose span is past the writer's palindrome cut-off of 64:
    leading zeros or none, and a span that is a palindrome, a near one
    (equal ends) or neither."""
    n = rng.randint(64, 200)
    half = [rng.choice((1, -2, 7, 10**40, -(10**41))) for _ in range(n // 2)]
    rest = half + [rng.choice((0, 3))] * (n % 2) + half[::-1]
    shape = rng.randrange(3)
    if shape == 1:
        rest[rng.randrange(1, n - 1)] += 1
    elif shape == 2:
        rest[-1] += 1
    return QPoly([0] * rng.choice((0, 0, 1, 5, 300)) + rest)


def _value(rng, depth=0):
    """Any value the writers take: ints, bools, strings that need escapes,
    QPoly, XQPoly and NormalForm values (zero ones too), and lists and
    tuples of them, nested and empty."""
    kind = rng.randrange(10 if depth < 3 else 8)
    if kind == 0:
        return rng.choice((0, -1, 1, 10**40, -(10**40) - 7, 2**64))
    if kind == 1:
        return rng.choice((True, False))
    if kind == 2:
        return _text(rng)
    if kind == 3:
        return _qpoly(rng)
    if kind == 4:
        return _long_qpoly(rng)
    if kind == 5:
        return rng.choice((
            _xqpoly(rng),
            XQPoly([0, 0, _long_qpoly(rng)]),  # zeros that are not the shared one
            XQPoly.monomial(rng.randint(0, 5), _qpoly(rng)),
            XQPoly.monomial(rng.randint(0, 5)) * _xqpoly(rng),
        ))
    if kind in (6, 7):
        return rng.choice((_normal_form(rng), NormalForm()))
    items = [_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return items if kind == 8 else tuple(items)


def test_every_writer_is_dumps_of_encode():
    """json_text and term_json write exactly the text of the one rule on
    seeded values of every kind."""
    rng = random.Random(17)
    values = [0, -1, 10**40, True, False, "", "\"\\\n\u00e9", QPoly(), XQPoly(),
              NormalForm(), [], (), [[], ()], ((QPoly(),),)]
    values += [_value(rng) for _ in range(600)]
    for value in values:
        assert json_text(value) == dumps(encode(value)), value
        if isinstance(value, NormalForm):
            for term in value.terms:
                assert term_json(term) == dumps(encode(NormalForm([term]))[0])
    assert json_text(QPoly([0, 0, 5])) == '["0","0","5"]'
    long = QPoly([0] * 70 + [1, 2, 1])
    assert json_text(long) == "[" + '"0",' * 70 + '"1","2","1"]'


def test_report_lines_are_dumps_of_to_json():
    """A report's line splices its side texts into what dumps(to_json())
    writes; read back, it rebuilds an equal report with the same line, and
    lhs and rhs decode to the encodings."""
    rng = random.Random(18)
    for _ in range(300):
        a, b = _value(rng), rng.choice((_value(rng), None))
        b = a if b is None else b
        params = {_text(rng): rng.randint(-3, 10**20) for _ in range(rng.randint(0, 3))}
        rep = VerificationReport.check(_text(rng), rng.choice(("n/a", "literal")), params, a, b)
        assert (rep.lhs_text, rep.rhs_text) == (json_text(a), json_text(b))
        assert rep.passed == (rep.lhs_text == rep.rhs_text)
        line = rep.to_json_line()
        assert line == dumps(rep.to_json())
        back = VerificationReport.from_json(json.loads(line))
        assert back == rep and back.to_json_line() == line
        assert (back.lhs, back.rhs) == (encode(a), encode(b))


_CHARS = "aZ0 \"\\/\n\t\u00e9\u00df\u20ac\u2713\U0001d52e\x00"


def _text(rng):
    return "".join(rng.choice(_CHARS) for _ in range(rng.randint(0, 6)))


def _payload(rng, depth=0):
    kind = rng.randrange(7 if depth < 4 else 4)
    if kind == 0:
        return rng.choice((-1, 1)) * rng.getrandbits(rng.choice((3, 63, 64, 65, 200)))
    if kind == 1:
        return rng.choice((True, False, None))
    if kind == 2:
        return _text(rng)
    if kind == 3:
        return 2**64 + rng.getrandbits(80)
    if kind == 4:
        return [_payload(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    keys = list({_text(rng) for _ in range(rng.randint(0, 5))})
    rng.shuffle(keys)
    return {key: _payload(rng, depth + 1) for key in keys}


def test_dumps_is_canonical_json_dumps():
    """The one module-level encoder writes what json.dumps writes with
    sorted keys and no whitespace, whatever the key insertion order."""
    rng = random.Random(12)
    for _ in range(500):
        obj = _payload(rng)
        assert dumps(obj) == json.dumps(obj, sort_keys=True, separators=(",", ":"))
        if isinstance(obj, dict):
            items = list(obj.items())
            rng.shuffle(items)
            assert dumps(dict(items)) == dumps(obj)
    assert dumps({"b": [2**64, None], "a": "\u00e9"}) == (
        '{"a":"\\u00e9","b":[18446744073709551616,null]}'
    )


_DUMPS_TABLE = [
    'say "hi"',
    "back\\slash and /slash",
    "\x00\x01\x1f\x7f\n\r\t\b\f",
    "\u00e9\u00df\u20ac\u2713\U0001d52e",
    "",
    [[1, ["2", [3, []]]], [[]]],
    {"b": 1, "a": 2, "\u00e9": 3, "A": 4, "": 5},
    {"z": {"y": [True, False, None], "x": {}}, "w": []},
    [True, False, None],
    2**64,
    -(2**64) - 1,
    [2**200, -(2**65)],
    [],
    {},
    0,
    True,
    None,
]


@pytest.mark.parametrize("value", _DUMPS_TABLE, ids=range(len(_DUMPS_TABLE)))
def test_dumps_is_json_dumps_on_each_kind_of_value(value):
    want = json.dumps(value, sort_keys=True, separators=(",", ":"))
    assert dumps(value) == want


def test_dumps_writes_the_same_after_a_refused_value(monkeypatch):
    """The prebuilt encoder keeps no state from a call that raised: an
    encoder with circular-reference markers would keep the ids of the
    containers it was in and refuse them later.  Without the C
    accelerator dumps writes the same text."""
    inner = {"b": object()}
    outer = {"a": [1, inner]}
    with pytest.raises(TypeError):
        dumps(outer)
    inner["b"] = 2
    assert dumps(outer) == '{"a":[1,{"b":2}]}'
    monkeypatch.setattr(report, "_C_ENCODER", None)
    for value in _DUMPS_TABLE:
        assert dumps(value) == json.dumps(value, sort_keys=True, separators=(",", ":"))


def test_reports_are_immutable_records_that_pickle():
    rep = VerificationReport("katriel", "n/a", {"n": 1, "l": 0}, '["1"]', '["2"]')
    with pytest.raises(AttributeError):
        rep.passed = True
    with pytest.raises(AttributeError):
        rep.lhs_text = '["2"]'
    with pytest.raises(AttributeError):
        del rep.lhs
    with pytest.raises(AttributeError):
        rep.note = "extra"
    # the verdict is derived from the two texts, never given
    with pytest.raises(TypeError):
        VerificationReport("katriel", "n/a", {}, '["1"]', '["2"]', True)
    with pytest.raises(TypeError):
        VerificationReport("katriel", "n/a", {}, '["1"]')
    assert rep.passed is False and (rep.lhs, rep.rhs) == (["1"], ["2"])
    assert VerificationReport("katriel", "n/a", {}, '["1"]', '["1"]').passed is True
    same = VerificationReport("katriel", "n/a", {"l": 0, "n": 1}, '["1"]', '["2"]')
    assert rep == same
    assert rep == VerificationReport.check("katriel", "n/a", {"n": 1, "l": 0}, [1], [2])
    other = VerificationReport("katriel", "n/a", {"n": 1, "l": 0}, '["1"]', '["1"]')
    assert rep != other
    assert rep != ("katriel", "n/a", {"n": 1, "l": 0}, '["1"]', '["2"]')
    assert repr(rep) == (
        "VerificationReport(identity='katriel', variant='n/a', "
        """params={'n': 1, 'l': 0}, lhs_text='["1"]', rhs_text='["2"]')"""
    )
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps([rep, rep], protocol))
        assert back == [rep, rep] and type(back[0]) is VerificationReport


def test_a_report_with_its_own_init_keeps_the_record_contract():
    """VerificationReport sets its fields in its own __init__, not in
    Record's loop; it is built, compared, hashed, printed, pickled and
    refused exactly as a Record with the same fields."""

    class Plain(report.Record):
        __slots__ = VerificationReport.__slots__

    assert "__init__" in vars(VerificationReport)
    fields = ("katriel", "n/a", {"n": 1}, '["1"]', '["2"]')
    rep, plain = VerificationReport(*fields), Plain(*fields)
    assert rep._values() == plain._values() == fields
    assert repr(rep) == "VerificationReport(" + repr(plain).split("(", 1)[1]
    assert rep == VerificationReport(*fields) and rep != plain
    hashable = VerificationReport("katriel", "n/a", (("n", 1),), '["1"]', '["2"]')
    assert hash(hashable) == hash(Plain(*hashable._values())) == hash(hashable._values())
    assert hash(hashable) == hash(VerificationReport(*hashable._values()))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(rep, protocol))
        assert back == rep and type(back) is VerificationReport
    for name in VerificationReport.__slots__:
        with pytest.raises(AttributeError):
            setattr(rep, name, None)
        with pytest.raises(AttributeError):
            delattr(rep, name)
    for count in (0, 4, 6):
        for cls in (VerificationReport, Plain):
            with pytest.raises(TypeError):
                cls(*(fields * 2)[:count])


def test_one_side_given_twice_is_written_once():
    """check writes a side given as both sides (rhs is lhs) once: the two
    texts are one str, as written for each side apart."""
    for value in (QPoly([0, 2, 1]), XQPoly([1, QPoly([0, 3])]), [1, 2], 7):
        rep = VerificationReport.check("x", "n/a", {}, value, value)
        assert rep.rhs_text is rep.lhs_text and rep.passed
        assert rep.lhs_text == json_text(value)
    apart = VerificationReport.check("x", "n/a", {}, QPoly([1]), QPoly([1]))
    assert apart.lhs_text == apart.rhs_text and apart.passed


def test_a_line_writes_identity_and_variant_as_json_strs():
    """to_json_line escapes identity and variant as json.dumps does, and
    refuses one that is not a str."""
    rep = VerificationReport("ü\"\n", "é", {"é": 1}, '"1"', '"1"')
    line = rep.to_json_line()
    assert line == json.dumps(rep.to_json(), sort_keys=True, separators=(",", ":"))
    assert line.isascii()
    for identity, variant in ((None, "n/a"), ("x", True), ("x", ["n/a"])):
        with pytest.raises(TypeError):
            VerificationReport(identity, variant, {}, '"1"', '"1"').to_json_line()


def test_from_json_refuses_a_verdict_its_sides_contradict():
    """A line's passed must be the verdict of its two sides: a report read
    back can never say passed while its sides differ, or the reverse."""
    base = {"identity": "x", "variant": "n/a", "params": {}}
    for lhs, rhs, passed in (("1", "2", True), ("1", "1", False), (["1"], "1", True)):
        with pytest.raises(ValueError):
            VerificationReport.from_json({**base, "lhs": lhs, "rhs": rhs, "passed": passed})
    rep = VerificationReport.from_json({**base, "lhs": "1", "rhs": "2", "passed": False})
    assert rep == VerificationReport.check("x", "n/a", {}, 1, 2) and not rep.passed
