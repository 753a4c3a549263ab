"""Route independence, audited by fault injection.

The acceptance suite compares routes that must stay independent: the
recurrence against normal ordering and the Fock simulator, the integer
rows against the q-rows at q = 1, brute force against both.  Each row of
AUDIT plants one fault, runs the sweep in process and names the failing
lines it then has, per criterion.  A fault that no criterion catches is a
row of its own, with nothing caught and the reason, so a change that
widens or narrows what the sweep catches shows up as a diff of the table.

A kernel is patched through _patch_kernel.  QPoly and XQPoly bind their
arithmetic dunders to _Dense's functions (__mul__ = __rmul__ = _Dense._mul),
so a patch of _Dense._mul alone reaches no product and fails no report.
"""

import json
from collections import Counter

import pytest

from qspivey import QPoly, XQPoly, acceptance, identities, triangles
from qspivey.polys import _Dense


@pytest.fixture(autouse=True)
def fresh_caches(monkeypatch):
    """Rows, operator powers and Dowling values built under a fault are
    dropped with it."""
    monkeypatch.setattr(triangles, "_BUILT", {})
    monkeypatch.setattr(identities, "_POWERS", {})
    monkeypatch.setattr(identities, "_DOWLING_AT", {})


def _patch_kernel(monkeypatch, name, fault):
    """Patch _Dense.<name> and every QPoly or XQPoly attribute bound to the
    same function."""
    kernel = vars(_Dense)[name]
    for cls in (_Dense, QPoly, XQPoly):
        for attr in [a for a, value in vars(cls).items() if value is kernel]:
            monkeypatch.setattr(cls, attr, fault)


def _swapped(p, i, j):
    """p with coefficients i and j of its span swapped."""
    span = list(p.span)
    span[i], span[j] = span[j], span[i]
    return p._new(p.val, tuple(span))


def _q_cell(n, k):
    """qr_whitney_rows adds q^3 - q^5, which is 0 at q = 1, to cell (n, k)
    at (m, r) = (1, 0); the rows after it grow from the faulty row."""

    def plant(monkeypatch):
        rows = triangles.qr_whitney_rows
        delta = QPoly.monomial(3) - QPoly.monomial(5)

        def faulty(m, r, last=None):
            for row in rows(m, r, last):
                if (m, r) == (1, 0) and len(row) == n + 1:
                    row = (*row[:k], row[k] + delta, *row[k + 1 :])
                    yield row
                    yield from rows(m, r, row)
                    return
                yield row

        monkeypatch.setattr(triangles, "qr_whitney_rows", faulty)

    return plant


def _int_cell(n, k, at):
    """r_whitney_classic_rows adds 1 to cell (n, k) of the integer rows at
    (m, r) = at; the rows after it grow from the faulty row."""

    def plant(monkeypatch):
        rows = triangles.r_whitney_classic_rows

        def faulty(m, r, last=None):
            for row in rows(m, r, last):
                if (m, r) == at and len(row) == n + 1:
                    row = (*row[:k], row[k] + 1, *row[k + 1 :])
                    yield row
                    yield from rows(m, r, row)
                    return
                yield row

        monkeypatch.setattr(triangles, "r_whitney_classic_rows", faulty)

    return plant


def _window(monkeypatch):
    """window swaps coefficients 2 and 3 of its result when k >= 2 and the
    result's span has at least 6 terms."""
    window = _Dense.window

    def faulty(self, k):
        out = window(self, k)
        return _swapped(out, 2, 3) if k >= 2 and len(out.span) >= 6 else out

    _patch_kernel(monkeypatch, "window", faulty)


def _mul(monkeypatch):
    """The schoolbook product swaps coefficients 1 and 2 of a QPoly product
    of two spans of at least 3 terms."""
    mul = _Dense._mul

    def faulty(self, other):
        out = mul(self, other)
        if (
            type(self) is QPoly
            and isinstance(other, QPoly)
            and min(len(self.span), len(other.span)) >= 3
        ):
            return _swapped(out, 1, 2)
        return out

    _patch_kernel(monkeypatch, "_mul", faulty)


def _eval_x(monkeypatch):
    """XQPoly.eval_x swaps coefficients 1 and 2 of a result whose span has
    at least 3 terms."""
    eval_x = XQPoly.eval_x

    def faulty(self, s):
        out = eval_x(self, s)
        return _swapped(out, 1, 2) if len(out.span) >= 3 else out

    monkeypatch.setattr(XQPoly, "eval_x", faulty)


# (fault, failing lines per criterion); criteria: 1 classical Spivey and
# the Bell numbers, 2 q-Stirling and 3 (q,r)-Whitney rows vs normal
# ordering, 5 katriel, 6 result1, 7 result2, 8 result3, 9 the
# specialization chain, 10 the q-expansion law
AUDIT = [
    pytest.param(
        _q_cell(8, 4), {2: 2, 5: 14, 6: 42, 9: 2, 10: 5}, id="q-cell-8-4"
    ),
    # escapes: the sweep checks the q-structure of the rows only for n <= 9
    pytest.param(_q_cell(10, 5), {}, id="q-cell-10-5-escapes"),
    pytest.param(_int_cell(6, 3, (1, 0)), {1: 101, 8: 54, 9: 3}, id="int-cell-6-3"),
    # (1, 0) rows past n = 12 are read only by criterion 1's spivey and
    # bell-rec rows, which reach n = 24
    pytest.param(_int_cell(20, 10, (1, 0)), {1: 16}, id="int-cell-20-10"),
    pytest.param(_int_cell(6, 3, (2, 1)), {8: 30, 9: 1}, id="int-cell-6-3-at-2-1"),
    # escapes: the sweep reads the (3, 2) integer rows only up to n = 10
    pytest.param(_int_cell(11, 5, (3, 2)), {}, id="int-cell-11-5-at-3-2-escapes"),
    # the recurrence and the q-Wick reorder share window, so 2-3 miss it
    pytest.param(_window, {5: 22, 6: 90, 7: 465, 10: 39}, id="window"),
    # criteria 6 and 7 read an instance with more x points than n off its
    # symbolic sides, which multiply the coefficient QPolys of the x
    # expansions, not their values at x: the sweep takes 381 products of
    # two spans of 3 or more terms, not 1121, so fewer lines meet one
    pytest.param(_mul, {5: 15, 6: 18, 7: 30, 10: 47}, id="qpoly-mul"),
    # a symbolic instance of criteria 6 and 7 evaluates two sides equal as
    # XQPoly, which one fault keeps equal, so only katriel's one x and the
    # instances read at each x (n >= 7 and n >= 6) catch it; criterion 9
    # sums the values it evaluates at q = 1, which the swap keeps
    pytest.param(_eval_x, {5: 35, 6: 7, 7: 105}, id="eval-x"),
]


@pytest.mark.parametrize("plant, caught", AUDIT)
def test_a_planted_fault_fails_exactly_these_criteria(monkeypatch, plant, caught):
    plant(monkeypatch)
    lines, failed = acceptance.run_suite(jobs=1)
    reports = map(json.loads, lines)
    failing = Counter(d["criterion"] for d in reports if not d["report"]["passed"])
    assert dict(failing) == caught
    assert failed == sum(caught.values())
