"""The acceptance suite: every graded criterion, runnable as a library.

Each criterion function returns a task list: a functools.partial over a
verifier per checked instance, plus the cheap pinned witnesses as reports
built with the list.  A pin is VerificationReport.check of an observed
value against its frozen expectation, both given as raw values.  run_tasks
is the one runner, for the sweep and for the CLI's verify: it calls the
partials, passes reports through and keeps task order for any job count.
A criterion holds iff all its reports passed.  Expected failures of the
literal variants are pinned by reports whose lhs is the observed
(passed, lhs, rhs) triple, so a literal variant that quietly started
passing fails the suite as loudly as a corrected variant that broke.

run_suite runs criteria 1..10 as one task list, so --jobs shards by task,
renders the sweep lines and adds criterion 11: every line must parse back
into a report that re-renders to the identical bytes.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Callable, Union

from . import identities, triangles
from .polys import QPoly
from .qcalc import q_falling, q_int
from .report import VerificationReport, dumps

Task = Union[VerificationReport, Callable[[], VerificationReport]]

# work items per worker process; more items balance the load better, fewer
# cost less inter-process traffic
_CHUNKS_PER_WORKER = 8


def _run(task: Task) -> VerificationReport:
    return task if isinstance(task, VerificationReport) else task()


def run_tasks(tasks: list[Task], jobs: int = 1) -> list[VerificationReport]:
    """The reports of tasks in task order, on at most min(jobs, tasks, CPUs)
    worker processes; one worker or fewer runs them in this process."""
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [_run(task) for task in tasks]
    chunk = -(-len(tasks) // (workers * _CHUNKS_PER_WORKER))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run, tasks, chunksize=chunk))


def _pin(identity: str, params: dict, observed, expected) -> VerificationReport:
    """An observed value against a witness or an independent computation."""
    return VerificationReport.check(identity, "n/a", params, observed, expected)


def count_set_partitions(n: int) -> int:
    """Brute force: enumerate every partition of {0..n-1} and count."""

    def grow(i: int, blocks: list[list[int]]) -> int:
        if i == n:
            return 1
        total = 0
        for b in blocks:
            b.append(i)
            total += grow(i + 1, blocks)
            b.pop()
        blocks.append([i])
        total += grow(i + 1, blocks)
        blocks.pop()
        return total

    return grow(0, [])


def criterion_1() -> list[Task]:
    """Classical Spivey on 0 <= n, mshift <= 12, with Bell numbers pinned
    by the binomial recurrence and by brute-force partition enumeration."""
    tasks: list[Task] = [
        partial(identities.verify_spivey, n, mshift)
        for n in range(13)
        for mshift in range(13)
    ]
    tasks.append(partial(identities.verify_bell_recurrence, 24))
    bells = triangles.bell(7)
    brute = [count_set_partitions(i) for i in range(8)]
    tasks.append(_pin("bell-bruteforce", {"n": 7}, bells, brute))
    tasks.append(_pin("bell-b7-witness", {"n": 7}, bells[7], 877))
    return tasks


def criterion_2() -> list[Task]:
    """q-Stirling rows certified against normal ordering for n <= 9."""
    tasks: list[Task] = [
        partial(identities.verify_triangle_vs_oracle, "q-stirling", n)
        for n in range(10)
    ]
    row3 = triangles.q_stirling2(3)[3]
    expected = [[], [1], [0, 2, 1], [0, 0, 0, 1]]
    tasks.append(_pin("q-stirling-row3-witness", {"n": 3}, row3, expected))
    return tasks


def criterion_3() -> list[Task]:
    """(q,r)-Whitney rows certified against normal ordering for n <= 7,
    m in 1..3, r in 0..2, with the n = 2 coefficients pinned in closed form."""
    oracle = identities.verify_triangle_vs_oracle
    tasks: list[Task] = []
    for m in (1, 2, 3):
        for r in (0, 1, 2):
            for n in range(8):
                tasks.append(partial(oracle, "qr-whitney", n, m, r))
            row2 = [c * (m**k) for k, c in enumerate(triangles.qr_whitney(2, m, r)[2])]
            expected = [
                QPoly.const(r * r),
                QPoly.const(m * m + 2 * m * r),
                QPoly.monomial(1, m * m),
            ]
            tasks.append(
                _pin("qr-whitney-square-witness", {"m": m, "r": r}, row2, expected)
            )
    return tasks


def criterion_4() -> list[Task]:
    """The four operator lemmas over their stated ranges."""
    lemma = identities.verify_lemma
    tasks: list[Task] = []
    tasks += [partial(lemma, "lem1", k) for k in range(1, 11)]
    tasks += [partial(lemma, "lem3", k) for k in range(1, 11)]
    for k in range(1, 9):
        for m in range(4):
            for r in range(4):
                tasks.append(partial(lemma, "lem4", k, m=m, r=r))
    tasks += [partial(lemma, "lem2", k, cap=12) for k in range(5)]
    return tasks


def criterion_5() -> list[Task]:
    """The q-Bell number expansion for all n + l <= 9, witness pinned."""
    tasks: list[Task] = [
        partial(identities.verify_katriel, n, total - n)
        for total in range(10)
        for n in range(total + 1)
    ]
    inner = identities.verify_katriel(1, 1)
    tasks.append(_pin("katriel-witness", {"n": 1, "l": 1}, inner.lhs, ["1", "1"]))
    return tasks


def criterion_6() -> list[Task]:
    """q-Bell polynomial expansion: corrected passes on n + mshift <= 8,
    x in 0..6; the literal shape fails at (n, mshift, x) = (1, 2, 1)."""
    tasks: list[Task] = [
        partial(identities.verify_result1, n, total - n, x, "corrected")
        for total in range(9)
        for n in range(total + 1)
        for x in range(7)
    ]
    inner = identities.verify_result1(1, 2, 1, "literal")
    tasks.append(
        _pin(
            "result1-literal-witness",
            {"n": 1, "mshift": 2, "x": 1},
            [inner.passed, inner.lhs, inner.rhs],
            [False, ["1", "2", "1", "1"], ["1", "1"]],
        )
    )
    return tasks


def criterion_7() -> list[Task]:
    """(q,r)-Dowling polynomial expansion: corrected passes on n + l <= 7,
    m in 1..3, r in 0..2, x in 0..5; the literal shape fails at
    (n, l, m, r, x) = (1, 1, 2, 1, 1), where q = 1 gives 10 against 6."""
    tasks: list[Task] = [
        partial(identities.verify_result2, n, total - n, m, r, x, "corrected")
        for total in range(8)
        for n in range(total + 1)
        for m in (1, 2, 3)
        for r in (0, 1, 2)
        for x in range(6)
    ]
    inner = identities.verify_result2(1, 1, 2, 1, 1, "literal")
    at_q1 = [QPoly.from_json(side).eval_int(1) for side in (inner.lhs, inner.rhs)]
    tasks.append(
        _pin(
            "result2-literal-witness",
            {"n": 1, "l": 1, "m": 2, "r": 1, "x": 1},
            [inner.passed, *at_q1],
            [False, 6, 10],
        )
    )
    return tasks


def criterion_8() -> list[Task]:
    """Classical r-Dowling expansion: corrected passes on n + l <= 10,
    m in 1..3, r in 0..2; witnesses pinned, and the m = 1, r = 0 slice
    must coincide with the classical Spivey values."""
    tasks: list[Task] = [
        partial(identities.verify_result3, n, total - n, m, r, "corrected")
        for total in range(11)
        for n in range(total + 1)
        for m in (1, 2, 3)
        for r in (0, 1, 2)
    ]
    dowling = triangles.r_dowling(3, 2, 1)
    tasks.append(_pin("dowling-21-witness", {"n": 2}, dowling[2], 6))
    tasks.append(_pin("dowling-21-witness", {"n": 3}, dowling[3], 24))
    inner = identities.verify_result3(1, 1, 2, 1, "literal")
    tasks.append(
        _pin(
            "result3-literal-witness",
            {"n": 1, "l": 1, "m": 2, "r": 1},
            [inner.passed, inner.lhs, inner.rhs],
            [False, 6, 10],
        )
    )
    observed = []
    expected = []
    for total in range(11):
        for n in range(total + 1):
            rep = identities.verify_result3(n, total - n, 1, 0, "corrected")
            spivey = identities.verify_spivey(n, total - n)
            observed.append([rep.lhs, rep.rhs])
            expected.append([spivey.lhs, spivey.rhs])
    tasks.append(
        _pin("result3-vs-spivey", {"n": 10}, observed, expected)
    )
    return tasks


def criterion_9() -> list[Task]:
    """Specialization chain: q = 1 collapses and the m-weighted reduction."""
    tasks: list[Task] = []
    q1 = [
        [c.eval_int(1) for c in row] for row in triangles.q_stirling2(12)
    ]
    tasks.append(_pin("q-stirling-at-1", {"n": 12}, q1, triangles.stirling2(12)))
    for m in (1, 2, 3):
        for r in (0, 1, 2):
            got = triangles.r_whitney(10, m, r)
            want = triangles.r_whitney_classic(10, m, r)
            tasks.append(_pin("r-whitney-at-1", {"n": 10, "m": m, "r": r}, got, want))
    got = [triangles.qr_dowling_poly(n, 1, 0).eval_x(1).eval_int(1) for n in range(13)]
    tasks.append(_pin("dowling-10-is-bell", {"n": 12}, got, triangles.bell(12)))
    tasks += [partial(triangles.whitney_special_check, 8, m) for m in (1, 2, 3)]
    return tasks


def _q_expansion(s: int, n: int) -> VerificationReport:
    lhs = q_int(s) ** n
    row = triangles.q_stirling2(n)[n]
    rhs = QPoly.zero()
    for k in range(n + 1):
        rhs = rhs + row[k] * q_falling(s, k)
    return VerificationReport.check("q-expansion", "n/a", {"s": s, "n": n}, lhs, rhs)


def criterion_10() -> list[Task]:
    """The q-expansion law [s]^n == sum_k S[n,k] · [s][s-1]..[s-k+1]
    as QPoly identities for 0 <= s, n <= 8."""
    return [partial(_q_expansion, s, n) for s in range(9) for n in range(9)]


CRITERIA: tuple[tuple[int, str, Callable[[], list[Task]]], ...] = (
    (1, "classical-spivey", criterion_1),
    (2, "q-stirling-oracle", criterion_2),
    (3, "qr-whitney-oracle", criterion_3),
    (4, "operator-lemmas", criterion_4),
    (5, "q-bell-expansion", criterion_5),
    (6, "result1-adjudication", criterion_6),
    (7, "result2-adjudication", criterion_7),
    (8, "result3-adjudication", criterion_8),
    (9, "specialization-chain", criterion_9),
    (10, "q-expansion-law", criterion_10),
)


def run_criterion(num: int) -> list[VerificationReport]:
    for n, _slug, fn in CRITERIA:
        if n == num:
            return run_tasks(fn())
    raise ValueError(f"no criterion {num}")


def _line(num: int, slug: str, rep: VerificationReport) -> str:
    return dumps({"criterion": num, "slug": slug, "report": rep.to_json()})


def _roundtrip(lines: list[str]) -> VerificationReport:
    """Criterion 11, in-run half: every line parses back into a report that
    re-renders to the identical bytes."""
    ok = 0
    for line in lines:
        d = json.loads(line)
        rep = VerificationReport.from_json(d["report"])
        ok += _line(d["criterion"], d["slug"], rep) == line
    total = len(lines)
    return _pin("json-roundtrip", {"lines": total}, ok, total)


def run_suite(jobs: int = 1) -> tuple[list[str], int]:
    """The sweep's report lines for criteria 1..11 and the number of failed
    reports; criteria 1..10 run as one task list, so jobs shards by task."""
    labels: list[tuple[int, str]] = []
    tasks: list[Task] = []
    for num, slug, fn in CRITERIA:
        batch = fn()
        labels += [(num, slug)] * len(batch)
        tasks += batch
    reports = run_tasks(tasks, jobs)
    lines = [_line(num, slug, rep) for (num, slug), rep in zip(labels, reports)]
    reports.append(_roundtrip(lines))
    lines.append(_line(11, "engineering-determinism", reports[-1]))
    return lines, sum(1 for rep in reports if not rep.passed)
