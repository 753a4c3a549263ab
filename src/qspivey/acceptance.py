"""The acceptance suite: every graded criterion, runnable as a library,
with its pins, the brute-force partition count and the task runner.

Each criterion function returns a task list: a functools.partial over an
identities verifier per checked instance, plus the cheap pinned witnesses
as reports built with the list.  Criteria 6 and 7 check each (n, l, m, r)
at every x in one task, whose partial returns that instance's reports in
x order, so the x-free work is done once per instance.  A pin is
VerificationReport.check of an observed value against its frozen
expectation, both given as raw values.  _reports gives one task's
reports: it passes a ready report through, calls a partial, and splices
in a partial's list of reports.  A criterion holds iff all its reports
passed.  Expected failures of the literal variants are pinned by reports
whose lhs is the observed (passed, lhs, rhs) triple, so a literal variant
that quietly started passing fails the suite as loudly as a corrected
variant that broke.

Tasks run in shards (_map): with workers = min(jobs, tasks, CPUs), where
CPUs counts the CPUs this process may run on, task i goes to shard
i % workers.  This process runs shard 0 itself; each other shard runs in
a child forked from it, which sends its results back as one pickled list
over a pipe.  The results are merged in task order, so the bytes never
depend on jobs.  The fork start method is asked for by name, so the
children inherit the task list and whatever this process has built, and
no task is pickled; fork is safe here because the package starts no
threads.  Where fork is not a start method, every shard runs in this
process; one worker is the same code with no child.  A child that fails
makes the run raise, and every child is reaped before the run returns.

Each task's result is rendered where it is computed, so a child sends
back text, not reports; report_lines and run_suite are the only two
runs.  report_lines gives the CLI's verify lines, each with its passed
flag, and the tests run each criterion through it.  run_suite runs
criteria 1..10 as one task list, so --jobs shards by task; each sweep
line comes with its passed flag and with criterion 11's check of that
line: it must parse back into a report that re-renders to the identical
bytes, and one that does not fails criterion 11, not the run.  The line
is parsed by the json module's scanner, built once at import, with no
decoder set-up per line (_round_trips); a line the scanner cannot read,
nested too deep included, is one that does not round-trip.
"""

from __future__ import annotations

import json
import os
from functools import partial
from json.encoder import encode_basestring_ascii
from json.scanner import make_scanner
from typing import Callable, Union

from . import identities, triangles
from .polys import QPoly
from .report import VerificationReport

Task = Union[
    VerificationReport,
    Callable[[], Union[VerificationReport, list[VerificationReport]]],
]


def _reports(task: Task) -> list[VerificationReport]:
    result = task if isinstance(task, VerificationReport) else task()
    return result if isinstance(result, list) else [result]


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask where the OS
    keeps one (a container's CPU set shows there), else the machine's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _shard(fn: Callable, items: list, shard: int, workers: int) -> list:
    return [fn(item) for item in items[shard::workers]]


def _send(conn, fn: Callable, items: list, shard: int, workers: int) -> None:
    """A forked child's body: send its shard's results, or the error that
    stopped them, as one message."""
    try:
        message = (True, _shard(fn, items, shard, workers))
    except Exception as exc:
        message = (False, f"{type(exc).__name__}: {exc}")
    conn.send(message)


class _Child:
    """One shard run in a forked process; its results come back pickled
    over a pipe."""

    def __init__(self, fn: Callable, items: list, shard: int, workers: int) -> None:
        import multiprocessing

        context = multiprocessing.get_context("fork")
        self._conn, send = context.Pipe(duplex=False)
        self._proc = context.Process(
            target=_send, args=(send, fn, items, shard, workers)
        )
        try:
            self._proc.start()
        finally:
            send.close()  # the child holds its own end: EOF if it dies

    def results(self) -> list:
        try:
            ok, value = self._conn.recv()
        except EOFError:
            raise RuntimeError("a worker process exited without results") from None
        if not ok:
            raise RuntimeError(f"a worker process failed: {value}")
        return value

    def stop(self, kill: bool) -> None:
        """Close the pipe and reap the process, ending it first if kill."""
        self._conn.close()
        if kill:
            self._proc.terminate()
        self._proc.join()


def _map(fn: Callable, items: list, jobs: int) -> list:
    """[fn(item) for item in items], in item order, run in shards as the
    module docstring says: shard 0 here, each other shard in a forked
    child.  A child that fails makes this raise; every child is reaped,
    and on any error ended first, before this returns or raises."""
    workers = max(1, min(jobs, len(items), _cpu_count()))
    if workers > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    results: list = [None] * len(items)
    children: list[_Child] = []
    done = False
    try:
        for shard in range(1, workers):
            children.append(_Child(fn, items, shard, workers))
        results[::workers] = _shard(fn, items, 0, workers)
        for shard, child in enumerate(children, 1):
            results[shard::workers] = child.results()
        done = True
    finally:
        # a child still running after an error is ended; one that sent its
        # results is only joined, so its exit handlers (a profiler's, say) run
        for child in children:
            child.stop(kill=not done)
    return results


def _verify_lines(task: Task) -> list[tuple[str, bool]]:
    return [(rep.to_json_line(), rep.passed) for rep in _reports(task)]


def report_lines(tasks: list[Task], jobs: int = 1) -> tuple[list[str], int]:
    """The JSON line of every report of tasks, in task order and a task's
    list of reports in its own order, and the number of failed reports;
    jobs caps the worker processes as in _map, and each line is rendered
    where its task ran."""
    rendered = [pair for lines in _map(_verify_lines, tasks, jobs) for pair in lines]
    return [line for line, _ in rendered], sum(not passed for _, passed in rendered)


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
    tasks: list[Task] = []
    tasks += [partial(identities.verify_lem1, k) for k in range(1, 11)]
    tasks += [partial(identities.verify_lem3, k) for k in range(1, 11)]
    for k in range(1, 9):
        for m in range(4):
            for r in range(4):
                tasks.append(partial(identities.verify_lem4, k, m, r))
    tasks += [partial(identities.verify_lem2, k, 12) for k in range(5)]
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
    x in 0..6 (one task per (n, mshift)); the literal shape fails at
    (n, mshift, x) = (1, 2, 1).  A side has degree n + mshift in x, so the
    7 x-points certify the polynomial identity only up to n + mshift <= 6;
    the tests check the symbolic form, verify_result1_xs(n, mshift, None,
    "corrected"), over the whole range."""
    tasks: list[Task] = [
        partial(identities.verify_result1_xs, n, total - n, range(7), "corrected")
        for total in range(9)
        for n in range(total + 1)
    ]
    [inner] = identities.verify_result1_xs(1, 2, [1], "literal")
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
    m in 1..3, r in 0..2, x in 0..5 (one task per (n, l, m, r)); the literal
    shape fails at (n, l, m, r, x) = (1, 1, 2, 1, 1), where q = 1 gives 10
    against 6.  A side has degree n + l in x, so the 6 x-points certify the
    polynomial identity only up to n + l <= 5; the tests check the symbolic
    form, verify_result2_xs(n, l, m, r, None, "corrected"), over the whole
    range."""
    tasks: list[Task] = [
        partial(
            identities.verify_result2_xs, n, total - n, m, r, range(6), "corrected"
        )
        for total in range(8)
        for n in range(total + 1)
        for m in (1, 2, 3)
        for r in (0, 1, 2)
    ]
    [inner] = identities.verify_result2_xs(1, 1, 2, 1, [1], "literal")
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
    must coincide with the classical Spivey values.  spivey is result3's
    body at (m, r) = (1, 0), so result3-vs-spivey compares one body with
    itself and only pins the bytes, as whitney-special does at m = 1."""
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
    q1 = triangles.r_whitney(12, 1, 0)
    tasks.append(_pin("q-stirling-at-1", {"n": 12}, q1, triangles.stirling2(12)))
    for m in (1, 2, 3):
        for r in (0, 1, 2):
            got = triangles.r_whitney(10, m, r)
            want = triangles.r_whitney_classic(10, m, r)
            tasks.append(_pin("r-whitney-at-1", {"n": 10, "m": m, "r": r}, got, want))
    got = [triangles.qr_dowling_poly(n, 1, 0).eval_x(1).eval_int(1) for n in range(13)]
    tasks.append(_pin("dowling-10-is-bell", {"n": 12}, got, triangles.bell(12)))
    tasks += [partial(identities.verify_whitney_special, 8, m) for m in (1, 2, 3)]
    return tasks


def criterion_10() -> list[Task]:
    """The q-expansion law [s]^n == sum_k S[n,k] · [s][s-1]..[s-k+1]
    as QPoly identities for 0 <= s, n <= 8."""
    law = identities.verify_q_expansion
    return [partial(law, s, n) for s in range(9) for n in range(9)]


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


def _line(num: int, slug: str, rep: VerificationReport) -> str:
    """dumps({"criterion": num, "slug": slug, "report": rep.to_json()}),
    with the report's line spliced in; an int is its own JSON number."""
    report = rep.to_json_line()
    return f'{{"criterion":{num:d},"report":{report},"slug":{encode_basestring_ascii(slug)}}}'


# the json module's scanner, the parser under json.loads, built once
_SCAN = make_scanner(json.JSONDecoder())


def _round_trips(line: str) -> bool:
    """Criterion 11 on one line: it parses back into a report that
    re-renders to the identical bytes.  The rebuilt report writes its sides
    with dumps, so each side's direct text is held to the json module's.
    The line is read by the json module's scanner, built once, which must
    end where the line does: json.loads would also strip whitespace around
    the value, but no written line has any, so its verdicts are the same.
    Bad JSON (the scanner's StopIteration, or RecursionError for nesting
    past the interpreter's limit), trailing data, a missing key or a wrong
    or contradicting passed is False."""
    try:
        d, end = _SCAN(line, 0)
        if end != len(line):
            return False
        rep = VerificationReport.from_json(d["report"])
        return _line(d["criterion"], d["slug"], rep) == line
    except (KeyError, TypeError, ValueError, StopIteration, RecursionError):
        return False


def _suite_lines(labelled: tuple[int, str, Task]) -> list[tuple[str, bool, bool]]:
    """The sweep line of each report of one labelled task, with the
    report's passed flag and whether the line round-trips."""
    num, slug, task = labelled
    out = []
    for rep in _reports(task):
        line = _line(num, slug, rep)
        out.append((line, rep.passed, _round_trips(line)))
    return out


def run_suite(jobs: int = 1) -> tuple[list[str], int]:
    """The sweep's report lines for criteria 1..11 and the number of failed
    reports; criteria 1..10 run as one task list, so jobs shards by task,
    and a task's criterion labels every report it returns."""
    labelled = [(num, slug, task) for num, slug, fn in CRITERIA for task in fn()]
    lines: list[str] = []
    failed = round_trips = 0
    for rendered in _map(_suite_lines, labelled, jobs):
        for line, passed, ok in rendered:
            lines.append(line)
            failed += not passed
            round_trips += ok
    total = len(lines)
    roundtrip = _pin("json-roundtrip", {"lines": total}, round_trips, total)
    lines.append(_line(11, "engineering-determinism", roundtrip))
    return lines, failed + (not roundtrip.passed)
