"""The acceptance gate.

One test per graded criterion, zero tolerance: a criterion passes only if
every single report it produces passed.  Each test prints a one-line
verdict (visible under pytest -s); a failure message carries the first
offending reports verbatim.

Criterion 11 (engineering determinism) is exercised end to end: the full
sweep runs twice in real subprocesses with different --jobs counts and
must produce byte-identical output, and every emitted line must survive a
parse and re-render round trip.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import time
from functools import partial

import pytest

from qspivey import acceptance, identities
from qspivey.report import VerificationReport


def _verdict(num, slug, total, failed):
    passed = total - failed
    tag = "FAIL" if failed else "PASS"
    print(f"[{tag}] criterion {num} ({slug}): {passed}/{total} checks")


@pytest.mark.parametrize(
    "num,slug,fn",
    acceptance.CRITERIA,
    ids=[f"{num:02d}-{slug}" for num, slug, _fn in acceptance.CRITERIA],
)
def test_criterion(num, slug, fn):
    lines, failed = acceptance.report_lines(fn())
    assert lines, "criterion produced no reports"
    _verdict(num, slug, len(lines), failed)
    if failed:
        bad = [line for line in lines if json.loads(line)["passed"] is not True][:3]
        detail = "\n".join(bad)
        pytest.fail(f"criterion {num} ({slug}) has failing checks:\n{detail}")


def _spivey_tasks():
    tasks = [partial(identities.verify_spivey, n, 2) for n in range(6)]
    tasks.insert(3, VerificationReport.check("ready", "n/a", {"n": 0}, "1", "1"))
    return tasks


def _lines_of(reports):
    return [rep.to_json_line() for rep in reports], sum(not r.passed for r in reports)


def test_report_lines_keep_task_order_for_any_job_count():
    tasks = _spivey_tasks()
    seq = acceptance.report_lines(tasks, 1)
    lines, failed = seq
    assert failed == 0
    assert lines[3] == tasks[3].to_json_line(), "a ready report renders as it is"
    assert [json.loads(line)["params"] for line in lines[:3] + lines[4:]] == [
        {"n": n, "mshift": 2} for n in range(6)
    ]
    assert acceptance.report_lines(tasks, 2) == seq
    assert acceptance.report_lines([], 4) == ([], 0)

    # a task may return a list of reports; they are spliced in in order
    mixed = [
        partial(identities.verify_result2_xs, 1, 1, 2, 1, range(3), "literal"),
        VerificationReport.check("ready", "n/a", {"n": 0}, "1", "1"),
        partial(identities.verify_spivey, 2, 2),
        partial(identities.verify_result1_xs, 1, 2, [], "corrected"),
        partial(identities.verify_result1_xs, 2, 1, range(2), "corrected"),
    ]
    flat = acceptance.report_lines(mixed, 1)
    assert flat == _lines_of([
        *(
            identities.verify_result2_xs(1, 1, 2, 1, [x], "literal")[0]
            for x in range(3)
        ),
        mixed[1],
        identities.verify_spivey(2, 2),
        *(identities.verify_result1_xs(2, 1, [x], "corrected")[0] for x in range(2)),
    ])
    assert acceptance.report_lines(mixed, 2) == flat
    assert acceptance.report_lines(mixed[3:4], 2) == ([], 0)


def _no_child(*args):
    raise AssertionError("one shard must not start a process")


def test_tasks_run_in_process_with_one_worker(monkeypatch):
    monkeypatch.setattr(acceptance, "_Child", _no_child)
    tasks = _spivey_tasks()
    assert len(acceptance.report_lines(tasks[:1], 8)[0]) == 1  # one task
    monkeypatch.setattr(acceptance, "_cpu_count", lambda: 1)
    assert acceptance.report_lines(tasks, 8) == acceptance.report_lines(tasks, 1)


def test_tasks_run_in_process_without_fork(monkeypatch):
    """Where fork is not a start method, every shard runs in process."""
    monkeypatch.setattr(acceptance, "_Child", _no_child)
    monkeypatch.setattr(acceptance, "_cpu_count", lambda: 4)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    tasks = _spivey_tasks()
    assert acceptance.report_lines(tasks, 8) == acceptance.report_lines(tasks, 1)


def test_cpu_count_reads_the_affinity_mask(monkeypatch):
    """A process limited to some CPUs never counts the others; without an
    affinity call, the machine's count (or 1 if unknown) is used."""
    monkeypatch.setattr(acceptance.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(
        acceptance.os, "sched_getaffinity", lambda pid: {2, 5}, raising=False
    )
    assert acceptance._cpu_count() == 2
    monkeypatch.delattr(acceptance.os, "sched_getaffinity")
    assert acceptance._cpu_count() == 64
    monkeypatch.setattr(acceptance.os, "cpu_count", lambda: None)
    assert acceptance._cpu_count() == 1


def test_results_from_forked_shards_match_in_process(monkeypatch):
    """A forked shard's results cross a pickle: the rendered lines and
    flags of criterion 7's reports must come back unchanged."""
    tasks = acceptance.criterion_7()
    here = [rep for task in tasks for rep in acceptance._reports(task)]
    lines = acceptance.report_lines(tasks, 1)
    assert lines == _lines_of(here)

    started = []
    real = acceptance._Child

    def counted(fn, items, shard, workers):
        started.append((shard, workers))
        return real(fn, items, shard, workers)

    monkeypatch.setattr(acceptance, "_cpu_count", lambda: 3)
    monkeypatch.setattr(acceptance, "_Child", counted)
    assert acceptance.report_lines(tasks, 3) == lines
    assert acceptance.report_lines(tasks, 2) == lines
    assert started == [(1, 3), (2, 3), (1, 2)]
    assert multiprocessing.active_children() == []


_READY = VerificationReport.check("ready", "n/a", {}, "1", "1")


def _raise():
    raise ZeroDivisionError("division by zero")


def _sleep():
    time.sleep(60)
    return _READY


@pytest.mark.parametrize(
    "tasks,error,message",
    [
        ([_READY, _raise], RuntimeError, "failed: ZeroDivisionError: division by zero"),
        ([_READY, partial(os._exit, 3)], RuntimeError, "exited without results"),
        ([_raise, _sleep], ZeroDivisionError, "division by zero"),
    ],
    ids=["child-raises", "child-dies", "parent-raises"],
)
def test_a_failing_shard_raises_and_leaves_no_process(monkeypatch, tasks, error, message):
    """Of two shards, task 0 runs in this process and task 1 in a forked
    child.  A child that raises or dies makes the runner raise; when this
    process raises first, the child still busy is ended, not waited for."""
    monkeypatch.setattr(acceptance, "_cpu_count", lambda: 2)
    start = time.monotonic()
    with pytest.raises(error, match=message):
        acceptance.report_lines(tasks, 2)
    assert time.monotonic() - start < 30
    assert multiprocessing.active_children() == []


def test_batched_criteria_keep_their_report_counts():
    """Criteria 6 and 7 run one task per instance over all x; the reports
    are still one per (instance, x) plus the literal witness."""
    assert len(acceptance.criterion_6()) == 46
    assert len(acceptance.criterion_7()) == 325
    six, _ = acceptance.report_lines(acceptance.criterion_6())
    seven, _ = acceptance.report_lines(acceptance.criterion_7())
    assert len(six) == 316 and len(seven) == 1945

    def xs(lines):
        return [json.loads(line)["params"]["x"] for line in lines]

    assert xs(six[:8]) == [0, 1, 2, 3, 4, 5, 6, 0]
    assert xs(seven[:7]) == [0, 1, 2, 3, 4, 5, 0]


def test_importing_the_cli_loads_no_process_pool():
    """multiprocessing is imported by the run that forks a shard, not by
    every command, and the plain record classes need no dataclasses, so
    neither it nor inspect, ast or dis is loaded."""
    code = (
        "import sys, qspivey.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('concurrent', 'multiprocessing')))\n"
        "print(sorted(m for m in ('dataclasses', 'inspect', 'ast', 'dis')\n"
        "             if m in sys.modules))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n[]\n"


def _run_sweep(jobs):
    return subprocess.run(
        [
            sys.executable,
            "-m",
            "qspivey",
            "sweep",
            "--suite",
            "acceptance",
            "--jobs",
            str(jobs),
        ],
        capture_output=True,
    )


def test_criterion_11_engineering_determinism():
    seq = _run_sweep(1)
    par = _run_sweep(4)
    assert seq.returncode == 0, seq.stderr.decode()
    assert par.returncode == 0, par.stderr.decode()
    assert seq.stdout == par.stdout, "parallel sweep output differs from sequential"

    lines = seq.stdout.decode().strip().split("\n")
    summary = json.loads(lines[-1])
    assert summary["failed"] == 0
    assert summary["total"] == summary["passed"] == len(lines) - 1

    seen = set()
    for line in lines[:-1]:
        d = json.loads(line)
        seen.add(d["criterion"])
        rep = VerificationReport.from_json(d["report"])
        rendered = json.dumps(
            {"criterion": d["criterion"], "slug": d["slug"], "report": rep.to_json()},
            sort_keys=True,
            separators=(",", ":"),
        )
        assert rendered == line
    assert seen == set(range(1, 12)), "sweep must cover criteria 1..11"

    roundtrip = json.loads(lines[-2])
    assert roundtrip["criterion"] == 11
    assert roundtrip["report"]["passed"] is True
    print(
        "[PASS] criterion 11 (engineering-determinism): "
        f"jobs=1 and jobs=4 byte-identical, {len(lines) - 1} lines round-trip"
    )


def test_report_from_json_takes_only_a_json_bool_verdict():
    rep = VerificationReport.check("katriel", "n/a", {"n": 1, "l": 0}, [1], [2])
    assert VerificationReport.from_json(rep.to_json()) == rep
    # bool("false") is True, which would flip the verdict
    for bad in ("false", "true", 0, 1, None):
        with pytest.raises(TypeError):
            VerificationReport.from_json(dict(rep.to_json(), passed=bad))


_GOOD = acceptance._line(1, "s", VerificationReport.check("x", "n/a", {"n": 1}, 1, 1))
_FAILING = acceptance._line(1, "s", VerificationReport.check("x", "n/a", {"n": 1}, 1, 2))
_DEEP = "[" * 100000 + "]" * 100000

# criterion 11's verdict on each line, as _round_trips gave it when it parsed
# with json.loads, before it read lines with the json module's scanner; the
# deep rows raised RecursionError then, and are False now
_ROUND_TRIPS = [
    ("good", _GOOD, True),
    ("good-failing", _FAILING, True),
    ("bad-json", _GOOD[:-1], False),
    ("empty", "", False),
    ("trailing-data", _GOOD + "x", False),
    ("trailing-space", _GOOD + " ", False),
    ("trailing-newline", _GOOD + "\n", False),
    ("leading-space", " " + _GOOD, False),
    ("bom", "\ufeff" + _GOOD, False),
    ("spaced", _GOOD.replace(",", ", "), False),
    ("top-level-list", "[" + _GOOD + "]", False),
    ("top-level-number", "7", False),
    ("top-level-null", "null", False),
    ("top-level-nan", "NaN", False),
    ("missing-key", _GOOD.replace('"slug"', '"slag"'), False),
    ("missing-report-key", _GOOD.replace('"lhs"', '"lhz"'), False),
    ("string-passed", _GOOD.replace('"passed":true', '"passed":"false"'), False),
    ("contradicting-passed", _GOOD.replace('"passed":true', '"passed":false'), False),
    ("contradicting-fail", _FAILING.replace('"passed":false', '"passed":true'), False),
    ("params-of-ints", _GOOD.replace('{"n":1}', "[1]"), False),
    ("params-string", _GOOD.replace('{"n":1}', '"ab"'), False),
    ("params-number", _GOOD.replace('{"n":1}', "5"), False),
    ("params-triples", _GOOD.replace('{"n":1}', "[[1,2,3]]"), False),
    ("params-pairs", _GOOD.replace('{"n":1}', '[["n",1]]'), False),
    ("identity-null", _GOOD.replace('"identity":"x"', '"identity":null'), False),
    ("identity-number", _GOOD.replace('"identity":"x"', '"identity":5'), False),
    ("slug-null", _GOOD.replace('"slug":"s"', '"slug":null'), False),
    ("slug-number", _GOOD.replace('"slug":"s"', '"slug":5'), False),
    ("slug-escaped", _GOOD.replace('"slug":"s"', '"slug":"\\u0073"'), False),
    ("criterion-float", _GOOD.replace('"criterion":1', '"criterion":1.0'), False),
    ("criterion-true", _GOOD.replace('"criterion":1', '"criterion":true'), False),
    ("criterion-string", _GOOD.replace('"criterion":1', '"criterion":"1"'), False),
    ("int-sides", _GOOD.replace('"lhs":"1"', '"lhs":1').replace('"rhs":"1"', '"rhs":1'), True),
    ("deep", _DEEP, False),
    ("deep-side", _GOOD.replace('"lhs":"1"', '"lhs":' + _DEEP), False),
]


@pytest.mark.parametrize(
    "line, verdict", [row[1:] for row in _ROUND_TRIPS], ids=[row[0] for row in _ROUND_TRIPS]
)
def test_round_trips_gives_the_same_verdict_on_each_malformed_line(line, verdict):
    assert acceptance._round_trips(line) is verdict


def test_a_report_whose_identity_or_variant_is_no_str_does_not_round_trip():
    """A line's identity and variant are written by the str writer, so a
    bool or a list there, which a report never writes, is refused; json_text
    would have written it back as it was read."""
    for bad in (
        _GOOD.replace('"identity":"x"', '"identity":true'),
        _GOOD.replace('"identity":"x"', '"identity":["x"]'),
        _GOOD.replace('"variant":"n/a"', '"variant":false'),
    ):
        assert acceptance._round_trips(bad) is False, bad


def test_a_line_that_parses_into_no_report_does_not_round_trip():
    """Criterion 11 counts such a line as not round-tripping; it never
    raises."""
    line = acceptance._line(1, "s", VerificationReport.check("x", "n/a", {}, 1, 1))
    assert acceptance._round_trips(line)
    for bad in (
        line[:-1],  # bad JSON
        line.replace('"slug"', '"slag"'),  # a missing key
        line.replace('"passed":true', '"passed":"true"'),  # a non-bool passed
        line.replace('"passed":true', '"passed":false'),  # a contradicting one
        line.replace('"identity":"x"', '"identity":null'),  # no str to write
    ):
        assert not acceptance._round_trips(bad), bad
