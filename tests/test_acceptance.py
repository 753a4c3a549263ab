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
import subprocess
import sys
from functools import partial

import pytest

from qspivey import acceptance, identities
from qspivey.report import VerificationReport


def _verdict(num, slug, reports):
    passed = sum(1 for r in reports if r.passed)
    ok = passed == len(reports)
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num} ({slug}): {passed}/{len(reports)} checks")
    return ok, passed


@pytest.mark.parametrize(
    "num,slug,fn",
    acceptance.CRITERIA,
    ids=[f"{num:02d}-{slug}" for num, slug, _fn in acceptance.CRITERIA],
)
def test_criterion(num, slug, fn):
    reports = acceptance.run_criterion(num)
    assert reports, "criterion produced no reports"
    ok, _ = _verdict(num, slug, reports)
    if not ok:
        bad = [r for r in reports if not r.passed][:3]
        detail = "\n".join(r.to_json_line() for r in bad)
        pytest.fail(f"criterion {num} ({slug}) has failing checks:\n{detail}")


def _spivey_tasks():
    tasks = [partial(identities.verify_spivey, n, 2) for n in range(6)]
    tasks.insert(3, VerificationReport("ready", "n/a", {"n": 0}, "1", "1", True))
    return tasks


def test_run_tasks_keeps_task_order_for_any_job_count():
    tasks = _spivey_tasks()
    seq = acceptance.run_tasks(tasks, 1)
    assert seq[3] is tasks[3], "a ready report passes through as it is"
    assert [rep.params for rep in seq[:3] + seq[4:]] == [
        {"n": n, "mshift": 2} for n in range(6)
    ]
    assert acceptance.run_tasks(tasks, 2) == seq
    assert acceptance.run_tasks([], 4) == []


def test_run_tasks_runs_in_process_with_one_worker(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("one worker must not start a process pool")

    monkeypatch.setattr(acceptance, "ProcessPoolExecutor", no_pool)
    tasks = _spivey_tasks()
    assert len(acceptance.run_tasks(tasks[:1], 8)) == 1  # one task
    monkeypatch.setattr(acceptance.os, "cpu_count", lambda: 1)
    assert acceptance.run_tasks(tasks, 8) == acceptance.run_tasks(tasks, 1)
    monkeypatch.setattr(acceptance.os, "cpu_count", lambda: None)
    assert acceptance.run_tasks(tasks, 8) == acceptance.run_tasks(tasks, 1)


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
    rep = VerificationReport("katriel", "n/a", {"n": 1, "l": 0}, ["1"], ["2"], False)
    assert VerificationReport.from_json(rep.to_json()) == rep
    # bool("false") is True, which would flip the verdict
    for bad in ("false", "true", 0, 1, None):
        with pytest.raises(TypeError):
            VerificationReport.from_json(dict(rep.to_json(), passed=bad))
