"""End-to-end CLI behavior: payload shapes, exit codes, determinism.

Most tests drive qspivey.cli.main in process and capture stdout; a couple
spawn real subprocesses where that is the thing under test.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import multiprocessing
import os
import random
import stat
import subprocess
import sys
import tempfile
from itertools import islice, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qspivey import QPoly, acceptance, cli, identities, opexpr, report, triangles
from qspivey.report import VerificationReport, dumps, encode


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_triangle_q_stirling_golden(capsys):
    code, out, err = run_cli(
        capsys, "triangle", "--kind", "q-stirling2", "--n", "3"
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload == {
        "kind": "q-stirling2",
        "m": None,
        "r": None,
        "n_max": 3,
        "rows": [
            [["1"]],
            [[], ["1"]],
            [[], ["1"], ["0", "1"]],
            [[], ["1"], ["0", "2", "1"], ["0", "0", "0", "1"]],
        ],
    }


def test_triangle_stirling_row_zero(capsys):
    code, out, _ = run_cli(capsys, "triangle", "--kind", "stirling2", "--n", "0")
    assert code == 0
    assert json.loads(out)["rows"] == [["1"]]


def test_triangle_whitney_golden(capsys):
    code, out, _ = run_cli(
        capsys,
        "triangle", "--kind", "qr-whitney", "--n", "2", "--m", "2", "--r", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 2 and payload["r"] == 1
    assert payload["rows"] == [
        [["1"]],
        [["1"], ["1"]],
        [["1"], ["4"], ["0", "1"]],
    ]


def test_triangle_csv_round_trip(capsys):
    code, out_json, _ = run_cli(
        capsys,
        "triangle", "--kind", "qr-whitney", "--n", "3", "--m", "2", "--r", "1",
    )
    rows_json = json.loads(out_json)["rows"]
    code2, out_csv, _ = run_cli(
        capsys,
        "triangle", "--kind", "qr-whitney", "--n", "3", "--m", "2", "--r", "1",
        "--format", "csv",
    )
    assert code == 0 and code2 == 0
    records = list(csv.reader(io.StringIO(out_csv)))
    assert records[0] == ["kind", "m", "r", "n_max"]
    assert records[1] == ["qr-whitney", "2", "1", "3"]
    decoded = [[json.loads(cell) for cell in rec] for rec in records[2:]]
    assert decoded == rows_json


def test_triangle_usage_errors(capsys):
    # missing --m for a Whitney kind
    code, out, err = run_cli(capsys, "triangle", "--kind", "qr-whitney", "--n", "2")
    assert code == 2 and out == "" and "error" in err
    # --m offered to a kind that has no weight
    code, out, err = run_cli(
        capsys, "triangle", "--kind", "stirling2", "--n", "2", "--m", "2"
    )
    assert code == 2 and out == ""
    # missing --n
    code, out, err = run_cli(capsys, "triangle", "--kind", "stirling2")
    assert code == 2 and out == ""


def test_poly_payloads(capsys):
    code, out, _ = run_cli(capsys, "poly", "--kind", "q-bell", "--n", "3")
    assert code == 0
    assert json.loads(out) == {
        "kind": "q-bell",
        "n": 3,
        "coeffs": [[], ["1"], ["0", "2", "1"], ["0", "0", "0", "1"]],
    }
    code, out, _ = run_cli(
        capsys, "poly", "--kind", "qr-dowling", "--n", "2", "--m", "2", "--r", "1"
    )
    assert json.loads(out)["coeffs"] == [["1"], ["4"], ["0", "1"]]


def test_numbers_payloads(capsys):
    code, out, _ = run_cli(capsys, "numbers", "--kind", "bell", "--n", "7")
    assert code == 0
    assert json.loads(out)["values"] == ["1", "1", "2", "5", "15", "52", "203", "877"]
    code, out, _ = run_cli(
        capsys, "numbers", "--kind", "r-dowling", "--n", "3", "--m", "2", "--r", "1"
    )
    assert json.loads(out)["values"] == ["1", "2", "6", "24"]
    code, out, _ = run_cli(capsys, "numbers", "--kind", "q-bell", "--n", "2")
    assert json.loads(out)["values"] == [["1"], ["1"], ["1", "1"]]


def test_normal_order_golden(capsys):
    code, out, _ = run_cli(capsys, "normal-order", "--expr", "a*ad")
    assert code == 0
    assert json.loads(out) == [
        {"coeff": ["1"], "k": 0, "l": 0},
        {"coeff": ["0", "1"], "k": 1, "l": 1},
    ]
    code, out, _ = run_cli(
        capsys, "normal-order", "--expr", "(m*N + r)^2", "--m", "2", "--r", "1"
    )
    assert json.loads(out) == [
        {"coeff": ["1"], "k": 0, "l": 0},
        {"coeff": ["8"], "k": 1, "l": 1},
        {"coeff": ["0", "4"], "k": 2, "l": 2},
    ]


def test_normal_order_parse_error_exit_two(capsys):
    code, out, err = run_cli(capsys, "normal-order", "--expr", "a*ad - q*ad*a")
    assert code == 2
    assert out == ""
    assert "position" in err


# 4301 digits, one past CPython's default int-to-str limit, and its text
_BIG = 10**4300 + 7
_BIG_TEXT = "1" + "0" * 4299 + "7"


def _int_of_text(text):
    """int(text) for a digit string of any length, read in chunks that
    stay below the interpreter's digit limit."""
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i : i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_normal_order_writes_a_coefficient_past_the_digit_limit(capsys):
    code, out, err = run_cli(capsys, "normal-order", "--expr", "9^4600")
    assert code == 0, err
    [term] = json.loads(out)
    assert (term["k"], term["l"]) == (0, 0)
    [digits] = term["coeff"]
    assert len(digits) > 4300
    assert _int_of_text(digits) == 9**4600


def test_every_int_writer_writes_past_the_digit_limit(capsys, monkeypatch):
    """The JSON int, the QPoly span and the CSV cell each write a 4301-digit
    int in full, in process and in a forked --jobs shard."""

    def int_rows(m, r):
        yield [_BIG]

    def q_rows(m, r):
        yield [QPoly([0, _BIG])]

    monkeypatch.setattr(triangles, "r_whitney_classic_rows", int_rows)
    monkeypatch.setattr(triangles, "qr_whitney_rows", q_rows)
    for kind, cell in (("stirling2", _BIG_TEXT), ("q-stirling2", ["0", _BIG_TEXT])):
        code, out, err = run_cli(capsys, "triangle", "--kind", kind, "--n", "0")
        assert code == 0, err
        assert json.loads(out)["rows"] == [[cell]]
        code, out, err = run_cli(
            capsys, "triangle", "--kind", kind, "--n", "0", "--format", "csv"
        )
        assert code == 0, err
        csv_cell = cell if kind == "stirling2" else dumps(cell)
        assert list(csv.reader(io.StringIO(out)))[2:] == [[csv_cell]]

    def big_case(identity, variant, params):
        return VerificationReport.check(identity, "n/a", params, _BIG, _BIG)

    monkeypatch.setattr(identities, "run_case", big_case)
    outs = []
    for jobs in ("1", "2"):
        argv = ("verify", "--identity", "bell-rec", "--n", "0..1", "--jobs", jobs)
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]
    assert [json.loads(line)["lhs"] for line in outs[0].splitlines()[:2]] == [
        _BIG_TEXT,
        _BIG_TEXT,
    ]


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit"
)
def test_main_gives_the_callers_digit_limit_back(capsys):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        for n in ("3", "x"):
            run_cli(capsys, "numbers", "--kind", "bell", "--n", n)
            assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(before)


def test_an_over_long_digit_string_exits_two_with_no_output(capsys):
    """An integer flag or an --expr uint of more than opexpr.MAX_DIGITS
    digits is refused before any int() reads it."""
    long = "9" * (opexpr.MAX_DIGITS + 1)
    for argv in (
        ("numbers", "--kind", "bell", "--n", long),
        ("verify", "--identity", "bell-rec", "--n", f"0..{long}"),
        ("verify", "--identity", "bell-rec", "--jobs", long),
        ("normal-order", "--expr", f"a^{long}"),
        ("normal-order", "--expr", f"ad*{long}"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv[:3]
        assert f"more than {opexpr.MAX_DIGITS} digits" in err
    # MAX_DIGITS digits are still an integer
    most = "1" + "0" * (opexpr.MAX_DIGITS - 1)
    assert cli._integer(most) == 10 ** (opexpr.MAX_DIGITS - 1)


def test_verify_pass_exit_zero_and_line_shape(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "spivey", "--n", "0..3", "--mshift", "0..3"
    )
    assert code == 0
    lines = out.strip().split("\n")
    summary = json.loads(lines[-1])
    assert summary == {"total": 16, "passed": 16, "failed": 0}
    for line in lines[:-1]:
        d = json.loads(line)
        rep = VerificationReport.from_json(d)
        assert rep.passed
        assert rep.to_json_line() == line


def test_verify_literal_failure_exit_one(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--identity", "result3", "--variant", "literal",
        "--n", "1", "--l", "1", "--m", "2", "--r", "1",
    )
    assert code == 1
    lines = out.strip().split("\n")
    rep = json.loads(lines[0])
    assert rep["passed"] is False
    assert rep["lhs"] == "6" and rep["rhs"] == "10"
    assert json.loads(lines[-1])["failed"] == 1


def test_verify_axis_ordering_is_documented_product_order(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "katriel", "--n", "0..1", "--l", "0..1"
    )
    assert code == 0
    params = [json.loads(l)["params"] for l in out.strip().split("\n")[:-1]]
    assert params == [
        {"l": 0, "n": 0},
        {"l": 1, "n": 0},
        {"l": 0, "n": 1},
        {"l": 1, "n": 1},
    ]


def test_lem3_takes_k_from_zero_as_lem4_does(capsys):
    """lem3 is lem4's body at (m, r) = (1, 0), and both hold at k = 0."""
    sides = []
    for argv in (["lem3"], ["lem4", "--m", "1", "--r", "0"]):
        code, out, err = run_cli(capsys, "verify", "--identity", *argv, "--k", "0")
        line, summary = map(json.loads, out.splitlines())
        assert (code, err, summary) == (0, "", {"failed": 0, "passed": 1, "total": 1})
        assert line["passed"] and line["params"]["k"] == 0
        sides.append((line["lhs"], line["rhs"]))
    assert sides[0] == sides[1]


def test_verify_usage_errors(capsys):
    cases = [
        ("verify", "--identity", "spivey", "--x", "1"),
        ("verify", "--identity", "katriel", "--variant", "literal"),
        ("verify", "--identity", "spivey", "--n", "5..2"),
        ("verify", "--identity", "spivey", "--n", "two"),
        ("verify", "--identity", "result2", "--m", "0..2"),
        ("verify", "--identity", "lem1", "--k", "0..3"),
        ("verify", "--identity", "lem2", "--k", "0..5", "--cap", "4"),
        ("verify", "--identity", "spivey", "--jobs", "0"),
        ("verify", "--identity", "spivey", "--kind", "q-stirling"),
        ("verify", "--identity", "spivey", "--n=-1..3"),
    ]
    messages = {cases[-1]: "--n: values must be nonnegative"}
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == "", argv
        assert messages.get(argv, "") in err, argv


def test_bad_bindings_and_unwritable_out_exit_two(tmp_path, capsys):
    missing_dir = str(tmp_path / "missing" / "rows.json")
    cases = [
        ("normal-order", "--expr", "a", "--m", "-1"),
        ("normal-order", "--expr", "r*a", "--r", "-2"),
        ("poly", "--kind", "q-bell", "--n", "2", "--out", missing_dir),
        # integer flags read ASCII digits only, as the --expr grammar does
        ("numbers", "--kind", "bell", "--n", "٣"),
        ("verify", "--identity", "spivey", "--n", "0..٢", "--mshift", "١"),
        ("triangle", "--kind", "qr-whitney", "--n", "3", "--m", "٢", "--r", "0"),
        ("poly", "--kind", "qr-dowling", "--n", "3", "--m", "1", "--r", "²"),
        ("sweep", "--jobs", "٢"),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == "" and "qspivey: error:" in err, argv


class _FullStdout(io.StringIO):
    """A stdout that fails as a full disk does, on write or on flush."""

    def __init__(self, failing):
        super().__init__()
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(28, "No space left on device")
        return super().write(text)

    def flush(self):
        if self.failing == "flush":
            raise OSError(28, "No space left on device")


def test_unwritable_stdout_exits_two(capsys, monkeypatch):
    for failing in ("write", "flush"):
        monkeypatch.setattr(sys, "stdout", _FullStdout(failing))
        code = cli.main(["triangle", "--kind", "q-stirling2", "--n", "4"])
        err = capsys.readouterr().err
        assert code == 2, failing
        assert "qspivey: error:" in err and "No space left" in err, failing


def test_unwritable_stdout_is_pointed_at_devnull(capsys, monkeypatch, tmp_path):
    # Bytes a failed stdout still holds are flushed again at interpreter
    # exit; with its descriptor on devnull that flush cannot fail.
    with open(tmp_path / "stdout", "w") as target:
        stdout = _FullStdout("write")
        stdout.fileno = target.fileno
        monkeypatch.setattr(sys, "stdout", stdout)
        code = cli.main(["triangle", "--kind", "q-stirling2", "--n", "4"])
        assert code == 2
        assert os.path.samestat(os.fstat(target.fileno()), os.stat(os.devnull))
    assert "No space left" in capsys.readouterr().err


class _RecordingStdout(io.StringIO):
    """A stdout that keeps every piece written to it, in order."""

    def __init__(self):
        super().__init__()
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)
        return super().write(text)


def _reference_triangle(kind, n, m, r, fmt):
    """A triangle's output rendered whole, from the cached builders, encode
    and dumps of the full payload: what the command wrote before it
    streamed."""
    if kind == "stirling2":
        rows = triangles.stirling2(n)
    elif kind == "q-stirling2":
        rows = triangles.q_stirling2(n)
    elif kind == "r-whitney":
        rows = triangles.r_whitney(n, m, r)
    else:
        rows = triangles.qr_whitney(n, m, r)
    cells = encode(rows)
    if fmt == "json":
        return dumps({"kind": kind, "m": m, "r": r, "n_max": n, "rows": cells}) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["kind", "m", "r", "n_max"])
    writer.writerow([kind, "" if m is None else m, "" if r is None else r, n])
    for row in cells:
        writer.writerow([c if isinstance(c, str) else dumps(c) for c in row])
    return buf.getvalue()


def test_streamed_triangle_matches_the_whole_payload(capsys):
    weights = list(product(range(1, 4), range(3)))
    for kind, pairs in (
        ("stirling2", [(None, None)]),
        ("q-stirling2", [(None, None)]),
        ("r-whitney", weights),
        ("qr-whitney", weights),
    ):
        for (m, r), n, fmt in product(pairs, range(13), ("json", "csv")):
            argv = ["triangle", "--kind", kind, "--n", str(n), "--format", fmt]
            if m is not None:
                argv += ["--m", str(m), "--r", str(r)]
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, ""), argv
            assert out == _reference_triangle(kind, n, m, r, fmt), argv


def test_streamed_numbers_and_poly_match_the_whole_payload(capsys):
    # the whole payloads as the library builds them: q-Bell numbers as the
    # q-Bell polynomials at x = 1, polynomials as XQPoly values
    weights = list(product(range(1, 4), range(3)))
    for n in range(13):
        wants = {
            ("numbers", "bell", None, None): triangles.bell(n),
            ("numbers", "q-bell", None, None): [
                triangles.q_bell_poly(i).eval_x(1) for i in range(n + 1)
            ],
            ("poly", "q-bell", None, None): triangles.q_bell_poly(n),
        }
        for m, r in weights:
            wants["numbers", "r-dowling", m, r] = triangles.r_dowling(n, m, r)
            wants["poly", "qr-dowling", m, r] = triangles.qr_dowling_poly(n, m, r)
        for (cmd, kind, m, r), value in wants.items():
            argv = [cmd, "--kind", kind, "--n", str(n)]
            if cmd == "numbers":
                payload = {"kind": kind, "n_max": n, "values": encode(value)}
            else:
                payload = {"kind": kind, "n": n, "coeffs": encode(value)}
            if m is not None:
                argv += ["--m", str(m), "--r", str(r)]
                payload.update(m=m, r=r)
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, ""), argv
            assert out == dumps(payload) + "\n", argv


def test_direct_csv_rows_are_what_csv_writer_writes():
    """Each row line is csv.writer's text for the row, on seeded random int
    and QPoly rows with zero, negative and > 2**64 coefficients."""
    rng = random.Random(20261018)
    bits = (1, 8, 63, 64, 65, 200)

    def rand_int():
        return rng.choice((-1, 0, 1)) * rng.getrandbits(rng.choice(bits))

    rows = [(0,), (QPoly.zero(),), (QPoly([0]), QPoly([-1]), QPoly([2**64, 0, -5]))]
    for _ in range(200):
        if rng.random() < 0.3:
            rows.append(tuple(rand_int() for _ in range(rng.randint(1, 8))))
        else:
            rows.append(
                tuple(
                    QPoly([rand_int() for _ in range(rng.randint(0, 6))])
                    for _ in range(rng.randint(1, 8))
                )
            )
    head = {"kind": "qr-whitney", "m": None, "r": 2, "n_max": len(rows) - 1}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(head.keys())
    writer.writerow(head.values())
    for row in rows:
        writer.writerow([c if isinstance(c, int) else dumps(encode(c)) for c in row])
    assert "".join(cli._csv_rows(head, rows)) == buf.getvalue()


def test_triangle_usage_errors_write_nothing(monkeypatch, tmp_path, capsys):
    # every exit-2 check runs before the first piece is written
    missing_dir = str(tmp_path / "missing" / "rows.json")
    cases = [
        ("triangle", "--kind", "qr-whitney", "--n", "2"),
        ("triangle", "--kind", "r-whitney", "--n", "2", "--m", "0"),
        ("triangle", "--kind", "qr-whitney", "--n", "2", "--m", "2", "--r", "-1"),
        ("triangle", "--kind", "qr-whitney", "--n", "2", "--m", "٢"),
        ("triangle", "--kind", "stirling2", "--n", "2", "--m", "2"),
        ("triangle", "--kind", "q-stirling2", "--n", "2", "--r", "1"),
        ("triangle", "--kind", "stirling2"),
        ("triangle", "--kind", "stirling2", "--n", "-1"),
        ("triangle", "--kind", "q-stirling2", "--n", "x"),
        ("triangle", "--kind", "q-stirling2", "--n", "2", "--format", "xml"),
        ("triangle", "--kind", "fermat", "--n", "2"),
        ("triangle", "--kind", "q-stirling2", "--n", "2", "--out", missing_dir),
    ]
    for argv in cases:
        stdout = _RecordingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli.main(list(argv)) == 2, argv
        assert stdout.pieces == [], argv
        assert "error" in capsys.readouterr().err, argv
    assert os.listdir(tmp_path) == []


def test_triangle_writes_one_piece_per_row_and_caches_nothing(monkeypatch):
    monkeypatch.setattr(triangles, "_BUILT", {})
    n = 12
    for kind, weight in (
        ("stirling2", []),
        ("q-stirling2", []),
        ("r-whitney", ["--m", "2", "--r", "1"]),
        ("qr-whitney", ["--m", "3", "--r", "2"]),
    ):
        for fmt in ("json", "csv"):
            stdout = _RecordingStdout()
            monkeypatch.setattr(sys, "stdout", stdout)
            argv = ["triangle", "--kind", kind, "--n", str(n), "--format", fmt]
            assert cli.main(argv + weight) == 0
            if fmt == "json":
                head, *rows, tail = stdout.pieces
                assert head.startswith('{"kind":') and head.endswith(',"rows":[')
                assert tail == "]}\n"
                want = json.loads(stdout.getvalue())["rows"]
                assert [json.loads(row.lstrip(",")) for row in rows] == want
            else:
                head, *rows = stdout.pieces
                assert head.startswith("kind,m,r,n_max\n") and head.count("\n") == 2
                assert all(row.count("\n") == 1 for row in rows)
            assert len(rows) == n + 1, (kind, fmt)
    assert triangles._BUILT == {}


def test_out_replaces_the_target_whole_with_the_mode_open_gives(tmp_path, capsys):
    argv = ["triangle", "--kind", "q-stirling2", "--n", "6", "--out"]
    _, out, _ = run_cli(capsys, *argv[:-1])
    target = tmp_path / "rows.json"
    for mask in (0o022, 0o077, 0o027):
        # a new file gets the mode open(path, "w") gives a new file
        old = os.umask(mask)
        try:
            code = cli.main([*argv, str(target)])
            with open(tmp_path / "by-open", "w"):
                pass
        finally:
            os.umask(old)
        assert code == 0 and target.read_text() == out
        mode = stat.S_IMODE(target.stat().st_mode)
        assert mode == stat.S_IMODE((tmp_path / "by-open").stat().st_mode)
        assert mode == 0o666 & ~mask
        os.unlink(tmp_path / "by-open")
        os.unlink(target)
    # an existing file keeps its own mode, as open(path, "w") leaves it
    for mode in (0o600, 0o640, 0o604):
        target.write_text("previous\n")
        os.chmod(target, mode)
        assert cli.main([*argv, str(target)]) == 0
        assert stat.S_IMODE(target.stat().st_mode) == mode
        assert target.read_text() == out
    assert os.listdir(tmp_path) == ["rows.json"]
    # a symlink stays a symlink: the file it names is the one replaced
    link = tmp_path / "link.json"
    link.symlink_to(target)
    target.write_text("previous\n")
    assert cli.main([*argv, str(link)]) == 0
    assert link.is_symlink() and target.read_text() == out
    assert sorted(os.listdir(tmp_path)) == ["link.json", "rows.json"]


def test_out_passes_over_a_temporary_file_a_killed_run_left(tmp_path, capsys):
    """A run killed mid-write leaves its temporary file behind, and PIDs
    repeat: a later run with that PID picks a free name, writes the target
    whole and leaves the stale files as they were."""
    argv = ["numbers", "--kind", "bell", "--n", "3", "--out"]
    _, out, _ = run_cli(capsys, *argv[:-1])
    stale = [f".rows.json.{os.getpid()}.tmp", f".rows.json.{os.getpid()}.1.tmp"]
    for name in stale:
        (tmp_path / name).write_text("partial")
    target = tmp_path / "rows.json"
    old = os.umask(0o022)
    try:
        assert run_cli(capsys, *argv, str(target)) == (0, "", "")
    finally:
        os.umask(old)
    assert target.read_text() == out
    assert stat.S_IMODE(target.stat().st_mode) == 0o644  # not mkstemp's 0600
    assert sorted(os.listdir(tmp_path)) == sorted([*stale, "rows.json"])
    assert all((tmp_path / name).read_text() == "partial" for name in stale)


@pytest.mark.skipif(os.geteuid() != 0, reason="giving a file away needs root")
def test_out_keeps_the_owner_of_an_existing_file(tmp_path):
    target = tmp_path / "rows.json"
    target.write_text("previous\n")
    os.chown(target, 65534, 65534)
    assert cli.main(["poly", "--kind", "q-bell", "--n", "4", "--out", str(target)]) == 0
    assert (target.stat().st_uid, target.stat().st_gid) == (65534, 65534)


def test_out_writes_in_place_what_is_not_a_lone_regular_file(tmp_path, capsys):
    argv = ["triangle", "--kind", "q-stirling2", "--n", "6"]
    _, out, _ = run_cli(capsys, *argv)
    # a FIFO stays a FIFO, and its reader gets the bytes
    fifo = tmp_path / "rows.fifo"
    os.mkfifo(fifo)
    reader = subprocess.Popen(["cat", str(fifo)], stdout=subprocess.PIPE, text=True)
    try:
        assert cli.main([*argv, "--out", str(fifo)]) == 0
        assert reader.communicate(timeout=30)[0] == out
    finally:
        reader.kill()
        reader.wait()
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    # a file with a second link: both names see the new bytes
    target, twin = tmp_path / "rows.json", tmp_path / "twin.json"
    target.write_text("previous\n")
    os.link(target, twin)
    assert cli.main([*argv, "--out", str(target)]) == 0
    assert twin.read_text() == out and os.path.samefile(target, twin)
    # /dev/stdout reaches the pipe stdout is
    proc = subprocess.run(
        [sys.executable, "-m", "qspivey", *argv, "--out", "/dev/stdout"],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", out)
    assert sorted(os.listdir(tmp_path)) == ["rows.fifo", "rows.json", "twin.json"]


def test_out_in_a_closed_directory_writes_its_file_in_place(monkeypatch, tmp_path):
    # a directory that takes no new file can still hold a writable file
    def no_new_files(file, mode="r", *args, **kwargs):
        if "x" in mode:
            raise PermissionError(13, "Permission denied", file)
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", no_new_files, raising=False)
    argv = ["poly", "--kind", "q-bell", "--n", "4", "--out"]
    target = tmp_path / "rows.json"
    target.write_text("previous\n")
    assert cli.main([*argv, str(target)]) == 0
    assert json.loads(target.read_text())["kind"] == "q-bell"
    assert cli.main([*argv, str(tmp_path / "new.json")]) == 2
    assert os.listdir(tmp_path) == ["rows.json"]


@pytest.mark.parametrize("directory", ["missing", "closed"])
def test_a_failed_out_names_the_target_not_its_temporary_file(
    monkeypatch, tmp_path, capsys, directory
):
    """The temporary file beside the target is the writer's own; an error
    in making it names the path the user gave, still with exit 2."""
    target = tmp_path / "x.json"
    if directory == "missing":
        target, errno_text = tmp_path / "missing" / "x.json", "[Errno 2] No such file"
    else:
        errno_text = "[Errno 13] Permission denied"

        def no_new_files(file, mode="r", *args, **kwargs):
            if "x" in mode:
                raise PermissionError(13, "Permission denied", file)
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "open", no_new_files, raising=False)
    argv = ["numbers", "--kind", "bell", "--n", "3", "--out", str(target)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"qspivey: error: {errno_text}"), err
    assert err.endswith(f": {str(target)!r}\n") and ".tmp" not in err, err
    assert not target.exists()


def test_a_fault_in_mid_stream_exits_one(monkeypatch, tmp_path, capsys):
    # triangle streams rows and numbers row sums; both read qr_whitney_rows.
    # normal-order streams its terms, each written by cli.term_json
    commands = [
        (["triangle", "--kind", "q-stirling2", "--n", "6"], 3),
        (["numbers", "--kind", "q-bell", "--n", "6"], 3),
        (["normal-order", "--expr", "(a+ad)^4"], 1),
    ]
    wholes = [run_cli(capsys, *argv)[1] for argv, _ in commands]
    real_rows, real_term = triangles.qr_whitney_rows, cli.term_json

    def two_rows_then_fault(m, r, last=None):
        yield from islice(real_rows(m, r, last), 2)
        raise RuntimeError("injected fault")

    def one_term_then_fault(term):
        if term[0] != (0, 0):
            raise RuntimeError("injected fault")
        return real_term(term)

    monkeypatch.setattr(triangles, "qr_whitney_rows", two_rows_then_fault)
    monkeypatch.setattr(cli, "term_json", one_term_then_fault)
    for (argv, pieces), whole in zip(commands, wholes):
        # --out: the file already there is left byte for byte, with no temp file
        target = tmp_path / "rows.json"
        target.write_bytes(b"previous\x00bytes\n")
        assert cli.main([*argv, "--out", str(target)]) == 1, argv
        assert "internal error: injected fault" in capsys.readouterr().err
        assert target.read_bytes() == b"previous\x00bytes\n"
        assert os.listdir(tmp_path) == ["rows.json"]

        # stdout: the pieces written before the fault stay: the header and
        # two rows (or row sums), or the opening bracket and the first term
        stdout = _RecordingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli.main(argv) == 1, argv
        assert "internal error: injected fault" in capsys.readouterr().err
        assert len(stdout.pieces) == pieces, argv
        assert whole.startswith(stdout.getvalue())


def test_normal_order_writes_one_piece_per_term(monkeypatch):
    """normal-order streams: one piece per term, whose text is the term's
    record in the whole payload."""
    nf = opexpr.normal_order("(a+ad)^6")
    stdout = _RecordingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert cli.main(["normal-order", "--expr", "(a+ad)^6"]) == 0
    assert len(stdout.pieces) == len(nf.terms) + 1
    assert stdout.getvalue() == dumps(encode(nf)) + "\n"
    assert json.loads(stdout.pieces[1][1:]) == encode(nf)[1]
    stdout = _RecordingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert cli.main(["normal-order", "--expr", "a*ad-a*ad"]) == 0
    assert stdout.pieces == ["[]\n"]


def test_unknown_identity_and_missing_subcommand(capsys):
    code, out, err = run_cli(capsys, "verify", "--identity", "fermat")
    assert code == 2 and out == ""
    code, out, err = run_cli(capsys)
    assert code == 2 and out == ""


def test_verify_jobs_byte_identical(capsys):
    argv = [
        "verify", "--identity", "result2",
        "--n", "0..2", "--l", "0..2", "--m", "1..2", "--r", "0..1", "--x", "0..1",
    ]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv, "--jobs", "3")
    assert code1 == code2 == 0
    assert out1 == out2


def test_out_flag_writes_the_same_bytes(tmp_path, capsys):
    target = tmp_path / "rows.json"
    code, out, _ = run_cli(capsys, "poly", "--kind", "q-bell", "--n", "4")
    code2, out2, _ = run_cli(
        capsys, "poly", "--kind", "q-bell", "--n", "4", "--out", str(target)
    )
    assert code == code2 == 0
    assert out2 == ""
    assert target.read_text() == out


def test_triangle_oracle_verify_kinds(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "triangle-oracle", "--n", "0..4"
    )
    assert code == 0
    first = json.loads(out.strip().split("\n")[0])
    assert first["params"]["kind"] == "q-stirling"
    code, out, _ = run_cli(
        capsys,
        "verify", "--identity", "triangle-oracle", "--kind", "qr-whitney",
        "--n", "0..3", "--m", "1..2", "--r", "0..1",
    )
    assert code == 0
    # --kind is rejected anywhere else
    code, _, _ = run_cli(
        capsys, "verify", "--identity", "spivey", "--kind", "qr-whitney"
    )
    assert code == 2


def test_large_n_runs_without_exhausting_the_stack(capsys):
    code, out, err = run_cli(capsys, "triangle", "--kind", "stirling2", "--n", "600")
    assert code == 0 and err == ""
    rows = json.loads(out)["rows"]
    assert len(rows) == 601 and rows[600][1] == rows[600][600] == "1"

    code, out, err = run_cli(
        capsys, "verify", "--identity", "spivey", "--n", "0", "--mshift", "600"
    )
    assert code == 0 and err == ""
    assert json.loads(out.split("\n")[-2]) == {"failed": 0, "passed": 1, "total": 1}

    # a^600 ad = q^600 ad a^600 + [600] a^599
    code, out, err = run_cli(capsys, "normal-order", "--expr", "a^600*ad")
    assert code == 0 and err == ""
    assert json.loads(out) == [
        {"coeff": ["1"] * 600, "k": 0, "l": 599},
        {"coeff": ["0"] * 600 + ["1"], "k": 1, "l": 600},
    ]


def test_sweep_catches_a_corrupted_triangle(capsys, monkeypatch):
    """Corrupt one q-Stirling cell and the sweep must go red."""
    real = triangles.q_stirling2

    def corrupted(n_max):
        rows = [list(row) for row in real(n_max)]
        if n_max >= 3:
            rows[3] = list(rows[3])
            rows[3][2] = rows[3][2] + QPoly.one()
        return tuple(tuple(row) for row in rows)

    monkeypatch.setattr(triangles, "q_stirling2", corrupted)
    code, out, _ = run_cli(capsys, "sweep", "--jobs", "1")
    assert code == 1
    summary = json.loads(out.strip().split("\n")[-1])
    assert summary["failed"] > 0


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qspivey", "numbers", "--kind", "bell", "--n", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["values"] == ["1", "1", "2", "5"]


def test_importing_the_cli_loads_no_heavy_module():
    """report.Record stands in for a dataclass, and acceptance imports
    multiprocessing only when a run forks, so start-up loads none of these."""
    heavy = ["dataclasses", "inspect", "multiprocessing", "csv", "concurrent"]
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    check = f"import sys, qspivey.cli; print([m for m in {heavy} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", check],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_device_on_stdout_exits_two_without_a_traceback():
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "qspivey", "numbers", "--kind", "bell", "--n", "3"],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
        )
    assert proc.returncode == 2
    assert proc.stderr.startswith("qspivey: error:")
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_help_exits_zero():
    proc = subprocess.run(
        [sys.executable, "-m", "qspivey", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "triangle" in proc.stdout and "sweep" in proc.stdout


# stdout sha256 and byte count of the sweep, of every default-range verify
# run and of the big-coefficient triangles, XQPoly rows and NormalForm
# subtraction, so a byte drift in the defaults, the literal shapes, the
# sweep or the polynomial rings fails here; the sweep digest is the one in
# bench/golden.json.  a^60*ad^60 pins the q-Wick reorder against the bytes
# of the one-factor rewrite, and the triangle-oracle range pins the power
# chain, also split across two workers.
PINNED_STDOUT = [
    ("sweep --jobs 1", 0,
     "a85682796e27f4efd64f0a8de0f4875dd9667151d4e6577259b9c4be55d5154c", 983881),
    ("verify --identity bell-rec", 0,
     "ccd8314ca4f0882c28281902fd453210429d4d2a19da330c1230b8495c9ac748", 881),
    ("verify --identity katriel", 0,
     "1b3d47999ad30c39f5632068a51a8b48f14488aa5a5f013a8a645d32fd0230b0", 8074),
    ("verify --identity lem1", 0,
     "b96d0b9c0c2d26bd4aa82498dd437a924df0c4bdd9a23deaf907f47eb6f232a3", 988),
    ("verify --identity lem2", 0,
     "33ad6930742503b89ba5836481439e8a501abbd3d06c6728d8fad39d99741b40", 2306),
    ("verify --identity lem3", 0,
     "0ab6ae991bc6875c64c1290fa546149d2fff2225a0fdd3e29ed06080f61214a8", 1492),
    ("verify --identity lem4", 0,
     "a47f6ad0e9f18259aae596ea8cd4c58a5da59ef7d44f7b9b819b642463d4ebc6", 11610),
    ("verify --identity result1", 0,
     "24965811696613b15c1f32365e6edc1e898b95b36badd4ccf16d8326d7bba61f", 32776),
    ("verify --identity result2", 0,
     "6ba4709579fbb3707c4ca1fddfd88f932877ee8c33ef04fac41793a27284b54f", 142636),
    ("verify --identity result3", 0,
     "fb1734a25d797684b97a0b6897f4b8d4348164713e538fab6126e1b774140852", 16568),
    ("verify --identity spivey", 0,
     "b6ba68ecc0e8d573fa09a3f0cec3ed621a9c6b2a4761b13c2a412a1ef4e4f926", 3636),
    ("verify --identity stirling-def", 0,
     "dba31eea23e6deae1bb1bdaf74db2fbf91ad89ba903bcf02fa2440efcc0efd94", 951),
    ("verify --identity triangle-oracle", 0,
     "40eb11d1cbec26c0c0a8cedf84f7964306c9109f18e7974411ff230aea30c3b4", 1994),
    ("verify --identity whitney-special", 0,
     "cc00eb48e1599779ab1111f67a1f89bd31d238b36f11004356174d875b585240", 2660),
    ("verify --identity result1 --variant literal", 1,
     "9fbdf4208159705e6c465ef10f10068171c2d516b2d77a9f6a6a24a84f2f0079", 30891),
    ("verify --identity result2 --variant literal", 1,
     "52b58d36dcc0b5e2c7bafae29b68950801e4834023dd8a53593f2e52d6fdc156", 136046),
    ("verify --identity result3 --variant literal", 1,
     "fbf174e835198cac1beaa422d09d2b176b910c2e1b389e56ab1250bd0c0fbffe", 16369),
    ("verify --identity triangle-oracle --kind qr-whitney", 0,
     "6c95f0600f21695928b8625644be5b649c19c4534422531aa367dfd4383e2d03", 8616),
    ("triangle --kind q-stirling2 --n 30", 0,
     "6ef1de968117b473530618e9c3790f259d140f96914f9a6175e7cc45d33a91e8", 583072),
    ("triangle --kind qr-whitney --n 24 --m 3 --r 2", 0,
     "c9ea823ea9cbbce32aabe5cbf0f8e8475c94f027ad801181b4e3ad459439503a", 264145),
    ("triangle --kind qr-whitney --n 24 --m 2 --r 0", 0,
     "34a9a2bba10a983b190c9865ab058f931bfac8700cb289b5d00513b7977fdf5e", 236280),
    ("triangle --kind qr-whitney --n 24 --m 1 --r 2", 0,
     "213dcf2300ed542c66d021affa87bb7699439e8fd69721157cdbbb67c81d00c9", 214742),
    ("triangle --kind r-whitney --n 30 --m 2 --r 1 --format csv", 0,
     "216ac8449f3518f7f97c115321949c3520e1cd6d5baa7b4bd9df08798ed359fe", 6754),
    ("poly --kind qr-dowling --n 16 --m 2 --r 1", 0,
     "3d81d951b876bb2ff4a78e62e4368587d55d5ee18593faeb19aca784f0fdb690", 9239),
    ("numbers --kind q-bell --n 16", 0,
     "b963a327f939189aafd439f1c3a5b576ec4e477039233c8d984f587a48c59ca6", 5319),
    ("numbers --kind bell --n 300", 0,
     "6913e8fe1d5513b055e7f309092d88f71e1c6ada2ff0fe58922f2430279064a3", 62109),
    ("numbers --kind r-dowling --n 40 --m 3 --r 2", 0,
     "4a3176dee633731022e4018b7e45bc16b850274a0d7f7b2dd105e637a79d073a", 1098),
    ("poly --kind q-bell --n 12", 0,
     "a26ccf3aa4812dc5c1afad8a0599e23c9ff3b60930793c023d1a5380ba531723", 2731),
    ("triangle --kind stirling2 --n 40 --format csv", 0,
     "e5871e348d3b83e138e458bee64118b803caa0a3cc453ae9db550f445f6c8a21", 12883),
    ("triangle --kind r-whitney --n 40 --m 3 --r 2", 0,
     "ba48bf779c533e90fd3fb4b3438de24d3371b49e5661e401ac20d5dccf882566", 20706),
    ("normal-order --expr (2*N+1)^10-ad^3*a^2+7", 0,
     "3353116852b155285d5ea0ac17e64b58f39d9197c9180743bf94f707394d9bf3", 2124),
    ("normal-order --expr a^60*ad^60", 0,
     "a4b87e82f25abc0d2062dd030b90ad24f89081a9369fc0474f971a80d0c1f854", 6451420),
    ("verify --identity triangle-oracle --kind qr-whitney --n 0..32 --m 3 --r 2", 0,
     "71e7819ca53cbcc3a75a7fae59fdfddb81df305c5fe588fa55625faf2da86b72", 2682347),
    ("verify --identity triangle-oracle --kind qr-whitney --n 0..32 --m 3 --r 2"
     " --jobs 2", 0,
     "71e7819ca53cbcc3a75a7fae59fdfddb81df305c5fe588fa55625faf2da86b72", 2682347),
    # dense operator products: every term pair steps a coefficient with
    # several nonzero terms through the q-Wick chain
    ("normal-order --expr (a+ad)^24", 0,
     "4ba5cf53c6029d320104c18a5298fdb5b7ae79a1dd001dda9added5a8cb6ad1e", 178555),
    ("normal-order --expr (a^2*ad^3+ad*a)^8", 0,
     "2de693e1ab99250016b4e7ff380efe5a024868c5c36a05b2ad900b3e6ce36836", 89203),
    ("verify --identity lem2 --k 0..12 --cap 120", 0,
     "aa140bf096e4e89a2a287fe694f0fa1393e5b9548db79b28cd7fdcbc71537e63", 589732),
    # corrected instances with more x points than n are read off their
    # symbolic sides, the others at each x; these ranges hold both kinds
    ("verify --identity result2 --n 0..9 --l 0..3 --m 3 --r 2 --x 0..12", 0,
     "264f7f597ff5fba7fbec4849a56231bb4796f6bead57aefc70db85de9bbbc1cb", 284874),
    ("verify --identity result1 --n 0..10 --mshift 0..4 --x 0..8", 0,
     "2b7264aae3a491af3affaadfd34e1c1ded251c86771088f083489c4236783d53", 286076),
    # crosses the size rule at all nine (m, r), each (m, r) read with a new
    # total every time: the Dowling store's worst order
    ("verify --identity result2 --n 0..8 --l 0..8 --m 1..3 --r 0..2 --x 0..5", 0,
     "d3b3045a3f9de03f9e465361dc2e20bdbe1413002564150f087b0335a1d2f470", 3326660),
    # the integer double sums, over rows where m·j + r = 0 (j = 0, r = 0)
    # and in both shapes
    ("verify --identity spivey --n 0..30 --mshift 0..30", 0,
     "a5c24c30002901421bd11e28ba35a166d6674144b9ee257629e6c91e0a45f72e", 144146),
    ("verify --identity result3 --n 0..12 --l 0..6 --m 1..3 --r 0..2", 0,
     "5c0eaf921167b02bc6b7585323ee1da108b8b8e03e8d5d78f3b71db0522d5403", 103335),
    ("verify --identity result3 --n 0..12 --l 0..6 --m 1..3 --r 0..2"
     " --variant literal", 1,
     "01244b77828278ec640cf81a609ff75327a84786582e215268dbf40358c3c78e", 102595),
]


@pytest.mark.parametrize(
    "command,want_code,want_sha,want_bytes",
    PINNED_STDOUT,
    ids=[pin[0] for pin in PINNED_STDOUT],
)
def test_pinned_stdout_digest(capsys, command, want_code, want_sha, want_bytes):
    code, out, err = run_cli(capsys, *command.split())
    data = out.encode()
    assert code == want_code, err
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (want_sha, want_bytes)


@pytest.mark.parametrize("identity, instances", [("result1", 35), ("result2", 140)])
def test_verify_runs_one_task_per_instance_over_all_x(
    capsys, monkeypatch, identity, instances
):
    """verify passes the x axis whole, so the default ranges build the
    x-free parts of each instance once: one _dowling_sides call per
    instance, not one per (instance, x), with the pinned bytes."""
    calls = 0
    sides = identities._dowling_sides

    def counting_sides(*args):
        nonlocal calls
        calls += 1
        return sides(*args)

    monkeypatch.setattr(identities, "_dowling_sides", counting_sides)
    command = f"verify --identity {identity}"
    code, out, err = run_cli(capsys, *command.split())
    pin = next(pin for pin in PINNED_STDOUT if pin[0] == command)
    assert (code, hashlib.sha256(out.encode()).hexdigest(), len(out)) == pin[1:]
    assert calls == instances
    assert json.loads(out.splitlines()[-1])["total"] == 4 * instances  # x in 0..3


def test_the_dowling_store_keeps_one_total_per_m_r(capsys, monkeypatch):
    """After a verify over all nine (m, r) in the CLI's interleaved order,
    the store of D_{m,r}(n+l) values holds one total per (m, r), the last
    one read, with one value per x, and the bytes are the pinned ones."""
    monkeypatch.setattr(identities, "_DOWLING_AT", {})
    command = "verify --identity result2 --n 0..8 --l 0..8 --m 1..3 --r 0..2 --x 0..5"
    code, out, err = run_cli(capsys, *command.split())
    pin = next(pin for pin in PINNED_STDOUT if pin[0] == command)
    assert (code, hashlib.sha256(out.encode()).hexdigest(), len(out)) == pin[1:]
    store = identities._DOWLING_AT
    assert sorted(store) == [(m, r) for m in (1, 2, 3) for r in (0, 1, 2)]
    for (m, r), (total, values) in store.items():
        assert total == 16
        lhs = triangles.qr_dowling_poly(16, m, r)
        assert values == {x: lhs.eval_x(x) for x in range(6)}


def test_jobs_never_asks_for_more_workers_than_cpus(capsys, monkeypatch):
    """--jobs N runs min(N, CPUs, tasks) shards, never N.

    A stand-in child runs its shard in this process and records what it
    was asked for, so no process is started here.
    """
    asked = []

    class InlineChild:
        def __init__(self, fn, items, shard, workers):
            asked.append((shard, workers, len(items)))
            self._results = [fn(item) for item in items[shard::workers]]

        def results(self):
            return self._results

        def stop(self, kill):
            assert not kill

    monkeypatch.setattr(acceptance, "_Child", InlineChild)
    monkeypatch.setattr(acceptance.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(
        acceptance.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False
    )
    code, out, _ = run_cli(capsys, "sweep", "--jobs", "1000000")
    assert code == 0
    assert [shard for shard, _, _ in asked] == [1, 2, 3]
    assert {(workers, items > 10) for _, workers, items in asked} == {(4, True)}, (
        "the sweep shards by task"
    )
    _, _, want_sha, want_bytes = PINNED_STDOUT[0]
    assert (hashlib.sha256(out.encode()).hexdigest(), len(out)) == (
        want_sha,
        want_bytes,
    )

    asked.clear()
    code, _, _ = run_cli(
        capsys, "verify", "--identity", "spivey", "--n", "0..2", "--jobs", "1000000"
    )
    assert code == 0 and asked == [(1, 4, 15), (2, 4, 15), (3, 4, 15)]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_line_that_does_not_round_trip_fails_criterion_11(capsys, monkeypatch, jobs):
    """JSON object keys are strings: the int keys 2 and 10 are written in
    numeric order but read back as "2" and "10", which sort the other way,
    so that line re-renders to other bytes.  With two shards, the line is
    rendered and checked in the forked child."""
    good = VerificationReport.check("ready", "n/a", {"n": 0}, "1", "1")
    bad = VerificationReport.check("ready", "n/a", {2: "a", 10: "b"}, "1", "1")
    criteria = ((1, "classical-spivey", lambda: [good, bad, good]),)
    monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    monkeypatch.setattr(acceptance, "_cpu_count", lambda: 2)
    code, out, _ = run_cli(capsys, "sweep", "--jobs", jobs)
    lines = out.strip().split("\n")
    assert code == 1
    assert '"params":{"2":"a","10":"b"}' in lines[1]
    roundtrip = json.loads(lines[-2])
    assert roundtrip["criterion"] == 11
    assert roundtrip["report"]["passed"] is False
    assert (roundtrip["report"]["lhs"], roundtrip["report"]["rhs"]) == ("2", "3")
    assert json.loads(lines[-1]) == {"failed": 1, "passed": 3, "total": 4}


def test_a_non_canonical_writer_fails_criterion_11(capsys, monkeypatch):
    """The QPoly writer made to write JSON with spaces: every sweep line
    still parses, but a report rebuilt from it writes its sides with the
    json module, so criterion 11 fails and the sweep exits 1."""
    monkeypatch.setitem(report._WRITERS, QPoly, lambda p: json.dumps(p.to_json()))
    code, out, _ = run_cli(capsys, "sweep")
    lines = [json.loads(line) for line in out.strip().split("\n")]
    assert code == 1
    assert any('", "' in line for line in out.split("\n"))
    roundtrip = lines[-2]
    assert (roundtrip["criterion"], roundtrip["slug"]) == (11, "engineering-determinism")
    assert roundtrip["report"]["identity"] == "json-roundtrip"
    assert roundtrip["report"]["passed"] is False


def test_a_line_that_parses_into_no_report_fails_criterion_11(capsys, monkeypatch):
    """Every line written with "passed":false, which the sides of a passing
    report contradict: no such line parses back into a report, so criterion
    11 fails with a report of its own, not an internal error, and every
    line is still written."""
    want = run_cli(capsys, "sweep")[1].strip().split("\n")
    real = VerificationReport.to_json_line

    def always_false(rep):
        return real(rep).replace('"passed":true', '"passed":false')

    monkeypatch.setattr(VerificationReport, "to_json_line", always_false)
    code, out, err = run_cli(capsys, "sweep")
    assert code == 1 and err == ""
    lines = out.strip().split("\n")
    assert len(lines) == len(want)
    assert lines[:-2] == [line.replace('"passed":true', '"passed":false') for line in want[:-2]]
    roundtrip = json.loads(lines[-2])
    assert (roundtrip["criterion"], roundtrip["slug"]) == (11, "engineering-determinism")
    assert roundtrip["report"]["passed"] is False
    total = len(lines) - 2
    assert (roundtrip["report"]["lhs"], roundtrip["report"]["rhs"]) == ("0", str(total))
    assert json.loads(lines[-1]) == {"failed": 1, "passed": total, "total": total + 1}


def test_a_line_with_a_null_identity_fails_criterion_11(capsys, monkeypatch):
    """Every line written with "identity":null, which no report writes:
    criterion 11 counts none of them as round-tripping, with a report of
    its own, and no internal error is raised; the exit code 1 is that of
    the failing report."""
    want = run_cli(capsys, "sweep")[1].strip().split("\n")
    real = VerificationReport.to_json_line

    def null_identity(rep):
        line = real(rep)
        return line.replace(f'"identity":{dumps(rep.identity)}', '"identity":null')

    monkeypatch.setattr(VerificationReport, "to_json_line", null_identity)
    code, out, err = run_cli(capsys, "sweep")
    assert code == 1 and err == ""
    lines = out.strip().split("\n")
    assert len(lines) == len(want)
    assert all('"identity":null' in line for line in lines[:-2])
    roundtrip = json.loads(lines[-2])
    assert (roundtrip["criterion"], roundtrip["slug"]) == (11, "engineering-determinism")
    assert roundtrip["report"]["passed"] is False
    total = len(lines) - 2
    assert (roundtrip["report"]["lhs"], roundtrip["report"]["rhs"]) == ("0", str(total))
    assert json.loads(lines[-1]) == {"failed": 1, "passed": total, "total": total + 1}


def test_a_task_failing_in_a_worker_is_an_internal_error(capsys, monkeypatch):
    """A verifier that raises in the forked child exits 1 with no output."""
    real = identities.run_case

    def run_case(identity, variant, params):
        if params["n"] == 1:
            raise ZeroDivisionError("division by zero")
        return real(identity, variant, params)

    monkeypatch.setattr(identities, "run_case", run_case)
    monkeypatch.setattr(acceptance, "_cpu_count", lambda: 2)
    code, out, err = run_cli(
        capsys, "verify", "--identity", "spivey", "--n", "0..1", "--mshift", "0",
        "--jobs", "2",
    )
    assert (code, out) == (1, "")
    assert err == (
        "qspivey: internal error: a worker process failed: "
        "ZeroDivisionError: division by zero\n"
    )
    assert multiprocessing.active_children() == []


def test_deep_expressions_give_a_result_or_exit_two(capsys):
    code, out, err = run_cli(capsys, "normal-order", "--expr", "+".join(["a"] * 2000))
    assert code == 0 and err == ""
    assert json.loads(out) == [{"coeff": ["2000"], "k": 0, "l": 1}]

    code, out, err = run_cli(capsys, "normal-order", "--expr", "*".join(["a"] * 1500))
    assert code == 0 and err == ""
    assert run_cli(capsys, "normal-order", "--expr", "a^1500") == (0, out, "")

    deep = "(" * 300 + "a" + ")" * 300
    code, out, err = run_cli(capsys, "normal-order", "--expr", deep)
    assert code == 2 and out == ""
    assert f"nested deeper than {opexpr.MAX_NESTING} levels" in err

    limit = opexpr.MAX_NESTING
    code, out, err = run_cli(
        capsys, "normal-order", "--expr", "(" * limit + "a" + ")" * limit
    )
    assert code == 0 and err == ""
    assert json.loads(out) == [{"coeff": ["1"], "k": 0, "l": 1}]

    # a uint is ASCII 0-9: superscript and Arabic-Indic digits exit 2
    for expr, position in [("a^\u00b2", 2), ("\u00b2", 0), ("a^\u0663", 2),
                           ("2*a^1\u00b2", 5)]:
        code, out, err = run_cli(capsys, "normal-order", "--expr", expr)
        assert (code, out) == (2, ""), expr
        assert f"(at position {position})" in err, expr


def _assert_usage_error(code, out, err, argv):
    """Exit 2 with empty stdout, and stderr's last line, and no line before
    it, starts with "qspivey: error:"."""
    lines = err.splitlines()
    assert (code, out) == (2, ""), argv
    assert lines and lines[-1].startswith("qspivey: error:"), (argv, err)
    assert not any(line.startswith("qspivey: error:") for line in lines[:-1]), err


def test_every_usage_error_takes_one_form(capsys):
    """argparse's own errors and the commands' errors alike: the top-level
    usage line, then one "qspivey: error:" line, exit 2, no stdout."""
    usage = cli._build_parser().format_usage()
    for argv in (
        ("triangle", "--kind", "bogus", "--n", "2"),
        ("triangle", "--kind", "stirling2"),
        ("verify", "--identity", "nope"),
        ("verify", "--identity", "spivey", "--n", "two"),
        ("sweep", "--jobs", "0"),
        ("numbers", "--kind", "bell", "--n", "٣"),
        ("triangle", "--kind", "stirling2", "--n", "9223372036854775807"),
        ("numbers", "--kind", "bell", "--n", "3", "--bogus"),
        ("triangle", "--kind", "stirling2", "--n", "2", "--m", "2"),
        ("verify", "--identity", "spivey", "--x", "1"),
        ("numbers", "--kind", "bell", "--n", "3", "--out", ""),
    ):
        code, out, err = run_cli(capsys, *argv)
        _assert_usage_error(code, out, err, argv)
        assert err.startswith(usage), argv


def test_each_shared_flag_is_one_action_in_every_subcommand():
    """--out, --jobs, --m, --r and the --n of the streamed commands are
    each declared once, so each subcommand that takes one holds the same
    argparse action: one reader, one default, one help text."""
    streamed = ["numbers", "poly", "triangle"]
    takes = {
        "--out": sorted(_COMMANDS),
        "--jobs": ["sweep", "verify"],
        "--m": ["normal-order", *streamed],
        "--r": ["normal-order", *streamed],
        "--n": streamed,
    }
    for flag, commands in takes.items():
        actions = {id(_flag(command, flag)) for command in commands}
        assert len(actions) == 1, flag
    assert _flag("sweep", "--out").type is cli._out_path


@pytest.mark.parametrize("command", ["triangle", "numbers", "poly"])
def test_a_row_n_past_islice_exits_two(capsys, command):
    """Rows 0..n take an islice stop of n + 1, so n >= sys.maxsize is a
    usage error, not an internal one."""
    kind = {"triangle": "stirling2", "numbers": "bell", "poly": "q-bell"}[command]
    for n in (sys.maxsize, sys.maxsize + 1, 2**64):
        argv = (command, "--kind", kind, "--n", str(n))
        code, out, err = run_cli(capsys, *argv)
        _assert_usage_error(code, out, err, argv)
        assert f"argument --n: must be below {sys.maxsize}" in err


@pytest.mark.parametrize(
    "values",
    [
        ["--n", f"0..{sys.maxsize + 1}"],
        ["--n", str(sys.maxsize), "--mshift", "0"],
    ],
    ids=["hi-past", "lo-at"],
)
def test_a_verify_range_end_at_or_past_maxsize_exits_two(capsys, values):
    """Each end of a verify range is read as a row n is: one at or past
    sys.maxsize, too large for range() or for the rows the task asks for,
    is a usage error, not an internal one."""
    argv = ("verify", "--identity", "spivey", *values)
    code, out, err = run_cli(capsys, *argv)
    _assert_usage_error(code, out, err, argv)
    assert f": must be below {sys.maxsize}" in err


def test_an_internal_error_with_no_message_names_its_type(capsys, monkeypatch):
    """A MemoryError() carries no text; stderr names its type, before any
    output and in mid-stream alike."""

    def out_of_memory(*args):
        raise MemoryError()

    def one_row_then_out_of_memory(m, r):
        yield [1]
        raise MemoryError()

    monkeypatch.setattr(identities, "run_case", out_of_memory)
    code, out, err = run_cli(capsys, "verify", "--identity", "spivey", "--n", "0")
    assert (code, out, err) == (1, "", "qspivey: internal error: MemoryError\n")

    monkeypatch.setattr(triangles, "r_whitney_classic_rows", one_row_then_out_of_memory)
    code, out, err = run_cli(capsys, "numbers", "--kind", "bell", "--n", "3")
    assert code == 1 and err == "qspivey: internal error: MemoryError\n"
    assert out == '{"kind":"bell","n_max":3,"values":["1"'


# --- the argv property test: argv drawn from the parser's own tables ------

_COMMANDS = next(
    action.choices
    for action in cli._build_parser()._actions
    if isinstance(action, argparse._SubParsersAction)
)


def _flag(command, flag):
    """The argparse action of one flag of one subcommand."""
    return next(a for a in _COMMANDS[command]._actions if flag in a.option_strings)


_LONG = "9" * (opexpr.MAX_DIGITS + 1)
# every integer reader refuses these but "0", which only --jobs refuses
_BAD_INTS = ["-1", "", "0", "٣", "²", _LONG]
_BAD_RANGES = [*_BAD_INTS, "5..2", "1..", "..3", "0..٢"]
_BAD_EXPRS = ["(a*ad", "a+", "a*b", "ad^", "m*a", "r*ad^2", ")a(", "q*a"]
# largest in-domain value of each verify axis; the others stay <= 6
_AXIS_MAX = {"cap": 10, "m": 3, "r": 3}


def _text(n):
    return st.integers(0, n).map(str)


def _lo_hi(name, least):
    top = _AXIS_MAX.get(name, 6)
    return st.integers(least, top).flatmap(
        lambda lo: st.integers(lo, min(lo + 3, top)).map(
            lambda hi: f"{lo}" if hi == lo else f"{lo}..{hi}"
        )
    )


def _optional(flag, values):
    """[] or [flag, value]."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _expr(symbols):
    """Expressions of the opexpr grammar over a, ad, N and the bound
    symbols, with exponents <= 4 that never nest."""
    atom = st.one_of(
        st.sampled_from(["a", "ad", "N", *symbols]), st.integers(0, 20).map(str)
    )
    inner = st.lists(atom, min_size=1, max_size=3).map(
        lambda xs: "(" + "+".join(xs) + ")"
    )
    power = st.tuples(st.one_of(atom, inner), st.integers(0, 4)).map(
        lambda p: f"{p[0]}^{p[1]}"
    )
    factor = st.one_of(atom, inner, power)
    term = st.lists(factor, min_size=1, max_size=3).map("*".join)
    signed = st.tuples(st.sampled_from("+-"), term).map("".join)
    return st.tuples(term, st.lists(signed, max_size=2)).map(
        lambda t: t[0] + "".join(t[1])
    )


@st.composite
def _in_domain(draw, command):
    """Flags drawn inside each flag's own domain, sizes kept small."""
    if command in ("triangle", "poly", "numbers"):
        kind = draw(st.sampled_from(_flag(command, "--kind").choices))
        argv = ["--kind", kind, "--n", draw(_text(6))]
        if cli._KINDS[kind][1]:
            argv += ["--m", str(draw(st.integers(1, 3)))]
            argv += draw(_optional("--r", _text(3)))
        if command == "triangle":
            formats = st.sampled_from(_flag(command, "--format").choices)
            argv += draw(_optional("--format", formats))
        return argv
    if command == "normal-order":
        argv = draw(_optional("--m", _text(3))) + draw(_optional("--r", _text(3)))
        return argv + ["--expr=" + draw(_expr([flag[2:] for flag in argv[::2]]))]
    if command == "verify":
        identity = draw(st.sampled_from(_flag(command, "--identity").choices))
        spec = identities.IDENTITIES[identity]
        argv, axes = ["--identity", identity], spec.axes
        if identity == "triangle-oracle":
            kinds = st.sampled_from(_flag(command, "--kind").choices)
            argv += draw(_optional("--kind", kinds))
            if argv[-1] != "qr-whitney":
                axes = axes[:1]
        if spec.variant:
            variants = st.sampled_from(_flag(command, "--variant").choices)
            argv += draw(_optional("--variant", variants))
        for name, _ in axes:
            argv += draw(_optional(f"--{name}", _lo_hi(name, spec.lower.get(name, 0))))
        return argv + draw(_optional("--jobs", st.sampled_from(["1", "2"])))
    return []  # sweep: a valid sweep is the acceptance suite, pinned elsewhere


@st.composite
def _near_miss(draw, command):
    """One flag of the command with a value outside its domain, or a flag
    the command does not have."""
    actions = [
        a
        for a in _COMMANDS[command]._actions
        if a.option_strings and a.dest not in ("help", "out")
    ]
    action = draw(st.sampled_from(actions))
    flag = action.option_strings[0]
    if action.choices is not None:
        values = ["bogus"]
    elif action.type is cli._range:
        values = _BAD_RANGES
    elif action.type is cli._last_row:
        values = [*_BAD_INTS, str(sys.maxsize)]
    elif action.type is not None:
        values = _BAD_INTS
    else:  # --expr
        values = _BAD_EXPRS
    return draw(st.sampled_from([[flag, v] for v in values] + [["--bogus", "1"]]))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [command, *draw(_in_domain(command))]
    if command == "sweep" or draw(st.booleans()):
        argv += draw(_near_miss(command))
    return argv


def _run(argv):
    """cli.main(argv)'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_out_holds_stdout(argv, target, code, out):
    """argv with --out to a new path, an existing regular file or
    /dev/null: the same exit code and nothing on stdout.  On exit 0 or 1 a
    file target then holds the bytes argv wrote to stdout; on exit 2 a new
    target is not created and an existing one is unchanged."""
    with tempfile.TemporaryDirectory() as tmp:
        path, before = os.devnull, None
        if target != os.devnull:
            path = os.path.join(tmp, "out")
            if target == "existing":
                before = b"kept\n"
                with open(path, "wb") as fh:
                    fh.write(before)
        assert _run([*argv, "--out", path])[:2] == (code, ""), argv
        if path != os.devnull:
            after = None
            with contextlib.suppress(FileNotFoundError), open(path, "rb") as fh:
                after = fh.read()
            assert after == (before if code == 2 else out.encode()), argv
            assert os.listdir(tmp) == ([] if after is None else ["out"]), argv


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_argv(), st.sampled_from([None, "new", "existing", os.devnull]))
@example(
    ["verify", "--identity", "result1", "--variant", "literal", "--n", "0..1"], "new"
)
@example(
    ["triangle", "--kind", "qr-whitney", "--n", "3", "--m", "2", "--format", "csv"],
    "existing",
)
@example(["normal-order", "--expr", "(m*N+r)^2", "--m", "2"], None)
def test_every_drawn_argv_gets_a_result_or_a_clean_exit_two(argv, target):
    code, out, err = _run(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        _assert_usage_error(code, out, err, argv)
    elif code == 1:
        assert "internal error" not in err, (argv, err)
        assert argv[0] == "verify", argv
        assert json.loads(out.splitlines()[-1])["failed"] >= 1, argv
    else:
        assert err == "", (argv, err)
        if argv[0] == "verify":
            *lines, summary = map(json.loads, out.splitlines())
            assert summary["failed"] == 0 and all(line["passed"] for line in lines)
        elif "csv" in argv:
            assert list(csv.reader(io.StringIO(out)))[1][0] == argv[2]
        else:
            json.loads(out)
    if target is not None:
        _assert_out_holds_stdout(argv, target, code, out)
