"""End-to-end CLI behavior: payload shapes, exit codes, determinism.

Most tests drive qspivey.cli.main in process and capture stdout; a couple
spawn real subprocesses where that is the thing under test.
"""

import csv
import hashlib
import io
import json
import subprocess
import sys

import pytest

from qspivey import QPoly, acceptance, cli, opexpr, triangles
from qspivey.report import VerificationReport


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
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == "", argv


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
    ("triangle --kind r-whitney --n 30 --m 2 --r 1 --format csv", 0,
     "216ac8449f3518f7f97c115321949c3520e1cd6d5baa7b4bd9df08798ed359fe", 6754),
    ("poly --kind qr-dowling --n 16 --m 2 --r 1", 0,
     "3d81d951b876bb2ff4a78e62e4368587d55d5ee18593faeb19aca784f0fdb690", 9239),
    ("numbers --kind q-bell --n 16", 0,
     "b963a327f939189aafd439f1c3a5b576ec4e477039233c8d984f587a48c59ca6", 5319),
    ("normal-order --expr (2*N+1)^10-ad^3*a^2+7", 0,
     "3353116852b155285d5ea0ac17e64b58f39d9197c9180743bf94f707394d9bf3", 2124),
    ("normal-order --expr a^60*ad^60", 0,
     "a4b87e82f25abc0d2062dd030b90ad24f89081a9369fc0474f971a80d0c1f854", 6451420),
    ("verify --identity triangle-oracle --kind qr-whitney --n 0..32 --m 3 --r 2", 0,
     "71e7819ca53cbcc3a75a7fae59fdfddb81df305c5fe588fa55625faf2da86b72", 2682347),
    ("verify --identity triangle-oracle --kind qr-whitney --n 0..32 --m 3 --r 2"
     " --jobs 2", 0,
     "71e7819ca53cbcc3a75a7fae59fdfddb81df305c5fe588fa55625faf2da86b72", 2682347),
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


def test_jobs_never_asks_for_more_workers_than_cpus(capsys, monkeypatch):
    """--jobs N starts at most min(N, CPUs, tasks) workers, never N.

    A stand-in pool runs the mapped tasks in this process and records what
    it was asked for, so no process is started here.
    """
    asked = []

    class InlinePool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            items = list(items)
            asked.append((self.max_workers, len(items)))
            return [fn(item) for item in items]

    monkeypatch.setattr(acceptance, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(acceptance.os, "cpu_count", lambda: 4)
    code, out, _ = run_cli(capsys, "sweep", "--jobs", "1000000")
    assert code == 0
    [(workers, items)] = asked
    assert workers == 4 and items > 10, "the sweep shards by task"
    _, _, want_sha, want_bytes = PINNED_STDOUT[0]
    assert (hashlib.sha256(out.encode()).hexdigest(), len(out)) == (
        want_sha,
        want_bytes,
    )

    asked.clear()
    code, _, _ = run_cli(
        capsys, "verify", "--identity", "spivey", "--n", "0..2", "--jobs", "1000000"
    )
    assert code == 0 and asked == [(4, 15)]


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
