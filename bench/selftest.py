"""Checks of the benchmark harness itself: python3 bench/run.py --self-test"""

from __future__ import annotations

import json
import sys
from array import array

import layers
import probes
import run

# Runs sweep --jobs 2 in process and reports the CPU of this process and of
# the pool workers it reaped, as the kernel accounts them.
_POOL_CHILD = """
import contextlib, io, json, resource, sys
from qspivey import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["sweep", "--jobs", "2"])
own = resource.getrusage(resource.RUSAGE_SELF)
kids = resource.getrusage(resource.RUSAGE_CHILDREN)
sys.stdout.write(json.dumps({"code": code,
    "own": own.ru_utime + own.ru_stime, "children": kids.ru_utime + kids.ru_stime}))
"""


def check_goldens() -> None:
    goldens = run.load_goldens()
    keys = {run.golden_key(argv) for argv in run.all_commands()}
    assert keys == set(goldens), "golden.json must cover every command of every workload"
    assert goldens["sweep --jobs 1"] == goldens["sweep --jobs 2"], "--jobs must not change bytes"
    argv = ["normal-order", "--expr", "a^20*ad^20"]
    o = run.invoke(run.qspivey(argv))
    assert run.check_bytes(goldens, argv, o) is None, "seed output must match its golden"
    assert run.checker_rejects_altered(goldens, argv, o.out), "one altered byte must fail"
    assert run.check_output(goldens, argv, 1, "0" * 64, len(o.out)) is not None


def check_wait4_includes_pool_workers() -> None:
    o = run.invoke([sys.executable, "-c", _POOL_CHILD])
    seen = json.loads(o.out)
    assert seen["code"] == 0, o.err.decode()
    inside = seen["own"] + seen["children"]
    assert seen["children"] > 0.25 * inside, f"pool workers did no work: {seen}"
    assert abs(o.cpu_s - inside) <= 0.05 + 0.05 * inside, (
        f"wait4 cpu {o.cpu_s:.3f} s != own {seen['own']:.3f} + children {seen['children']:.3f}")
    print(f"  wait4 cpu {o.cpu_s:.3f} s = own {seen['own']:.3f} + reaped workers {seen['children']:.3f}")


def check_probes() -> None:
    sys.path.insert(0, str(run.SRC))
    from qspivey.polys import QPoly

    for d in probes.DEGREES:
        a, b = probes.operands(7, d)
        assert (a, b) == probes.operands(7, d), "operands must follow the seed"
        for cs in (a, b):
            assert cs[0] == 0 and cs[-1] == 0 and cs[d] != 0
            assert min(cs) < 0 and max(abs(c) for c in cs).bit_length() > 64
        assert probes.product_ok(lambda x, y: x * y, QPoly, a, b)

        def off_by_one(x, y):
            cs = list((x * y).coeffs)
            cs[len(cs) // 2] += 1
            return QPoly(cs)

        assert not probes.product_ok(off_by_one, QPoly, a, b), "a wrong kernel must fail"


def check_self_times() -> None:
    # root [0, 100) with children [10, 30) and [40, 90); [50, 60) nests in the second
    rec = {
        "names": ["root", "child", "leaf"],
        "name": array("H", [0, 1, 1, 2]),
        "start": array("q", [0, 10, 40, 50]),
        "end": array("q", [100, 30, 90, 60]),
        "parent": array("i", [-1, 0, 0, 2]),
    }
    got = layers.span_self_times(rec)
    assert got == {"root": [1, 30, 100], "child": [2, 60, 70], "leaf": [1, 10, 10]}, got


def check_tail_rule() -> None:
    assert run.tail([float(i) for i in range(1, 31)]) == (20.0, 100.0 * 20 / 30)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def check_metric_tables() -> None:
    spec = run.load_spec()
    with open(run.BENCH / "metrics.json") as fh:
        groups = json.load(fh)["groups"]
    documented = [m for g in groups for m in g["metrics"]]
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert sorted(documented) == sorted(declared), set(documented) ^ set(declared)
    names = {w["name"] for w in spec["workloads"]}
    assert names == set(run.WORKLOADS)
    for g in groups:
        assert set(g["on"]) | set(g["unchanged_on"]) <= names


CHECKS = (check_tail_rule, check_self_times, check_metric_tables, check_probes,
          check_goldens, check_wait4_includes_pool_workers)


def main() -> int:
    failed = 0
    for check in CHECKS:
        try:
            check()
        except AssertionError as e:
            failed += 1
            print(f"FAIL {check.__name__}: {e}")
        else:
            print(f"ok   {check.__name__}")
    return 1 if failed else 0
