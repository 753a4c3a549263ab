"""Cold-CLI benchmark for qspivey.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all          # every workload, one table
    python3 bench/run.py --self-test             # the harness's own checks
    python3 bench/run.py --record-goldens        # rewrite bench/golden.json

Untraced runs (--trace 0) run each command of a workload pass as a fresh
``python -m qspivey`` process, one at a time, for S seconds, and report
the end-to-end metrics.  CPU time and peak RSS come from ``os.wait4`` on
each command, so they include pool workers the command reaped.  Traced
runs (--trace 1) run every command twice in fresh processes through
bench/tracer.py, once plain and once with span wrappers, and report the
per-layer metrics computed from the spans (bench/layers.py) plus the
seeded kernel probes (bench/probes.py).

Every command's stdout must match the sha256 and byte count recorded in
bench/golden.json at the seed commit; any difference, nonzero exit or
timeout counts as a failed invocation.  The seed picks the (m, r) pair
of the first pass, from which the passes cycle through all nine, and the
probe operands.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden.json"
TRACER = BENCH / "tracer.py"

# The nine (m, r) pairs, one per pass, in a cycle where every three
# consecutive passes hold r = 0, 1 and 2 once: r = 0 passes are ~15% lighter
# on operator-engine, so this keeps a run's median from depending on where
# the seed starts the cycle.
PAIRS = [(1, 0), (2, 1), (3, 2), (2, 0), (3, 1), (1, 2), (3, 0), (1, 1), (2, 2)]
SETUP_REPS = 9
MIN_PASSES = 3
INVOKE_TIMEOUT_S = 100.0


def _big_triangle(m: int, r: int) -> list[list[str]]:
    return [
        ["triangle", "--kind", "q-stirling2", "--n", "50"],
        ["triangle", "--kind", "qr-whitney", "--n", "40", "--m", str(m), "--r", str(r)],
    ]


def _operator_engine(m: int, r: int) -> list[list[str]]:
    return [
        ["verify", "--identity", "triangle-oracle", "--kind", "qr-whitney",
         "--n", "0..32", "--m", str(m), "--r", str(r)],
        ["normal-order", "--expr", "a^20*ad^20"],
        ["verify", "--identity", "lem2", "--k", "0..12", "--cap", "120"],
    ]


# workload -> commands of one pass, given the pass's (m, r) pair
WORKLOADS = {
    "sweep": lambda m, r: [["sweep", "--jobs", "1"]],
    "sweep-jobs2": lambda m, r: [["sweep", "--jobs", "2"]],
    "big-triangle": _big_triangle,
    "operator-engine": _operator_engine,
}


def pair_order(seed: int) -> list[tuple[int, int]]:
    k = random.Random(seed).randrange(len(PAIRS))
    return PAIRS[k:] + PAIRS[:k]


def pass_commands(workload: str, order, index: int) -> list[list[str]]:
    return WORKLOADS[workload](*order[index % len(order)])


def jobs_of(argv: list[str]) -> int:
    return int(argv[argv.index("--jobs") + 1]) if "--jobs" in argv else 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------- processes


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    rss_kb: int
    code: int
    out: bytes
    err: bytes
    timed_out: bool


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def invoke(argv: list[str]) -> Outcome:
    """Run argv to completion; rusage comes from os.wait4, so it covers the
    process and every descendant it reaped."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=ROOT, env=child_env(), start_new_session=True,
    )
    chunks: dict[object, list[bytes]] = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            remaining = t0 + INVOKE_TIMEOUT_S - time.perf_counter()
            if remaining <= 0:
                timed_out = True
                os.killpg(proc.pid, 9)
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 20)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, ru = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Outcome(
        wall_s=wall,
        cpu_s=ru.ru_utime + ru.ru_stime,
        rss_kb=ru.ru_maxrss,
        code=proc.returncode,
        out=b"".join(chunks[proc.stdout]),
        err=b"".join(chunks[proc.stderr]),
        timed_out=timed_out,
    )


def qspivey(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "qspivey", *argv]


# ------------------------------------------------------------------ goldens


def golden_key(argv: list[str]) -> str:
    return " ".join(argv)


def load_goldens() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)["outputs"]


def check_output(goldens: dict, argv: list[str], code: int, sha256: str, nbytes: int) -> str | None:
    """None when the command's exit and stdout match the golden, else why not."""
    want = goldens.get(golden_key(argv))
    if want is None:
        return "no golden recorded"
    if code != 0:
        return f"exit {code}"
    if sha256 != want["sha256"] or nbytes != want["bytes"]:
        return f"stdout differs from golden ({nbytes} bytes, sha256 {sha256[:12]})"
    return None


def check_bytes(goldens: dict, argv: list[str], o: Outcome) -> str | None:
    if o.timed_out:
        return "timeout"
    return check_output(goldens, argv, o.code, hashlib.sha256(o.out).hexdigest(), len(o.out))


def checker_rejects_altered(goldens: dict, argv: list[str], out: bytes) -> bool:
    """The golden check must count a one-byte change as a failure."""
    if not out:
        return False
    i = len(out) // 2
    altered = out[:i] + bytes([out[i] ^ 0x01]) + out[i + 1:]
    sha = hashlib.sha256(altered).hexdigest()
    return check_output(goldens, argv, 0, sha, len(altered)) is not None


def all_commands() -> list[list[str]]:
    seen: dict[str, list[str]] = {}
    for name in WORKLOADS:
        for m, r in PAIRS:
            for argv in WORKLOADS[name](m, r):
                seen.setdefault(golden_key(argv), argv)
    return list(seen.values())


def record_goldens() -> int:
    outputs = {}
    for argv in all_commands():
        o = invoke(qspivey(argv))
        if o.code != 0 or o.timed_out:
            sys.stderr.write(f"{golden_key(argv)}: exit {o.code}\n{o.err.decode()}")
            return 1
        outputs[golden_key(argv)] = {
            "sha256": hashlib.sha256(o.out).hexdigest(), "bytes": len(o.out)
        }
        print(f"{golden_key(argv)}: {len(o.out)} bytes", file=sys.stderr)
    doc = {"machine": machine_info(), "outputs": outputs}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


# ------------------------------------------------------------------ machine


def machine_info() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# -------------------------------------------------------------------- runs


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and that
    percentile; with 10 samples or fewer no percentile qualifies, and the
    maximum (p100) is reported instead."""
    xs = sorted(values)
    n = len(xs)
    if n > 10:
        return xs[n - 11], 100.0 * (n - 10) / n
    return xs[-1], 100.0


class Run:
    """Invocation bookkeeping shared by the traced and untraced runs."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.order = pair_order(seed)
        self.goldens = load_goldens()
        self.attempted = 0
        self.failures: list[str] = []
        self.checker_tested = False

    def check(self, argv: list[str], problem: str | None, out: bytes | None = None) -> None:
        """Count one invocation; the first good output also tests the checker."""
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{golden_key(argv)}: {problem}")
        elif out is not None and not self.checker_tested:
            self.checker_tested = True
            if not checker_rejects_altered(self.goldens, argv, out):
                raise SystemExit("bench: golden checker accepted altered output")


def check_import() -> None:
    """Confirm children import qspivey from this checkout's src/; the first
    import also writes the bytecode caches."""
    probe = invoke([sys.executable, "-c", "import qspivey.cli, sys; sys.stdout.write(qspivey.cli.__file__)"])
    where = Path(probe.out.decode() or "/nonexistent").resolve()
    if probe.code != 0 or SRC.resolve() not in where.parents:
        raise SystemExit(f"bench: qspivey does not import from {SRC}: {probe.err.decode()[-500:]}")


def setup_sample() -> float:
    """Wall time of a cold interpreter that imports qspivey.cli and exits."""
    return invoke([sys.executable, "-c", "import qspivey.cli"]).wall_s


def run_untraced(workload: str, seed: int, seconds: float) -> tuple[Run, dict, dict]:
    run = Run(workload, seed)
    check_import()
    setups, walls, cpus, rss = [], [], [], []
    passes = []
    t0 = time.perf_counter()
    i = 0
    while i < MIN_PASSES or time.perf_counter() - t0 < seconds:
        # set-up samples interleave with the passes, so both see the same
        # share of the machine's slow and fast periods
        setups.append(setup_sample())
        p_wall = p_cpu = 0.0
        p_rss = 0
        for argv in pass_commands(workload, run.order, i):
            o = invoke(qspivey(argv))
            run.check(argv, check_bytes(run.goldens, argv, o), o.out)
            p_wall += o.wall_s
            p_cpu += o.cpu_s
            p_rss = max(p_rss, o.rss_kb)
        walls.append(p_wall)
        cpus.append(p_cpu)
        rss.append(p_rss / 1024)
        passes.append({"pair": run.order[i % len(run.order)], "wall_s": p_wall,
                       "cpu_s": p_cpu, "peak_rss_mb": p_rss / 1024})
        i += 1
    while len(setups) < SETUP_REPS:
        setups.append(setup_sample())
    tail_v, tail_p = tail(walls)
    metrics = {
        "wall_s": statistics.median(walls),
        "wall_s.tail": tail_v,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setups),
    }
    details = {"passes": passes, "setup_samples_s": setups,
               "wall_s.tail": {"percentile": tail_p, "samples": len(walls)}}
    return run, metrics, details


def run_traced(workload: str, seed: int, seconds: float) -> tuple[Run, dict, dict]:
    import layers
    import probes

    run = Run(workload, seed)
    check_import()
    sys.path.insert(0, str(SRC))
    from qspivey.polys import QPoly

    probe_metrics, probe_ok = probes.run_probes(QPoly, seed)
    run.check(["probes"], None if probe_ok else "probe product differs from convolution")
    per_pass = []
    t0 = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - t0 < seconds:
        tally = layers.new_tally()
        for j, argv in enumerate(pass_commands(workload, run.order, i)):
            span_dir = OUT / "spans" / workload / f"cmd{j}"
            shutil.rmtree(span_dir, ignore_errors=True)
            span_dir.mkdir(parents=True)
            mains = []
            for flags in ([], ["--trace"]):
                o = invoke([sys.executable, str(TRACER), "--out", str(span_dir),
                            "--pass-id", str(i), *flags, "--", *argv])
                problem, summary = _tracer_summary(run, argv, o)
                run.check(argv, problem)
                mains.append(summary["main_s"] if summary else 0.0)
            t = layers.tally_dir(str(span_dir), jobs_of(argv))
            t["stdout_bytes"] = summary["bytes"] if summary else 0
            t["overhead_s"] = mains[1] - mains[0]
            layers.merge(tally, t)
        per_pass.append(layers.layer_metrics(tally))
        i += 1
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics.update(probe_metrics)
    return run, metrics, {"passes": per_pass}


def _tracer_summary(run: Run, argv: list[str], o: Outcome):
    if o.timed_out:
        return "timeout", None
    try:
        summary = json.loads(o.out.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        return f"tracer exit {o.code}: {o.err.decode()[-300:]}", None
    return check_output(run.goldens, argv, summary["exit"], summary["sha256"], summary["bytes"]), summary


# ---------------------------------------------------------------- reporting


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def report(run: Run, metrics: dict, details: dict, trace: bool, spec: dict) -> dict:
    declared = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"bench: metrics not produced: {missing}")
    failed = len(run.failures)
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    machine = machine_info()
    print(f"workload {run.workload}  seed {run.seed}  trace {int(trace)}  machine {json.dumps(machine)}")
    for m in declared:
        note = ""
        if m["name"] == "wall_s.tail":
            t = details["wall_s.tail"]
            note = f"  (p{t['percentile']:.0f} of {t['samples']} passes)"
        print(f"  {m['name']:34s} {metrics[m['name']]:14.6g} {m['unit']}{note}")
    if not trace:
        print(f"  {'fail_share':34s} {failed / run.attempted:14.6g} ratio  ({failed}/{run.attempted} invocations)")
    for f in run.failures:
        print(f"  FAILED {f}")
    OUT.mkdir(exist_ok=True)
    record = {"workload": run.workload, "seed": run.seed, "trace": trace,
              "machine": machine, "result": result, "failures": run.failures, **details}
    (OUT / f"{run.workload}-seed{run.seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description="Cold-CLI benchmark for qspivey.")
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-goldens", action="store_true")
    args = ap.parse_args()

    if not (SRC / "qspivey" / "cli.py").is_file():
        sys.stderr.write(f"bench: no qspivey sources under {SRC}\n")
        return 2
    if args.record_goldens:
        return record_goldens()
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload is None:
        ap.error("--workload is required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        for m, r in PAIRS:
            for argv in WORKLOADS[name](m, r):
                if jobs_of(argv) > nproc():
                    sys.stderr.write(f"bench: {golden_key(argv)} asks for more jobs than nproc={nproc()}\n")
                    return 2
    spec = load_spec()
    results = {}
    for name in names:
        runner = run_traced if args.trace else run_untraced
        run, metrics, details = runner(name, args.seed, args.seconds)
        results[name] = report(run, metrics, details, bool(args.trace), spec)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
