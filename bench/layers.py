"""Per-layer metrics from the span files that tracer.py writes.

A span's self time is its duration minus the time covered by its child
spans in the same process.  Child spans run one at a time within a
process, so the covered time is the sum of their durations.
"""

from __future__ import annotations

import glob
import os
import pickle

CRITERIA = range(1, 11)

MUL = ("polys.QPoly.__mul__", "polys.QPoly.__rmul__")
ADD = ("polys.QPoly.__add__", "polys.QPoly.__radd__")
BUILDERS = ("triangles.stirling2", "triangles.q_stirling2",
            "triangles.qr_whitney", "triangles.r_whitney_classic")
NF_MUL = ("boson.NormalForm.__mul__", "boson.NormalForm.__rmul__")


def new_tally() -> dict:
    return {
        "spans": {},  # name -> [calls, self_ns, dur_ns]
        "counters": {"mul_coeff_products": 0, "max_degree": 0,
                     "max_coeff_bits": 0, "max_terms": 0},
        "caches": {},  # name -> [hits, misses, entries]
        "suite_capacity_ns": 0,  # jobs x run_suite wall, summed
        "stdout_bytes": 0,
        "overhead_s": 0.0,
    }


def merge(into: dict, other: dict) -> dict:
    for name, (c, s, d) in other["spans"].items():
        row = into["spans"].setdefault(name, [0, 0, 0])
        row[0] += c
        row[1] += s
        row[2] += d
    for key, v in other["counters"].items():
        if key.startswith("max_"):
            into["counters"][key] = max(into["counters"][key], v)
        else:
            into["counters"][key] += v
    for name, vals in other["caches"].items():
        row = into["caches"].setdefault(name, [0, 0, 0])
        for i, v in enumerate(vals):
            row[i] += v
    for key in ("suite_capacity_ns", "stdout_bytes", "overhead_s"):
        into[key] += other[key]
    return into


def span_self_times(rec: dict) -> dict:
    """name -> [calls, self_ns, dur_ns] for one process's span table."""
    start, end, parent, name = rec["start"], rec["end"], rec["parent"], rec["name"]
    dur = [e - s for s, e in zip(start, end)]
    covered = [0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += dur[i]
    names = rec["names"]
    out: dict[str, list[int]] = {}
    for i, nid in enumerate(name):
        row = out.get(names[nid])
        if row is None:
            row = out[names[nid]] = [0, 0, 0]
        row[0] += 1
        row[1] += dur[i] - covered[i]
        row[2] += dur[i]
    return out


def tally_dir(path: str, jobs: int) -> dict:
    """Tally every span file one traced command left in ``path``."""
    tally = new_tally()
    for fname in sorted(glob.glob(os.path.join(path, "spans-*.pkl"))):
        with open(fname, "rb") as fh:
            rec = pickle.load(fh)  # written by tracer.py in this run
        one = new_tally()
        one["spans"] = span_self_times(rec)
        one["counters"] = dict(rec["counters"])
        one["caches"] = {k: list(v) for k, v in rec["caches"].items()}
        suite = one["spans"].get("acceptance.run_suite")
        if suite:
            one["suite_capacity_ns"] = jobs * suite[2]
        merge(tally, one)
    return tally


def _calls(spans, *names) -> int:
    return sum(spans[n][0] for n in names if n in spans)


def _self_s(spans, *names) -> float:
    return sum(spans[n][1] for n in names if n in spans) / 1e9


def _total_s(spans, *names) -> float:
    """Inclusive time; valid for names whose spans never nest in each other."""
    return sum(spans[n][2] for n in names if n in spans) / 1e9


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(t: dict) -> dict[str, float]:
    """Every per-layer metric except the kernel probes, from one pass's tally."""
    s, c, caches = t["spans"], t["counters"], t["caches"]
    verify = [n for n in s if n.startswith("identities.verify_")]
    mul_calls = _calls(s, *MUL)
    q_int = caches.get("qcalc.q_int", [0, 0, 0])
    tri = [caches.get(n, [0, 0, 0]) for n in BUILDERS]
    tri_hits = sum(r[0] for r in tri)
    busy = {k: s.get(f"acceptance.criterion_{k}", [0, 0, 0])[2] for k in CRITERIA}
    total_busy = sum(busy.values())
    out = {
        "polys.mul.calls": mul_calls,
        "polys.mul.self_s": _self_s(s, *MUL),
        "polys.mul.coeff_products": c["mul_coeff_products"],
        "polys.mul.products_per_call": _ratio(c["mul_coeff_products"], mul_calls),
        "polys.add.calls": _calls(s, *ADD),
        "polys.add.self_s": _self_s(s, *ADD),
        "polys.eval_x.self_s": _self_s(s, "polys.XQPoly.eval_x"),
        "polys.max_degree": c["max_degree"],
        "polys.max_coeff_bits": c["max_coeff_bits"],
        "qcalc.q_int.hit_ratio": _ratio(q_int[0], q_int[0] + q_int[1]),
        "qcalc.q_falling.calls": _calls(s, "qcalc.q_falling"),
        "qcalc.q_falling.self_s": _self_s(s, "qcalc.q_falling"),
        "triangles.build.calls": _calls(s, *BUILDERS),
        "triangles.build.self_s": _self_s(s, *BUILDERS),
        "triangles.cache.hit_ratio": _ratio(tri_hits, tri_hits + sum(r[1] for r in tri)),
        "triangles.cache.entries": sum(r[2] for r in tri),
        "boson.nf_mul.calls": _calls(s, *NF_MUL),
        "boson.nf_mul.self_s": _self_s(s, *NF_MUL),
        "boson.nf_mul.total_s": _total_s(s, *NF_MUL),
        "boson.nf_mul.share": _ratio(_total_s(s, *NF_MUL), _total_s(s, "cli.main")),
        "boson.nf_pow.self_s": _self_s(s, "boson.NormalForm.__pow__"),
        "boson.apply.self_s": _self_s(s, "boson.NormalForm.apply"),
        "boson.max_terms": c["max_terms"],
        "opexpr.parse.self_s": _self_s(s, "opexpr.parse"),
        "opexpr.to_normal_form.self_s": _self_s(s, "opexpr.to_normal_form"),
        "identities.verify.calls": _calls(s, *verify),
        "identities.verify.self_s": _self_s(s, *verify),
        "identities.result2.self_s": _self_s(s, "identities.verify_result2"),
    }
    for k in CRITERIA:
        out[f"acceptance.criterion_{k}.self_s"] = _self_s(s, f"acceptance.criterion_{k}")
    out["acceptance.max_criterion_share"] = _ratio(max(busy.values()), total_busy)
    out["acceptance.parallel_efficiency"] = _ratio(total_busy, t["suite_capacity_ns"])
    out.update({
        "report.to_json.calls": _calls(s, "report.VerificationReport.to_json"),
        "report.to_json.self_s": _self_s(s, "report.VerificationReport.to_json"),
        "report.from_json.self_s": _self_s(s, "report.VerificationReport.from_json"),
        "cli.main.self_s": _self_s(s, "cli.main"),
        "cli.stdout_bytes": t["stdout_bytes"],
        "trace.overhead_s": t["overhead_s"],
    })
    return out
