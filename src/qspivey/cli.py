"""Command-line interface.

Subcommands: triangle, poly, numbers, normal-order, verify, sweep.
Output is deterministic byte for byte: JSON is emitted with sorted keys
and fixed separators, integers travel as decimal strings, and parallel
runs (--jobs) merge results in the same order as sequential ones.

Exit codes: 0 when everything requested passed, 1 on a failing report or
an internal error, 2 on invalid flags or expressions (with no output
written in that case).
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from functools import partial
from itertools import product

from . import acceptance, identities, opexpr, triangles
from .report import dumps


class UsageError(Exception):
    pass


# every axis flag of verify, in order of first appearance in the table
_AXIS_FLAGS = tuple(
    dict.fromkeys(
        name for spec in identities.IDENTITIES.values() for name, _ in spec.axes
    )
)


def _parse_int(text: str, flag: str) -> int:
    """A decimal integer: ASCII digits after an optional '-'.

    int() alone would also read non-ASCII digits such as '٣', which the
    --expr grammar rejects.
    """
    digits = text[1:] if text.startswith("-") else text
    if not digits or not opexpr._DIGITS.issuperset(digits):
        raise UsageError(f"{flag}: expected an integer, got {text!r}")
    return int(text)


def _int_flag(args: argparse.Namespace, name: str) -> int | None:
    text = getattr(args, name)
    return None if text is None else _parse_int(text, f"--{name}")


def _parse_range(text: str, flag: str) -> tuple[int, int]:
    """Inclusive integer range: 'lo..hi' or a single value."""
    lo_s, dots, hi_s = text.partition("..")
    try:
        lo = _parse_int(lo_s, flag)
        hi = _parse_int(hi_s, flag) if dots else lo
    except UsageError:
        raise UsageError(f"{flag}: expected an integer or lo..hi, got {text!r}")
    if lo < 0 or hi < 0:
        raise UsageError(f"{flag}: values must be nonnegative")
    if lo > hi:
        raise UsageError(f"{flag}: empty range {text!r}")
    return lo, hi


def _emit(lines: list[str], failed: int) -> tuple[str, int]:
    """Report lines plus the summary line; exit code 1 if a report failed."""
    total = len(lines)
    summary = dumps({"total": total, "passed": total - failed, "failed": failed})
    return "\n".join([*lines, summary]) + "\n", 0 if failed == 0 else 1


def _m_r(cmd: str, args: argparse.Namespace, weighted: bool | None):
    """The validated (m, r) of a command.

    weighted=True: --m >= 1 is required and --r defaults to 0; False: the
    kind takes neither flag; None: both are optional symbol bindings.  A
    value that is given must be nonnegative.
    """
    m, r = _int_flag(args, "m"), _int_flag(args, "r")
    if weighted is False and (m is not None or r is not None):
        raise UsageError(f"{cmd}: --m/--r do not apply to kind {args.kind}")
    if weighted:
        if m is None or m < 1:
            raise UsageError(f"{cmd}: --m is required and must be >= 1 for {args.kind}")
        r = 0 if r is None else r
    for flag, value in (("m", m), ("r", r)):
        if value is not None and value < 0:
            raise UsageError(f"{cmd}: --{flag} must be nonnegative")
    return m, r


def _n_max(cmd: str, args: argparse.Namespace) -> int:
    n = _int_flag(args, "n")
    if n is None or n < 0:
        raise UsageError(f"{cmd}: --n is required and must be nonnegative")
    return n


def _jobs(cmd: str, args: argparse.Namespace) -> int:
    jobs = _parse_int(args.jobs, "--jobs")
    if jobs < 1:
        raise UsageError(f"{cmd}: --jobs must be >= 1")
    return jobs


def cmd_triangle(args: argparse.Namespace) -> tuple[str, int]:
    kind = args.kind
    n = _n_max("triangle", args)
    m, r = _m_r("triangle", args, kind in ("r-whitney", "qr-whitney"))
    if kind == "stirling2":
        cells = [[str(v) for v in row] for row in triangles.stirling2(n)]
    elif kind == "q-stirling2":
        cells = [[c.to_json() for c in row] for row in triangles.q_stirling2(n)]
    elif kind == "r-whitney":
        cells = [[str(v) for v in row] for row in triangles.r_whitney(n, m, r)]
    else:
        cells = [[c.to_json() for c in row] for row in triangles.qr_whitney(n, m, r)]
    if args.format == "json":
        text = dumps({"kind": kind, "m": m, "r": r, "n_max": n, "rows": cells}) + "\n"
        return text, 0
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["kind", "m", "r", "n_max"])
    writer.writerow([kind, "" if m is None else m, "" if r is None else r, n])
    for row in cells:
        writer.writerow([c if isinstance(c, str) else dumps(c) for c in row])
    return buf.getvalue(), 0


def cmd_poly(args: argparse.Namespace) -> tuple[str, int]:
    n = _n_max("poly", args)
    m, r = _m_r("poly", args, args.kind == "qr-dowling")
    if args.kind == "q-bell":
        coeffs = triangles.q_bell_poly(n).to_json()
        payload = {"kind": "q-bell", "n": n, "coeffs": coeffs}
    else:
        coeffs = triangles.qr_dowling_poly(n, m, r).to_json()
        payload = {"kind": "qr-dowling", "n": n, "m": m, "r": r, "coeffs": coeffs}
    return dumps(payload) + "\n", 0


def cmd_numbers(args: argparse.Namespace) -> tuple[str, int]:
    n = _n_max("numbers", args)
    m, r = _m_r("numbers", args, args.kind == "r-dowling")
    payload = {"kind": args.kind, "n_max": n}
    if args.kind == "bell":
        payload["values"] = [str(v) for v in triangles.bell(n)]
    elif args.kind == "q-bell":
        payload["values"] = [
            triangles.q_bell_poly(i).eval_x(1).to_json() for i in range(n + 1)
        ]
    else:
        values = [str(v) for v in triangles.r_dowling(n, m, r)]
        payload.update(m=m, r=r, values=values)
    return dumps(payload) + "\n", 0


def cmd_normal_order(args: argparse.Namespace) -> tuple[str, int]:
    m, r = _m_r("normal-order", args, None)
    nf = opexpr.normal_order(args.expr, m=m, r=r)
    return dumps(nf.to_json()) + "\n", 0


def cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    identity = args.identity
    spec = identities.IDENTITIES[identity]
    if args.variant is not None and not spec.variant:
        raise UsageError(f"verify: --variant does not apply to {identity}")
    axes, fixed = spec.axes, {}
    if identity == "triangle-oracle":
        fixed["kind"] = args.kind or "q-stirling"
        if fixed["kind"] == "q-stirling":
            axes = axes[:1]  # the q-Stirling rows take no weight or shift
    elif args.kind is not None:
        raise UsageError("verify: --kind only applies to triangle-oracle")
    jobs = _jobs("verify", args)
    names = [name for name, _ in axes]
    for name in _AXIS_FLAGS:
        if getattr(args, name) is not None and name not in names:
            raise UsageError(f"verify: --{name} does not apply to {identity}")
    bounds = {}
    for name, default in axes:
        given = getattr(args, name)
        bounds[name] = default if given is None else _parse_range(given, f"--{name}")
        least = spec.lower.get(name, 0)
        if bounds[name][0] < least:
            raise UsageError(f"verify: {identity} needs {name} >= {least}")
    if identity == "lem2" and bounds["cap"][0] < bounds["k"][1]:
        raise UsageError("verify: lem2 needs cap >= k")

    spans = [range(lo, hi + 1) for lo, hi in bounds.values()]
    cases = [{**dict(zip(names, combo)), **fixed} for combo in product(*spans)]
    tasks = [partial(identities.run_case, identity, args.variant, p) for p in cases]
    reports = acceptance.run_tasks(tasks, jobs)
    failed = sum(1 for rep in reports if not rep.passed)
    return _emit([rep.to_json_line() for rep in reports], failed)


def cmd_sweep(args: argparse.Namespace) -> tuple[str, int]:
    return _emit(*acceptance.run_suite(jobs=_jobs("sweep", args)))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qspivey",
        description="Exact q-analogue triangles, polynomials and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("triangle", help="emit a triangle as JSON or CSV")
    p.add_argument(
        "--kind",
        required=True,
        choices=["stirling2", "q-stirling2", "r-whitney", "qr-whitney"],
    )
    p.add_argument("--n", help="largest row index")
    p.add_argument("--m")
    p.add_argument("--r")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_triangle)

    p = sub.add_parser("poly", help="emit a q-Bell or (q,r)-Dowling polynomial")
    p.add_argument("--kind", required=True, choices=["q-bell", "qr-dowling"])
    p.add_argument("--n")
    p.add_argument("--m")
    p.add_argument("--r")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("numbers", help="emit Bell, q-Bell or r-Dowling numbers")
    p.add_argument("--kind", required=True, choices=["bell", "q-bell", "r-dowling"])
    p.add_argument("--n", help="largest index")
    p.add_argument("--m")
    p.add_argument("--r")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_numbers)

    p = sub.add_parser("normal-order", help="normally order an operator expression")
    p.add_argument("--expr", required=True)
    p.add_argument("--m")
    p.add_argument("--r")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_normal_order)

    p = sub.add_parser("verify", help="verify one identity over parameter ranges")
    p.add_argument("--identity", required=True, choices=sorted(identities.IDENTITIES))
    p.add_argument("--variant", choices=["literal", "corrected"], default=None)
    p.add_argument("--kind", choices=["q-stirling", "qr-whitney"], default=None)
    for name in _AXIS_FLAGS:
        p.add_argument(f"--{name}", default=None, metavar="LO..HI")
    p.add_argument("--jobs", default="1")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="run the acceptance suite")
    p.add_argument("--suite", choices=["acceptance"], default="acceptance")
    p.add_argument("--jobs", default="1")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        text, code = args.func(args)
    except UsageError as e:
        sys.stderr.write(parser.format_usage())
        sys.stderr.write(f"qspivey: error: {e}\n")
        return 2
    except opexpr.ParseError as e:
        sys.stderr.write(f"qspivey: error: {e}\n")
        return 2
    except Exception as e:  # internal error: report, no partial output
        sys.stderr.write(f"qspivey: internal error: {e}\n")
        return 1
    if args.out:
        try:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
        except OSError as e:
            sys.stderr.write(f"qspivey: error: {e}\n")
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
