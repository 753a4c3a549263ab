"""Command-line interface.

Subcommands: triangle, poly, numbers, normal-order, verify, sweep.
Output is deterministic byte for byte: JSON is emitted with sorted keys
and fixed separators, every computed value is written straight to text
by report's writers, which give exactly dumps(report.encode(value)) (a
triangle row, row sum or polynomial coefficient by report.json_text, a
normal-form term by report.term_json), and parallel runs (--jobs) merge
results in the same order as sequential ones.

argparse parses every flag (integer flags through type= readers built on
_integer); a command checks only the rules that tie flags together and
returns the pieces of its output and its exit code; main writes each
piece as it comes.  triangle, numbers and poly stream: one table,
_KINDS, names the row generator of each kind (the integer rows or the
q-rows), which they drive with no cache.  triangle writes rows 0..n,
numbers one row sum per row and poly the cells of row n, all through one
list writer, _json_list (or _csv_rows), so each holds two rows at once,
not the triangle and its text.  normal-order holds the normal form and
writes it one term at a time, not its whole text.  verify and sweep
compute every report first, so a failing task writes nothing, and write
their lines as one piece; each report is its two sides as text, written
once when it was checked, and its verdict is whether the two texts are
equal.

Exit codes: 0 when everything requested passed, 1 on a failing report or
an internal error, 2 on invalid flags or expressions, an integer of more
than opexpr.MAX_DIGITS digits among them (with no output written in that
case), or when stdout or --out cannot be written.  Every usage error,
argparse's own included, is written as the top-level usage line and then
"qspivey: error: <message>".  Computed ints are written in full at any
length (see main).  An internal error in mid-stream leaves the pieces
written so far on stdout; --out to a new or regular file goes to a
temporary file in the same directory, renamed onto the target only when
complete, so it is never partial (see _write_file).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import stat
import sys
from functools import partial
from itertools import count, islice, product
from typing import Iterable, Iterator

from . import acceptance, identities, opexpr, polys, triangles
from .report import dumps, json_text, term_json


class UsageError(Exception):
    pass


# every axis flag of verify, in order of first appearance in the table
_AXIS_FLAGS = tuple(
    dict.fromkeys(
        name for spec in identities.IDENTITIES.values() for name, _ in spec.axes
    )
)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise UsageError, so _main writes
    them in the one form every usage error takes; subparsers inherit it."""

    def error(self, message):
        raise UsageError(message)


def _integer(text: str) -> int:
    """A decimal integer: ASCII digits after an optional '-', at most
    opexpr.MAX_DIGITS of them.

    int() alone would also read non-ASCII digits such as '٣', which the
    --expr grammar rejects, and main lifts the interpreter's own bound on
    the digits int() reads.
    """
    digits = text[1:] if text.startswith("-") else text
    if not digits or not polys.DIGITS.issuperset(digits):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if len(digits) > opexpr.MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"more than {opexpr.MAX_DIGITS} digits")
    return int(text)


def _nonnegative(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError("values must be nonnegative")
    return value


def _last_row(text: str) -> int:
    """A nonnegative integer below sys.maxsize, the largest index: the last
    row n of a streamed command (rows 0..n take an islice stop of n + 1),
    or an end of a verify range."""
    n = _nonnegative(text)
    if n >= sys.maxsize:
        raise argparse.ArgumentTypeError(f"must be below {sys.maxsize}")
    return n


def _positive(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _range(text: str) -> tuple[int, int]:
    """Inclusive range of nonnegative integers: 'lo..hi' or a single value."""
    lo_s, dots, hi_s = text.partition("..")
    lo = _last_row(lo_s)
    hi = _last_row(hi_s) if dots else lo
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _out_path(text: str) -> str:
    if not text:  # names no file
        raise argparse.ArgumentTypeError("expected a file path, got ''")
    return text


def _emit(lines: list[str], failed: int) -> tuple[list[str], int]:
    """Report lines plus the summary line; exit code 1 if a report failed."""
    total = len(lines)
    summary = dumps({"total": total, "passed": total - failed, "failed": failed})
    return ["\n".join([*lines, summary]) + "\n"], 0 if failed == 0 else 1


def _m_r(cmd: str, args: argparse.Namespace, weighted: bool | None):
    """The (m, r) of a command, checked against its kind.

    weighted=True: --m >= 1 is required and --r defaults to 0; False: the
    kind takes neither flag; None: both are optional symbol bindings.
    """
    m, r = args.m, args.r
    if weighted is False and (m is not None or r is not None):
        raise UsageError(f"{cmd}: --m/--r do not apply to kind {args.kind}")
    if weighted:
        if m is None or m < 1:
            raise UsageError(f"{cmd}: --m is required and must be >= 1 for {args.kind}")
        r = 0 if r is None else r
    return m, r


# kind -> (row generator in triangles: the integer rows or the q-rows,
# weighted); looked up by name when a command runs, so a patch takes effect
_KINDS = {
    "stirling2": ("r_whitney_classic_rows", False),
    "bell": ("r_whitney_classic_rows", False),
    "r-whitney": ("r_whitney_classic_rows", True),
    "r-dowling": ("r_whitney_classic_rows", True),
    "q-stirling2": ("qr_whitney_rows", False),
    "q-bell": ("qr_whitney_rows", False),
    "qr-whitney": ("qr_whitney_rows", True),
    "qr-dowling": ("qr_whitney_rows", True),
}


def _kind_rows(cmd: str, args: argparse.Namespace):
    """The n and (m, r) of a command, and rows 0..n of its kind's triangle,
    made by the row generator with no cache."""
    rows_of, weighted = _KINDS[args.kind]
    m, r = _m_r(cmd, args, weighted)
    rows = getattr(triangles, rows_of)(m or 1, r or 0)
    return args.n, m, r, islice(rows, args.n + 1)


def _json_list(head: dict, key: str, items: Iterable[str]) -> Iterator[str]:
    """dumps of head with the list of items (each a JSON text) under key,
    plus a newline, written item by item wherever sorted keys put key."""
    before, _, after = dumps({**head, key: None}).partition(f'"{key}":null')
    yield before + f'"{key}":['
    sep = ""
    for item in items:
        yield sep + item
        sep = ","
    yield "]" + after + "\n"


def _csv_cell(cell) -> str:
    """csv.writer's text for an int or QPoly cell, written directly: an int
    bare, a QPoly's JSON text in quotes with its quotes doubled, and zero
    ("[]", which holds nothing csv quotes) bare."""
    if isinstance(cell, int):
        return str(cell)
    if not cell:
        return "[]"
    return '"' + json_text(cell).replace('"', '""') + '"'


def _csv_rows(head: dict, rows) -> Iterator[str]:
    # the head holds a kind name, ints and None (written as ""): nothing to quote
    values = ("" if v is None else str(v) for v in head.values())
    yield ",".join(head) + "\n" + ",".join(values) + "\n"
    for row in rows:
        yield ",".join(map(_csv_cell, row)) + "\n"


def cmd_triangle(args: argparse.Namespace) -> tuple[Iterator[str], int]:
    n, m, r, rows = _kind_rows("triangle", args)
    head = {"kind": args.kind, "m": m, "r": r, "n_max": n}
    if args.format == "csv":
        return _csv_rows(head, rows), 0
    return _json_list(head, "rows", map(json_text, rows)), 0


def cmd_poly(args: argparse.Namespace) -> tuple[Iterator[str], int]:
    n, m, r, rows = _kind_rows("poly", args)
    for row in rows:  # keeps only the last row, row n
        pass
    head = {"kind": args.kind, "n": n, **({"m": m, "r": r} if m else {})}
    return _json_list(head, "coeffs", map(json_text, row)), 0


def cmd_numbers(args: argparse.Namespace) -> tuple[Iterator[str], int]:
    n, m, r, rows = _kind_rows("numbers", args)
    head = {"kind": args.kind, "n_max": n, **({"m": m, "r": r} if m else {})}
    return _json_list(head, "values", (json_text(sum(row)) for row in rows)), 0


def _json_terms(nf) -> Iterator[str]:
    """json_text(nf) plus a newline, written term by term."""
    sep = "["
    for term in nf.terms:
        yield sep + term_json(term)
        sep = ","
    yield "[]\n" if sep == "[" else "]\n"


def cmd_normal_order(args: argparse.Namespace) -> tuple[Iterator[str], int]:
    m, r = _m_r("normal-order", args, None)
    nf = opexpr.normal_order(args.expr, m=m, r=r)
    return _json_terms(nf), 0


def cmd_verify(args: argparse.Namespace) -> tuple[list[str], int]:
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
    names = [name for name, _ in axes]
    for name in _AXIS_FLAGS:
        if getattr(args, name) is not None and name not in names:
            raise UsageError(f"verify: --{name} does not apply to {identity}")
    bounds = {}
    for name, default in axes:
        bounds[name] = getattr(args, name) or default
        least = spec.lower.get(name, 0)
        if bounds[name][0] < least:
            raise UsageError(f"verify: {identity} needs {name} >= {least}")
    if identity == "lem2" and bounds["cap"][0] < bounds["k"][1]:
        raise UsageError("verify: lem2 needs cap >= k")

    spans = {name: range(lo, hi + 1) for name, (lo, hi) in bounds.items()}
    if "x" in spans:  # passed whole: one task per instance (see IdentitySpec)
        fixed["xs"] = spans.pop("x")
    cases = [{**dict(zip(spans, c)), **fixed} for c in product(*spans.values())]
    tasks = [partial(identities.run_case, identity, args.variant, p) for p in cases]
    return _emit(*acceptance.report_lines(tasks, args.jobs))


def cmd_sweep(args: argparse.Namespace) -> tuple[list[str], int]:
    return _emit(*acceptance.run_suite(jobs=args.jobs))


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="qspivey",
        description="Exact q-analogue triangles, polynomials and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = _Parser(add_help=False)  # a shared flag is declared once, in a parent
    out.add_argument("--out", type=_out_path)
    m_r = _Parser(add_help=False, parents=[out])
    m_r.add_argument("--m", type=_nonnegative)
    m_r.add_argument("--r", type=_nonnegative)
    rows = _Parser(add_help=False, parents=[m_r])
    rows.add_argument("--n", required=True, type=_last_row, help="largest row index")
    jobs = _Parser(add_help=False, parents=[out])
    jobs.add_argument("--jobs", type=_positive, default=1)
    add = sub.add_parser

    p = add("triangle", help="emit a triangle as JSON or CSV", parents=[rows])
    p.add_argument(
        "--kind",
        required=True,
        choices=["stirling2", "q-stirling2", "r-whitney", "qr-whitney"],
    )
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_triangle)

    p = add("poly", help="emit a q-Bell or (q,r)-Dowling polynomial", parents=[rows])
    p.add_argument("--kind", required=True, choices=["q-bell", "qr-dowling"])
    p.set_defaults(func=cmd_poly)

    p = add("numbers", help="emit Bell, q-Bell or r-Dowling numbers", parents=[rows])
    p.add_argument("--kind", required=True, choices=["bell", "q-bell", "r-dowling"])
    p.set_defaults(func=cmd_numbers)

    p = add("normal-order", help="normally order an operator expression", parents=[m_r])
    p.add_argument("--expr", required=True)
    p.set_defaults(func=cmd_normal_order)

    p = add("verify", help="verify one identity over parameter ranges", parents=[jobs])
    p.add_argument("--identity", required=True, choices=sorted(identities.IDENTITIES))
    p.add_argument("--variant", choices=["literal", "corrected"], default=None)
    p.add_argument("--kind", choices=["q-stirling", "qr-whitney"], default=None)
    for name in _AXIS_FLAGS:
        p.add_argument(f"--{name}", type=_range, metavar="LO..HI")
    p.set_defaults(func=cmd_verify)

    p = add("sweep", help="run the acceptance suite", parents=[jobs])
    p.add_argument("--suite", choices=["acceptance"], default="acceptance")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; --help alone leaves
    through argparse's SystemExit(0).

    CPython (3.10.7 and later) refuses to turn an int of more than 4300
    digits into text, a guard against the quadratic parse of untrusted
    digit strings (CVE-2020-10735).  The CLI writes only ints it computed,
    and _integer and opexpr bound the digit strings it reads, so main
    lifts that limit while it runs, forked --jobs shards included, and
    gives the caller's setting back when it returns.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is None:
        return _main(argv)
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv: list[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        pieces, code = args.func(args)
    except UsageError as e:
        sys.stderr.write(parser.format_usage())
        sys.stderr.write(f"qspivey: error: {e}\n")
        return 2
    except opexpr.ParseError as e:
        sys.stderr.write(f"qspivey: error: {e}\n")
        return 2
    except Exception as e:  # internal error: report, no output
        sys.stderr.write(f"qspivey: internal error: {str(e) or type(e).__name__}\n")
        return 1
    try:
        if args.out:
            _write_file(args.out, pieces)
        else:
            for piece in pieces:
                sys.stdout.write(piece)
            sys.stdout.flush()
    except OSError as e:
        sys.stderr.write(f"qspivey: error: {e}\n")
        if not args.out:
            # Bytes stdout still holds would fail again at interpreter exit
            # and turn exit 2 into 120; as the `signal` docs advise for a
            # broken pipe, point its descriptor at devnull. The devnull
            # descriptor stays open for the few steps left before exit.
            with contextlib.suppress(AttributeError, OSError, ValueError):
                stdout_fd = sys.stdout.fileno()
                os.dup2(os.open(os.devnull, os.O_WRONLY), stdout_fd)
        return 2
    except Exception as e:  # internal error in mid-stream: stdout keeps its part
        sys.stderr.write(f"qspivey: internal error: {str(e) or type(e).__name__}\n")
        return 1
    return code


def _write_file(path: str, pieces: Iterable[str]) -> None:
    """Write pieces to path, as open(path, "w") would.

    A new file, or a regular file with one link, is written to a temporary
    file beside it (a symlink is followed), which takes the old file's
    owner and mode and is renamed onto it only when every piece is
    written, so path is left as it was on any error; a temporary name
    that a killed run left taken is passed over.  Anything else (a
    device, a FIFO, /dev/stdout, a file with more links, or a file in a
    directory that takes no new file) is written in place.  An error in
    making the temporary file names path, not the temporary name.
    """
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    if st is None or (stat.S_ISREG(st.st_mode) and st.st_nlink == 1):
        directory, name = os.path.split(os.path.realpath(path))
        stem = os.path.join(directory, f".{name}.{os.getpid()}")
        try:
            for k in count():  # the first free name: a killed run's file stays
                tmp = f"{stem}.{k}.tmp" if k else f"{stem}.tmp"
                with contextlib.suppress(FileExistsError):
                    fh = open(tmp, "x", newline="")
                    break
        except OSError as e:  # no temporary file: write in place, or fail naming path
            if st is None or not isinstance(e, PermissionError):
                raise OSError(e.errno, e.strerror, path) from None
        else:
            try:
                with fh:
                    if st is not None:
                        with contextlib.suppress(PermissionError):
                            os.fchown(fh.fileno(), st.st_uid, st.st_gid)
                        os.fchmod(fh.fileno(), stat.S_IMODE(st.st_mode))
                    fh.writelines(pieces)
                os.replace(tmp, os.path.join(directory, name))
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise
            return
    with open(path, "w", newline="") as fh:
        fh.writelines(pieces)


if __name__ == "__main__":
    sys.exit(main())
