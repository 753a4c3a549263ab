"""In-process span tracer for one qspivey CLI command.

Run as a child process by the benchmark:

    python3 bench/tracer.py --out DIR --pass-id N [--trace] -- <qspivey argv>

It imports ``qspivey.cli`` from PYTHONPATH, optionally wraps the public
callables of the traced modules, calls ``qspivey.cli.main(argv)`` with
stdout captured in memory, and prints one JSON summary line (exit code,
sha256 and byte count of the captured stdout, in-process wall time of
``main``).  Nothing under ``src/`` is modified: wrappers are installed on
the imported module and class objects at run time.

A span is (name, start, end, parent) with perf_counter_ns timestamps; the
pass id is stored once per file.  Spans stay in memory until the process
ends and are then written to ``DIR/spans-<pid>.pkl``.  Worker processes
forked by ``acceptance.run_suite`` inherit the wrappers, start an empty
span table of their own and write their file when the worker exits.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import inspect
import io
import json
import os
import pickle
import sys
import time
from array import array
from multiprocessing import util

TRACED_MODULES = (
    "polys", "qcalc", "triangles", "boson", "opexpr",
    "identities", "acceptance", "report", "cli",
)

# Dunders that are part of a value type's arithmetic API; other dunders
# (construction, hashing, comparison, printing) are not wrapped.
_ARITH_DUNDERS = frozenset(
    ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
     "__mul__", "__rmul__", "__pow__")
)


class Collector:
    """Span table plus the counters taken at the same boundaries."""

    def __init__(self, pass_id: int, out_dir: str) -> None:
        self.pass_id = pass_id
        self.out_dir = out_dir
        self.role = "main"
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.stack = [-1]
        self.counters = {
            "mul_coeff_products": 0,
            "max_degree": 0,
            "max_coeff_bits": 0,
            "max_terms": 0,
        }
        self.caches: dict[str, object] = {}
        self._cache_base: dict[str, tuple[int, int]] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, post=None, name_of=None):
        """Return fn wrapped in a span; post(args, result) runs after the span
        closes, and name_of(args) picks a per-call span name."""
        nid = self.name_id(name)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack = self.stack
        clock = time.perf_counter_ns
        name_id = self.name_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid if name_of is None else name_id(name_of(args)))
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(i)
            starts[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def watch_cache(self, name: str, cached) -> None:
        self.caches[name] = cached
        info = cached.cache_info()
        self._cache_base[name] = (info.hits, info.misses)

    def reset_after_fork(self) -> None:
        """Start an empty table in a forked worker, flushed when it exits."""
        for arr in (self.name, self.start, self.end, self.parent):
            del arr[:]
        self.stack[:] = [-1]
        for key in self.counters:
            self.counters[key] = 0
        for name, cached in self.caches.items():
            info = cached.cache_info()
            self._cache_base[name] = (info.hits, info.misses)
        self.role = "worker"
        util.Finalize(None, self.flush, exitpriority=100)

    def flush(self) -> None:
        caches = {}
        for name, cached in self.caches.items():
            info = cached.cache_info()
            h0, m0 = self._cache_base[name]
            caches[name] = (info.hits - h0, info.misses - m0, info.currsize)
        record = {
            "pid": os.getpid(),
            "pass": self.pass_id,
            "role": self.role,
            "names": self.names,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "counters": self.counters,
            "caches": caches,
        }
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.pkl")
        with open(path, "wb") as fh:
            pickle.dump(record, fh, protocol=pickle.HIGHEST_PROTOCOL)


def _qpoly_mul_post(counters):
    def post(args, result):
        if result is NotImplemented:
            return
        self, other = args
        n_other = len(other.coeffs) if hasattr(other, "coeffs") else (1 if other else 0)
        counters["mul_coeff_products"] += len(self.coeffs) * n_other
        cs = result.coeffs
        if cs:
            if len(cs) - 1 > counters["max_degree"]:
                counters["max_degree"] = len(cs) - 1
            bits = max(max(cs), -min(cs)).bit_length()
            if bits > counters["max_coeff_bits"]:
                counters["max_coeff_bits"] = bits

    return post


def _nf_terms_post(counters):
    def post(args, result):
        terms = getattr(result, "terms", None)
        if terms is not None and len(terms) > counters["max_terms"]:
            counters["max_terms"] = len(terms)

    return post


def _is_lru(obj) -> bool:
    return callable(obj) and hasattr(obj, "cache_info") and hasattr(obj, "__wrapped__")


def install(col: Collector) -> None:
    """Wrap the public callables of every traced module.

    Module-level functions (lru-cached ones included) and the public and
    arithmetic methods of public classes are wrapped.  In ``cli`` only
    ``main`` is wrapped, so its self time is the CLI's own parsing and
    emission work; ``acceptance.run_criterion`` spans are named
    ``acceptance.criterion_<k>``.  Every module namespace of the package
    that bound an original function by import gets the wrapper too.
    """
    pkg = importlib.import_module("qspivey")
    mods = {m: importlib.import_module(f"qspivey.{m}") for m in TRACED_MODULES}
    replaced: dict[int, object] = {}
    counters = col.counters
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if short == "cli" and attr != "main":
                continue
            span = f"{short}.{attr}"
            if inspect.isclass(obj):
                if issubclass(obj, BaseException):
                    continue
                _wrap_class(col, span, obj, counters)
            elif inspect.isfunction(obj) or _is_lru(obj):
                if _is_lru(obj):
                    col.watch_cache(span, obj)
                name_of = None
                if span == "acceptance.run_criterion":
                    name_of = lambda args: f"acceptance.criterion_{args[0]}"
                replaced[id(obj)] = col.wrap(span, obj, name_of=name_of)
    for mod in [pkg, *mods.values()]:
        for attr, obj in list(vars(mod).items()):
            wrapper = replaced.get(id(obj))
            if wrapper is not None:
                setattr(mod, attr, wrapper)


def _wrap_class(col: Collector, span: str, cls, counters) -> None:
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_") and attr not in _ARITH_DUNDERS:
            continue
        name = f"{span}.{attr}"
        post = None
        if name in ("polys.QPoly.__mul__", "polys.QPoly.__rmul__"):
            post = _qpoly_mul_post(counters)
        elif name in ("boson.NormalForm.__mul__", "boson.NormalForm.__rmul__",
                      "boson.NormalForm.__pow__"):
            post = _nf_terms_post(counters)
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(col.wrap(name, raw.__func__)))
        elif inspect.isfunction(raw):
            setattr(cls, attr, col.wrap(name, raw, post=post))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--out", required=True, help="directory for span files")
    ap.add_argument("--pass-id", type=int, default=0)
    ap.add_argument("--trace", action="store_true", help="install span wrappers")
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    from qspivey import cli

    col = None
    if args.trace:
        col = Collector(args.pass_id, args.out)
        install(col)
        util.register_after_fork(col, Collector.reset_after_fork)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        code = cli.main(argv)
        t1 = time.perf_counter()
    data = buf.getvalue().encode()
    if col is not None:
        col.flush()
    sys.stdout.write(
        json.dumps(
            {
                "exit": code,
                "sha256": hashlib.sha256(data).hexdigest(),
                "bytes": len(data),
                "main_s": t1 - t0,
            }
        )
        + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
