"""Spans around the public functions of the inclusionkit modules.

The program itself carries no tracing: install() replaces every binding
of every public function defined in one of the package modules (the
defining module, modules that imported the name, and the package
``__init__``) with a wrapper that records a span, and uninstall() puts
the originals back.  Each span holds the command it belongs to, the
function, the module that called it, the enclosing span, and its start
and end times.  Spans stay in memory; self time is computed at the end
as a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "inclusionkit"
MODULES = (
    "cli",
    "serialize",
    "feasibility",
    "products",
    "linalg",
    "convexity",
    "geometry",
    "builder",
    "verify",
)
# Public methods traced besides the module-level functions.
METHODS = (("geometry", "Polytope", "contains"),)


def _text_len(args, kwargs, result):
    return len(args[0]) if args else 0


def _result_len(args, kwargs, result):
    return len(result)


def _is_true(args, kwargs, result):
    return int(result is True)


# Per-span numbers kept besides the time: bytes read or written by the
# serializer, and whether an overlap LP found an overlap.
EXTRA = {
    "serialize.load_problem": _text_len,
    "serialize.load_solution": _text_len,
    "serialize.canonical_dumps": _result_len,
    "geometry.interiors_intersect": _is_true,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        # One list per span: [command, name index, caller, parent, t0, t1, extra].
        self.spans: list[list] = []
        self.command: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        holders = [package, *modules.values()]
        for short, module in modules.items():
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{name}", fn)
                for holder in holders:
                    if vars(holder).get(name) is fn:
                        self._patches.append((holder, name, fn))
                        setattr(holder, name, wrapper)
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[short], cls_name)
            fn = vars(cls)[meth]
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", fn))

    def uninstall(self) -> None:
        for holder, name, fn in reversed(self._patches):
            setattr(holder, name, fn)
        self._patches.clear()

    def _wrap(self, label: str, fn):
        index = len(self.names)
        self.names.append(label)
        spans, stack = self.spans, self._stack
        extra = EXTRA.get(label)
        clock, frame = time.perf_counter, sys._getframe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = frame(1).f_globals.get("__name__", "?")
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                value = extra(args, kwargs, result) if extra and result is not None else 0
                spans[slot] = [self.command, index, caller, parent, t0, t1, value]

        return wrapper

    # ------------------------------------------------------------- summary

    def summary(self) -> dict:
        """Totals per function: calls, self_s, total_s, extra, plus calls
        and extra per (function, caller module) and per (function, command)."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[5] - span[4]
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        total_s: defaultdict = defaultdict(float)
        extra: Counter = Counter()
        by_caller: Counter = Counter()
        extra_by_caller: Counter = Counter()
        by_command: Counter = Counter()
        for i, (command, index, caller, _, t0, t1, value) in enumerate(self.spans):
            name = self.names[index]
            caller = caller.removeprefix(PACKAGE + ".")
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[i]
            total_s[name] += t1 - t0
            extra[name] += value
            by_caller[name, caller] += 1
            extra_by_caller[name, caller] += value
            by_command[name, caller, command] += 1
        return {
            "calls": calls,
            "self_s": self_s,
            "total_s": total_s,
            "extra": extra,
            "by_caller": by_caller,
            "extra_by_caller": extra_by_caller,
            "by_command": by_command,
        }

    def write(self, path) -> None:
        """All spans as gzipped tab-separated lines: command, function,
        caller, parent span, start and end in seconds, extra."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("command\tfunction\tcaller\tparent\tt0\tt1\textra\n")
            for command, index, caller, parent, t0, t1, value in self.spans:
                fh.write(
                    f"{command}\t{self.names[index]}\t{caller}\t{parent}\t{t0:.9f}\t{t1:.9f}\t{value}\n"
                )
