"""inclusionkit benchmark: decide-mix, cover-ladder and verify-mix.

    python3 perfbench/run.py --workload decide-mix --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  One caller drives ``inclusionkit.cli.main`` in-process in a
closed loop: each command starts only after the previous one returned.
A run sets the workload up seven times (setup_s is the median), then
repeats passes over the workload's commands, each pass in a new seeded
order, until --seconds have passed.  Every command's outcome is checked
outside the timed region; a wrong answer, a wrong exit code, an
exception or a hit on the per-command time cap counts as a failed
operation.

Every time is scaled to a reference host speed: a fixed reference kernel
runs before the first command of a pass, after every command, and every
SAMPLE_EVERY_S of CPU time inside an untraced command or a set-up.  Each
command's time, less that of the timings inside it, is multiplied by
REF_NOMINAL_S over the median of the reference timings around and inside
it (set-ups likewise).  The shared host's speed swings by up to 2x
within seconds; the scaling cancels most of that.  The detail line
keeps the unscaled figures.

With --trace 0 the last line reports the end-to-end metrics, measured
without tracing.  With --trace 1 passes alternate between untraced and
traced, and the last line reports the per-layer metrics of the traced
passes (see perfbench/README.md).  The line before the last holds the
per-workload detail: each command kind's metrics with units, verdict
kinds, the delta -> copies -> cells -> pairs chain of every rung, known
verifier holes and every failed operation.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import ladder  # noqa: E402
from spans import MODULES, Tracer  # noqa: E402

WORKLOADS = ("decide-mix", "cover-ladder", "verify-mix")
SETUP_REPEATS = 7
CASE_CAP_S = 30.0
DIGESTS = HERE / "digests.json"
WORK = ROOT / ".perfbench-work"
# Reported times are scaled to a host on which reference_kernel() takes
# this long.
REF_NOMINAL_S = 0.001
# CPU time between two reference timings taken inside a command: a
# timing costs about 2% of it.
SAMPLE_EVERY_S = 0.05


def reference_kernel() -> Fraction:
    """Fixed work of the kind the program does: exact rational
    elimination of a 7x7 matrix, and dict and list traffic."""
    n = 7
    a = [[Fraction(1, i + j + 1) + (i == j) for j in range(n)] for i in range(n)]
    for c in range(n):
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    counts: dict[int, int] = {}
    for i in range(2000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return a[n - 1][n - 1]


def reference_s() -> float:
    """Seconds one reference kernel takes now."""
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


@contextlib.contextmanager
def sampling(into: list[float]):
    """Append a reference timing to `into` every SAMPLE_EVERY_S of CPU
    time spent in the block.  Their time counts in the block's own."""
    signal.signal(signal.SIGPROF, lambda signum, frame: into.append(reference_s()))
    signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)


def scale(seconds: float, refs: list[float]) -> float:
    """A time scaled to the reference speed, from the reference timings
    taken around and inside it."""
    return seconds * REF_NOMINAL_S / statistics.median(refs)


class CaseTimeout(BaseException):
    """Raised by the interval timer inside a command that hit the cap."""


def _on_alarm(signum, frame):
    raise CaseTimeout()


# ------------------------------------------------------------ operations


@dataclass
class Outcome:
    code: int | None
    stdout: str
    seconds: float
    error: str | None = None
    timeout: bool = False


@dataclass
class Op:
    """One CLI command and the judge of its outcome (None when right)."""

    label: str
    kind: str
    argv: list[str]
    judge: Callable[[Outcome], str | None]
    verdict_kind: str = ""
    chain: dict = field(default_factory=dict)


class Harness:
    def __init__(self, cli) -> None:
        signal.signal(signal.SIGALRM, _on_alarm)
        self.cli = cli
        self.attempted = 0
        self.failures: list[dict] = []

    def run(self, op: Op) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        code: int | None = None
        error = None
        timeout = False
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, CASE_CAP_S)
            t0 = time.perf_counter()
            try:
                code = self.cli.main(op.argv)
            except CaseTimeout:
                timeout = True
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash is a failed operation, not a benchmark error
                error = f"{type(exc).__name__}: {exc}"
            finally:
                t1 = time.perf_counter()
                signal.setitimer(signal.ITIMER_REAL, 0)
        return Outcome(code, out.getvalue(), t1 - t0, error, timeout)

    def judge(self, op: Op, outcome: Outcome, where: str) -> bool:
        self.attempted += 1
        if outcome.timeout:
            why, detail = "timeout", f"hit the {CASE_CAP_S:g} s cap"
        elif outcome.error is not None:
            why, detail = "wrong", outcome.error
        else:
            why, detail = "wrong", op.judge(outcome)
            if detail is None:
                return True
        self.failures.append({"op": op.label, "where": where, "why": why, "detail": detail})
        return False

    def run_checked(self, op: Op, where: str) -> Outcome:
        outcome = self.run(op)
        self.judge(op, outcome, where)
        return outcome


def sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(len(p).to_bytes(8, "big"))
        h.update(p)
    return h.hexdigest()


def file_digest(path: Path) -> str | None:
    return sha256(path.read_bytes()) if path.exists() else None


def rational_bits(obj) -> int:
    """Largest bit length of a numerator or denominator in a JSON value."""
    if isinstance(obj, dict):
        return max((rational_bits(v) for v in obj.values()), default=0)
    if isinstance(obj, list):
        return max((rational_bits(v) for v in obj), default=0)
    if isinstance(obj, str):
        try:
            x = Fraction(obj)
        except ValueError:
            return 0
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    if isinstance(obj, int) and not isinstance(obj, bool):
        return abs(obj).bit_length()
    return 0


def solution_chain(path: Path) -> dict:
    """The delta -> copies -> cells -> pairs chain of one solution file."""
    text = path.read_text(encoding="utf-8")
    sol = json.loads(text)
    cells = len(sol["cells"])
    per_scale = Counter(c["scale"] for c in sol["copies"])
    return {
        "delta": sol["delta"],
        "copies": len(sol["copies"]),
        "copies_per_scale": dict(sorted(per_scale.items(), key=lambda kv: -Fraction(kv[0]))),
        "cells": cells,
        "cell_pairs": math.comb(cells, 2),
        "max_rational_bits": rational_bits(sol),
        "file_bytes": len(text.encode("utf-8")),
    }


# ------------------------------------------------------------- workloads


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


# A set-up returns the timed commands in groups, whose order each pass
# shuffles, and the known-hole commands run once outside the passes.


def setup_decide_mix(work: Path, seed: int, digests: dict, harness: Harness):
    groups = []
    for i, item in enumerate(gen.decide_mix(seed)):
        data = gen.problem_bytes(item["problem"])
        path = work / f"p{i:03d}.json"
        path.write_bytes(data)
        groups.append([_check_op(item, data, path, digests["check"])])
    return groups, []


def _check_op(item: dict, data: bytes, path: Path, digests: dict) -> Op:
    code, status, reason = item["expected"]
    want = digests.get(item["key"])

    def judge(o: Outcome) -> str | None:
        if o.code != code:
            return f"exit {o.code}, expected {code}"
        try:
            verdict = json.loads(o.stdout)
        except ValueError:
            return "stdout is not JSON"
        if verdict.get("status") != status or verdict.get("reason") != reason:
            return f"verdict {verdict.get('status')}/{verdict.get('reason')}, expected {status}/{reason}"
        if sha256(data, str(o.code).encode(), o.stdout.encode()) != want:
            return "stdout differs from the recorded digest"
        return None

    return Op(item["key"], "check", ["check", str(path)], judge, item["kind"])


def _write_problems(work: Path, names) -> dict[str, Path]:
    return {
        name: _write(work / f"{name}.problem.json", ladder.dumps(ladder.PROBLEMS[name]))
        for name in names
    }


def _expect_feasible(o: Outcome) -> str | None:
    if o.code != 0:
        return f"exit {o.code}, expected 0"
    return None if json.loads(o.stdout).get("status") == "feasible" else "not feasible"


def construct_op(rung: str, problem: Path, out: Path, want: str | None) -> Op:
    def judge(o: Outcome) -> str | None:
        if o.code != 0:
            return f"exit {o.code}, expected 0"
        if file_digest(out) != want:
            return "solution bytes differ from the recorded digest"
        return None

    argv = ["construct", str(problem), "--delta", ladder.RUNGS[rung][1], "--out", str(out)]
    return Op(f"construct {rung}", "construct", argv, judge)


def export_outputs(rung: str, work: Path) -> dict[str, Path]:
    """The files `export` writes for a rung: CSV, and OBJ when n <= 2."""
    stem = work / rung.replace("/", "_")
    outputs = {"csv": stem.with_suffix(".csv")}
    if ladder.PROBLEMS[ladder.RUNGS[rung][0]]["n"] <= 2:
        outputs["obj"] = stem.with_suffix(".obj")
    return outputs


def export_op(rung: str, sol: Path, outputs: dict[str, Path], want: dict | None) -> Op:
    argv = ["export", str(sol)]
    for flag, path in sorted(outputs.items()):
        argv += [f"--{flag}", str(path)]

    def judge(o: Outcome) -> str | None:
        if o.code != 0:
            return f"exit {o.code}, expected 0"
        got = {flag: file_digest(path) for flag, path in outputs.items()}
        return None if got == want else "export files differ from the recorded digests"

    return Op(f"export {rung}", "export", argv, judge)


def _solution_path(work: Path, rung: str) -> Path:
    return work / f"{rung.replace('/', '_')}.solution.json"


def setup_cover_ladder(work: Path, seed: int, digests: dict, harness: Harness):
    problems = _write_problems(work, {ladder.RUNGS[r][0] for r in ladder.COVER_LADDER})
    for name, path in sorted(problems.items()):
        harness.run_checked(Op(f"check {name}", "check", ["check", str(path)], _expect_feasible), "setup")
    groups = []
    for rung in ladder.COVER_LADDER:
        # export reads the file its construct just wrote, so they stay paired.
        sol = _solution_path(work, rung)
        groups.append(
            [
                construct_op(rung, problems[ladder.RUNGS[rung][0]], sol, digests["construct"][rung]),
                export_op(rung, sol, export_outputs(rung, work), digests["export"][rung]),
            ]
        )
    return groups, []


def _verify_op(label, problem: Path, sol: Path, passed: bool, covered=None, omega=None) -> Op:
    """verify, judged on exit code, pass, and (when given) covered and
    omega_measure."""
    code = 0 if passed else 11

    def judge(o: Outcome) -> str | None:
        if o.code != code:
            return f"exit {o.code}, expected {code}"
        try:
            report = json.loads(o.stdout)
        except ValueError:
            return "stdout is not JSON"
        if report.get("pass") is not passed:
            return f"pass is {report.get('pass')}, expected {passed}"
        if covered is not None and Fraction(report["covered"]) != covered:
            return f"covered {report['covered']}, expected {covered}"
        if omega is not None and Fraction(report["omega_measure"]) != omega:
            return f"omega_measure {report['omega_measure']}, expected {omega}"
        return None

    op = Op(label, "verify", ["verify", str(problem), str(sol)], judge)
    op.chain = solution_chain(sol)
    return op


def setup_verify_mix(work: Path, seed: int, digests: dict, harness: Harness):
    rng = random.Random(seed)
    rungs = (*ladder.HONEST, "square-small-1/4")
    problems = _write_problems(work, {ladder.RUNGS[r][0] for r in rungs} | {"square"})
    files, sols = {}, {}
    for rung in rungs:
        files[rung] = _solution_path(work, rung)
        op = construct_op(rung, problems[ladder.RUNGS[rung][0]], files[rung], digests["construct"][rung])
        harness.run_checked(op, "setup")
        sols[rung] = json.loads(files[rung].read_text(encoding="utf-8"))

    def covered(rung):
        return Fraction(sols[rung]["covered"])

    def omega(rung):
        return covered(rung) + Fraction(sols[rung]["residual"])

    def problem(rung):
        return problems[ladder.RUNGS[rung][0]]

    ops = [
        _verify_op(f"verify {r}", problem(r), files[r], True, covered(r), omega(r))
        for r in ladder.HONEST
    ]

    tri, cube = "triangle-1/4", "cube-1/4"
    tri_cells, cube_cells = len(sols[tri]["cells"]), len(sols[cube]["cells"])
    forged = [
        # (label, rung, forged solution, re-measured coverage it must report)
        ("forged-gradient", tri, ladder.forge_gradient(sols[tri], rng.randrange(tri_cells)), covered(tri)),
        # The cube's cells are congruent pyramids over the faces of one copy.
        (
            "forged-drop",
            cube,
            ladder.forge_drop(sols[cube], rng.randrange(cube_cells)),
            covered(cube) * Fraction(cube_cells - 1, cube_cells),
        ),
        ("forged-covered", cube, ladder.forge_covered(sols[cube], rng.randint(2, 9)), covered(cube)),
    ]
    for label, rung, sol, want in forged:
        path = _write(work / f"{label}.solution.json", ladder.dumps(sol))
        ops.append(_verify_op(f"verify {label}", problem(rung), path, False, want, omega(rung)))

    small = "square-small-1/4"
    unbounded = ladder.dumps(ladder.forge_unbounded(sols[tri], 0))
    unbounded = _write(work / "unbounded-cell.solution.json", unbounded)
    # Judged on exit code and pass only: what a fixed verifier reports as
    # covered or omega_measure for these files is not pinned down.
    holes = [
        # Ω = [0, 1/10]² in the file, the unit box in the problem.
        _verify_op("verify domain-mismatch", problems["square"], files[small], False),
        _verify_op("verify unbounded-cell", problem(tri), unbounded, False),
    ]
    return [[op] for op in ops], holes


SETUPS = {
    "decide-mix": setup_decide_mix,
    "cover-ladder": setup_cover_ladder,
    "verify-mix": setup_verify_mix,
}


# ------------------------------------------------------------- measuring


def run_passes(harness, groups, seconds, rng, tracer=None):
    """Passes over the groups in seeded order until `seconds` have passed.

    Without a tracer the last pass stops at the deadline, so a run lasts
    about `seconds` whatever a pass costs; every op still has one sample
    per complete pass.  With a tracer, whole passes alternate untraced /
    traced (untraced first) until the deadline.  Returns per-op
    scaled and unscaled latencies of untraced passes, the scaled totals
    of complete untraced and traced passes, each op's outcome in the
    first pass, and every reference timing."""
    latency = {op.label: [] for group in groups for op in group}
    raw = {label: [] for label in latency}
    totals: dict[bool, list[float]] = {False: [], True: []}
    first: dict[str, Outcome] = {}
    refs: list[float] = []
    start = time.perf_counter()
    traced = False
    while True:
        order = list(groups)
        rng.shuffle(order)
        order = [op for group in order for op in group]
        gc.collect()
        if traced:
            tracer.install()
        total = 0.0
        complete = True
        before = reference_s()
        refs.append(before)
        try:
            for op in order:
                if tracer is None and totals[False] and time.perf_counter() - start >= seconds:
                    complete = False
                    break
                if tracer is not None:
                    tracer.command = op.label
                # No timings inside traced commands: they would land in spans.
                inside: list[float] = []
                with sampling(inside) if not traced else contextlib.nullcontext():
                    outcome = harness.run(op)
                after = reference_s()
                took = outcome.seconds - sum(inside)
                scaled = scale(took, [before, *inside, after])
                refs += [*inside, after]
                before = after
                harness.judge(op, outcome, "traced pass" if traced else "pass")
                total += scaled
                first.setdefault(op.label, outcome)
                if not traced:
                    latency[op.label].append(scaled)
                    raw[op.label].append(took)
        finally:
            if traced:
                tracer.uninstall()
        if complete:
            totals[traced].append(total)
        if time.perf_counter() - start >= seconds and (tracer is None or totals[True]):
            break
        traced = tracer is not None and not traced
    return latency, raw, totals, first, refs


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(ops, latency, setup_times):
    med = {label: statistics.median(v) for label, v in latency.items()}
    per_op = [med[op.label] for op in ops]
    return {
        "pass_s": (sum(per_op), "s"),
        "op_p50_ms": (statistics.median(per_op) * 1000, "ms"),
        "op_p95_ms": (quantile(per_op, 95) * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def command_metrics(workload, ops, latency, harness):
    """The per-command-kind view: check_*, construct_s, export_s, verify_s."""
    med = {label: statistics.median(v) for label, v in latency.items()}
    samples = sum(len(v) for v in latency.values())
    by_kind: dict[str, float] = Counter()
    for op in ops:
        by_kind[op.kind] += med[op.label]
    out = {}
    if workload == "decide-mix":
        per_op = [med[op.label] for op in ops]
        out["check_per_s"] = (len(ops) / by_kind["check"], "1/s")
        out["check_p50_ms"] = (statistics.median(per_op) * 1000, "ms")
        out["check_p95_ms"] = (quantile(per_op, 95) * 1000, "ms")
        out["check_samples"] = (samples, "count")
        out["checks_beyond_p95"] = (sum(t > quantile(per_op, 95) for t in per_op), "count")
    if workload == "cover-ladder":
        out["construct_s"] = (by_kind["construct"], "s")
        out["export_s"] = (by_kind["export"], "s")
        out["solution_bytes"] = (
            sum(op.chain.get("file_bytes", 0) for op in ops if op.kind == "construct"),
            "B",
        )
    if workload == "verify-mix":
        out["verify_s"] = (by_kind["verify"], "s")
    out["failed_frac"] = (len(harness.failures) / max(harness.attempted, 1), "1")
    return out


def layer_metrics(ops, s, totals, holes_accepted, max_rational_bits):
    """Per traced pass: calls and self time per function and module, and
    the counters of the layer -> metric -> workload map in README.md."""
    passes = len(totals[True])
    per = 1.0 / passes
    m = {}

    def fn(name, *, calls=True, self_s=True, total=False):
        if calls:
            m[f"{name}.calls"] = (s["calls"][name] * per, "count")
        if self_s:
            m[f"{name}.self_s"] = (s["self_s"][name] * per, "s")
        if total:
            m[f"{name}.total_s"] = (s["total_s"][name] * per, "s")

    for module in MODULES:
        m[f"{module}.self_s"] = (
            sum(v for k, v in s["self_s"].items() if k.split(".", 1)[0] == module) * per,
            "s",
        )
    fn("convexity.simplex_solve")
    fn("convexity.in_relative_interior_of_hull", self_s=False)
    fn("convexity.separating_functional", self_s=False)
    for name in ("span_of", "rank", "solve_square", "kernel"):
        fn(f"linalg.{name}")
    fn("products.detect_rank_one_span", calls=False)
    fn("products.detect_sym_slice", calls=False)
    fn("feasibility.decide")
    for name in ("vertices", "triangulate", "volume", "interiors_intersect", "is_bounded"):
        fn(f"geometry.{name}")
    fn("geometry.Polytope.contains")
    for name in ("load_problem", "load_solution", "encode_solution", "canonical_dumps"):
        fn(f"serialize.{name}", calls=False)
    fn("cli.main", calls=False)
    for kind in ("check", "construct", "export", "verify"):
        fn(f"cli.cmd_{kind}", calls=False, self_s=False, total=True)

    lp = "geometry.interiors_intersect"
    clash = s["by_caller"][lp, "builder"]
    overlap = s["by_caller"][lp, "verify"]
    constructs = [op for op in ops if op.kind == "construct"]
    verifies = [op for op in ops if op.kind == "verify"]
    fn("builder.vitali_cover", calls=False)
    m["builder.copies"] = (sum(op.chain.get("copies", 0) for op in constructs), "count")
    m["builder.cells"] = (sum(op.chain.get("cells", 0) for op in constructs), "count")
    m["builder.clash_lps"] = (clash * per, "count")
    m["builder.clash_hit_ratio"] = (s["extra_by_caller"][lp, "builder"] / clash if clash else 0.0, "1")
    fn("verify.verify_solution", calls=False)
    pairs = sum(op.chain.get("cell_pairs", 0) for op in verifies)
    m["verify.cell_pairs"] = (pairs, "count")
    m["verify.overlap_lps"] = (overlap * per, "count")
    m["verify.overlap_lps_per_pair"] = (overlap * per / pairs if pairs else 0.0, "1")
    m["verify.known_holes_accepted"] = (holes_accepted, "count")
    loaded = s["extra"]["serialize.load_problem"] + s["extra"]["serialize.load_solution"]
    m["serialize.bytes_in"] = (loaded * per, "B")
    m["serialize.bytes_out"] = (s["extra"]["serialize.canonical_dumps"] * per, "B")
    m["serialize.max_rational_bits"] = (max_rational_bits, "bit")
    overhead = statistics.median(totals[True]) / statistics.median(totals[False]) - 1
    m["trace.overhead_frac"] = (overhead, "1")
    return m


def fill_chains(ops, summary, traced_passes):
    """Chain counters of every construct output, and with a trace summary
    the overlap LPs of every construct and verify command."""
    for op in ops:
        if op.kind == "construct":
            out = Path(op.argv[op.argv.index("--out") + 1])
            if out.exists():
                op.chain = solution_chain(out)
    if summary is None:
        return
    by_command = summary["by_command"]
    for op in ops:
        if op.kind in ("construct", "verify"):
            caller = "builder" if op.kind == "construct" else "verify"
            key = "clash_lps" if op.kind == "construct" else "overlap_lps"
            op.chain[key] = by_command["geometry.interiors_intersect", caller, op.label] / traced_passes


def max_bits(ops, first) -> int:
    """Largest rational bit length in the workload's inputs and outputs."""
    best = 0
    for op in ops:
        for arg in op.argv:
            if arg.endswith(".json") and Path(arg).exists():
                best = max(best, rational_bits(json.loads(Path(arg).read_text(encoding="utf-8"))))
        outcome = first.get(op.label)
        if outcome is not None and outcome.stdout.strip():
            try:
                best = max(best, rational_bits(json.loads(outcome.stdout)))
            except ValueError:
                pass
    return best


def load_digests() -> dict:
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    digests["check"] = dict(zip(gen.pool_keys(), digests["check"]))
    return digests


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import inclusionkit.cli as cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import inclusionkit from {ROOT / 'src'}: {exc}")
    where = Path(cli.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"perfbench: inclusionkit came from {where}, not from {ROOT / 'src'}")
    return cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_package()
    digests = load_digests()
    harness = Harness(cli)
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        setup = SETUPS[args.workload]
        for _ in range(20):  # warm the reference kernel up
            reference_s()
        setup_times, raw_setup_times = [], []
        for k in range(1 if args.trace else SETUP_REPEATS):
            sub = work / f"setup{k}"
            sub.mkdir()
            refs = [reference_s()]
            with sampling(refs):
                t0 = time.perf_counter()
                groups, holes = setup(sub, args.seed, digests, harness)
                took = time.perf_counter() - t0
            raw_setup_times.append(took - sum(refs[1:]))
            refs.append(reference_s())
            setup_times.append(scale(raw_setup_times[-1], refs))
        ops = [op for group in groups for op in group]

        rng = random.Random(f"{args.workload}/{args.seed}")
        tracer = Tracer() if args.trace else None
        latency, raw, totals, first, refs = run_passes(harness, groups, args.seconds, rng, tracer)

        # Known verifier holes: run once, outside every timed pass, and
        # not counted as operations (see README.md).
        known = {}
        for op in holes:
            rejected = op.judge(harness.run(op)) is None
            known[op.label.split(" ", 1)[1]] = "rejected" if rejected else "accepted (known hole)"
        holes_accepted = sum(v != "rejected" for v in known.values())

        summary = tracer.summary() if tracer else None
        fill_chains(ops, summary, len(totals[True]))
        per_kind = command_metrics(args.workload, ops, latency, harness)
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "commands_per_pass": len(ops),
            "untraced_pass_s": totals[False],
            "traced_pass_s": totals[True],
            "by_command_kind": {k: {"value": v, "unit": u} for k, (v, u) in per_kind.items()},
            "reference_ms": {
                "nominal": REF_NOMINAL_S * 1000,
                "median": statistics.median(refs) * 1000,
                "min": min(refs) * 1000,
                "max": max(refs) * 1000,
                "samples": len(refs),
            },
            "unscaled": {
                k: {"value": v, "unit": u}
                for k, (v, u) in end_to_end(ops, raw, raw_setup_times).items()
                if k != "peak_rss_mb"
            },
            "max_rational_bits": max_bits(ops, first),
        }
        if args.workload == "decide-mix":
            detail["verdict_kinds"] = dict(sorted(Counter(op.verdict_kind for op in ops).items()))
        else:
            detail["chain"] = {op.label: op.chain for op in ops if op.chain}
        if holes:
            detail["known_holes"] = known
        detail["failures"] = harness.failures
        print(json.dumps(detail, sort_keys=True))

        if tracer is None:
            metrics = end_to_end(ops, latency, setup_times)
        else:
            metrics = layer_metrics(ops, summary, totals, holes_accepted, detail["max_rational_bits"])
            tracer.write(WORK / f"spans-{args.workload}.tsv.gz")
        result = {
            "correct": not harness.failures,
            "attempted": harness.attempted,
            "failed": len(harness.failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        print(json.dumps(result, sort_keys=True))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
