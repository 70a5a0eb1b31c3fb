"""Self-test of the benchmark itself (about two minutes).

    python3 perfbench/selftest.py

Checks that the decide-mix generator is deterministic for a seed, that
every digest lines up with a pool entry, that one short run of each
workload produces exactly the metrics BENCHMARK.json names (untraced
and traced), that every forgery except the two known verifier holes is
rejected, and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import ladder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUNS: dict[tuple[str, int], tuple[dict, dict]] = {}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(workload: str, trace: int) -> tuple[dict, dict]:
    """(detail line, result line) of one short run, cached per test run."""
    if (workload, trace) not in RUNS:
        proc = bench(workload, trace)
        if proc.returncode != 0:
            raise AssertionError(f"{workload} --trace {trace} exited {proc.returncode}: {proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        RUNS[workload, trace] = json.loads(lines[-2]), json.loads(lines[-1])
    return RUNS[workload, trace]


class Generator(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for seed in (0, 7, -1):
            a = [gen.problem_bytes(i["problem"]) for i in gen.decide_mix(seed)]
            b = [gen.problem_bytes(i["problem"]) for i in gen.decide_mix(seed)]
            self.assertEqual(a, b)

    def test_seeds_differ_and_hold_out(self):
        ordinary = {i["key"] for s in range(10) for i in gen.decide_mix(s)}
        held_out = {i["key"] for i in gen.decide_mix(-1)}
        self.assertNotEqual(
            [i["key"] for i in gen.decide_mix(1)], [i["key"] for i in gen.decide_mix(2)]
        )
        self.assertFalse(ordinary & held_out)

    def test_every_verdict_kind_in_every_sample(self):
        kinds = {(i["kind"], i["expected"]) for i in gen.decide_mix(5)}
        self.assertEqual(len(kinds), len(gen.FAMILIES))
        reasons = {e[2] or e[1] for _, e in kinds}
        self.assertEqual(
            reasons,
            {"feasible", "out_of_scope", "DimensionTooSmall", "SpanNotRankOne",
             "CommonKernelTrivial", "NotRelativeInterior"},
        )

    def test_digests_cover_the_pool(self):
        digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
        self.assertEqual(len(digests["check"]), len(gen.pool_keys()))
        self.assertEqual(set(digests["construct"]), set(ladder.RUNGS))
        self.assertEqual(set(digests["export"]), set(ladder.COVER_LADDER))


class Metrics(unittest.TestCase):
    def test_every_metric_named_in_the_spec(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                _, res = result(workload, trace)
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                want = {m["name"]: m["unit"] for m in SPEC[key]}
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, want, f"{workload} --trace {trace}")
                self.assertTrue(res["correct"], f"{workload} --trace {trace}")
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                if trace == 0:
                    for name, m in res["metrics"].items():
                        self.assertGreater(m["value"], 0, f"{workload} {name}")

    def test_forgeries_rejected_except_known_holes(self):
        detail, res = result("verify-mix", 0)
        forged = [label for label in detail["chain"] if label.startswith("verify forged-")]
        self.assertEqual(len(forged), 3)
        self.assertTrue(res["correct"])
        self.assertEqual(detail["failures"], [])
        self.assertEqual(set(detail["known_holes"]), set(ladder.KNOWN_HOLES))

    def test_overlap_lps_bounded_by_cell_pairs(self):
        detail, _ = result("verify-mix", 1)
        for label, chain in detail["chain"].items():
            self.assertLessEqual(chain["overlap_lps"], chain["cell_pairs"], label)


class Refusal(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = ROOT / ".perfbench-work" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("decide-mix", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
