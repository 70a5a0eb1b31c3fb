"""Record the digests every benchmark run checks outputs against.

    python3 perfbench/record_digests.py

Run from the root of a checkout of the commit whose outputs are the
reference; it rewrites perfbench/digests.json.  No speed-up may change a
verdict, a certificate or an output byte, so a later commit re-records
only when it changes an output on purpose.

It records, per decide-mix pool entry, the digest of the problem bytes,
the exit code and the stdout of `check`; per rung, the digest of the
solution file `construct` writes and of the files `export` writes.  A
pool entry whose verdict differs from the one its construction implies
stops the recording.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from run import WORK, Harness, Op, file_digest, gen, ladder, sha256


def main() -> int:
    harness = Harness(run.import_package())
    work = WORK / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        checks = []
        path = work / "problem.json"
        for key, (code, status, reason), problem in gen.full_pool():
            data = gen.problem_bytes(problem)
            path.write_bytes(data)
            o = harness.run(Op(key, "check", ["check", str(path)], None))
            verdict = json.loads(o.stdout)
            if (o.code, verdict.get("status"), verdict.get("reason")) != (code, status, reason):
                raise SystemExit(f"{key}: exit {o.code} {verdict}, built for {status}/{reason}")
            checks.append(sha256(data, str(o.code).encode(), o.stdout.encode()))

        construct, export = {}, {}
        problems = run._write_problems(work, ladder.PROBLEMS)
        sol = work / "solution.json"
        for rung, (problem, _) in ladder.RUNGS.items():
            if harness.run(run.construct_op(rung, problems[problem], sol, None)).code != 0:
                raise SystemExit(f"construct {rung} failed")
            construct[rung] = file_digest(sol)
            if rung in ladder.COVER_LADDER:
                outputs = run.export_outputs(rung, work)
                if harness.run(run.export_op(rung, sol, outputs, None)).code != 0:
                    raise SystemExit(f"export {rung} failed")
                export[rung] = {flag: file_digest(p) for flag, p in outputs.items()}
        digests = {"check": checks, "construct": construct, "export": export}
        run.DIGESTS.write_text(json.dumps(digests, indent=0) + "\n", encoding="utf-8")
        print(f"recorded {len(checks)} check, {len(construct)} construct and {len(export)} export digests")
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
