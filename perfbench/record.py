"""Record the expected observations that the correctness check compares.

    python3 perfbench/record.py

Runs every workload once with seed 0 and writes the exit codes, counts,
verdicts and series digests to ``perfbench/expected.json``.  Run it only
when an output change is intended; the values are seed-independent.
"""

import json
import sys
import time

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    expected = {}
    for workload in run.WORKLOADS:
        workdir = run.OUT / workload
        workdir.mkdir(parents=True, exist_ok=True)
        cases = run.resolve_cases(workload, 0, workdir)
        cases_path = workdir / "cases.json"
        cases_path.write_text(json.dumps(cases))
        result = run.run_worker(cases_path, workdir, False, time.monotonic() + 600)
        if result is None:
            return 1
        observations = result["observations"]
        wrong = [c for c, obs in observations.items() if not run.matches_analytic(c, obs)]
        if wrong:
            print(f"analytic check fails for {wrong}; nothing written", file=sys.stderr)
            return 1
        expected[workload] = dict(sorted(observations.items()))
    run.EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
