"""knotgrowth benchmark: fixed case lists run in fresh worker processes.

    python3 perfbench/run.py --workload reach|wide|series --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One repetition is a fresh ``perfbench/worker.py`` process that
runs the workload's whole case list once, so ``altsum._states`` (an
``lru_cache``) starts cold as it does for a CLI user.  Repetitions run one
at a time while another one still fits in ``--seconds`` (at least one),
and each end-to-end metric is the median over them.  The times are scaled
to a reference host speed, measured by a probe kernel in the worker
before and after every case (see ``perfbench/worker.py``), because this
shared host slows all code by up to two times for minutes at a time; the
raw times are kept in the provenance line:

* ``setup_s``: from spawning a worker until ``knotgrowth`` and
  ``knotgrowth.cli`` are imported, also sampled from a few import-only
  workers after each repetition;
* ``solve_s``: wall time of the case list after set-up;
* ``cpu_s``, ``peak_rss_mb``: user+sys CPU and peak RSS of that worker
  alone, from its own ``os.wait4`` rusage;
* ``pass_rate``: cases that passed the correctness check over cases
  attempted, i.e. 1 - error rate.  A case fails if it raises, times out,
  exits with an unexpected code, or gives counts, verdicts or series
  output that differ from ``perfbench/expected.json`` (recorded at the
  commit that added the benchmark) or from the values known analytically.

With ``--trace 1`` untraced and traced repetitions alternate; the traced
ones give the per-layer metrics (see ``perfbench/tracer.py``) and
``trace.overhead_s`` is the median over rounds of traced minus untraced
``solve_s``, each pair run back to back.
The spans of the last traced repetition are written to
``.perfbench_out/<workload>/spans.json``.

The seed fixes the case order and a permutation of arc labels for every
case that takes a diagram; counts and verdicts do not depend on either.
A provenance line precedes the result, which is the last line of stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
EXPECTED = HERE / "expected.json"
# Every worker is killed by this many seconds after the run started, so a
# hung case cannot keep the run past its time limit.
HARD_LIMIT_S = 170

# Import-only workers spawned after each untraced repetition, so that the
# median ``setup_s`` rests on several samples per round.
SETUP_SAMPLES = 4

# Why each workload is in the benchmark is kept in BENCHMARK.json.
WORKLOADS = {
    # Near-budget verifies: the closure is ~95 % of the time, the image
    # check most of the rest.  torus2:7 at max-len 5 sits on the default
    # 5 M-word budget (max-len 6 is refused).
    "reach": [
        {"id": "verify-torus:7", "kind": "verify", "diagram": "torus2:7", "max_len": 5},
        {"id": "verify-dtw:2,4", "kind": "verify", "diagram": "dtw:2,4", "max_len": 5},
        {"id": "verify-dtw:2,2", "kind": "verify", "diagram": "dtw:2,2", "max_len": 7},
    ],
    # Closures whose class counts stay large, so per-class overhead shows.
    "wide": [
        {"id": "classes-free3", "kind": "cli", "diagram": "free3",
         "argv": ["classes", "--pd", "{pd}", "--max-len", "10"]},
        {"id": "classes-hopf", "kind": "cli", "diagram": "hopf",
         "argv": ["classes", "--pd", "{pd}", "--max-len", "16"]},
        {"id": "probe-cmln:2,1,2", "kind": "cli",
         "argv": ["probe", "--conjecture", "cmln", "--params", "2,1,2", "--max-len", "6"]},
        {"id": "rmove-torus2:5-r1", "kind": "cli", "diagram": "torus2:5",
         "argv": ["rmove", "--pd", "{pd}", "--move", "r1", "--site", "arc={arc0},end=0",
                  "--max-len", "5"]},
    ],
    # Series work only; no closure runs.
    "series": [
        {"id": "growth-torus2:40", "kind": "cli",
         "argv": ["growth", "--family", "torus2:40", "--terms", "120"]},
        {"id": "skew-torus2:7", "kind": "cli",
         "argv": ["skew", "--family", "torus2:7", "--terms", "2000"]},
        {"id": "skew-torus2:12", "kind": "cli",
         "argv": ["skew", "--family", "torus2:12", "--terms", "150"]},
        {"id": "gkdim-hopf", "kind": "cli",
         "argv": ["gkdim", "--family", "hopf", "--terms", "400"]},
    ],
}

# -- inputs --------------------------------------------------------------------


def _diagram(name: str) -> dict:
    from knotgrowth import build_family, diagram_to_dict, parse_family_spec

    if name == "free3":
        return {"arcs": 3, "crossings": []}
    return diagram_to_dict(build_family(parse_family_spec(name)))


def _relabel(diagram: dict, perm: list[int]) -> dict:
    return {
        "arcs": diagram["arcs"],
        "crossings": [
            {"over": perm[c["over"]], "under": [perm[u] for u in c["under"]]}
            for c in diagram["crossings"]
        ],
    }


def resolve_cases(workload: str, seed: int, workdir: Path) -> list[dict]:
    """The workload's cases in seeded order, each with its own seeded arc
    permutation.  ``--pd`` inputs are written under ``workdir`` in the
    ``{"arcs", "crossings": [{"over", "under"}]}`` form that
    ``diagram_from_dict`` reads."""
    rng = random.Random(f"{workload}:{seed}")
    cases = []
    for template in WORKLOADS[workload]:
        case = dict(template)
        if "diagram" in case:
            diagram = _diagram(case["diagram"])
            case["perm"] = perm = list(range(diagram["arcs"]))
            rng.shuffle(perm)
        if case["kind"] == "cli" and "diagram" in case:
            pd = workdir / f"{case['id']}.json"
            pd.write_text(json.dumps(_relabel(diagram, perm)))
            fields = {"pd": str(pd.relative_to(ROOT)), "arc0": perm[0]}
            case["argv"] = [arg.format(**fields) for arg in case["argv"]]
        cases.append(case)
    rng.shuffle(cases)
    return cases


# -- correctness -----------------------------------------------------------------


def _skew_torus7_digest(terms: int) -> str:
    """sha256 of the CSV that the skew series of (1+6t)/(1-t) must print:
    n_0 = 1 and n_k = -7 (-6)^(k-1)."""
    lines = ["degree,coefficient", "0,1"]
    lines += [f"{k},{-7 * (-6) ** (k - 1)}" for k in range(1, terms + 1)]
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def matches_analytic(case_id: str, obs: dict) -> bool:
    """Values known without any recorded output."""
    counts = obs.get("counts")
    if case_id.startswith("verify-") and (
        not counts or obs.get("verdicts") != ["verified"] * len(counts)
    ):
        return False
    checks = {
        "classes-free3": lambda: counts == [3**d for d in range(1, 11)],
        "classes-hopf": lambda: counts == [d + 1 for d in range(1, 17)],
        "verify-torus:7": lambda: counts == [7] * 5,
        "skew-torus2:7": lambda: obs.get("sha256") == _skew_torus7_digest(2000),
    }
    return checks.get(case_id, lambda: True)()


def failed_cases(observations: dict, expected: dict) -> list[str]:
    return sorted(
        case_id
        for case_id, want in expected.items()
        if observations.get(case_id) != want
        or not matches_analytic(case_id, observations[case_id])
    )


# -- running workers -------------------------------------------------------------


def run_worker(cases_path: Path, workdir: Path, trace: bool, deadline: float) -> dict | None:
    """Run one repetition; None if the worker died or wrote nothing."""
    result_path = workdir / "result.json"
    result_path.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in ("KNOTGROWTH_BUDGET", "PYTHONPATH")}
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(cases_path), str(result_path),
         str(spawn_ns), "1" if trace else "0"],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
    )
    killer = threading.Timer(max(1.0, deadline - time.monotonic()),
                             os.kill, (proc.pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        killer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not result_path.exists():
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(result_path.read_text())
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    # the probe's own CPU is not the worker's work; the rest is scaled by
    # the host speed measured over the case list (or at set-up, if empty)
    scale = (result["solve_ref_s"] / result["solve_s"] if result["solve_s"]
             else result["setup_ref_s"] / result["setup_s"])
    result["cpu_ref_s"] = (result["cpu_s"] - result["probe_cpu_s"]) * scale
    result["peak_rss_mb"] = usage.ru_maxrss / 1024
    return result


def _provenance(workload: str, seed: int, cases: list[dict]) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)), check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "knotgrowth").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
        "cases": cases,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "knotgrowth" / "__init__.py").is_file():
        print(f"error: no knotgrowth sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    started = time.monotonic()
    workdir = OUT / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    cases = resolve_cases(args.workload, args.seed, workdir)
    cases_path = workdir / "cases.json"
    cases_path.write_text(json.dumps(cases))
    no_cases_path = workdir / "no_cases.json"
    no_cases_path.write_text("[]")
    expected = json.loads(EXPECTED.read_text())[args.workload]

    plain, traced, setups, overheads = [], [], [], []
    attempted = failed = 0
    round_s = []
    while True:
        kinds = [False, True] if args.trace else [False]
        if len(round_s) % 2:
            kinds.reverse()  # alternate which kind of repetition goes first
        round_start = time.monotonic()
        round_results = {}
        for trace in kinds:
            result = run_worker(cases_path, workdir, trace, started + HARD_LIMIT_S)
            attempted += len(cases)
            if result is None:
                failed += len(cases)
                continue
            bad = failed_cases(result["observations"], expected)
            for case_id in bad:
                print(f"case {case_id} failed: {result['observations'].get(case_id)}",
                      file=sys.stderr)
            failed += len(bad)
            result["traced"] = trace
            (traced if trace else plain).append(result)
            round_results[trace] = result
        if len(round_results) == 2:
            overheads.append(round_results[True]["solve_s"] - round_results[False]["solve_s"])
        for _ in range(0 if args.trace else SETUP_SAMPLES):
            result = run_worker(no_cases_path, workdir, False, started + HARD_LIMIT_S)
            if result is not None:
                setups.append(result["setup_ref_s"])
        # stop before a further round would end after --seconds
        round_s.append(time.monotonic() - round_start)
        if time.monotonic() - started + statistics.median(round_s) > args.seconds:
            break
    if not plain or (args.trace and not overheads):
        print("error: no repetition completed", file=sys.stderr)
        return 1

    def median(runs, key):
        return statistics.median(r[key] for r in runs)

    if args.trace:
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values["cli.stdout_bytes"] = median(traced, "cli_stdout_bytes")
        values["trace.solve_s"] = median(traced, "solve_s")
        values["trace.overhead_s"] = statistics.median(overheads)
        (workdir / "spans.json").write_text(json.dumps(traced[-1]["spans"]))
    else:
        values = {
            "setup_s": statistics.median(setups + [r["setup_ref_s"] for r in plain]),
            "solve_s": median(plain, "solve_ref_s"),
            "cpu_s": median(plain, "cpu_ref_s"),
            "peak_rss_mb": median(plain, "peak_rss_mb"),
            "pass_rate": 1 - failed / attempted,
        }
    # names and units come from BENCHMARK.json, so the two cannot drift apart
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    provenance = _provenance(args.workload, args.seed, cases)
    provenance["repetitions"] = [
        {k: r[k] for k in ("traced", "setup_s", "solve_s", "cpu_s", "setup_ref_s",
                           "solve_ref_s", "cpu_ref_s", "peak_rss_mb", "case_s", "speeds")}
        for r in plain + traced
    ]
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
