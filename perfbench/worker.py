"""One benchmark repetition: a fresh interpreter imports knotgrowth, runs a
resolved case list once and writes what it saw to a JSON file.

    python3 perfbench/worker.py CASES_JSON RESULT_JSON SPAWN_NS TRACE

SPAWN_NS is the parent's ``time.monotonic_ns()`` taken just before the
spawn (CLOCK_MONOTONIC is shared by all processes), so ``setup_s`` covers
interpreter start-up plus the package import, as a CLI user pays it.
TRACE is 0 or 1; with 1 the public functions are wrapped by
``perfbench/tracer.py`` before the first case runs.

The host may run the same code up to twice as slowly for stretches of
seconds to minutes, in CPU time as well as in wall time, when other
tenants load it.  So fixed pure-Python kernels (``probe``) are timed
right after the import and after every case, giving the host's speed
relative to a reference, and each time is also reported scaled to that
reference speed: a case's time is multiplied by the mean of the speeds
measured before and after it.  The probe does not depend on knotgrowth,
so a change to the package moves the scaled times as much as the raw
ones.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import knotgrowth  # noqa: E402
import knotgrowth.cli  # noqa: E402

READY_NS = time.monotonic_ns()

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import signal  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

from knotgrowth import altsum, diagrams, oracle, presentation  # noqa: E402

CASE_TIMEOUT_S = 60


class CaseTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CaseTimeout(f"case exceeded {CASE_TIMEOUT_S} s")


# The probe: four fixed pure-Python kernels, one for each kind of work the
# cases spend their time on: bytecode dispatch, dependent look-ups in a
# 4 MB list (as in the closure's union-find), big-integer multiplication
# (as in the series) and dict and tuple allocation.  Each is paired with
# its time in seconds at the reference speed.
PROBE_SIZE = 1 << 19


def _interpreter(table: list) -> None:
    s = 0
    for i in range(280_000):
        s += i * i % 7


def _lookups(table: list) -> None:
    mask, j = PROBE_SIZE - 1, 0
    for i in range(180_000):
        j = (j * 31 + table[j] + i) & mask


def _bigint(table: list) -> None:
    x = 3**20000
    for i in range(60):
        x * x + i


def _allocation(table: list) -> None:
    for _ in range(20):
        d = {}
        for i in range(5_000):
            d[(i, i >> 3)] = i


PROBE_KERNELS = ((_interpreter, 0.018), (_lookups, 0.016), (_bigint, 0.0145),
                 (_allocation, 0.010))


def probe(table: list) -> tuple[float, float]:
    """The host's speed relative to the reference, as the geometric mean
    over the kernels of reference time over measured time, and the CPU
    seconds the probe took."""
    cpu = time.process_time()
    log_speed = 0.0
    for kernel, reference_s in PROBE_KERNELS:
        start = time.perf_counter()
        kernel(table)
        log_speed += math.log(reference_s / (time.perf_counter() - start))
    return math.exp(log_speed / len(PROBE_KERNELS)), time.process_time() - cpu


def run_cli(case) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = knotgrowth.cli.main(case["argv"])
    return code, out.getvalue()


def run_verify(case) -> tuple[int, str]:
    """The CLI's ``verify --theorem torus|dtw`` for the case's family, on a
    presentation whose letters are permuted by ``case["perm"]``; the letter
    map is permuted to match.

    Module attributes are looked up at call time so that a traced run sees
    the wrapped functions.  Exit code 0 means all degrees verified, as in
    the CLI.
    """
    spec = diagrams.parse_family_spec(case["diagram"])
    diagram = diagrams.build_family(spec)
    if spec.kind == "torus2":
        (n,) = spec.params
        sg = altsum.AltSumSemigroup(altsum.Zmod(n), tuple(range(n)), strong=n % 2 == 0)
        phi = tuple(range(n))
    else:
        n, l = spec.params
        alphabet = altsum.dtw_alphabet(n, l)
        sg = alphabet.semigroup()
        phi = tuple(v % alphabet.modulus for v in diagrams.double_twist_arc_values(n, l))
    perm = case["perm"]
    pres = presentation.presentation_from_diagram(diagram).relabel(tuple(perm))
    permuted_phi = [0] * len(phi)
    for letter, image in zip(perm, phi):
        permuted_phi[letter] = image
    report = oracle.verify_isomorphism(
        pres, permuted_phi, sg, case["max_len"], description=case["id"]
    )
    return (0 if report.all_verified else 1), json.dumps(report.to_json_dict())


def observe(case, code: int, out: str) -> dict:
    """The part of a case's output that the correctness check compares:
    the exit code, and per-degree counts and verdicts, or for series
    output a digest of the exact bytes."""
    obs = {"exit": code}
    command = case["argv"][0] if case["kind"] == "cli" else "verify"
    if code not in (0, 1):
        return obs
    if command == "classes":
        obs["counts"] = [int(line.split(",")[1]) for line in out.splitlines()[1:]]
    elif command in ("verify", "probe"):
        degrees = json.loads(out)["degrees"]
        obs["counts"] = [d["classes"] for d in degrees]
        obs["elements"] = [d["elements"] for d in degrees]
        obs["verdicts"] = [d["verdict"] for d in degrees]
    elif command == "rmove":
        degrees = json.loads(out)["degrees"]
        obs["counts"] = [d["left"]["count"] for d in degrees]
        obs["moved_counts"] = [d["right"]["count"] for d in degrees]
    else:
        obs["sha256"] = hashlib.sha256(out.encode()).hexdigest()
    return obs


def main() -> int:
    cases_path, result_path, spawn_ns, trace = sys.argv[1:5]
    cases = json.loads(Path(cases_path).read_text())
    tracer = None
    if trace == "1":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    signal.signal(signal.SIGALRM, _on_alarm)
    table = list(bytes(range(256)) * (PROBE_SIZE // 256))
    speed, probe_cpu_s = probe(table)
    speeds = [speed]
    case_s, observations, stdout_bytes = {}, {}, 0
    for case in cases:
        runner = run_cli if case["kind"] == "cli" else run_verify
        span = tracer.case(case["id"]) if tracer else None
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, CASE_TIMEOUT_S)
        try:
            code, out = runner(case)
        except Exception as exc:  # a failed case is reported, not fatal
            code, out = None, f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            case_s[case["id"]] = time.perf_counter() - start
            if span:
                tracer.end_case(span)
        speed, cpu = probe(table)
        speeds.append(speed)
        probe_cpu_s += cpu
        if code is None:
            observations[case["id"]] = {"error": out}
            continue
        if case["kind"] == "cli":
            stdout_bytes += len(out.encode())
        observations[case["id"]] = observe(case, code, out)

    setup_s = (READY_NS - int(spawn_ns)) / 1e9
    case_speeds = [(a + b) / 2 for a, b in zip(speeds, speeds[1:])]
    result = {
        "setup_s": setup_s,
        "solve_s": sum(case_s.values()),
        "setup_ref_s": setup_s * speeds[0],
        "solve_ref_s": sum(case_s[c["id"]] * f for c, f in zip(cases, case_speeds)),
        "speeds": speeds,
        "probe_cpu_s": probe_cpu_s,
        "case_s": case_s,
        "observations": observations,
        "cli_stdout_bytes": stdout_bytes,
    }
    if tracer:
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.spans
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
