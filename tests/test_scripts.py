"""The report scripts, run as a user runs them."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ROW = re.compile(
    r"^(\S+)\s+(.+?)\s+degrees 1\.\.(\d+) counts \[([\d,]*)\]\s+(VERIFIED|unresolved)$"
)
# each row's wall time, on stderr
ROW_TIME = re.compile(r"^\S+: \d+\.\d+s$", re.MULTILINE)

# (description, target semigroup, max len, counts, flag)
THEOREM_ROWS = [
    ("trivial", "AS(Zmod(1), {0})", "3", "1,1,1"),
    ("torus2:3", "AS(Zmod(3), {0, 1, 2})", "3", "3,3,3"),
    ("torus2:5", "AS(Zmod(5), {0, 1, 2, 3, 4})", "3", "5,5,5"),
    ("torus2:7", "AS(Zmod(7), {0, 1, 2, 3, 4, 5, 6})", "3", "7,7,7"),
    ("torus2:2", "SAS(Zmod(2), {0, 1})", "3", "2,3,4"),
    ("torus2:4", "SAS(Zmod(4), {0, 1, 2, 3})", "3", "4,6,8"),
    ("twist:2", "AS(Zmod(5), {0, 1, 2, 3})", "3", "4,5,5"),
    ("twist:3", "AS(Zmod(7), {0, 1, 2, 3, 4})", "3", "5,7,7"),
    ("dtw:2,2", "AS(Zmod(5), {0, 1, 2, 3})", "3", "4,5,5"),
    ("dtw:3,2", "AS(Zmod(7), {0, 1, 2, 3, 4})", "3", "5,7,7"),
    ("dtw:2,4", "AS(Zmod(9), {0, 1, 2, 3, 5, 7})", "3", "6,9,9"),
]
PROBE_ROWS = [
    ("cmln:1,1,2", "AS(Zmod(5), {0, 1, 2, 3})", "3", "4,5,5", "VERIFIED"),
    ("cmln:2,1,2", "AS(Zmod(8), {0, 1, 2, 3, 5})", "3", "5,11,16", "unresolved"),
]


def test_run_verifications_table():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_verifications.py"), "--max-len", "3"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [m.groups() for m in map(ROW.match, proc.stdout.splitlines()) if m]
    assert rows == [row + ("VERIFIED",) for row in THEOREM_ROWS] + PROBE_ROWS
    assert proc.stdout.count(" note: ") == 2
    assert proc.stdout.splitlines()[-1] == "theorem checks: all verified"
    assert len(ROW_TIME.findall(proc.stderr)) == len(THEOREM_ROWS) + len(PROBE_ROWS) == 13


GROWTH_SECTIONS = [
    "-- torus2:3  (AS(Zmod(3), {0, 1, 2}))",
    "-- torus2:5  (AS(Zmod(5), {0, 1, 2, 3, 4}))",
    "-- torus2:7  (AS(Zmod(7), {0, 1, 2, 3, 4, 5, 6}))",
    "-- dtw:2,2  (AS(Zmod(5), {0, 1, 2, 3}))",
    "-- dtw:3,2  (AS(Zmod(7), {0, 1, 2, 3, 4}))",
    "-- dtw:2,4  (AS(Zmod(9), {0, 1, 2, 3, 5, 7}))",
    "-- hopf  (SAS(Zmod(2), {0, 1}))",
]


def test_growth_report():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "growth_report.py"), "--terms", "8"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line for line in lines if line.startswith("-- ")] == GROWTH_SECTIONS
    checks = [line.strip() for line in lines if line.strip().startswith(("match:", "P*N == 1:"))]
    assert checks == ["match: True", "P*N == 1: True"] * 6
    assert lines[-2:] == ["   counts      (1, 2, 3, 4, 5, 6, 7, 8)",
                          "   growth exponent: 2 (method difference)"]


def test_every_mutant_finds_its_text():
    """Each edit of scripts/mutants.py still finds its old text once in a
    program file; running the mutants is a CI job of its own."""
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    for name, path, old, new, tests in mutants.MUTANTS:
        assert not path.startswith("tests/"), name
        assert (ROOT / path).read_text().count(old) == 1, name
        assert old != new and tests, name
