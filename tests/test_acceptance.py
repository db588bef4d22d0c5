"""Acceptance gate: the eleven stated criteria, one test and one line each.

Run with -v for one PASSED/FAILED line per criterion, or -s to see the
summary line each test prints.
"""

import itertools
import json
import random
import time

from knotgrowth.altsum import AltSumSemigroup, Zmod, dtw_alphabet
from knotgrowth.cli import main
from knotgrowth.diagrams import ReidemeisterMove, apply_reidemeister, build_torus2
from knotgrowth.growth import (
    RationalForm,
    gk_dimension,
    growth_for_family,
    growth_from_counts,
    reidemeister_dimension_check,
    skew_growth,
)
from knotgrowth.oracle import enumerate_classes, verify_family
from knotgrowth.presentation import Presentation

SEED = 20260814


def report(number, ok, detail):
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_criterion_01_trefoil_theorem(capsys):
    start = time.perf_counter()
    code, out = run_cli(
        capsys,
        "verify", "--theorem", "torus", "--params", "3", "--max-len", "4", "--pad", "2",
    )
    elapsed = time.perf_counter() - start
    data = json.loads(out)
    counts = [d["classes"] for d in data["degrees"]]
    elements = [d["elements"] for d in data["degrees"]]
    ok = (
        code == 0
        and data["all_verified"] is True
        and counts == [3, 3, 3, 3]
        and elements == [3, 3, 3, 3]
        and elapsed < 10
    )
    report(1, ok, f"torus n=3 verified degrees 1-4, counts {counts}, {elapsed:.2f}s")


def test_criterion_02_torus_five():
    start = time.perf_counter()
    result = verify_family("torus2:5", max_len=4, pad=2)
    elapsed = time.perf_counter() - start
    counts = [d.class_count for d in result.degrees]
    ok = result.all_verified and counts == [5, 5, 5, 5] and elapsed < 60
    report(2, ok, f"torus n=5 verified degrees 1-4, counts {counts}, {elapsed:.2f}s")


def test_criterion_03_torus_link_four():
    start = time.perf_counter()
    result = verify_family("torus2:4", max_len=3, pad=2)
    elapsed = time.perf_counter() - start
    counts = [d.class_count for d in result.degrees]
    strong = result.semigroup.startswith("SAS(")
    ok = result.all_verified and strong and len(counts) == 3 and elapsed < 60
    report(3, ok, f"torus link n=4 vs {result.semigroup} verified degrees 1-3, "
                  f"counts {counts}, pad 2, {elapsed:.2f}s")


def test_criterion_04_double_twist():
    start = time.perf_counter()
    small = verify_family("dtw:2,2", max_len=4, pad=2)
    bigger = verify_family("dtw:3,2", max_len=3, pad=2)
    elapsed = time.perf_counter() - start
    counts_small = [d.class_count for d in small.degrees]
    counts_bigger = [d.class_count for d in bigger.degrees]
    ok = (
        small.all_verified
        and counts_small == [4, 5, 5, 5]
        and bigger.all_verified
        and counts_bigger == [5, 7, 7]
        and elapsed < 300
    )
    report(4, ok, f"dtw(2,2) counts {counts_small}, dtw(3,2) counts {counts_bigger}, "
                  f"{elapsed:.2f}s total")


def test_criterion_05_twist_alphabet():
    results = {}
    for n in range(2, 6):
        alphabet = dtw_alphabet(n, 2)
        results[n] = (alphabet.modulus, set(alphabet.elements))
    ok = all(
        results[n] == (2 * n + 1, set(range(n + 2))) for n in range(2, 6)
    )
    report(5, ok, f"dtw(n,2) alphabet is {{0..n+1}} in Z_(2n+1) for n=2..5: "
                  f"{ {n: sorted(v[1]) for n, v in results.items()} }")


def growth_fixtures():
    """Name, the paper's closed form, the family's 21-term series, and its
    target semigroup."""
    for n in (3, 5, 7):
        closed = RationalForm((1, n - 1), (1, -1))
        sg = AltSumSemigroup(Zmod(n), tuple(range(n)))
        yield f"torus{n}", closed, growth_for_family("torus2", (n,), terms=21), sg
    for n, l in ((2, 2), (3, 2), (2, 4)):
        closed = RationalForm((1, n + l - 1, n * l - n - l + 1), (1, -1))
        series = growth_for_family("dtw", (n, l), terms=21)
        yield f"dtw{n}{l}", closed, series, dtw_alphabet(n, l).semigroup()


def test_criterion_06_growth_closed_forms():
    mismatches = []
    for name, closed, series, sg in growth_fixtures():
        counts = (1,) + tuple(sg.count_elements(t) for t in range(1, 10))
        if series.rational != closed or closed.expand(10) != counts:
            mismatches.append(name)
    ok = not mismatches
    report(6, ok, "closed forms match 10-term count series for "
                  "torus n=3,5,7 and dtw (2,2),(3,2),(2,4)"
                  + (f"; mismatches: {mismatches}" if mismatches else ""))


def test_criterion_07_skew_reciprocal():
    bad = []
    unit = (1,) + (0,) * 20
    for name, _closed, series, _sg in growth_fixtures():
        skew = skew_growth(series, terms=21)
        p, q = series.coefficients, skew.coefficients
        conv = tuple(sum(p[i] * q[k - i] for i in range(k + 1)) for k in range(21))
        if conv != unit:
            bad.append(name)
    ok = not bad
    report(7, ok, "P*N = 1 to order 20 for all six growth fixtures"
                  + (f"; failures: {bad}" if bad else ""))


def test_criterion_08_reidemeister_invariance():
    trefoil = build_torus2(3)
    doubled = apply_reidemeister(trefoil, ReidemeisterMove("r2", arc=0, over_arc=1, end=0))
    kinked = apply_reidemeister(trefoil, ReidemeisterMove("r1", arc=0, end=0))

    pad_used = 2
    r2_report = reidemeister_dimension_check(trefoil, doubled, max_len=4, pad=2)
    r2_rows = [d for d in r2_report.degrees if d.degree >= 2]
    if not all(d.equal for d in r2_rows):
        pad_used = 3
        r2_report = reidemeister_dimension_check(trefoil, doubled, max_len=4, pad=3)
        r2_rows = [d for d in r2_report.degrees if d.degree >= 2]
    r2_ok = all(d.equal for d in r2_rows)

    r1_report = reidemeister_dimension_check(trefoil, kinked, max_len=4, pad=2)
    r1_ok = r1_report.all_equal

    dims = [(d.left_cumulative, d.right_cumulative) for d in r2_rows]
    ok = r2_ok and r1_ok
    report(8, ok, f"R2 insert: cumulative dims equal at degrees 2-4 (pad {pad_used}) "
                  f"{dims}; R1 insert: equal at degrees 1-4")


def test_criterion_09_gk_dimensions():
    # ten terms of exact per-degree counts for each subject
    torus3 = tuple(AltSumSemigroup(Zmod(3), (0, 1, 2)).count_elements(t) for t in range(1, 11))
    dtw22 = tuple(dtw_alphabet(2, 2).semigroup().count_elements(t) for t in range(1, 11))
    hopf = tuple(
        AltSumSemigroup(Zmod(2), (0, 1), strong=True).count_elements(t) for t in range(1, 11)
    )
    free_link = enumerate_classes(Presentation(2, ()), 10, pad=0).degree_counts

    results = {
        "torus3": gk_dimension(growth_from_counts(torus3)).label(),
        "dtw22": gk_dimension(growth_from_counts(dtw22)).label(),
        "hopf": gk_dimension(growth_from_counts(hopf)).label(),
        "free2": gk_dimension(growth_from_counts(free_link)).label(),
    }
    expected = {"torus3": "1", "dtw22": "1", "hopf": "2", "free2": "infinity"}
    ok = results == expected
    report(9, ok, f"gk dimensions {results} (expected {expected})")


def brute_count(sg, t):
    return len({sg.class_of(w) for w in itertools.product(sg.generators, repeat=t)})


def test_criterion_10_property_suites():
    rng = random.Random(SEED)
    as732 = dtw_alphabet(3, 2).semigroup()           # AS(Z7, C_{3,2})
    sas44 = AltSumSemigroup(Zmod(4), (0, 1, 2, 3), strong=True)

    # alt concatenation law on 1000 random pairs, on class_of states
    alt_ok = True
    g, of = as732.generators, as732.class_of
    for _ in range(1000):
        u = tuple(rng.choice(g) for _ in range(rng.randint(1, 8)))
        v = tuple(rng.choice(g) for _ in range(rng.randint(1, 8)))
        sign = -1 if len(u) % 2 else 1
        if of(u + v) != (of(u) + sign * of(v)) % as732.group.modulus:
            alt_ok = False
            break

    # two-sided cancellativity of equal-length words on 1000 triples, both
    # fixtures: appending or prepending z keeps u and v apart exactly when
    # they were apart
    cancel_ok = True
    for sg in (as732, sas44):
        g, of = sg.generators, sg.class_of
        for _ in range(1000):
            z = tuple(rng.choice(g) for _ in range(rng.randint(1, 5)))
            same = rng.randint(1, 5)
            u = tuple(rng.choice(g) for _ in range(same))
            v = tuple(rng.choice(g) for _ in range(same))
            if (of(u + z) == of(v + z)) != (of(u) == of(v)):
                cancel_ok = False
            if (of(z + u) == of(z + v)) != (of(u) == of(v)):
                cancel_ok = False

    # exhaustive enumeration equals count_elements for t <= 5, all fixtures
    count_ok = True
    fixtures = [sg for _n, _c, _s, sg in growth_fixtures()] + [
        sas44,
        AltSumSemigroup(Zmod(2), (0, 1), strong=True),
    ]
    for sg in fixtures:
        for t in range(1, 6):
            if sg.count_elements(t) != brute_count(sg, t):
                count_ok = False

    ok = alt_ok and cancel_ok and count_ok
    report(10, ok, f"alt law {alt_ok}, cancellativity {cancel_ok}, "
                   f"exhaustive counts t<=5 {count_ok}")


def test_criterion_11_conjecture_probe(capsys):
    code, out = run_cli(
        capsys,
        "probe", "--conjecture", "cmln", "--params", "1,1,2",
        "--max-len", "3", "--pad", "2",
    )
    data = json.loads(out)
    well_formed = (
        data["schema_version"] == 1
        and data["description"] == "cmln:1,1,2"
        and isinstance(data["degrees"], list)
        and len(data["degrees"]) == 3
        and all(
            set(d) == {"degree", "classes", "elements", "aligned", "verdict"}
            for d in data["degrees"]
        )
        and "warnings" in data
        and "homomorphism" in data
    )
    ok = code == 0 and well_formed
    report(11, ok, f"probe completed (exit {code}) with a well-formed report; "
                   f"verdicts: {[d['verdict'] for d in data['degrees']]} (findings)")
