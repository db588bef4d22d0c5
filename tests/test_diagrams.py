"""Diagram builders, family specs, custom loading and Reidemeister moves."""

import itertools
import json
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotgrowth.altsum import AltSumSemigroup, Zmod, dtw_alphabet
from knotgrowth.diagrams import (
    FAMILIES,
    MAX_ARCS,
    MAX_MODULUS,
    Crossing,
    Diagram,
    ReidemeisterMove,
    _fox_target,
    _merge_arcs,
    apply_reidemeister,
    build_double_twist,
    build_family,
    build_torus2,
    build_trivial,
    conway_with_traces,
    crossing,
    diagram_from_dict,
    diagram_to_dict,
    double_twist_arc_values,
    fox_coloring,
    load_pd,
    parse_family_spec,
)
from knotgrowth.errors import InternalConsistencyError, MoveError, ParameterError
from knotgrowth.presentation import presentation_from_diagram


def even_under_parity(d):
    """Every arc ends at under-crossings in pairs.  Built families always do;
    a kink inserted on a closed arc, a formal split, does not."""
    ends = Counter(u for c in d.crossings for u in c.under)
    return all(ends[a] % 2 == 0 for a in range(d.arc_count))


def test_crossing_normalizes_under_pair():
    assert Crossing(0, (2, 1)).under == (1, 2)
    assert crossing(5, 7, 3).arcs() == (5, 3, 7)


def test_diagram_validation():
    with pytest.raises(ParameterError):
        Diagram(0, ())
    with pytest.raises(ParameterError):
        Diagram(2, (crossing(0, 1, 2),))
    with pytest.raises(ParameterError):
        Diagram(2, (), arc_names=("a",))


def test_diagram_equality_ignores_crossing_order():
    a = Diagram(3, (crossing(0, 1, 2), crossing(1, 2, 0)))
    b = Diagram(3, (crossing(1, 2, 0), crossing(0, 1, 2)))
    assert a == b
    assert hash(a) == hash(b)
    assert a != Diagram(3, (crossing(0, 1, 2),))


def test_trivial_and_hopf():
    t = build_trivial()
    assert (t.arc_count, t.crossings) == (1, ())
    h = build_family(parse_family_spec("hopf"))
    assert h == build_torus2(2)
    assert h.arc_count == 2
    assert h.arc_names == ("a", "b")


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_torus_structure(n):
    d = build_torus2(n)
    assert d.arc_count == n
    assert len(d.crossings) == n
    for i, c in enumerate(d.crossings):
        assert c.over == (i + 1) % n
        assert set(c.under) == {i % n, (i + 2) % n} or c.under[0] == c.under[1]
    assert even_under_parity(d)


def test_double_twist_structure():
    d = build_double_twist(2, 2)
    assert d.arc_count == 4
    assert len(d.crossings) == 4
    assert even_under_parity(d)
    assert double_twist_arc_values(2, 2) == (0, 1, 2, 3)
    assert double_twist_arc_values(2, 4) == (0, 1, 2, 3, 5, 7)
    assert d.arc_names == ("a0", "a1", "a2", "a3")
    # the one-anticlockwise-twist case reduces to the torus braid
    assert build_double_twist(4, 1) == build_torus2(5)


@pytest.mark.parametrize("n,l", [(1, 1), (2, 2), (3, 2), (2, 4), (4, 3)])
def test_double_twist_parity_and_size(n, l):
    d = build_double_twist(n, l)
    assert d.arc_count == n + l
    assert len(d.crossings) == n + l
    assert even_under_parity(d)


def test_conway_single_region_is_torus():
    for n in (1, 2, 3):
        assert conway_with_traces((n,))[0] == build_torus2(n)
    # beyond three crossings the plat labeling differs by a relabeling
    swapped = presentation_from_diagram(conway_with_traces((5,))[0]).relabel((1, 0, 2, 3, 4))
    assert swapped.relations == presentation_from_diagram(build_torus2(5)).relations


def test_conway_traces_have_region_lengths():
    d, traces = conway_with_traces((2, 1, 2))
    assert [len(t) for t in traces] == [4, 3, 4]
    assert d.arc_count == 5
    assert len(d.crossings) == 5
    assert even_under_parity(d)


def test_conway_rejects_bad_twists():
    with pytest.raises(ParameterError):
        conway_with_traces(())
    with pytest.raises(ParameterError):
        conway_with_traces((2, 0))


def test_parse_family_spec():
    assert parse_family_spec("trivial").kind == "trivial"
    assert parse_family_spec("torus2:5").params == (5,)
    assert parse_family_spec("dtw:2,4").params == (2, 4)
    assert parse_family_spec("conway:2,1,2").params == (2, 1, 2)
    half = MAX_ARCS // 2
    assert parse_family_spec(f"dtw:{half},{MAX_ARCS - half}").params == (half, MAX_ARCS - half)
    too_big = (f"torus2:{MAX_ARCS + 1}", f"dtw:{half},{MAX_ARCS - half + 1}")
    for bad in ("hopf:2", "torus2", "torus2:x", "dtw:2", "nosuch", "cmln:1,1,2", "pd") + too_big:
        with pytest.raises(ParameterError):
            parse_family_spec(bad)


def test_build_family_dispatch():
    assert build_family(parse_family_spec("hopf")) == build_torus2(2)
    assert build_family(parse_family_spec("twist:3")) == build_double_twist(3, 2)
    assert build_family(parse_family_spec("twist:3")).arc_names == ("a0", "a1", "a2", "a3", "a4")
    assert build_family(parse_family_spec("conway:3")) == build_torus2(3)
    assert build_family(parse_family_spec("conway:2,1,2")) == conway_with_traces((2, 1, 2))[0]


def test_fox_coloring_of_the_trefoil_has_modulus_three():
    assert fox_coloring(build_torus2(3), {0: 0, 1: 1}) == ([0, 1, 2], 3)


def test_fox_coloring_without_crossings_leaves_arcs_unlabeled():
    assert fox_coloring(Diagram(3, ()), {0: 0, 1: 1}) is None
    with pytest.raises(InternalConsistencyError, match="unlabeled"):
        _fox_target(Diagram(3, ()))


def test_fox_coloring_of_the_unknot_holds_over_the_integers():
    # modulus 0: the target is read mod 1
    assert fox_coloring(build_trivial(), {0: 0}) == ([0], 0)
    assert FAMILIES["trivial"].target() == (AltSumSemigroup(Zmod(1), (0,)), (0,), ())


def test_fox_coloring_modulus_is_the_gcd_of_every_residual():
    """A chain labels arcs 0..5 as 0..5 with residual 0; two more crossings
    over arc 0 have residuals 1 + 5 = 6 and 4 + 5 = 9, so m = gcd(6, 9) = 3,
    which no single crossing gives."""
    chain = tuple(crossing(i, i - 1, i + 1) for i in range(1, 5))
    d = Diagram(6, chain + (crossing(0, 1, 5), crossing(0, 4, 5)))
    assert fox_coloring(d, {0: 0, 1: 1}) == ([0, 1, 2, 3, 4, 5], 3)


def rescan_fox_coloring(diagram, anchors):
    """`fox_coloring` as a loop: scan the crossings in order, firing each one
    with its over arc and one under arc labeled, and scan again until a
    scan labels nothing.  Quadratic in the arcs where each scan labels one,
    and kept as the reference for the order the crossings fire in."""
    labels = [anchors.get(arc) for arc in range(diagram.arc_count)]
    progress = True
    while progress:
        progress = False
        for c in diagram.crossings:
            x, z = c.under
            if labels[c.over] is None or (labels[x] is None) == (labels[z] is None):
                continue
            if labels[x] is None:
                x, z = z, x
            labels[z] = 2 * labels[c.over] - labels[x]
            progress = True
    if None in labels:
        return None
    residuals = [
        labels[c.under[0]] + labels[c.under[1]] - 2 * labels[c.over] for c in diagram.crossings
    ]
    return labels, gcd(*residuals)


def test_fox_coloring_keeps_the_scan_order_after_the_first_scan():
    """conway:3,2,2 from the probe's anchors, arcs 5 and 4.  The first two
    scans label arcs 6, 0 and then 1, at crossing 4, which readies crossing
    3 behind it.  In the third scan crossing 0 labels arc 2 with 8,
    readying crossing 1 ahead of it, which labels arc 3 with 2*8 - 3 = 13
    before crossing 3 would give it 2*(-2) - 0 = -4."""
    diagram, traces = conway_with_traces((3, 2, 2))
    assert traces[-1][:2] == [5, 4]
    assert fox_coloring(diagram, {5: 0, 4: 1}) == ([3, -2, 8, 13, 1, 0, 2], 17)


def test_fox_coloring_keeps_the_scan_order_in_the_heap():
    """conway:3,3,2 from the probe's anchors, arcs 6 and 4, needs 4 scans,
    so the heap runs scans 2 and 3.  In scan 2 crossing 4 labels arc 1
    with -4, which readies crossings 0 and 3 behind it: they wait for
    scan 3.  There crossing 0 labels arc 2 with 10, readying crossing 1
    ahead of it, which labels arc 3 with 2*10 - 3 = 17 before crossing 3
    would give it 2*(-4) - (-2) = -6."""
    diagram, traces = conway_with_traces((3, 3, 2))
    assert traces[-1][:2] == [6, 4]
    assert fox_coloring(diagram, {6: 0, 4: 1}) == ([3, -4, 10, 17, 1, -2, 0, 2], 23)


def test_two_scan_colorings_leave_heapq_unimported():
    """The two plain scans finish the probe's coloring of conway:2,1,2, so
    neither it nor the probe call imports heapq in a fresh interpreter;
    conway:3,3,3 needs 4 scans, so its coloring does, and still fires as
    the rescan does."""
    code = (
        "import json, sys\n"
        "from knotgrowth import cli\n"
        "from knotgrowth.diagrams import conway_with_traces, fox_coloring\n"
        "def color(twists):\n"
        "    diagram, traces = conway_with_traces(twists)\n"
        "    return fox_coloring(diagram, {traces[-1][0]: 0, traces[-1][1]: 1})\n"
        "color((2, 1, 2))\n"
        "loaded = ['heapq' in sys.modules]\n"
        "argv = ['probe', '--conjecture', 'cmln', '--params', '2,1,2', '--max-len', '6']\n"
        "assert cli.main(argv) == 0\n"
        "loaded.append('heapq' in sys.modules)\n"
        "coloring = color((3, 3, 3))\n"
        "loaded.append('heapq' in sys.modules)\n"
        "print(json.dumps([loaded, coloring]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        capture_output=True,
        text=True,
        check=True,
    )
    loaded, coloring = json.loads(result.stdout.splitlines()[-1])
    assert loaded == [False, False, True]
    diagram, traces = conway_with_traces((3, 3, 3))
    assert tuple(coloring) == rescan_fox_coloring(diagram, {traces[-1][0]: 0, traces[-1][1]: 1})


def test_a_scan_that_labels_nothing_ends_the_coloring():
    """Two disjoint trefoils, anchored on the first: scan 0 labels its third
    arc and scan 1 labels nothing, so the coloring returns None there, in a
    fresh interpreter, without importing heapq."""
    code = (
        "import json, sys\n"
        "from knotgrowth.diagrams import Diagram, crossing, fox_coloring\n"
        "trefoils = [crossing(s + (i + 2) % 3, s + i, s + (i + 1) % 3)\n"
        "            for s in (0, 3) for i in range(3)]\n"
        "coloring = fox_coloring(Diagram(6, tuple(trefoils)), {0: 0, 1: 1})\n"
        "print(json.dumps([coloring, 'heapq' in sys.modules]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(result.stdout.splitlines()[-1]) == [None, False]


@st.composite
def anchored_diagrams(draw):
    """A diagram of up to 12 crossings on up to 8 arcs, any arc at any slot,
    and up to 3 anchor labels."""
    arc_count = draw(st.integers(1, 8))
    arc = st.integers(0, arc_count - 1)
    triples = draw(st.lists(st.tuples(arc, arc, arc), max_size=12))
    anchors = draw(st.dictionaries(arc, st.integers(-5, 5), max_size=3))
    return Diagram(arc_count, tuple(crossing(*t) for t in triples)), anchors


@settings(max_examples=400, deadline=None)
@given(anchored_diagrams())
def test_fox_coloring_fires_as_the_rescan_does(case):
    diagram, anchors = case
    assert fox_coloring(diagram, anchors) == rescan_fox_coloring(diagram, anchors)


def test_fox_coloring_of_conway_diagrams_is_the_rescan():
    """From the family anchors (0, 1) on arcs 0 and 1, from the probe's on
    the last twist region's first two arcs, and from `fox_bounds`' on the
    first crossing whose over arc is not one of its under arcs.  Of the
    three-region tuples with a 5 and no entry above it, 43 of 61 need 3 to
    6 scans from the probe's anchors, so they reach the heap."""
    tuples = [t for length in range(1, 5) for t in itertools.product(range(1, 5), repeat=length)]
    tuples += [t for t in itertools.product(range(1, 6), repeat=3) if 5 in t]
    for twists in tuples:
        diagram, traces = conway_with_traces(twists)
        rules = [{0: 0, 1: 1}, {traces[-1][0]: 0, traces[-1][1]: 1}]
        first = next((c for c in diagram.crossings if c.over not in c.under), None)
        if first is not None:
            rules.append({first.under[0]: 0, first.over: 1})
        for anchors in rules:
            want = rescan_fox_coloring(diagram, anchors)
            assert fox_coloring(diagram, anchors) == want, (twists, anchors)


def test_fox_coloring_of_a_long_probe_diagram_is_not_quadratic():
    # from these anchors full scans label one arc of the middle region per
    # scan: rescan_fox_coloring takes 24 s on these 20 004 crossings (2-vCPU
    # host)
    diagram, traces = conway_with_traces((2, 20_000, 2))
    start = time.perf_counter()
    labels, _ = fox_coloring(diagram, {traces[-1][0]: 0, traces[-1][1]: 1})
    assert time.perf_counter() - start < 5
    assert None not in labels


def bareiss_determinant(matrix):
    """The determinant of a square integer matrix by fraction-free
    elimination (Bareiss, Math. Comp. 22, 1968): step k replaces each entry
    below and right of the pivot by a 2x2 minor divided, exactly, by the
    pivot of step k - 1."""
    a = [list(row) for row in matrix]
    sign, previous = 1, 1
    for k in range(len(a) - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, len(a)) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // previous
        previous = a[k][k]
    return sign * a[-1][-1] if a else 1


def test_bareiss_determinant():
    assert bareiss_determinant([]) == 1
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1
    assert bareiss_determinant([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]) == 4
    assert bareiss_determinant([[1, 2], [2, 4]]) == 0


def test_fox_modulus_is_the_determinant():
    """The coloring modulus of conway:a1,...,ak from arcs 0 and 1 is |det| of
    the coloring matrix (2 at the over arc, -1 at each under arc) with its
    first row and column deleted, and the numerator of a1 + 1/(a2 + ...)."""
    for length in range(1, 5):
        for twists in itertools.product(range(1, 4), repeat=length):
            diagram = conway_with_traces(twists)[0]
            _, modulus = fox_coloring(diagram, {0: 0, 1: 1})
            matrix = []
            for c in diagram.crossings:
                row = [0] * diagram.arc_count
                row[c.over] += 2
                for u in c.under:
                    row[u] -= 1
                matrix.append(row[1:])
            determinant = abs(bareiss_determinant(matrix[1:]))
            fraction = Fraction(twists[-1])
            for a in reversed(twists[:-1]):
                fraction = a + 1 / fraction
            # the unknot conway:1 holds over the integers: modulus 0, read mod 1
            assert (modulus or 1) == determinant == fraction.numerator, twists


def hand_written_target(kind, params):
    """The targets as the paper states them: all of Z_n for torus2:n, strong
    for even n, with letter i to i; and the double twist alphabet in
    Z_(ln+1), each arc to its subscript (twist:n being dtw:n,2)."""
    if kind == "trivial":
        return AltSumSemigroup(Zmod(1), (0,)), (0,)
    if kind in ("hopf", "torus2"):
        (n,) = params or (2,)
        return AltSumSemigroup(Zmod(n), tuple(range(n)), strong=n % 2 == 0), tuple(range(n))
    n, l = params if kind == "dtw" else (*params, 2)
    alphabet = dtw_alphabet(n, l)
    return alphabet.semigroup(), tuple(v % alphabet.modulus for v in double_twist_arc_values(n, l))


STATED_SPECS = (
    [("trivial", ()), ("hopf", ())]
    + [("torus2", (n,)) for n in range(1, 60)]
    + [("twist", (n,)) for n in range(1, 30)]
    + [("dtw", (n, l)) for n in range(1, 15) for l in range(1, 15) if n * l % 2 == 0]
)


def test_fox_targets_are_the_hand_written_targets():
    """Every stated family with a knot, or an even-product dtw link, gets the
    target and letter map that the paper writes by hand."""
    for kind, params in STATED_SPECS:
        sg, phi, _ = FAMILIES[kind].target(*params)
        assert (sg, phi) == hand_written_target(kind, params), (kind, params)


def test_target_modulus_is_bounded():
    # torus2 and twist reach MAX_ARCS with moduli far below the bound
    assert FAMILIES["twist"].target(MAX_ARCS)[0].group.modulus == 2 * MAX_ARCS + 1
    assert FAMILIES["torus2"].target(MAX_ARCS)[0].group.modulus == MAX_ARCS
    # dtw:n,l has modulus ln + 1
    with pytest.raises(ParameterError, match=f"modulus {MAX_MODULUS + 1} is above"):
        FAMILIES["dtw"].target(2_000, MAX_MODULUS // 2_000)


def test_merge_arcs_joins_overlapping_groups():
    d = Diagram(4, (crossing(3, 0, 2), crossing(0, 1, 3)), arc_names=("a", "b", "c", "d"))
    merged = _merge_arcs(d, [{0, 1}, {1, 2}], set())
    assert merged.arc_count == 2
    assert merged.crossings == (crossing(1, 0, 0), crossing(0, 0, 1))
    assert merged.arc_names == ("a", "d")


def test_pd_round_trip(tmp_path):
    d = build_double_twist(2, 2)
    path = tmp_path / "d.json"
    path.write_text(json.dumps(diagram_to_dict(d)))
    loaded = load_pd(path)
    assert loaded == d
    with pytest.raises(ParameterError):
        diagram_from_dict({"arcs": 2, "crossings": [{"over": 5, "under": [0, 1]}]})
    with pytest.raises(ParameterError):
        diagram_from_dict({"crossings": []})
    assert diagram_from_dict({"arcs": MAX_ARCS, "crossings": []}).arc_count == MAX_ARCS
    with pytest.raises(ParameterError, match="at most"):
        diagram_from_dict({"arcs": MAX_ARCS + 1, "crossings": []})


MALFORMED_DIAGRAMS = [
    {"arcs": 3, "crossings": None},
    {"arcs": 3, "crossings": {"over": 0, "under": [1, 2]}},
    {"arcs": 1.5, "crossings": []},
    {"arcs": "3", "crossings": []},
    {"arcs": True, "crossings": []},
    {"arcs": 3, "crossings": [None]},
    {"arcs": 3, "crossings": [[0, 1, 2]]},
    {"arcs": 3, "crossings": [{"over": 0}]},
    {"arcs": 3, "crossings": [{"over": 0, "under": "01"}]},
    {"arcs": 3, "crossings": [{"over": 0, "under": [1]}]},
    {"arcs": 3, "crossings": [{"over": 0, "under": [1, 2, 0]}]},
    {"arcs": 3, "crossings": [{"over": 0, "under": [1, 2.0]}]},
    {"arcs": 3, "crossings": [{"over": 0, "under": [1, float("inf")]}]},
    {"arcs": 3, "crossings": [{"over": True, "under": [1, 2]}]},
    {"arcs": 3, "crossings": [{"over": "0", "under": [1, 2]}]},
    [3, []],
    None,
]


@pytest.mark.parametrize("data", MALFORMED_DIAGRAMS)
def test_diagram_from_dict_rejects_malformed(data):
    with pytest.raises(ParameterError):
        diagram_from_dict(data)


# -- moves --------------------------------------------------------------------


def test_r1_insert_then_remove():
    tre = build_torus2(3)
    for end in (0, 1):
        kinked = apply_reidemeister(tre, ReidemeisterMove("r1", arc=0, end=end))
        assert kinked.arc_count == 4
        assert len(kinked.crossings) == 4
        restored = apply_reidemeister(kinked, ReidemeisterMove("r1", "remove", crossings=(3,)))
        assert restored == tre


def test_r1_on_closed_arc():
    knot = apply_reidemeister(build_trivial(), ReidemeisterMove("r1", arc=0))
    assert knot.arc_count == 2
    assert knot.crossings == (Crossing(1, (0, 1)),)
    # the formal split leaves arc 0 with a single under-endpoint
    assert not even_under_parity(knot)
    unkinked = apply_reidemeister(knot, ReidemeisterMove("r1", "remove", crossings=(0,)))
    assert unkinked == build_trivial()
    with pytest.raises(MoveError):
        apply_reidemeister(build_trivial(), ReidemeisterMove("r1", arc=0, end=1))


def test_r2_insert_then_remove():
    tre = build_torus2(3)
    pushed = apply_reidemeister(tre, ReidemeisterMove("r2", arc=0, over_arc=1, end=1))
    assert pushed.arc_count == 5
    assert len(pushed.crossings) == 5
    assert pushed.crossings[3].over == 1 and pushed.crossings[4].over == 1
    restored = apply_reidemeister(pushed, ReidemeisterMove("r2", "remove", crossings=(3, 4)))
    assert restored == tre


def test_r2_remove_rejects_non_bigons():
    tre = build_torus2(3)
    with pytest.raises(MoveError):  # over arcs differ
        apply_reidemeister(tre, ReidemeisterMove("r2", "remove", crossings=(0, 1)))
    d = Diagram(4, (crossing(0, 1, 2), crossing(0, 2, 3), crossing(1, 2, 2)))
    # middle arc 2 is used elsewhere
    with pytest.raises(MoveError):
        apply_reidemeister(d, ReidemeisterMove("r2", "remove", crossings=(0, 1)))


def test_r1_remove_requires_kink():
    tre = build_torus2(3)
    with pytest.raises(MoveError):
        apply_reidemeister(tre, ReidemeisterMove("r1", "remove", crossings=(0,)))
    with pytest.raises(MoveError):
        apply_reidemeister(tre, ReidemeisterMove("r1", "remove", crossings=(7,)))


def test_r3_rewrite_and_involution():
    def r3(*crossings):
        return ReidemeisterMove("r3", crossings=crossings)

    d = Diagram(6, (crossing(0, 1, 2), crossing(2, 3, 4), crossing(0, 4, 5)))
    e = apply_reidemeister(d, r3(0, 1, 2))
    assert e.crossings[1] == Crossing(1, (4, 5))
    assert e.crossings[2] == Crossing(0, (3, 4))
    assert apply_reidemeister(e, r3(0, 1, 2)) == d
    # crossing order in the move description is irrelevant
    assert apply_reidemeister(d, r3(2, 0, 1)) == e
    with pytest.raises(MoveError):
        apply_reidemeister(build_torus2(3), r3(0, 1, 2))


def test_move_descriptions_validate():
    with pytest.raises(ParameterError):
        ReidemeisterMove("r9")
    with pytest.raises(ParameterError):
        ReidemeisterMove("r1", "sideways")
    with pytest.raises(ParameterError):
        ReidemeisterMove("r3", "remove")
    tre = build_torus2(3)
    with pytest.raises(MoveError):
        apply_reidemeister(tre, ReidemeisterMove("r1", arc=9))
    with pytest.raises(MoveError):
        apply_reidemeister(tre, ReidemeisterMove("r1", arc=0, end=5))
    with pytest.raises(MoveError):
        apply_reidemeister(tre, ReidemeisterMove("r2", arc=0))
