"""Diagram builders, family specs, custom loading and Reidemeister moves."""

import json
from collections import Counter

import pytest

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
