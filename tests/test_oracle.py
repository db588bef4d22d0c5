"""Bounded congruence closure and the verification reports.

The closure is the load-bearing component, so it is checked against a
reference implementation that shares none of its machinery: the reference
finds merges by exhaustively rescanning every relation in every context and
every pair of equivalent words (cancelling a shared letter, extending by a
letter on either side) until a full pass changes nothing, instead of
propagating a worklist through class nodes.
"""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from knotgrowth import oracle
from knotgrowth.altsum import AltSumSemigroup, Zmod, conjecture_semigroup, dtw_alphabet
from knotgrowth.diagrams import (
    FAMILIES,
    MAX_MODULUS,
    Diagram,
    ReidemeisterMove,
    apply_reidemeister,
    build_double_twist,
    build_family,
    build_torus2,
    build_trivial,
    conway_with_traces,
    crossing,
    double_twist_arc_values,
    fox_coloring,
    fox_target,
    parse_family_spec,
)
from knotgrowth.errors import (
    DomainError,
    InternalConsistencyError,
    ParameterError,
    ResourceBudgetError,
)
from knotgrowth.growth import reidemeister_dimension_check
from knotgrowth.oracle import (
    conjecture_probe,
    diagram_classes,
    enumerate_classes,
    fox_bounds,
    verify_family,
    verify_homomorphism,
    verify_isomorphism,
)
from knotgrowth.presentation import Presentation, presentation_from_diagram


def reference_closure(pres, horizon):
    """Slow fixed-point closure used only to cross-check the real one: the
    root of every word up to the horizon."""
    k = pres.alphabet_size
    parent = {}
    for length in range(1, horizon + 1):
        for w in itertools.product(range(k), repeat=length):
            parent[w] = w

    def find(w):
        while parent[w] != w:
            parent[w] = parent[parent[w]]
            w = parent[w]
        return w

    def union(u, v):
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        if rv < ru:
            ru, rv = rv, ru
        parent[rv] = ru
        return True

    changed = True
    while changed:
        changed = False
        for lhs, rhs in pres.relations:
            need = len(lhs)
            for total in range(need, horizon + 1):
                for i in range(total - need + 1):
                    for pre in itertools.product(range(k), repeat=i):
                        for post in itertools.product(range(k), repeat=total - need - i):
                            if union(pre + lhs + post, pre + rhs + post):
                                changed = True
        for length in range(1, horizon + 1):
            block = list(itertools.product(range(k), repeat=length))
            for u in block:
                for v in block:
                    if u < v and find(u) == find(v):
                        if u[0] == v[0] and union(u[1:], v[1:]):
                            changed = True
                        if u[-1] == v[-1] and union(u[:-1], v[:-1]):
                            changed = True
                        if length < horizon:
                            for a in range(k):
                                if union((a,) + u, (a,) + v):
                                    changed = True
                                if union(u + (a,), v + (a,)):
                                    changed = True
    return {w: find(w) for w in parent}


def reference_partition(pres, horizon):
    """The reference classes of every degree up to the horizon, each sorted,
    listed in colex order of their colex-first words."""
    root = reference_closure(pres, horizon)
    partition = []
    for d in range(1, horizon + 1):
        classes: dict = {}
        words = itertools.product(range(pres.alphabet_size), repeat=d)
        for w in sorted(words, key=lambda w: w[::-1]):
            classes.setdefault(root[w], []).append(w)
        partition.append([sorted(c) for c in classes.values()])
    return partition


def assert_partition_matches_reference(pres, max_len, pad):
    """Counts up to max_len, the partition of the words of every degree up
    to the levels built or, above a free tail, up to max_len, and, above a
    merge-free top level where the closure stops short of the horizon, only
    singleton classes.  Only a free tail stops below max_len."""
    part = enumerate_classes(pres, max_len, pad=pad)
    expected = reference_partition(pres, max_len + pad)
    assert (part._tail == "free" or max_len <= part.levels) and part.levels <= max_len + pad
    assert part.degree_counts == tuple(len(c) for c in expected[:max_len])
    assert_counts_are_roots(part)
    levels = part.levels
    listed = max(levels, max_len) if part._tail == "free" else levels
    assert [part.classes_at_degree(d) for d in range(1, listed + 1)] == expected[:listed]
    assert all(len(c) == 1 for classes in expected[levels:] for c in classes)


def reference_counts(pres, max_len, pad):
    root = reference_closure(pres, max_len + pad)
    return tuple(
        len({root[w] for w in itertools.product(range(pres.alphabet_size), repeat=length)})
        for length in range(1, max_len + 1)
    )


CROSS_CHECK_CASES = [
    (presentation_from_diagram(build_torus2(3)), 2, 2),
    (presentation_from_diagram(build_torus2(3)), 2, 0),
    (presentation_from_diagram(build_torus2(2)), 3, 2),
    (presentation_from_diagram(build_double_twist(2, 2)), 2, 2),
    (presentation_from_diagram(build_torus2(4)), 2, 2),
    (Presentation(2, ()), 3, 1),  # free on two letters
    (Presentation(2, (((0, 0), (0, 1)),)), 3, 2),  # collapses to one letter
    (Presentation(1, ()), 4, 0),
    (Presentation(3, (((0,), (1,)),)), 3, 1),  # a length-1 relation
    (Presentation(2, (((0, 0, 1), (1, 0, 0)),)), 4, 1),  # a length-3 relation
    (Presentation(3, (((2,), (1,)), ((0, 1, 2), (2, 1, 0)))), 3, 2),  # both
    # a length-4 relation: levels 1-3 merge nothing, and their left rows
    # are first read when level 4 merges
    (Presentation(2, (((0, 1, 1, 0), (1, 0, 0, 1)),)), 4, 2),
    # and cancelled down to a = b through those rows
    (Presentation(2, (((0, 0, 0, 1), (0, 0, 0, 0)),)), 4, 2),
    # aa = ba forces a = b by right cancellation alone
    (Presentation(2, (((0, 0), (1, 0)),)), 3, 2),
]


def assert_counts_are_roots(part):
    """Each degree count of a level built, kept from merge counters, is the
    number of roots (negative entries) in that level's slice of the
    union-find."""
    parent, k = part._uf.parent, part.alphabet_size
    for d, count in enumerate(part.degree_counts[:part.levels], 1):
        lo = part._base[d]
        assert count == sum(p < 0 for p in parent[lo:lo + k * part._width[d]])


@pytest.mark.parametrize("pres,max_len,pad", CROSS_CHECK_CASES)
def test_closure_matches_reference(pres, max_len, pad):
    part = enumerate_classes(pres, max_len, pad=pad)
    assert part.degree_counts == reference_counts(pres, max_len, pad)
    assert_counts_are_roots(part)


@st.composite
def small_closures(draw):
    """A presentation on at most 3 letters with relations of length 1 to 4,
    a window and a pad whose word universe the reference can afford.  Levels
    below the shortest relation merge nothing, and levels that merge are
    built over them."""
    k = draw(st.integers(1, 3))
    words = st.integers(1, 4).flatmap(
        lambda n: st.tuples(*[st.tuples(*[st.integers(0, k - 1)] * n)] * 2)
    )
    relations = tuple(draw(st.lists(words, max_size=3)))
    pad = draw(st.integers(0, 3))
    max_len = draw(st.integers(1, 4))
    longest = max((len(lhs) for lhs, _ in relations), default=1)
    assume(max_len + pad >= longest and k ** (max_len + pad) <= 250)
    return Presentation(k, relations), max_len, pad


@given(small_closures())
@settings(max_examples=60, deadline=None)
def test_closure_matches_reference_on_random_presentations(case):
    assert_partition_matches_reference(*case)


@st.composite
def diagram_closures(draw):
    """The relations xy = yz and yx = zy of random crossings (over arc y,
    under arcs x and z) on at most 4 arcs.  Classes merge at degree 2, so
    every later level is grown over merged classes."""
    k = draw(st.integers(1, 4))
    arc = st.integers(0, k - 1)
    crossings = draw(st.lists(st.tuples(arc, arc, arc), min_size=1, max_size=4))
    relations = tuple(
        relation
        for x, y, z in crossings
        for relation in (((x, y), (y, z)), ((y, x), (z, y)))
    )
    pad = draw(st.integers(0, 3))
    max_len = draw(st.integers(1, 5))
    assume(max_len + pad >= 2 and k ** (max_len + pad) <= 250)
    return Presentation(k, relations), max_len, pad


@given(diagram_closures())
@settings(max_examples=60, deadline=None)
def test_closure_matches_reference_on_diagram_presentations(case):
    assert_partition_matches_reference(*case)


def test_conway_counts_with_many_letters():
    # 20 letters; from degree 4 on the classes number 701, the determinant
    pres = presentation_from_diagram(build_family(parse_family_spec("conway:5,5,5,5")))
    part = enumerate_classes(pres, 5, budget=10**10)
    assert part.degree_counts == (20, 237, 620, 701, 701)


def test_free_and_collapsing_counts():
    free2 = enumerate_classes(Presentation(2, ()), 4)
    assert free2.degree_counts == (2, 4, 8, 16)
    # aa = ab forces a = b by left cancellation
    collapsed = enumerate_classes(Presentation(2, (((0, 0), (0, 1)),)), 3, pad=1)
    assert collapsed.degree_counts == (1, 1, 1)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_free_presentation_keeps_every_word_apart(k):
    part = enumerate_classes(Presentation(k, ()), 6)
    assert part.degree_counts == tuple(k**d for d in range(1, 7))
    for d in range(1, 5):
        words = sorted(itertools.product(range(k), repeat=d), key=lambda w: w[::-1])
        assert part.classes_at_degree(d) == [[w] for w in words]


def test_hopf_counts_grow_by_one():
    part = enumerate_classes(presentation_from_diagram(build_torus2(2)), 16)
    assert part.degree_counts == tuple(d + 1 for d in range(1, 17))


def traced_bytes_per_node(pres, max_len, pad=2):
    """The closure's peak traced memory per union-find node."""
    tracemalloc.start()
    try:
        part = enumerate_classes(pres, max_len, pad=pad, budget=10**13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return len(part._uf.parent), peak / len(part._uf.parent)


def test_merging_closure_memory_per_node():
    """A closure that merges at every level also stores births, slots and
    left rows once per class, not once per node (47.3 bytes, Python 3.11)."""
    pres = presentation_from_diagram(build_family(parse_family_spec("conway:5,5,5,5")))
    nodes, per_node = traced_bytes_per_node(pres, 7)
    assert nodes == 128740
    assert per_node <= 56


def test_trefoil_needs_padding_at_degree_two():
    """aa ~ bb has no length-2 derivation: the witness chain runs through
    length 3 (aac ~ acb ~ cbb and peers) and cancels back down."""
    pres = presentation_from_diagram(build_torus2(3))
    assert enumerate_classes(pres, 2, pad=0).degree_counts == (3, 5)
    assert enumerate_classes(pres, 2, pad=1).degree_counts == (3, 3)
    assert enumerate_classes(pres, 2, pad=2).degree_counts == (3, 3)


def test_merge_free_top_level_stops_the_closure():
    """A top level at or past every relation, where nothing merged, settles
    every level above it with no merge: a free presentation builds its
    letters alone, and counts each degree above as k times the one below."""
    part = enumerate_classes(Presentation(3, ()), 10)
    assert (part.horizon, part.levels) == (12, 1)
    assert len(part._uf.parent) == 3
    assert part.degree_counts == tuple(3**d for d in range(1, 11))
    words = sorted(itertools.product(range(3), repeat=10), key=lambda w: w[::-1])
    assert part.classes_at_degree(10) == [[w] for w in words]
    with pytest.raises(DomainError):
        part.classes_at_degree(11)


def test_free_tail_is_counted_in_linear_time():
    """A million degrees above one merge-free letter are counted, not built:
    grown one tuple at a time, the counts took seconds."""
    part = enumerate_classes(Presentation(1, ()), 10**6, budget=10**7)
    assert (part.levels, len(part._uf.parent)) == (1, 1)
    assert part.degree_counts == (1,) * 10**6


def test_relation_longer_than_max_len_keeps_the_pad():
    """aaa ~ aba merges nothing at degrees 1 and 2, but seeded at degree 3
    it cancels down to a ~ b: a merge-free top level below the longest
    relation does not stop the closure."""
    part = enumerate_classes(Presentation(2, (((0, 0, 0), (0, 1, 0)),)), 2, pad=1)
    assert (part.horizon, part.levels) == (3, 3)
    assert part.degree_counts == (1, 1)


def test_partition_queries():
    pres = presentation_from_diagram(build_torus2(3))
    part = enumerate_classes(pres, 2, pad=1)
    assert part.classes_at_degree(1) == [[(0,)], [(1,)], [(2,)]]
    # aa = bb = cc; colex-first words aa, ba, ca, so lex or colex-last
    # order would list the classes differently
    assert part.classes_at_degree(2) == [
        [(0, 0), (1, 1), (2, 2)],
        [(0, 2), (1, 0), (2, 1)],
        [(0, 1), (1, 2), (2, 0)],
    ]
    for degree in (0, 4):
        with pytest.raises(DomainError):
            part.classes_at_degree(degree)


def test_representative_is_colex_first():
    # colex order reads the last letter first, so the class {ac, ba} is
    # listed where ba is, before ca and ab
    part = enumerate_classes(Presentation(3, (((0, 2), (1, 0)),)), 2, pad=0)
    assert part.classes_at_degree(2) == [
        [(0, 0)], [(0, 2), (1, 0)], [(2, 0)], [(0, 1)], [(1, 1)], [(2, 1)], [(1, 2)], [(2, 2)]
    ]
    part = enumerate_classes(Presentation(2, (((0, 1), (1, 0)),)), 3, pad=0)
    assert part.classes_at_degree(2) == [[(0, 0)], [(0, 1), (1, 0)], [(1, 1)]]
    # classes are listed in colex order of their colex-first words
    assert part.classes_at_degree(3) == [
        [(0, 0, 0)],
        [(0, 0, 1), (0, 1, 0), (1, 0, 0)],
        [(0, 1, 1), (1, 0, 1), (1, 1, 0)],
        [(1, 1, 1)],
    ]


def test_closure_argument_validation():
    pres = presentation_from_diagram(build_torus2(3))
    with pytest.raises(ParameterError):
        enumerate_classes(pres, 0)
    with pytest.raises(ParameterError):
        enumerate_classes(pres, 1, pad=-1)
    with pytest.raises(ParameterError):
        enumerate_classes(pres, 1, pad=0)  # horizon 1 cannot hold the relations
    with pytest.raises(ResourceBudgetError) as err:
        enumerate_classes(pres, 3, pad=2, budget=10)
    assert err.value.required == 3 + 9 + 27 + 81 + 243
    assert err.value.budget == 10


def test_universe_count_prints_up_to_the_digit_limit():
    # (3^(H+1) - 3)/2 has 4 300 digits at H = 9012 and 4 301 at H = 9013;
    # the first is given as an int, the second in closed form, unbuilt
    pres = presentation_from_diagram(build_torus2(3))
    with pytest.raises(ResourceBudgetError) as err:
        enumerate_classes(pres, 9010, pad=2)
    assert err.value.required == (3**9013 - 3) // 2 < 10**4300
    with pytest.raises(ResourceBudgetError) as err:
        enumerate_classes(pres, 9011, pad=2)
    assert err.value.required == "(3^9014 - 3)/2"
    # one letter: the universe is the horizon
    with pytest.raises(ResourceBudgetError) as err:
        enumerate_classes(presentation_from_diagram(build_trivial()), 10**6, budget=10)
    assert err.value.required == 10**6 + 2


# -- verification -------------------------------------------------------------


def test_verify_homomorphism():
    pres = presentation_from_diagram(build_torus2(3))
    sg = AltSumSemigroup(Zmod(3), (0, 1, 2))
    assert verify_homomorphism(pres, (0, 1, 2), sg)
    assert not verify_homomorphism(pres, (0, 0, 1), sg)
    with pytest.raises(ParameterError):
        verify_homomorphism(pres, (0, 1), sg)
    with pytest.raises(ParameterError):
        verify_homomorphism(pres, (0, 1, 7), sg)


def test_homomorphism_check_reads_the_even_count(monkeypatch):
    """In Z_4 the words 1 1 and 0 0 both have alternating sum 0, with no
    even letter and with two: a relation between them holds in AS(Z_4)
    and not in SAS(Z_4).  The states of a relation length are checked
    against that level."""
    pres = Presentation(2, (((0, 0), (1, 1)),))
    sas = AltSumSemigroup(Zmod(4), (0, 1, 2, 3), strong=True)
    assert verify_homomorphism(pres, (1, 0), AltSumSemigroup(Zmod(4), (0, 1, 2, 3)))
    assert not verify_homomorphism(pres, (1, 0), sas)
    assert verify_homomorphism(pres, (1, 3), sas)
    monkeypatch.setattr(sas._levels, "level", lambda t: 0)  # no state realized
    with pytest.raises(InternalConsistencyError, match="length 2 .* has state 0"):
        verify_homomorphism(pres, (1, 3), sas)


@st.composite
def letter_maps_and_relations(draw):
    """A letter map into AS or SAS over Z_m, and relations whose right side
    has any image, the left side's alternating sum, or its state (the sum
    and, in SAS, the even count)."""
    m = draw(st.integers(1, 8))
    strong = draw(st.booleans())
    generators = sorted(draw(st.sets(st.integers(0, m - 1), min_size=1)))
    k = draw(st.integers(1, 4))
    phi = tuple(draw(st.lists(st.sampled_from(generators), min_size=k, max_size=k)))
    relations = []
    for length in draw(st.lists(st.integers(1, 4), max_size=4)):
        lhs = tuple(draw(st.lists(st.integers(0, k - 1), min_size=length, max_size=length)))
        keep = draw(st.sampled_from([lambda image: (), lambda image: image[0], tuple]))
        target = keep(image_of(phi, m, True, lhs))
        relations.append((lhs, draw(st.sampled_from([
            w for w in itertools.product(range(k), repeat=length)
            if keep(image_of(phi, m, True, w)) == target
        ]))))
    return Presentation(k, tuple(relations)), phi, AltSumSemigroup(Zmod(m), generators, strong)


@given(letter_maps_and_relations())
@example((
    Presentation(2, (((0, 0), (1, 1)),)),
    (1, 0),
    AltSumSemigroup(Zmod(4), (0, 1, 2, 3), strong=True),
))
@settings(max_examples=100, deadline=None)
def test_homomorphism_check_matches_class_of_per_side(case):
    pres, phi, sg = case
    of = sg.class_of
    assert verify_homomorphism(pres, phi, sg) == all(
        of(tuple(phi[x] for x in lhs)) == of(tuple(phi[x] for x in rhs))
        for lhs, rhs in pres.relations
    )


def test_verify_torus_knot_and_link():
    knot = verify_family("torus2:3", 4)
    assert knot.all_verified
    assert [d.class_count for d in knot.degrees] == [3, 3, 3, 3]
    assert [d.element_count for d in knot.degrees] == [3, 3, 3, 3]
    assert knot.semigroup.startswith("AS(")
    link = verify_family("torus2:4", max_len=3)
    assert link.all_verified
    assert [d.class_count for d in link.degrees] == [4, 6, 8]
    assert link.semigroup.startswith("SAS(")


def test_verify_double_twist_and_twist():
    rep = verify_family("dtw:2,2", 3)
    assert rep.all_verified
    assert [d.class_count for d in rep.degrees] == [4, 5, 5]
    assert rep.warnings == ()
    odd = verify_family("dtw:1,1", max_len=2)
    assert odd.warnings  # nl odd: outside the stated hypothesis
    tw = verify_family("twist:3", 3)
    assert tw.description == "twist:3"
    assert tw.all_verified
    assert verify_family("trivial", 4).all_verified


def test_verified_needs_onto_letter_map():
    # a single free letter maps homomorphically into AS(Z3, Z3) but covers
    # one generator of three; element counts are no longer lower bounds
    pres = presentation_from_diagram(build_trivial())
    sg = AltSumSemigroup(Zmod(3), (0, 1, 2))
    report = verify_isomorphism(pres, (0,), sg, 2)
    assert report.homomorphism
    assert not report.all_verified
    assert all(d.verdict == "unresolved" for d in report.degrees)
    assert any("does not cover" in w for w in report.warnings)
    # degree 2 lies above the free tail at level 1: one class, one image
    assert [(d.class_count, d.element_count, d.aligned) for d in report.degrees] == [
        (1, 3, True), (1, 3, True)
    ]


@pytest.mark.parametrize("spec", ["trivial", "torus2:1"])
def test_free_presentations_verify_above_their_tail(spec):
    """Neither has a relation (the one crossing of torus2:1 is on one arc),
    so their closures stop at the free tail on their letter, and the image
    check goes on above it: every degree to max len 6 stays verified."""
    certified, full, built = reports_with_and_without_bounds(lambda: verify_family(spec, 6))
    assert built == [1, 1]
    assert certified.all_verified
    assert [(d.class_count, d.element_count, d.aligned) for d in certified.degrees] == [
        (1, 1, True)
    ] * 6
    assert certified.to_json_dict() == full.to_json_dict()


def test_free_tail_image_check_finds_collisions():
    """Above the free tail of two letters, the words 00 and 11 both map to
    0 in AS(Z_2): the degrees above the letters are not aligned."""
    sg = AltSumSemigroup(Zmod(2), (0, 1))
    report = verify_isomorphism(Presentation(2, ()), (0, 1), sg, 4)
    assert [(d.class_count, d.element_count, d.aligned, d.verdict) for d in report.degrees] == [
        (2, 2, True, "verified"),
        (4, 2, False, "unresolved"),
        (8, 2, False, "unresolved"),
        (16, 2, False, "unresolved"),
    ]


def test_undercount_with_onto_map_is_internal_error(monkeypatch):
    pres = presentation_from_diagram(build_torus2(3))
    sg = AltSumSemigroup(Zmod(3), (0, 1, 2))
    monkeypatch.setattr(AltSumSemigroup, "count_elements", lambda self, t: 99)
    with pytest.raises(InternalConsistencyError):
        verify_isomorphism(pres, (0, 1, 2), sg, 2)


def test_image_check_catches_over_merge(monkeypatch):
    # (0, 0, 1) breaks the relations, so the closure's classes are coarser
    # than the map's fibres; with the homomorphism check forced to pass, the
    # image check must see a class with two images
    pres = presentation_from_diagram(build_torus2(3))
    sg = AltSumSemigroup(Zmod(3), (0, 1, 2))
    monkeypatch.setattr(oracle, "verify_homomorphism", lambda *args: True)
    with pytest.raises(InternalConsistencyError, match="maps to"):
        verify_isomorphism(pres, (0, 0, 1), sg, 2)


def test_budget_is_checked_before_the_letter_map(monkeypatch):
    # the closure refuses an over-budget case before the letter map is
    # checked, which for a large family costs more than the refusal
    def fail(*args):
        raise ParameterError("the letter map was checked before the budget")

    monkeypatch.setattr(oracle, "verify_homomorphism", fail)
    with pytest.raises(ResourceBudgetError):
        verify_family("torus2:7", 5, budget=10)


def image_of(phi, m, strong, word):
    """The alternating sum in Z_m and the even-letter count (0 unless
    strong) of a word's image under the letter map, from the definitions:
    b1 - b2 + b3 - ..., and g is even when g = h + h for some h in Z_m."""
    images = [phi[x] for x in word]
    alt = sum(b if j % 2 == 0 else -b for j, b in enumerate(images)) % m
    evens = sum(1 for b in images if m % 2 == 1 or b % 2 == 0) if strong else 0
    return alt, evens


IMAGE_CASES = {
    "torus2:3": lambda: verify_family("torus2:3", 5),
    "torus2:7": lambda: verify_family("torus2:7", 4),
    "torus2:4": lambda: verify_family("torus2:4", 5),  # SAS
    "hopf": lambda: verify_family("hopf", 8),  # SAS
    "dtw:2,2": lambda: verify_family("dtw:2,2", 5),
    "dtw:2,4": lambda: verify_family("dtw:2,4", 4),
    "twist:3": lambda: verify_family("twist:3", 4),
    "trivial": lambda: verify_family("trivial", 5),
    # a homomorphism that is not onto: every letter to 0
    "conway:2,1,2-constant": lambda: verify_isomorphism(
        presentation_from_diagram(build_family(parse_family_spec("conway:2,1,2"))),
        (0,) * 5,
        conjecture_semigroup(2, 1, 2),
        4,
    ),
}


@pytest.mark.parametrize("name", sorted(IMAGE_CASES))
def test_image_check_states_match_birth_words(monkeypatch, name):
    """The state the image check carries for every closure node, at every
    degree, is the image of the node's birth word."""
    partitions, recorded = [], {}
    enumerate_real = oracle.enumerate_classes
    extend_real = AltSumSemigroup.extend_states

    def enumerate_spy(*args, bounds=None, **kwargs):
        # the closure without bounds builds every level up to max_len, or
        # up to a free tail, so the states are compared at every degree up
        # to max_len or the tail
        partitions.append(enumerate_real(*args, **kwargs))
        return partitions[-1]

    def extend_spy(sg, parents, letters, degree):
        recorded[degree] = (sg, letters, extend_real(sg, parents, letters, degree))
        return recorded[degree][2]

    monkeypatch.setattr(oracle, "enumerate_classes", enumerate_spy)
    monkeypatch.setattr(AltSumSemigroup, "extend_states", extend_spy)
    report = IMAGE_CASES[name]()
    (part,) = partitions
    assert report.homomorphism
    assert sorted(recorded) == list(range(1, report.max_len + 1))
    for degree, (sg, phi, states) in recorded.items():
        assert phi == report.phi
        if degree > part.levels:
            # above a free tail every class is one node
            assert len(states) == part.degree_counts[degree - 1]
            continue
        m = sg.group.modulus
        assert len(states) == part.alphabet_size * part._width[degree]
        for n, state in enumerate(states, part._base[degree]):
            alt, evens = image_of(phi, m, sg.strong, part._birth_word(n, degree))
            assert state == alt + 2 * m * evens, (degree, n)


@st.composite
def mapped_presentations(draw):
    """A letter map into AS or SAS over Z_m, drawn first, then relations it
    respects: both sides of each have one length, alternating sum and even
    count.  The map covers the generators unless extra ones are drawn."""
    m = draw(st.integers(1, 6))
    strong = draw(st.booleans())
    k = draw(st.integers(1, 3))
    phi = tuple(draw(st.lists(st.integers(0, m - 1), min_size=k, max_size=k)))
    generators = set(phi) | draw(st.sets(st.integers(0, m - 1), max_size=1))
    relations = []
    for _ in range(draw(st.integers(0, 3))):
        length = draw(st.integers(1, 3))
        lhs = tuple(draw(st.lists(st.integers(0, k - 1), min_size=length, max_size=length)))
        target = image_of(phi, m, True, lhs)
        rhs = draw(st.sampled_from([
            w for w in itertools.product(range(k), repeat=length)
            if image_of(phi, m, True, w) == target
        ]))
        relations.append((lhs, rhs))
    pad = draw(st.integers(0, 3))
    max_len = draw(st.integers(1, 4))
    longest = max((len(lhs) for lhs, _ in relations), default=1)
    assume(max_len + pad >= longest and k ** (max_len + pad) <= 250)
    sg = AltSumSemigroup(Zmod(m), tuple(generators), strong)
    return Presentation(k, tuple(relations)), phi, sg, max_len, pad


@given(mapped_presentations())
@settings(max_examples=60, deadline=None)
def test_verdicts_match_a_per_word_image_check(case):
    """aligned and the verdicts against the image of every word of every
    reference class, and the element counts against every word over the
    generators."""
    pres, phi, sg, max_len, pad = case
    report = verify_isomorphism(pres, phi, sg, max_len, pad=pad)
    root = reference_closure(pres, max_len + pad)
    m, onto = sg.group.modulus, set(phi) == set(sg.generators)
    expected = []
    for degree in range(1, max_len + 1):
        images: dict = {}
        for w in itertools.product(range(pres.alphabet_size), repeat=degree):
            images.setdefault(root[w], set()).add(image_of(phi, m, sg.strong, w))
        assert all(len(found) == 1 for found in images.values())
        elements = {
            image_of(sg.generators, m, sg.strong, w)
            for w in itertools.product(range(len(sg.generators)), repeat=degree)
        }
        aligned = len(set().union(*images.values())) == len(images)
        verified = onto and aligned and len(images) == len(elements)
        expected.append((len(images), len(elements), aligned,
                         "verified" if verified else "unresolved"))
    assert report.homomorphism
    assert [
        (d.class_count, d.element_count, d.aligned, d.verdict) for d in report.degrees
    ] == expected


def test_reach_beyond_the_word_universe():
    # 7 + ... + 7**14 and 6 + ... + 6**12 words: far past any word-indexed
    # closure, but only a few nodes per degree
    assert verify_family("torus2:7", max_len=12, budget=10**13).all_verified
    assert verify_family("dtw:2,4", max_len=10, budget=10**13).all_verified


# -- stopping the closure on a certificate ------------------------------------


def reports_with_and_without_bounds(run):
    """run() as is, and with verify_isomorphism's closure given no bounds,
    so that it builds every level up to the horizon, or up to a merge-free
    top level; with the closures' levels built."""
    enumerate_real, levels = oracle.enumerate_classes, []

    def closure(bounded):
        def spy(*args, bounds=None, **kwargs):
            partition = enumerate_real(*args, bounds=bounds if bounded else None, **kwargs)
            levels.append(partition.levels)
            return partition
        return spy

    with pytest.MonkeyPatch.context() as m:
        m.setattr(oracle, "enumerate_classes", closure(True))
        certified = run()
        m.setattr(oracle, "enumerate_classes", closure(False))
        full = run()
    return certified, full, levels


TARGET_SPECS = (
    ["trivial", "hopf"]
    + [f"torus2:{n}" for n in range(1, 10)]
    + [f"twist:{n}" for n in range(1, 7)]
    + [f"dtw:{a},{b}" for a, b in itertools.product(range(1, 5), repeat=2)]
)


@pytest.mark.parametrize("spec", TARGET_SPECS)
def test_certified_reports_match_the_full_closure(spec):
    """Stopping the closure early changes no report of a family with a
    stated target, at max len 8 and every pad from 0 to 3."""
    for pad in range(4):
        certified, full, _ = reports_with_and_without_bounds(
            lambda: verify_family(spec, 8, pad=pad, budget=10**40)
        )
        assert certified.to_json_dict() == full.to_json_dict(), pad


@pytest.mark.parametrize(
    "params", itertools.product(range(1, 4), repeat=3), ids=lambda p: "%d,%d,%d" % p
)
def test_certified_probes_match_the_full_closure(params):
    for pad in range(4):
        certified, full, _ = reports_with_and_without_bounds(
            lambda: conjecture_probe(*params, max_len=8, pad=pad, budget=10**40)
        )
        assert certified.to_json_dict() == full.to_json_dict(), pad


@pytest.mark.parametrize("spec", ["dtw:1,1", "dtw:3,3"])
def test_counts_above_their_bounds_keep_the_pad(spec):
    """Where the counts do not meet the bounds, the closure builds its pad
    levels: stopping at max_len would leave degree-2 merges undone.  The
    plain AS target of an odd-product double twist link, on the arc
    subscripts, keeps its counts above their bounds from degree 2 on."""
    n, l = parse_family_spec(spec).params
    pres = presentation_from_diagram(build_double_twist(n, l))
    phi = tuple(v % (l * n + 1) for v in double_twist_arc_values(n, l))
    sg = dtw_alphabet(n, l).semigroup()
    for max_len, pad in itertools.product(range(2, 5), range(4)):
        certified, full, levels = reports_with_and_without_bounds(
            lambda: verify_isomorphism(pres, phi, sg, max_len, pad=pad)
        )
        assert certified.to_json_dict() == full.to_json_dict(), (max_len, pad)
        assert levels == [max_len + pad] * 2
        assert [d.verdict for d in certified.degrees[1:]] == ["unresolved"] * (max_len - 1)


@given(mapped_presentations())
@settings(max_examples=60, deadline=None)
def test_certified_reports_match_the_full_closure_on_random_presentations(case):
    pres, phi, sg, max_len, pad = case
    certified, full, _ = reports_with_and_without_bounds(
        lambda: verify_isomorphism(pres, phi, sg, max_len + 4, pad=pad, budget=10**40)
    )
    assert certified.to_json_dict() == full.to_json_dict()


def test_certificate_stops_a_deep_closure_at_level_three():
    # every class at degree 3 holds a word ending in one letter, and the
    # counts of degrees 1 and 2 meet the target's: degrees 4..40 follow.
    # Level 2 holds 9 classes in columns of 6 nodes, so the certificate
    # needs level 3, which is built in full once level 2 meets its bound
    certified, full, levels = reports_with_and_without_bounds(
        lambda: verify_family("dtw:2,4", 40, budget=10**40)
    )
    assert levels == [3, 42]
    assert certified.all_verified
    assert certified.to_json_dict() == full.to_json_dict()


def test_link_counts_that_meet_their_bounds_skip_the_pad():
    # a link's counts grow, so no letter column reaches every class, but
    # counts that meet their lower bounds up to max_len are final
    certified, full, levels = reports_with_and_without_bounds(
        lambda: verify_family("hopf", 16)
    )
    assert levels == [16, 18]
    assert certified.all_verified
    assert certified.to_json_dict() == full.to_json_dict()


def test_no_bounds_builds_every_level():
    pres = presentation_from_diagram(build_torus2(7))
    part = enumerate_classes(pres, 5)
    assert (part.horizon, part.levels) == (7, 7)
    bounded = enumerate_classes(pres, 5, bounds=(7,) * 5)
    assert (bounded.horizon, bounded.levels) == (7, 2)
    assert bounded.degree_counts == part.degree_counts == (7,) * 5
    with pytest.raises(DomainError):
        bounded.classes_at_degree(3)
    with pytest.raises(ParameterError):
        enumerate_classes(pres, 5, bounds=(7,) * 4)


def test_certified_degree_off_the_target_count_is_internal_error(monkeypatch):
    # above the levels built the class count is the certificate's; a target
    # whose count changes there breaks step (c), which AS and SAS keep
    count_real = AltSumSemigroup.count_elements
    monkeypatch.setattr(
        AltSumSemigroup, "count_elements", lambda sg, t: count_real(sg, t) + (t == 6)
    )
    with pytest.raises(InternalConsistencyError, match="certificate"):
        verify_family("torus2:7", 6, budget=10**40)


def test_report_json_shape():
    report = verify_family("dtw:2,2", 3)
    data = report.to_json_dict()
    assert data["all_verified"] is True
    assert data["phi"] == [0, 1, 2, 3]
    assert [d["degree"] for d in data["degrees"]] == [1, 2, 3]
    assert set(data["degrees"][0]) == {"degree", "classes", "elements", "aligned", "verdict"}


# -- conjecture probe ----------------------------------------------------------


def test_probe_verifies_smallest_odd_case():
    report = conjecture_probe(1, 1, 2)
    assert report.all_verified
    assert report.homomorphism
    assert report.phi is not None
    assert sorted(report.phi) == [0, 1, 2, 3]


def test_probe_reports_findings_on_even_modulus():
    # the natural anchors give no labeling by generators, which the probe
    # notes after the even modulus
    report = conjecture_probe(2, 1, 2)
    assert not report.all_verified
    assert report.warnings == (
        "modulus 8 is even; the conjecture is stated for odd moduli",
        "no arc labeling satisfies the crossing constraints with values in the "
        "generator set",
    )


def test_probe_without_anchor_search():
    # the probe tries only the natural anchors (0, 1); where they fail it
    # reports no letter map rather than searching other anchor pairs
    report = conjecture_probe(2, 1, 2)
    assert report.phi is None
    assert not report.homomorphism
    # with no letter map, every degree is unresolved and nothing is aligned
    assert [(d.class_count, d.element_count, d.aligned, d.verdict) for d in report.degrees] == [
        (5, 5, False, "unresolved"),
        (11, 8, False, "unresolved"),
        (16, 8, False, "unresolved"),
    ]


@pytest.mark.parametrize(
    "params", itertools.product(range(1, 5), repeat=3), ids=lambda p: "%d,%d,%d" % p
)
def test_probe_letter_map_is_a_nonconstant_coloring(params):
    """A letter map the probe reports takes at least two values and solves
    phi(x) + phi(z) = 2 phi(y) at every crossing; a constant map solves
    every crossing but is no letter bijection."""
    phi = conjecture_probe(*params, max_len=1).phi
    if phi is None:
        return
    modulus = conjecture_semigroup(*params).group.modulus
    assert len(set(phi)) >= 2
    for c in conway_with_traces(params)[0].crossings:
        x, z = c.under
        assert (phi[x] + phi[z] - 2 * phi[c.over]) % modulus == 0, c


def test_probe_generators_match_the_arcs_in_number():
    """The conjectured set is 0..n+1, then jn+1 for 2 <= j <= l+1, then
    (kl+1)n+k for 2 <= k <= m-1, all distinct and below (ml+1)n+m (for
    m = 1, (l+1)n+1 is 0), so it has m+l+n values, as conway:m,l,n has
    arcs."""
    for m, l, n in itertools.product(range(1, 21), repeat=3):
        assert len(conjecture_semigroup(m, l, n).generators) == m + l + n, (m, l, n)
    for m, l, n in itertools.product(range(1, 16), repeat=3):
        assert conway_with_traces((m, l, n))[0].arc_count == m + l + n, (m, l, n)


def test_letter_map_that_breaks_a_relation_resolves_nothing():
    # (0, 0, 1) breaks the trefoil's relation ab = bc: a - b is 0 in Z_3, b - c is 2
    pres = presentation_from_diagram(build_torus2(3))
    report = verify_isomorphism(pres, (0, 0, 1), AltSumSemigroup(Zmod(3), (0, 1, 2)), 3)
    assert not report.homomorphism
    assert report.warnings == ("the letter map does not respect the relations",)
    assert [(d.aligned, d.verdict) for d in report.degrees] == [(False, "unresolved")] * 3
    assert not report.all_verified


def test_conway_family_verifies_against_its_fox_target():
    report = verify_family("conway:2,1,2", 2)
    assert report.description == "conway:2,1,2"
    assert report.semigroup == "SAS(Zmod(8), {0, 1, 3, 6, 7})"
    assert [(d.class_count, d.element_count, d.verdict) for d in report.degrees] == [
        (5, 5, "verified"),
        (11, 11, "verified"),
    ]
    assert report.warnings == (
        "the target is Vernitski's conjecture, checked one diagram and one degree at a time",
    )


@pytest.mark.parametrize("spec, max_len", [
    ("conway:2,1,2", 8), ("conway:3,1,3", 8), ("conway:2,3,2", 6), ("conway:2,2,2", 6),
    ("conway:4,4,4,4", 6),
])
def test_two_bridge_targets_verify_every_degree(spec, max_len):
    # conway:4,4,4,4 at max len 6 counts 4.6e9 words in its universe, past
    # the default budget, though its certificate stops the closure early
    report = verify_family(spec, max_len, budget=10**20)
    assert report.all_verified
    assert len(report.degrees) == max_len


def test_probe_agrees_with_direct_dtw_check():
    # cmln(1, 1, n) closes the same knot as dtw(n+1, 1)-style small cases;
    # at least the (1,1,2) probe target semigroup matches dtw(2,2)'s
    assert conjecture_probe(1, 1, 2).semigroup == repr(dtw_alphabet(2, 2).semigroup())


# -- bounding a diagram's closure by its own Fox target --------------------------


def relabelled(diagram, perm):
    """The diagram with arc i renamed perm[i]."""
    return Diagram(diagram.arc_count, tuple(
        crossing(perm[c.over], perm[c.under[0]], perm[c.under[1]]) for c in diagram.crossings
    ))


SMALL_FAMILIES = ("hopf", "torus2:1", "torus2:3", "torus2:4", "twist:1", "dtw:1,1", "dtw:2,1")


@st.composite
def small_diagrams(draw):
    """A random diagram on one to three arcs, or a family diagram with its
    arcs relabelled."""
    if draw(st.booleans()):
        arcs = draw(st.integers(1, 3))
        arc = st.integers(0, arcs - 1)
        count = draw(st.integers(0, 4))
        return Diagram(arcs, tuple(
            crossing(draw(arc), draw(arc), draw(arc)) for _ in range(count)
        ))
    diagram = build_family(parse_family_spec(draw(st.sampled_from(SMALL_FAMILIES))))
    return relabelled(diagram, draw(st.permutations(range(diagram.arc_count))))


@given(small_diagrams(), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_fox_bounded_counts_match_the_unbounded_closure_and_the_reference(diagram, arc):
    """classes and both sides of an R1 move, each closure bounded by its
    own diagram's Fox target, count what the closure to the full horizon
    and the word-by-word reference count at pad 2."""
    moved = apply_reidemeister(
        diagram, ReidemeisterMove("r1", arc=arc % diagram.arc_count)
    )
    max_len = 2 if moved.arc_count ** 4 <= 256 else 1
    report = reidemeister_dimension_check(diagram, moved, max_len)
    sides = (
        (diagram, tuple(d.left_count for d in report.degrees)),
        (moved, tuple(d.right_count for d in report.degrees)),
    )
    for side, counts in sides:
        pres = presentation_from_diagram(side)
        reference = reference_partition(pres, max_len + 2)
        assert tuple(len(c) for c in reference[:max_len]) == counts
        assert enumerate_classes(pres, max_len).degree_counts == counts
        assert diagram_classes(side, max_len).degree_counts == counts


def assert_bounded_classes_are_the_full_ones(run):
    """Each closure run() makes, against the same window closed without
    bounds: its counts, and every class of every degree up to the levels
    it built."""
    closures, enumerate_real = [], oracle.enumerate_classes

    def spy(*args, **kwargs):
        closures.append((args, kwargs, enumerate_real(*args, **kwargs)))
        return closures[-1][2]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(oracle, "enumerate_classes", spy)
        run()
    for args, kwargs, bounded in closures:
        full = enumerate_real(*args, **dict(kwargs, bounds=None))
        assert bounded.degree_counts == full.degree_counts
        for degree in range(1, bounded.levels + 1):
            assert bounded.classes_at_degree(degree) == full.classes_at_degree(degree), degree


# Family diagrams whose closure builds a level column-first at max len 2
# (see `enumerate_classes`): level 2 meets its bound on the first batch
# (torus2, twist:4, dtw:2,4), on the second (dtw:3,6), or not before the
# cost rule stops the batches, so that level 3 is built in full (dtw:3,4)
COLUMN_FIRST_SPECS = ("torus2:5", "torus2:7", "twist:4", "dtw:2,4", "dtw:3,4", "dtw:3,6")


@st.composite
def column_first_diagrams(draw):
    """A family diagram that is built column-first, with its arcs
    relabelled, so that the first relation and the order in which the
    letters first appear vary."""
    diagram = build_family(parse_family_spec(draw(st.sampled_from(COLUMN_FIRST_SPECS))))
    return relabelled(diagram, draw(st.permutations(range(diagram.arc_count))))


@given(
    st.one_of(small_diagrams(), column_first_diagrams()),
    st.tuples(*[st.integers(1, 2)] * 3),
    st.integers(1, 3),
)
@settings(max_examples=60, deadline=None)
def test_bounded_closures_keep_every_class(diagram, params, max_len):
    """verify onto the diagram's Fox target, with its element counts as
    bounds; classes, with `fox_bounds`; and the probe, with its floor."""
    pres = presentation_from_diagram(diagram)
    assert_bounded_classes_are_the_full_ones(lambda: diagram_classes(diagram, max_len))
    anchors = next(
        ({c.under[0]: 0, c.over: 1} for c in diagram.crossings if c.over not in c.under), None
    )
    coloring = anchors and fox_coloring(diagram, anchors)
    if coloring:
        sg, phi = fox_target(coloring)
        assert_bounded_classes_are_the_full_ones(
            lambda: verify_isomorphism(pres, phi, sg, max_len)
        )
    assert_bounded_classes_are_the_full_ones(lambda: conjecture_probe(*params, max_len=max_len))


FOX_SPECS = (
    ["trivial", "hopf"]
    + [f"torus2:{n}" for n in range(1, 12)]
    + [f"twist:{n}" for n in range(1, 7)]
    + [f"dtw:{a},{b}" for a, b in itertools.product(range(1, 6), repeat=2)]
    + [f"conway:{a},{b},{c}" for a, b, c in itertools.product(range(1, 4), repeat=3)]
)


@pytest.mark.parametrize("spec", FOX_SPECS)
def test_fox_bounds_do_not_hang_on_the_arc_numbering(spec):
    """Colored from the first crossing whose over arc is not an under arc,
    under any of three relabellings, the bounds are the family target's
    counts, or None for a diagram that has no such crossing."""
    family = parse_family_spec(spec)
    diagram = build_family(family)
    sg = FAMILIES[family.kind].target(*family.params)[0]
    counts = tuple(sg.count_elements(t) for t in range(1, 5))
    qualifies = any(c.over not in c.under for c in diagram.crossings)
    rng = random.Random(spec)
    for _ in range(3):
        perm = list(range(diagram.arc_count))
        rng.shuffle(perm)
        side = relabelled(diagram, perm)
        bounds = fox_bounds(side, presentation_from_diagram(side), 4)
        assert bounds == (counts if qualifies else None)


@pytest.mark.parametrize("spec, max_len, levels", [
    ("torus2:7", 5, 2),  # the certificate at level 2; 7 levels unbounded
    ("torus2:5", 5, 2),
    ("hopf", 16, 16),  # a link: its counts meet their bounds at max_len
])
def test_fox_bounds_stop_the_classes_closure(spec, max_len, levels):
    diagram = build_family(parse_family_spec(spec))
    partition = diagram_classes(diagram, max_len)
    assert partition.levels == levels
    full = enumerate_classes(presentation_from_diagram(diagram), max_len)
    assert full.levels == max_len + 2
    assert partition.degree_counts == full.degree_counts


REFERENCE_SPECS = [
    spec for spec in FOX_SPECS
    if spec.startswith("conway:") or build_family(parse_family_spec(spec)).arc_count <= 7
] + ["dtw:3,5", "dtw:3,6"]


@pytest.mark.parametrize("spec", REFERENCE_SPECS)
def test_column_first_partitions_match_the_reference(spec):
    """Bounded by its Fox target at max len 2 and pad 1, a diagram's closure
    keeps the reference's classes on every level it builds, whether level 3
    was dropped once level 2 met its bound, built after a batch that did
    not, or built in full from the start."""
    diagram = build_family(parse_family_spec(spec))
    bounded = diagram_classes(diagram, 2, pad=1)
    expected = reference_partition(presentation_from_diagram(diagram), 3)
    assert bounded.degree_counts == tuple(len(c) for c in expected[:2])
    levels = bounded.levels
    assert [bounded.classes_at_degree(d) for d in range(1, levels + 1)] == expected[:levels]


@pytest.mark.parametrize("spec", COLUMN_FIRST_SPECS + ("dtw:3,5", "dtw:3,8", "conway:3,3,3"))
def test_column_first_classes_are_the_full_ones(spec):
    """At max len 4, where a level dropped at degree 3 is rebuilt in full
    or stopped on, and dtw:3,8, which needs a second batch, as classes and
    as verify."""
    diagram = build_family(parse_family_spec(spec))
    assert_bounded_classes_are_the_full_ones(lambda: diagram_classes(diagram, 4))
    assert_bounded_classes_are_the_full_ones(lambda: verify_family(spec, 4, budget=10**10))


def closure_nodes(run):
    """The levels, the nodes kept and the most nodes held at once by the
    closure that run() makes."""
    partitions, peak = [], [0]
    enumerate_real, add_real = oracle.enumerate_classes, oracle._UnionFind.add

    def enumerate_spy(*args, **kwargs):
        partitions.append(enumerate_real(*args, **kwargs))
        return partitions[-1]

    def add_spy(uf, count):
        start = add_real(uf, count)
        peak[0] = max(peak[0], len(uf.parent))
        return start

    with pytest.MonkeyPatch.context() as m:
        m.setattr(oracle, "enumerate_classes", enumerate_spy)
        m.setattr(oracle._UnionFind, "add", add_spy)
        run()
    (partition,) = partitions
    return partition.levels, len(partition._uf.parent), peak[0]


@pytest.mark.parametrize("spec, max_len, levels, kept, peak", [
    # level 3 on the first relation's 3 columns of 37 and 577 classes
    # collapses level 2 to the k classes of its bound, is dropped, and the
    # certificate holds at level 2: k + k^2 nodes are kept
    ("torus2:7", 10, 2, 56, 56 + 3 * 37),
    ("torus2:25", 10, 2, 650, 650 + 3 * 577),
    # level 2 meets its bound of 9 on 3 columns of 24, and at max len 2 the
    # closure stops there; at 10 its 9 classes do not fit a column of 6, so
    # level 3 would be rebuilt over level 2 walked again, and the cost rule
    # keeps level 3 in full: 3 * 24 + 9 * 6 + 6 * 6 >= 6 * 24
    ("dtw:2,4", 2, 2, 42, 42 + 3 * 24),
    ("dtw:2,4", 10, 3, 186, 186),
    # 3 then 6 columns of 63, 80 and 99 bring level 2 to its bound of 19,
    # 31 and 25; in dtw:7,3 only with the right extension of the merges
    # that the first batch made, which the late columns are built with.
    # dtw:3,8 then rebuilds level 3 in full on its 25 classes
    ("dtw:3,6", 2, 2, 90, 90 + 6 * 63),
    ("dtw:7,3", 2, 2, 110, 110 + 6 * 80),
    ("dtw:3,8", 10, 3, 132 + 11 * 25, 132 + 6 * 99),
    # 3 columns of 35 leave level 2 at 30 classes, above its bound of 13, and
    # 6 would build no fewer nodes than the full level: that is built on 30
    ("dtw:3,4", 2, 3, 56 + 7 * 30, 56 + 7 * 30),
    # outside the cost rule: 3 * 8 + 4 * 5 >= 4 * 8
    ("dtw:2,2", 10, 3, 52, 52),
])
def test_verify_family_keeps_the_levels_it_needs(spec, max_len, levels, kept, peak):
    assert closure_nodes(lambda: verify_family(spec, max_len, budget=10**40)) == (
        levels, kept, peak
    )


def closure_levels(monkeypatch):
    """The levels each closure builds from here on, in call order."""
    levels = []
    enumerate_real = oracle.enumerate_classes

    def spy(*args, **kwargs):
        partition = enumerate_real(*args, **kwargs)
        levels.append(partition.levels)
        return partition

    monkeypatch.setattr(oracle, "enumerate_classes", spy)
    return levels


def test_fox_bounds_stop_both_sides_of_a_move(monkeypatch):
    """R1 on torus2:5: both closures stop on the certificate at level 2."""
    levels = closure_levels(monkeypatch)
    torus = build_torus2(5)
    report = reidemeister_dimension_check(
        torus, apply_reidemeister(torus, ReidemeisterMove("r1", arc=0)), 5
    )
    assert report.all_equal
    assert levels == [2, 2]


def test_the_probe_floor_stops_a_link_closure_at_max_len(monkeypatch):
    """conway:2,1,2 is a link with no letter map into its conjectured
    target: its own Fox target's counts, as a floor, stop the closure at
    max_len instead of max_len + 2."""
    levels = closure_levels(monkeypatch)
    report = conjecture_probe(2, 1, 2, max_len=6)
    assert report.phi is None
    assert levels == [6]


@pytest.mark.parametrize("params", [(1, 1, 2), (2, 1, 2)])
def test_the_probe_colors_its_diagram_once(monkeypatch, params):
    """With a letter map (1,1,2) or without one (2,1,2), the probe's own
    coloring labels every arc, and its floor comes from that coloring."""
    calls = []
    color_real = oracle.fox_coloring
    monkeypatch.setattr(oracle, "fox_coloring", lambda *args: calls.append(1) or color_real(*args))
    conjecture_probe(*params, max_len=4)
    assert len(calls) == 1


def test_a_floor_without_a_letter_map_verifies_nothing():
    """probe 3,1,1 has no letter map; its floor stops the closure below
    degree 4, whose class count meets the element count there, yet with no
    letter map the degree is neither aligned nor verified."""
    report = conjecture_probe(3, 1, 1, max_len=4)
    assert report.phi is None and not report.homomorphism
    top = report.degrees[-1]
    assert top.class_count == top.element_count
    assert (top.aligned, top.verdict) == (False, "unresolved")
    assert [d.verdict for d in report.degrees] == ["unresolved"] * 4


def test_a_homomorphism_that_misses_a_generator_takes_no_floor(monkeypatch):
    """Above the levels built only the image check could align its classes,
    so its closure is built in full."""
    levels = closure_levels(monkeypatch)
    diagram = build_torus2(3)
    pres = presentation_from_diagram(diagram)
    floor = fox_bounds(diagram, pres, 5)
    report = verify_isomorphism(pres, (0,) * 3, AltSumSemigroup(Zmod(3), (0, 1, 2)), 5,
                                floor=floor)
    assert report.homomorphism
    assert levels == [7]


def unbounded_modulus_diagram():
    """conway:1,...,1 with 35 regions: 35 arcs, and its Fox modulus is the
    Fibonacci number 14 930 352, above MAX_MODULUS."""
    return conway_with_traces((1,) * 35)[0]


@pytest.mark.parametrize("diagram, max_len, pad", [
    (Diagram(3, ()), 3, 2),
    (build_trivial(), 3, 2),
    (build_torus2(1), 3, 2),  # its one crossing is a kink
    (Diagram(3, (crossing(1, 0, 0),)), 3, 2),  # arc 2 meets no crossing
    (unbounded_modulus_diagram(), 1, 1),
], ids=["free3", "trivial", "torus2:1", "unlabeled-arc", "modulus-over-bound"])
def test_fox_bounds_fall_back_to_no_bounds(diagram, max_len, pad):
    pres = presentation_from_diagram(diagram)
    assert fox_bounds(diagram, pres, max_len) is None
    bounded = diagram_classes(diagram, max_len, pad=pad)
    assert bounded.degree_counts == enumerate_classes(pres, max_len, pad=pad).degree_counts


def test_the_fallback_modulus_is_above_the_bound():
    diagram = unbounded_modulus_diagram()
    c = diagram.crossings[0]
    assert c.over not in c.under
    assert fox_coloring(diagram, {c.under[0]: 0, c.over: 1})[1] > MAX_MODULUS


def test_the_budget_is_checked_before_the_diagram_is_colored(monkeypatch):
    """An over-budget window exits 3 first and at once, before any coloring."""
    def fail(*args):
        raise AssertionError("the diagram was colored before the budget check")

    monkeypatch.setattr(oracle, "fox_coloring", fail)
    with pytest.raises(ResourceBudgetError):
        diagram_classes(build_torus2(7), 6)
    with pytest.raises(ResourceBudgetError):
        conjecture_probe(2, 1, 2, max_len=9)
