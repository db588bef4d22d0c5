"""Alternating-sum semigroup arithmetic, checked against brute force.

The reachable-state recurrence behind element counts is the part that
could silently go wrong, so count_elements is compared with an exhaustive
walk over all |B|^t words on every fixture used elsewhere in the suite, and
the packed recurrence with a plain set recurrence on random semigroups.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotgrowth import diagrams
from knotgrowth.altsum import (
    MAX_MODULUS,
    AltSumSemigroup,
    Zmod,
    conjecture_semigroup,
    dtw_alphabet,
)
from knotgrowth.diagrams import FAMILIES
from knotgrowth.errors import DomainError, InternalConsistencyError, ParameterError
from knotgrowth.oracle import conjecture_probe

AS_Z3 = AltSumSemigroup(Zmod(3), (0, 1, 2))
AS_Z5 = AltSumSemigroup(Zmod(5), (0, 1, 2, 3, 4))
SAS_Z2 = AltSumSemigroup(Zmod(2), (0, 1), strong=True)
SAS_Z4 = AltSumSemigroup(Zmod(4), (0, 1, 2, 3), strong=True)
AS_C22 = dtw_alphabet(2, 2).semigroup()
AS_C32 = dtw_alphabet(3, 2).semigroup()
AS_C24 = dtw_alphabet(2, 4).semigroup()

FIXTURES = [AS_Z3, AS_Z5, SAS_Z2, SAS_Z4, AS_C22, AS_C32, AS_C24]


def alt(sg, word):
    """The alternating sum b1 - b2 + b3 - ... of a word, reduced mod m."""
    return sum(b if i % 2 == 0 else -b for i, b in enumerate(word)) % sg.group.modulus


def evens(sg, word):
    """The number of letters that are twice some element mod m."""
    m = sg.group.modulus
    return sum(1 for b in word if any((2 * h - b) % m == 0 for h in range(m)))


def state(sg, word):
    """alt + 2m * evens, with evens 0 in the plain variant."""
    return alt(sg, word) + 2 * sg.group.modulus * (evens(sg, word) if sg.strong else 0)


def brute_force_count(sg, t):
    return len({state(sg, word) for word in itertools.product(sg.generators, repeat=t)})


@pytest.mark.parametrize("sg", FIXTURES, ids=repr)
@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_count_elements_matches_exhaustive_enumeration(sg, t):
    assert sg.count_elements(t) == brute_force_count(sg, t)


def decode(sg, level):
    """The states set in a packed level, as alt values or (alt, evens) pairs."""
    width = 2 * sg.group.modulus
    bits = [i for i in range(level.bit_length()) if level >> i & 1]
    return frozenset((i % width, i // width) if sg.strong else i for i in bits)


def reference_levels(sg):
    """S_1, S_2, ... by the set recurrence S_1 = B, S_{t+1} = {b - a : b in B,
    a in S_t}, carrying the even-letter count in the strong variant."""
    g = sg.group
    states = {(b, int(sg.strong and g.is_even(b))) for b in sg.generators}
    while True:
        yield frozenset(states if sg.strong else {a for a, _ in states})
        states = {
            (g.reduce(b - a), e + int(sg.strong and g.is_even(b)))
            for b in sg.generators
            for (a, e) in states
        }


def reference_states(sg, t):
    """S_t of the set recurrence."""
    return next(itertools.islice(reference_levels(sg), t - 1, None))


@st.composite
def semigroups_and_degrees(draw):
    m = draw(st.integers(min_value=1, max_value=16))
    generators = draw(st.sets(st.integers(min_value=0, max_value=m - 1), min_size=1))
    if draw(st.booleans()):
        # random sets are almost never closed under negation, which the
        # levels treat apart
        generators |= {(-b) % m for b in generators}
    sg = AltSumSemigroup(Zmod(m), tuple(generators), strong=draw(st.booleans()))
    degrees = draw(st.permutations(range(1, draw(st.integers(1, 30)) + 1)))
    return sg, degrees[: draw(st.integers(1, len(degrees)))]


@given(semigroups_and_degrees())
@settings(max_examples=300, deadline=None)
def test_packed_levels_match_set_recurrence(case):
    sg, degrees = case
    # degrees come in random order, so levels are built lazily in jumps
    for t in degrees:
        expected = reference_states(sg, t)
        assert decode(sg, sg._levels.level(t)) == expected
        assert sg.count_elements(t) == len(expected)


def test_levels_read_out_of_order():
    # only the last 8 levels are kept, so a level below them restarts from 0
    for strong in (False, True):
        sg = AltSumSemigroup(Zmod(6), (0, 1, 3), strong=strong)
        order = list(range(12, 0, -1)) + list(range(1, 13))
        assert [sg._levels.level(t) for t in order] == [
            AltSumSemigroup(Zmod(6), (0, 1, 3), strong=strong)._levels.level(t)
            for t in order
        ]


def assert_levels_match_reference(sg, depth=30):
    """Every level 1..depth of sg, built one after another, against the set
    recurrence."""
    for t, expected in zip(range(1, depth + 1), reference_levels(sg)):
        assert decode(sg, sg._levels.level(t)) == expected, t


SYMMETRIC_SETS = [
    # all of Z_m: runs of m shifts (plain), or of m/2 odd and m/2 lifted
    # even letters (strong, m even), lengths such as 20, 6 and 7 that are
    # not powers of two
    *((m, tuple(range(m))) for m in range(1, 41)),
    # closed under negation but not all of Z_m
    *((m, generators) for m in range(4, 41) for generators in ((1, m - 1), (0, 2, m - 2))),
]
ASYMMETRIC_SETS = [
    *((dtw_alphabet(n, l).modulus, tuple(dtw_alphabet(n, l).elements))
      for n in range(2, 5) for l in range(2, 5)),
    # the dtw sets above fill Z_m from level 2 on, where B + S and B - S
    # agree; these keep levels that only the -S_t side gets right
    (6, (0, 1, 3)), (11, (1, 4, 9)), (7, (1,)), (8, (2, 3)),
]


def plain_and_strong(sets):
    return [AltSumSemigroup(Zmod(m), g, strong=s) for m, g in sets for s in (False, True)]


@pytest.mark.parametrize("sg", plain_and_strong(SYMMETRIC_SETS), ids=repr)
def test_levels_of_symmetric_sets(sg):
    # B = -B, so one side is built
    assert sg._levels.neg_runs is None
    assert_levels_match_reference(sg)


@pytest.mark.parametrize("sg", plain_and_strong(ASYMMETRIC_SETS), ids=repr)
def test_levels_of_asymmetric_sets(sg):
    # not closed under negation (dtw sets with n = 1 or l = 1 are all of
    # Z_m), so both sides are built, from runs whose steps differ between
    # the sides
    assert_levels_match_reference(sg)


def test_cold_deep_level():
    # semigroups built here only, so no earlier call has filled their levels
    assert AltSumSemigroup(Zmod(2), (0, 1), strong=True).count_elements(3000) == 3001
    # SAS(Z_40, Z_40) at length t: for each even count e = 0..t, the 20
    # alts whose parity is that of the t - e odd letters
    sas40 = AltSumSemigroup(Zmod(40), tuple(range(40)), strong=True)
    assert sas40.count_elements(200) == 20 * 201
    sg = AltSumSemigroup(Zmod(3), (0, 1, 2))
    assert sg.class_of((1,) + (0,) * 2499) == 1


FAMILY_PARAMS = {
    "trivial": [()],
    "hopf": [()],
    "torus2": [(n,) for n in range(1, 13)],
    "twist": [(n,) for n in range(1, 7)],
    "dtw": [(n, l) for n in range(1, 6) for l in range(1, 6)],
    "conway": [p for k in range(1, 5) for p in itertools.product(range(1, 6), repeat=k)],
}
# conway:3,3,3,3 counts 1, 12, 73, 108 and then 109 at every length from 4
# on, so its pass reads 5 levels; 81 of the 780 conway tuples need all 5
SETTLED_BY = {"conway": 5}


@pytest.mark.parametrize("kind", list(FAMILIES))
def test_plain_targets_of_every_family_settle(kind):
    """The plain variant of each family's target settles by length 3
    (conway's by length 5), and the last count it reads is the count at
    every greater length."""
    for params in FAMILY_PARAMS[kind]:
        target = FAMILIES[kind].target(*params)[0]
        sg = AltSumSemigroup(target.group, target.generators)
        counts, settled = sg.level_counts(SETTLED_BY.get(kind, 3))
        assert settled, (kind, params)
        assert counts[1:] == tuple(sg.count_elements(t) for t in range(1, len(counts)))
        assert {sg.count_elements(t) for t in range(len(counts), 20)} == {counts[-1]}


@pytest.mark.parametrize("spec", [("hopf", ()), ("torus2", (4,)), ("torus2", (40,))])
def test_strong_family_targets_never_settle(spec):
    kind, params = spec
    sg = FAMILIES[kind].target(*params)[0]
    assert sg.strong
    counts, settled = sg.level_counts(200)
    assert not settled
    assert counts == (1,) + tuple(sg.count_elements(t) for t in range(1, 201))


def test_levels_of_period_two_never_settle():
    # {1} in Z_5: the levels alternate between {1} and {0}, so no level
    # equals the one before it, though every count is 1
    sg = AltSumSemigroup(Zmod(5), (1,))
    assert sg.level_counts(200) == ((1,) * 201, False)
    assert [sg._levels.level(t) for t in (1, 2, 3, 4)] == [1 << 1, 1, 1 << 1, 1]


@given(semigroups_and_degrees())
@settings(max_examples=300, deadline=None)
def test_shifted_levels_give_every_count(case):
    """Counts past a checked shift are sums, not levels; they must be the
    levels' counts all the same."""
    sg, _ = case
    counts, settled = sg.level_counts(60)
    if not settled:
        assert counts == (1, *(sg.count_elements(t) for t in range(1, 61)))


def test_every_residue_is_checked():
    """SAS(Z_12, {0, 1, 5, 7, 9}) meets the shift check at t0 = 0, P = s = 2
    for the residue j = 0 alone: |B_0| = 12, but c_3 - c_1 = 14.  The pass
    rejects that shift and stops at the one from t0 = 2, at level 5."""
    sg = AltSumSemigroup(Zmod(12), (0, 1, 5, 7, 9), strong=True)
    levels = sg._levels
    levels.level(3)
    seen = list(levels.seen)
    assert (seen[2][0] & (1 << 2 * 24) - 1).bit_count() == 12
    assert levels.shift(seen, 2) is None
    counts, settled = sg.level_counts(60)
    assert levels.t == 5
    assert (counts, settled) == ((1, 5, *(6 * t + 1 for t in range(2, 61))), False)
    assert counts == (1, *(sg.count_elements(t) for t in range(1, 61)))


def test_shift_check_bounds_the_image_of_b():
    """Condition (c) on hand-made levels L_0 = B, L_1 = sh(B) | B, with B
    the states 0 and 3 in row 0 of Z_6 (-B = B), checked at P = s = 1.
    The odd letter 3 maps B onto itself, so (a) and (b) hold; the even
    letter 0 maps B into B, and 2 maps it onto {2, 5}, outside B.  No
    target tried reaches such levels, so the checker is tested on them
    directly."""
    b = 1 | 1 << 3
    seen = [(b, b), (b | b << 12, b | b << 12)]
    for generators, gains in (((0, 3), (1, [2])), ((2, 3), None)):
        levels = AltSumSemigroup(Zmod(6), generators, strong=True)._levels
        levels.level(1)
        assert levels.shift(seen, 1) == gains


@pytest.mark.parametrize(
    "spec, levels", [(("hopf", ()), 3), (("torus2", (40,)), 4)], ids=["hopf", "torus2:40"]
)
def test_strong_family_levels_stop_at_their_shift(spec, levels):
    """hopf shifts from t0 = 0 and torus2:40 from t0 = 1, by P = s = 2, so
    10 000 counts take 3 and 4 level steps."""
    kind, params = spec
    sg = FAMILIES[kind].target(*params)[0]
    counts, settled = sg.level_counts(10_000)
    assert len(counts) == 10_001 and not settled
    assert sg._levels.t <= levels


@given(semigroups_and_degrees())
@settings(max_examples=300, deadline=None)
def test_settled_levels_hold_their_last_count(case):
    sg, _ = case
    counts, settled = sg.level_counts(12)
    last = len(counts) - 1
    assert counts[1:] == tuple(sg.count_elements(t) for t in range(1, last + 1))
    if settled:
        assert last < 12
        assert {sg.count_elements(t) for t in range(last + 1, 30)} == {counts[-1]}
    else:
        assert last == 12


def test_known_count_sequences():
    assert [AS_Z3.count_elements(t) for t in (1, 2, 3, 4)] == [3, 3, 3, 3]
    assert [SAS_Z2.count_elements(t) for t in (1, 2, 3, 4)] == [2, 3, 4, 5]
    assert [SAS_Z4.count_elements(t) for t in (1, 2, 3, 4)] == [4, 6, 8, 10]
    assert [AS_C22.count_elements(t) for t in (1, 2, 3)] == [4, 5, 5]
    assert [AS_C32.count_elements(t) for t in (1, 2, 3)] == [5, 7, 7]
    assert [AS_C24.count_elements(t) for t in (1, 2, 3)] == [6, 9, 9]


def test_alt_and_even_count():
    assert AS_Z5.class_of((1, 3, 2)) == 0
    assert AS_Z5.class_of((4,)) == 4
    # alt 0 - 1 + 2 - 3 = 2 and two even letters, at width 8
    assert SAS_Z4.class_of((0, 1, 2, 3)) == 2 + 8 * 2
    # odd modulus: every element is even
    assert AltSumSemigroup(Zmod(3), (0, 1, 2), strong=True).class_of((0, 1, 2)) == 1 + 6 * 3
    with pytest.raises(DomainError, match="empty word"):
        AS_Z3.class_of(())


def test_generators_are_normalized():
    sg = AltSumSemigroup(Zmod(5), (7, 2, 12, 3))
    assert sg.generators == (2, 3)
    with pytest.raises(ParameterError):
        AltSumSemigroup(Zmod(5), ())


def test_modulus_above_the_bound_is_refused():
    # before any level is allocated, for a target built by hand, the
    # probe's and a family's alike
    message = f"^target modulus {MAX_MODULUS + 1} is above the bound {MAX_MODULUS}$"
    with pytest.raises(ParameterError, match=message):
        AltSumSemigroup(Zmod(MAX_MODULUS + 1), (1,))
    with pytest.raises(ParameterError, match="target modulus 10001010 is above"):
        conjecture_semigroup(1000, 1000, 10)
    assert AltSumSemigroup(Zmod(MAX_MODULUS), (1,)).group.modulus == MAX_MODULUS
    assert diagrams.MAX_MODULUS == MAX_MODULUS


def test_class_of_validates_letters():
    with pytest.raises(DomainError, match="letter 4 is not a generator"):
        AS_C22.class_of((4,))  # 4 is not in {0,1,2,3}
    assert AS_C22.class_of((1, 2, 3)) == 2


@given(st.sampled_from(FIXTURES).flatmap(
    lambda sg: st.tuples(st.just(sg), st.lists(st.sampled_from(sg.generators), min_size=1))
), st.integers(-2, 2))
def test_class_of_matches_alt_and_even_count(case, wrap):
    """class_of in one pass agrees with the alternating sum and even count
    of the definition, also on letters given unreduced."""
    sg, word = case
    shifted = tuple(b + wrap * sg.group.modulus for b in word)
    assert sg.class_of(shifted) == state(sg, word)


@given(st.sampled_from(FIXTURES).flatmap(
    lambda sg: st.tuples(st.just(sg), st.lists(st.sampled_from(sg.generators), min_size=1))
))
def test_class_of_is_the_fold_of_extend_states(case):
    """The homomorphism check and the image check share one encoding: the
    state of a word is its letters appended one at a time from the empty
    word's state 0."""
    sg, word = case
    states = [0]
    for degree, b in enumerate(word, 1):
        states = sg.extend_states(states, (b,), degree)
    assert states == [sg.class_of(word)]


@pytest.mark.parametrize("sg", FIXTURES, ids=repr)
def test_extend_states_appends_letters(sg):
    """From the empty word's state 0, each step gives the packed state of
    every word w b, letter-major, and the level's states are exactly those
    the recurrence counts."""
    width = 2 * sg.group.modulus
    words, states = [()], [0]
    for degree in range(1, 5):
        states = sg.extend_states(states, sg.generators, degree)
        words = [w + (b,) for b in sg.generators for w in words]
        assert states == [state(sg, w) for w in words]
        decoded = {(s % width, s // width) if sg.strong else s for s in states}
        assert decoded == decode(sg, sg._levels.level(degree))


def test_extend_states_checks_letters_and_levels(monkeypatch):
    with pytest.raises(DomainError, match="letter 4 is not a generator"):
        AS_C22.extend_states([0], (1, 4), 1)
    sg = AltSumSemigroup(Zmod(5), (1, 2))
    monkeypatch.setattr(sg._levels, "level", lambda t: 0b10)  # only state 1
    assert sg.extend_states([0], (1,), 1) == [1]
    with pytest.raises(InternalConsistencyError, match="length 1 .* has state 2"):
        sg.extend_states([0], (1, 2), 1)


def test_class_of_checks_levels(monkeypatch):
    sg = AltSumSemigroup(Zmod(5), (1, 2))
    monkeypatch.setattr(sg._levels, "level", lambda t: 0b10)  # only state 1
    assert sg.class_of((1,)) == 1
    assert sg.class_of((2, 1)) == 1
    with pytest.raises(InternalConsistencyError, match="length 2 .* has state 4"):
        sg.class_of((1, 2))


words = st.lists(st.sampled_from(AS_C32.generators), min_size=1, max_size=8).map(tuple)


@given(u=words, v=words)
@settings(max_examples=300)
def test_alt_concatenation_law(u, v):
    sign = -1 if len(u) % 2 == 1 else 1
    of = AS_C32.class_of
    assert of(u + v) == (of(u) + sign * of(v)) % AS_C32.group.modulus


@given(u=words, v=words, w=words)
@settings(max_examples=200)
def test_cancellative(u, v, w):
    """Equal-length words with different states stay apart when the same
    word is appended or prepended."""
    of = AS_C32.class_of
    v = (v * len(u))[: len(u)]
    if of(u) != of(v):
        assert of(u + w) != of(v + w)
        assert of(w + u) != of(w + v)


def test_dtw_alphabet_shapes():
    a = dtw_alphabet(2, 4)
    assert a.modulus == 9
    assert a.elements == frozenset({0, 1, 2, 3, 5, 7})
    assert len(a.elements) == a.n + a.l
    # two twists on the second group: the set collapses to an interval
    for n in range(2, 6):
        b = dtw_alphabet(n, 2)
        assert b.modulus == 2 * n + 1
        assert b.elements == frozenset(range(n + 2))
    with pytest.raises(ParameterError):
        dtw_alphabet(0, 2)


def test_conjecture_alphabet():
    assert conjecture_semigroup(1, 1, 2) == AltSumSemigroup(Zmod(5), (0, 1, 2, 3))
    assert conjecture_semigroup(2, 1, 2) == AltSumSemigroup(Zmod(8), (0, 1, 2, 3, 5))
    # twist counts are checked where the diagram is built
    with pytest.raises(ParameterError):
        conjecture_probe(1, 0, 1)
