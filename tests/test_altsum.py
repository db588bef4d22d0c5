"""Alternating-sum semigroup arithmetic, checked against brute force.

The reachable-state recurrence behind element enumeration is the part that
could silently go wrong, so count_elements is compared with an exhaustive
walk over all |B|^t words on every fixture used elsewhere in the suite, and
the packed recurrence with a plain set recurrence on random semigroups.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotgrowth.altsum import (
    AltSumSemigroup,
    ASElement,
    Zmod,
    canonical_word,
    conjecture_alphabet,
    dtw_alphabet,
    multiply,
)
from knotgrowth.errors import DomainError, InternalConsistencyError, ParameterError

AS_Z3 = AltSumSemigroup(Zmod(3), (0, 1, 2))
AS_Z5 = AltSumSemigroup(Zmod(5), (0, 1, 2, 3, 4))
SAS_Z2 = AltSumSemigroup(Zmod(2), (0, 1), strong=True)
SAS_Z4 = AltSumSemigroup(Zmod(4), (0, 1, 2, 3), strong=True)
AS_C22 = dtw_alphabet(2, 2).semigroup()
AS_C32 = dtw_alphabet(3, 2).semigroup()
AS_C24 = dtw_alphabet(2, 4).semigroup()

FIXTURES = [AS_Z3, AS_Z5, SAS_Z2, SAS_Z4, AS_C22, AS_C32, AS_C24]


def brute_force_count(sg, t):
    seen = set()
    for word in itertools.product(sg.generators, repeat=t):
        key = (sg.alt(word), sg.even_count(word) if sg.strong else None)
        seen.add(key)
    return len(seen)


@pytest.mark.parametrize("sg", FIXTURES, ids=repr)
@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_count_elements_matches_exhaustive_enumeration(sg, t):
    assert sg.count_elements(t) == brute_force_count(sg, t)


def reference_states(sg, t):
    """S_t by the set recurrence S_1 = B, S_{t+1} = {b - a : b in B, a in S_t},
    carrying the even-letter count in the strong variant."""
    g = sg.group
    states = {(b, int(sg.strong and g.is_even(b))) for b in sg.generators}
    for _ in range(t - 1):
        states = {
            (g.reduce(b - a), e + int(sg.strong and g.is_even(b)))
            for b in sg.generators
            for (a, e) in states
        }
    return frozenset(states if sg.strong else {a for a, _ in states})


@st.composite
def semigroups_and_degrees(draw):
    m = draw(st.integers(min_value=1, max_value=16))
    generators = draw(st.sets(st.integers(min_value=0, max_value=m - 1), min_size=1))
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
        assert sg.elements_of_length(t) == expected
        assert sg.count_elements(t) == len(expected)


def test_levels_read_out_of_order():
    # only the last level is kept, so a level below it restarts from 0
    for strong in (False, True):
        sg = AltSumSemigroup(Zmod(6), (0, 1, 3), strong=strong)
        order = list(range(12, 0, -1)) + list(range(1, 13))
        assert [sg._levels.level(t) for t in order] == [
            AltSumSemigroup(Zmod(6), (0, 1, 3), strong=strong)._levels.level(t)
            for t in order
        ]


def test_cold_deep_level():
    # semigroups built here only, so no earlier call has filled their levels
    assert AltSumSemigroup(Zmod(2), (0, 1), strong=True).count_elements(3000) == 3001
    element = ASElement(AltSumSemigroup(Zmod(3), (0, 1, 2)), 2500, 1)
    assert (element.length, element.alt) == (2500, 1)


@pytest.mark.parametrize("sg", FIXTURES, ids=repr)
def test_element_accepted_exactly_when_realized(sg):
    m = sg.group.modulus
    for t in range(1, 7):
        realized = sg.elements_of_length(t)
        evens = range(t + 1) if sg.strong else (None,)
        for a in range(m):
            for e in evens:
                state = (a, e) if sg.strong else a
                if state in realized:
                    assert ASElement(sg, t, a, e).alt == a
                else:
                    with pytest.raises(DomainError):
                        ASElement(sg, t, a, e)


def test_known_count_sequences():
    assert [AS_Z3.count_elements(t) for t in (1, 2, 3, 4)] == [3, 3, 3, 3]
    assert [SAS_Z2.count_elements(t) for t in (1, 2, 3, 4)] == [2, 3, 4, 5]
    assert [SAS_Z4.count_elements(t) for t in (1, 2, 3, 4)] == [4, 6, 8, 10]
    assert [AS_C22.count_elements(t) for t in (1, 2, 3)] == [4, 5, 5]
    assert [AS_C32.count_elements(t) for t in (1, 2, 3)] == [5, 7, 7]
    assert [AS_C24.count_elements(t) for t in (1, 2, 3)] == [6, 9, 9]


def test_alt_and_even_count():
    assert AS_Z5.alt((1, 3, 2)) == 0
    assert AS_Z5.alt((4,)) == 4
    assert SAS_Z4.even_count((0, 1, 2, 3)) == 2
    # odd modulus: every element is even
    assert AS_Z3.even_count((0, 1, 2)) == 3
    with pytest.raises(DomainError):
        AS_Z3.alt(())


def test_generators_are_normalized():
    sg = AltSumSemigroup(Zmod(5), (7, 2, 12, 3))
    assert sg.generators == (2, 3)
    with pytest.raises(ParameterError):
        AltSumSemigroup(Zmod(5), ())


def test_class_of_validates_letters():
    with pytest.raises(DomainError):
        AS_C22.class_of((4,))  # 4 is not in {0,1,2,3}
    e = AS_C22.class_of((1, 2, 3))
    assert (e.length, e.alt) == (3, 2)


@given(st.sampled_from(FIXTURES).flatmap(
    lambda sg: st.tuples(st.just(sg), st.lists(st.sampled_from(sg.generators), min_size=1))
), st.integers(-2, 2))
def test_class_of_matches_alt_and_even_count(case, wrap):
    """class_of in one pass agrees with alt and even_count, also on letters
    given unreduced."""
    sg, word = case
    shifted = tuple(b + wrap * sg.group.modulus for b in word)
    even_count = sg.even_count(word) if sg.strong else None
    assert sg.class_of(shifted) == sg.element(len(word), sg.alt(word), even_count)


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
        assert states == [
            sg.alt(w) + width * (sg.even_count(w) if sg.strong else 0) for w in words
        ]
        decoded = {(s % width, s // width) if sg.strong else s for s in states}
        assert decoded == sg.elements_of_length(degree)


def test_extend_states_checks_letters_and_levels(monkeypatch):
    with pytest.raises(DomainError, match="letter 4 is not a generator"):
        AS_C22.extend_states([0], (1, 4), 1)
    sg = AltSumSemigroup(Zmod(5), (1, 2))
    monkeypatch.setattr(sg._levels, "level", lambda t: 0b10)  # only state 1
    assert sg.extend_states([0], (1,), 1) == [1]
    with pytest.raises(InternalConsistencyError, match="length 1 .* has state 2"):
        sg.extend_states([0], (1, 2), 1)


def test_element_validation():
    with pytest.raises(ParameterError):
        ASElement(AS_Z3, 0, 0)
    with pytest.raises(ParameterError):
        ASElement(AS_Z3, 2, 5)  # not reduced mod 3
    with pytest.raises(ParameterError):
        ASElement(SAS_Z4, 2, 0)  # strong needs even_count
    with pytest.raises(ParameterError):
        ASElement(AS_Z3, 2, 0, even_count=1)  # plain must not carry one
    with pytest.raises(ParameterError):
        ASElement(SAS_Z4, 2, 0, even_count=3)  # more evens than letters
    # 4 is not a generator of C_{2,4}, so no length-1 element has that sum
    assert 4 not in AS_C24.elements_of_length(1)
    with pytest.raises(DomainError):
        ASElement(AS_C24, 1, 4)


def test_multiply_matches_concatenation():
    u, v = (1, 0, 3), (2, 5)
    x = AS_C24.class_of(u)
    y = AS_C24.class_of(v)
    assert x * y == AS_C24.class_of(u + v)
    with pytest.raises(ParameterError):
        multiply(AS_Z3.class_of((1,)), AS_Z5.class_of((1,)))


words = st.lists(st.sampled_from(AS_C32.generators), min_size=1, max_size=8).map(tuple)


@given(u=words, v=words)
@settings(max_examples=300)
def test_alt_concatenation_law(u, v):
    sign = -1 if len(u) % 2 == 1 else 1
    assert AS_C32.alt(u + v) == AS_C32.group.reduce(AS_C32.alt(u) + sign * AS_C32.alt(v))


@given(u=words, v=words, w=words)
@settings(max_examples=200)
def test_multiply_associative(u, v, w):
    x, y, z = (AS_C32.class_of(t) for t in (u, v, w))
    assert (x * y) * z == x * (y * z)


@given(u=words, v=words, w=words)
@settings(max_examples=200)
def test_cancellative(u, v, w):
    x, y, z = (AS_C32.class_of(t) for t in (u, v, w))
    if x.length == y.length and x != y:
        assert x * z != y * z
        assert z * x != z * y


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
    c = conjecture_alphabet(1, 1, 2)
    assert c.modulus == 5
    assert c.modulus_is_odd
    assert c.elements == frozenset({0, 1, 2, 3})
    c2 = conjecture_alphabet(2, 1, 2)
    assert c2.modulus == 8
    assert not c2.modulus_is_odd
    with pytest.raises(ParameterError):
        conjecture_alphabet(1, 0, 1)


@pytest.mark.parametrize("alphabet", [dtw_alphabet(2, 2), dtw_alphabet(3, 2), dtw_alphabet(2, 4)])
@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_canonical_word_round_trip_and_distinct(alphabet, t):
    sg = alphabet.semigroup()
    seen = {}
    for state in sg.elements_of_length(t):
        e = ASElement(sg, t, state)
        w = canonical_word(alphabet, e)
        assert len(w) == t
        assert sg.class_of(w) == e
        assert w not in seen.values()
        seen[state] = w


def test_canonical_word_rejects_foreign_elements():
    a = dtw_alphabet(2, 4)
    sg = a.semigroup()
    other = dtw_alphabet(3, 2)
    with pytest.raises(ParameterError):
        canonical_word(other, ASElement(sg, 2, 0))
