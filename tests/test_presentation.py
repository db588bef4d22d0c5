"""Reading presentations off diagrams and manipulating them."""

import time

import pytest

from knotgrowth.diagrams import Diagram, build_torus2, build_trivial, crossing
from knotgrowth.errors import ParameterError
from knotgrowth.presentation import Presentation, presentation_from_diagram


def test_trefoil_relations():
    pres = presentation_from_diagram(build_torus2(3))
    # crossing (y; x, z) contributes xy=yz and yx=zy
    assert pres.alphabet_size == 3
    assert pres.relations == (
        ((0, 1), (1, 2)),
        ((0, 1), (2, 0)),
        ((0, 2), (1, 0)),
        ((0, 2), (2, 1)),
        ((1, 0), (2, 1)),
        ((1, 2), (2, 0)),
    )
    assert pres.format_word((0, 1)) == "a b"


def test_degenerate_crossings():
    # both under arcs equal: one commuting relation
    hopf = presentation_from_diagram(build_torus2(2))
    assert hopf.relations == (((0, 1), (1, 0)),)
    # all three arcs equal: no relation at all
    kink = Diagram(1, (crossing(0, 0, 0),))
    assert presentation_from_diagram(kink).relations == ()
    assert presentation_from_diagram(build_trivial()).relations == ()


def test_unnamed_diagram_names_its_arcs_once():
    # the default names are made once per diagram, not once per arc, so a
    # large unnamed diagram (every --pd input) presents in linear time
    n = 20_000
    unnamed = Diagram(n, build_torus2(n).crossings)
    start = time.perf_counter()
    pres = presentation_from_diagram(unnamed)
    assert time.perf_counter() - start < 5
    assert pres.letter_names == tuple(f"x{i}" for i in range(n))
    assert presentation_from_diagram(Diagram(3, ())).letter_names == ("a", "b", "c")


def test_relation_normalization_and_validation():
    p = Presentation(2, (((1, 0), (0, 1)), ((0, 1), (1, 0))))
    assert p.relations == (((0, 1), (1, 0)),)
    with pytest.raises(ParameterError):
        Presentation(2, (((0,), (0, 1)),))  # not length-preserving
    with pytest.raises(ParameterError):
        Presentation(2, (((0, 2), (1, 0)),))  # letter out of range
    with pytest.raises(ParameterError):
        Presentation(2, (((), ()),))
    with pytest.raises(ParameterError):
        Presentation(0, ())
    with pytest.raises(ParameterError):
        Presentation(2, (), letter_names=("a", "b", "c"))


def test_relabel():
    pres = presentation_from_diagram(build_torus2(3))
    cycled = pres.relabel((1, 2, 0))
    # the trefoil relation set is invariant under the arc cycle
    assert cycled.relations == pres.relations
    assert cycled.letter_names == ("c", "a", "b")
    with pytest.raises(ParameterError):
        pres.relabel((0, 0, 1))
