"""Growth series, skew growth, dimension estimates, and rewrite checks."""

from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotgrowth.altsum import AltSumSemigroup, Zmod, dtw_alphabet
from knotgrowth.diagrams import (
    FAMILIES,
    ReidemeisterMove,
    apply_reidemeister,
    build_torus2,
    build_trivial,
    double_twist_arc_values,
)
from knotgrowth.errors import InternalConsistencyError, ParameterError
from knotgrowth.growth import (
    GrowthSeries,
    RationalForm,
    SkewSeries,
    gk_dimension,
    growth_for_family,
    growth_from_counts,
    reidemeister_dimension_check,
    skew_growth,
)


def torus_form(n):
    """The paper's growth form of the odd torus2:n, (1 + (n-1)t)/(1 - t)."""
    return RationalForm((1, n - 1), (1, -1))


def dtw_form(n, l):
    """The paper's growth form of dtw:n,l, (1 + (n+l-1)t + (nl-n-l+1)t^2)/(1 - t)."""
    return RationalForm((1, n + l - 1, n * l - n - l + 1), (1, -1))


def counted(sg, terms):
    """1 and the target's element counts at lengths 1 .. terms-1."""
    return (1,) + tuple(sg.count_elements(t) for t in range(1, terms))


def convolve(p, q, terms):
    return tuple(
        sum(p[i] * q[k - i] for i in range(k + 1) if i < len(p) and k - i < len(q))
        for k in range(terms)
    )


def test_rational_form():
    geo = RationalForm((1,), (1, -1))
    assert geo.expand(5) == (1, 1, 1, 1, 1)
    assert RationalForm((1, 2), (1, -1)).expand(4) == (1, 3, 3, 3)
    assert RationalForm((1, 0, 0), (1, -1, 0)).numerator == (1,)
    assert geo.to_json_dict() == {"num": [1], "den": [1, -1]}
    with pytest.raises(ParameterError):
        RationalForm((1,), (2, -1))


def test_rational_form_order_two_recurrence():
    # c_i = 2 c_{i-1} - c_{i-2} for 1/(1 - t)^2 and c_i = c_{i-1} + 2 c_{i-2}
    # for 1/(1 - t - 2t^2): the window must hold c_{i-1} first
    assert RationalForm((1,), (1, -2, 1)).expand(6) == (1, 2, 3, 4, 5, 6)
    assert RationalForm((1,), (1, -1, -2)).expand(6) == (1, 1, 3, 5, 11, 21)


def test_growth_series_validation():
    with pytest.raises(ParameterError):
        GrowthSeries((2, 3, 3))
    with pytest.raises(InternalConsistencyError):
        GrowthSeries((1, 5, 5), rational=RationalForm((1, 2), (1, -1)))
    series = GrowthSeries((1, 3, 3))
    assert series.counts() == (3, 3)


def test_form_backed_series_expands_terms_coefficients():
    """A series built from its form holds `terms` coefficients, expanded on
    the first read and kept; the constant term is checked without them."""
    form = RationalForm((1, 2), (1, -1))
    series = GrowthSeries.from_rational(form, 5, source="torus2:3", warnings=("w",))
    assert (series.terms, series.rational, series.source, series.warnings) == (
        5, form, "torus2:3", ("w",)
    )
    assert series.coefficients == (1, 3, 3, 3, 3)
    assert series.coefficients is series.coefficients
    assert series.counts() == (3, 3, 3, 3)
    skew = SkewSeries.from_rational(RationalForm((1, -1), (1, 2)), 4, source="s")
    assert (skew.terms, skew.coefficients, skew.source) == (4, (1, -3, 6, -12), "s")
    assert GrowthSeries.from_rational(form, 1).coefficients == (1,)
    with pytest.raises(AttributeError):
        series.coefficients = (1, 3)
    with pytest.raises(ParameterError, match="constant term 1"):
        GrowthSeries.from_rational(RationalForm((2, 1), (1, -1)), 3)
    with pytest.raises(ParameterError, match="at least one term"):
        GrowthSeries.from_rational(form, 0)


def test_growth_from_counts_rational_detection():
    series = growth_from_counts((3, 3, 3, 3))
    assert series.coefficients == (1, 3, 3, 3, 3)
    assert series.rational == RationalForm((1, 2), (1, -1))
    growing = growth_from_counts((2, 3, 4, 5))
    assert growing.rational is None
    assert growth_from_counts((4, 5, 5, 5, 5)).rational == RationalForm((1, 3, 1), (1, -1))
    with pytest.raises(ParameterError):
        growth_from_counts(())
    with pytest.raises(ParameterError):
        growth_from_counts((3, 0, 3))


@pytest.mark.parametrize("n", [3, 5, 7])
def test_torus_closed_form_matches_counts(n):
    series = growth_for_family("torus2", (n,), terms=10)
    assert series.rational == torus_form(n)
    assert series.coefficients == torus_form(n).expand(10)
    assert series.coefficients == counted(AltSumSemigroup(Zmod(n), tuple(range(n))), 10)
    assert series.warnings == ()


@pytest.mark.parametrize("n,l", [(2, 2), (3, 2), (2, 4)])
def test_dtw_closed_form_matches_counts(n, l):
    series = growth_for_family("dtw", (n, l), terms=10)
    assert series.rational == dtw_form(n, l)
    assert series.coefficients == dtw_form(n, l).expand(10)
    assert series.coefficients == counted(dtw_alphabet(n, l).semigroup(), 10)


def test_dtw_closed_form_warns_on_odd_product():
    series = growth_for_family("dtw", (3, 3))
    assert series.warnings == (
        "twist product 3*3 is odd; the isomorphism is only asserted for even products",
    )
    assert growth_for_family("dtw", (3, 2)).warnings == ()


PAPER_FORMS = (
    [(("torus2", (n,)), torus_form(n)) for n in range(1, 26, 2)]
    + [(("twist", (n,)), dtw_form(n, 2)) for n in range(1, 12)]
    + [
        (("dtw", (n, l)), dtw_form(n, l))
        for n in range(1, 12)
        for l in range(1, 12)
        if n * l % 2 == 0
    ]
)
# dtw:n,l with nl odd is a two-component link, and the paper states no form
ODD_PRODUCT_DTW = [("dtw", (n, l)) for n in range(1, 12, 2) for l in range(1, 12, 2)]
SERIES_FORMS = PAPER_FORMS + [(family, None) for family in ODD_PRODUCT_DTW]


def family_id(family):
    kind, params = family
    return f"{kind}:{','.join(map(str, params))}"


@pytest.mark.parametrize(
    "family,form", SERIES_FORMS, ids=[family_id(family) for family, _ in SERIES_FORMS]
)
def test_paper_forms_from_settled_levels(family, form):
    """Every odd torus2, twist and even-product dtw target settles by length
    3, so its series carries the paper's form at every length from 3 terms
    on.  An odd-product dtw series carries no form (None here)."""
    kind, params = family
    for terms in (3, 4, 5, 6, 12):
        series = growth_for_family(kind, params, terms=terms)
        assert (series.rational, series.terms) == (form, terms)
        assert series.source == f"{kind}:{','.join(map(str, params))}"
    assert series.coefficients == counted(FAMILIES[kind].target(*params)[0], 12)


@pytest.mark.parametrize("family", ODD_PRODUCT_DTW, ids=[family_id(f) for f in ODD_PRODUCT_DTW])
def test_odd_product_dtw_targets_are_strong(family):
    """The Fox target of dtw:n,l with nl odd is SAS on the arc subscripts in
    Z_(ln+1), whose levels never settle, so the series has no form and
    its counts are the target's."""
    kind, (n, l) = family
    sg, phi, _ = FAMILIES[kind].target(n, l)
    generators = dtw_alphabet(n, l).semigroup().generators
    assert sg == AltSumSemigroup(Zmod(l * n + 1), generators, strong=True)
    assert phi == tuple(v % (l * n + 1) for v in double_twist_arc_values(n, l))
    assert sg.level_counts(12)[1] is False
    series = growth_for_family(kind, (n, l), terms=12)
    assert series.rational is None
    assert series.coefficients == counted(sg, 12)


def test_dtw_one_one_is_the_hopf_link():
    """dtw:1,1 is the Hopf link: the same target, letter map and series."""
    assert FAMILIES["dtw"].target(1, 1)[:2] == FAMILIES["hopf"].target()[:2]
    assert growth_for_family("dtw", (1, 1), terms=40).coefficients == (
        growth_for_family("hopf", (), terms=40).coefficients
    )


def test_skew_growth_values():
    torus = skew_growth(growth_for_family("torus2", (3,)), terms=4)
    assert torus.coefficients == (1, -3, 6, -12)
    assert torus.rational == RationalForm((1, -1), (1, 2))
    dtw = skew_growth(growth_for_family("dtw", (2, 2)), terms=4)
    assert dtw.coefficients == (1, -4, 11, -29)


def test_skew_torus7_to_2000_terms():
    # the reciprocal of (1 + 6t)/(1 - t) is 1 - 7t/(1 + 6t)
    skew = skew_growth(growth_for_family("torus2", (7,), terms=2000), terms=2000)
    assert skew.coefficients == (1,) + tuple(-7 * (-6) ** (k - 1) for k in range(1, 2000))


@pytest.mark.parametrize(
    "series",
    [growth_for_family("torus2", (n,), terms=21) for n in (3, 5, 7)]
    + [growth_for_family("dtw", (n, l), terms=21) for n, l in ((2, 2), (3, 2), (2, 4))],
    ids=["torus3", "torus5", "torus7", "dtw22", "dtw32", "dtw24"],
)
def test_skew_is_reciprocal_to_order_20(series):
    skew = skew_growth(series, terms=21)
    unit = (1,) + (0,) * 20
    assert convolve(series.coefficients, skew.coefficients, 21) == unit


def test_skew_without_rational_is_capped():
    series = growth_from_counts((2, 3, 4, 5))
    assert series.rational is None
    skew = skew_growth(series)
    assert len(skew.coefficients) == len(series.coefficients)
    assert skew.rational is None
    with pytest.raises(ParameterError):
        skew_growth(series, terms=40)


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=3, max_size=8))
@settings(max_examples=200)
def test_skew_reciprocal_property(counts):
    series = growth_from_counts(counts)
    skew = skew_growth(series)
    terms = len(series.coefficients)
    assert convolve(series.coefficients, skew.coefficients, terms) == (1,) + (0,) * (terms - 1)


def reciprocal(p, terms):
    """The power-series reciprocal of p, n_k = -(p_1 n_{k-1} + ... + p_k n_0)."""
    n = [1]
    for k in range(1, terms):
        n.append(-sum(p[i] * n[k - i] for i in range(1, min(k, len(p) - 1) + 1)))
    return tuple(n)


@given(
    prefix=st.lists(st.integers(min_value=-9, max_value=9), max_size=5),
    tail=st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=4),
    length=st.integers(min_value=1, max_value=30),
    extra=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=300, deadline=None)
def test_formless_skew_is_the_reciprocal(prefix, tail, length, extra):
    """Counts of a prefix and then a polynomial of degree 0..3: the skew of
    their series with no form is its power-series reciprocal, through every
    coefficient known, and still claims no form.  A tail of degree below 3
    runs past the prefix on a denominator of a few terms only."""
    counts = prefix + [sum(a * d**i for i, a in enumerate(tail)) for d in range(length)]
    series = GrowthSeries((1, *counts))
    terms = max(series.terms - extra, 1)
    skew = skew_growth(series, terms=terms)
    assert skew.coefficients == reciprocal(series.coefficients, terms)
    assert (skew.terms, skew.rational, skew.source) == (terms, None, "counts")
    degree = len(tail) - 1
    if degree < 3:
        assert len(skew._recurrence.denominator) <= len(prefix) + degree + 3


def test_even_torus_skew_expands_from_a_short_denominator():
    """torus2:12 counts 6(t + 1) from degree 1 on, with no settled form:
    its skew expands from (1 - t)^2 over a denominator of at most 4 terms."""
    growth = growth_for_family("torus2", (12,), terms=151)
    assert growth.rational is None
    skew = skew_growth(growth)
    assert skew.rational is None
    assert len(skew._recurrence.denominator) <= 4
    assert skew.coefficients == reciprocal(growth.coefficients, 151)


# -- dimension estimation ------------------------------------------------------


def test_gk_from_rational_pole_order():
    est = gk_dimension(growth_for_family("torus2", (3,)))
    assert (est.value, est.infinite, est.method) == (1, False, "rational")
    assert est.label() == "1"
    assert gk_dimension(growth_for_family("dtw", (2, 2))).value == 1
    assert gk_dimension(growth_for_family("trivial", (), terms=10)).value == 1


def test_gk_from_differences():
    hopf = growth_for_family("hopf", (), terms=11)
    est = gk_dimension(hopf)
    assert (est.value, est.method) == (2, "difference")
    # plain counts take the same route: no rational form is attached
    est2 = gk_dimension((1,) * 10)
    assert (est2.value, est2.method) == (1, "difference")
    assert est.evidence["cumulative"] == list(accumulate(hopf.counts(), initial=1))


def test_gk_ratio_test_flags_exponential_growth():
    free2 = tuple(2**t for t in range(1, 11))
    est = gk_dimension(free2)
    assert est.infinite
    assert est.method == "ratio"
    assert est.label() == "infinity"
    assert all(r >= 1.2 for r in est.evidence["ratios"])


def test_gk_method_overrides_and_unresolved():
    free2 = tuple(2**t for t in range(1, 11))
    assert gk_dimension(free2, method="ratio").infinite
    forced = gk_dimension(free2, method="difference")
    assert forced.method == "unresolved" and forced.value is None
    flat = gk_dimension((1,) * 10, method="ratio")
    assert flat.method == "unresolved" and not flat.infinite
    short = gk_dimension((2, 3))
    assert short.method == "unresolved"
    assert short.label() == "unresolved"
    with pytest.raises(ParameterError):
        gk_dimension(free2, method="rational")
    with pytest.raises(ParameterError):
        gk_dimension(free2, method="entropy")


def test_gk_json_shape():
    data = gk_dimension(growth_for_family("torus2", (3,))).to_json_dict()
    assert data["gk"] == "1"
    assert data["method"] == "rational"
    assert data["evidence"]["pole_order"] == 1


# -- rewrite invariance --------------------------------------------------------


def test_rewrite_preserves_cumulative_dimensions():
    trefoil = build_torus2(3)
    kinked = apply_reidemeister(trefoil, ReidemeisterMove("r1", arc=0, end=0))
    report = reidemeister_dimension_check(trefoil, kinked, max_len=3, description="r1")
    assert report.all_equal
    assert [d.left_cumulative for d in report.degrees] == [4, 7, 10]
    assert [d.right_cumulative for d in report.degrees] == [4, 7, 10]
    data = report.to_json_dict()
    assert data["all_equal"] is True
    assert data["degrees"][0]["left"] == {"count": 3, "cumulative": 4}


def test_distinct_knots_are_distinguished():
    report = reidemeister_dimension_check(
        build_torus2(3), build_trivial(), max_len=2, description="trefoil-vs-unknot"
    )
    assert not report.all_equal


def test_growth_for_family_dispatch():
    assert growth_for_family("trivial", (), terms=5).coefficients == (1, 1, 1, 1, 1)
    assert growth_for_family("hopf", (), terms=5).counts() == (2, 3, 4, 5)
    assert growth_for_family("torus2", (5,), terms=5).counts() == (5, 5, 5, 5)
    even = growth_for_family("torus2", (4,), terms=5)
    assert (even.counts(), even.rational, even.warnings) == ((4, 6, 8, 10), None, ())
    twist = growth_for_family("twist", (3,), terms=5)
    assert twist.source == "twist:3"
    assert twist.coefficients == dtw_form(3, 2).expand(5) == (1, 5, 7, 7, 7)
    assert growth_for_family("dtw", (2, 4), terms=4).counts() == (6, 9, 9)
    conway = growth_for_family("conway", (2, 1, 2), terms=5)
    assert (conway.source, conway.rational) == ("conway:2,1,2", None)
    assert conway.counts() == (5, 11, 16, 20)
    assert conway.warnings == (
        "the target is Vernitski's conjecture, checked one diagram and one degree at a time",
    )
    with pytest.raises(ParameterError, match="unknown family 'nosuch'"):
        growth_for_family("nosuch", ())


def test_conway_series_are_the_torus_and_double_twist_series():
    """conway:n is torus2:n and conway:l,n is dtw:n,l, up to arc labels, so
    their targets give the same series."""

    def series(kind, *params):
        s = growth_for_family(kind, params, terms=15)
        return s.coefficients, s.rational

    for n in range(1, 30):
        assert series("conway", n) == series("torus2", n), n
    for n in range(1, 9):
        for l in range(1, 9):
            assert series("conway", l, n) == series("dtw", n, l), (n, l)
