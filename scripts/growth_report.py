#!/usr/bin/env python3
"""Growth, skew growth and dimension report for the closed-form families.

For each family the script prints: the target's element counts, the
paper's closed rational form and its expansion, whether the expansion
matches the counts and the form matches the one ``growth_for_family``
reads off the target's levels, the skew (reciprocal) series, a convolution
check P*N = 1, and the growth exponent estimate.

    python scripts/growth_report.py [--terms T]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from knotgrowth.diagrams import FAMILIES  # noqa: E402
from knotgrowth.growth import (  # noqa: E402
    GrowthSeries,
    RationalForm,
    gk_dimension,
    growth_for_family,
    skew_growth,
)


def target(kind, *params):
    """The family's target semigroup from its row of the family table."""
    return FAMILIES[kind].target(*params)[0]


def poly(coeffs):
    return " + ".join(f"{c}t^{i}" if i else str(c) for i, c in enumerate(coeffs))


def section(kind, params, numerator, terms):
    """One family's report against the paper's form numerator/(1 - t)."""
    name = f"{kind}:{','.join(map(str, params))}"
    sg = target(kind, *params)
    counts = (1,) + tuple(sg.count_elements(t) for t in range(1, terms))
    family = growth_for_family(kind, params, terms=terms)
    closed = GrowthSeries.from_rational(RationalForm(numerator, (1, -1)), terms)
    skew = skew_growth(closed, terms=terms)
    conv = tuple(
        sum(closed.coefficients[i] * skew.coefficients[k - i] for i in range(k + 1))
        for k in range(terms)
    )
    unit = (1,) + (0,) * (terms - 1)
    est = gk_dimension(closed)
    print(f"-- {name}  ({sg!r})")
    print(f"   counts      {counts}")
    print(f"   closed form ({poly(closed.rational.numerator)}) / "
          f"({poly(closed.rational.denominator)})"
          f"  -> {closed.coefficients[:terms]}")
    print(f"   match: {closed.coefficients == counts and closed.rational == family.rational}")
    print(f"   skew        {skew.coefficients}")
    print(f"   P*N == 1: {conv == unit}")
    print(f"   growth exponent: {est.label()} (method {est.method})")
    for w in family.warnings:
        print(f"   note: {w}")
    print()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--terms", type=int, default=10, help="series length")
    args = parser.parse_args()
    terms = args.terms

    # the paper's forms (1 + (n-1)t)/(1 - t) and
    # (1 + (n+l-1)t + (nl-n-l+1)t^2)/(1 - t)
    for n in (3, 5, 7):
        section("torus2", (n,), (1, n - 1), terms)
    for n, l in ((2, 2), (3, 2), (2, 4)):
        section("dtw", (n, l), (1, n + l - 1, n * l - n - l + 1), terms)

    sg = target("hopf")
    hopf = growth_for_family("hopf", (), terms=terms)
    est = gk_dimension(hopf)
    print(f"-- hopf  ({sg!r})")
    print(f"   counts      {hopf.coefficients}")
    print(f"   growth exponent: {est.label()} (method {est.method})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
