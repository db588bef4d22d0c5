#!/usr/bin/env python3
"""Growth, skew growth and dimension report for the closed-form families.

For each family the script prints: the measured count series, the closed
rational form and its expansion, the skew (reciprocal) series, a convolution
check P*N = 1, and the growth exponent estimate.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from knotgrowth.diagrams import FAMILIES  # noqa: E402
from knotgrowth.growth import (  # noqa: E402
    gk_dimension,
    semigroup_growth,
    skew_growth,
    dtw_growth,
    torus_growth,
)


def target(kind, *params):
    """The family's target semigroup from its row of the family table."""
    return FAMILIES[kind].target(*params)[0]


def poly(coeffs):
    return " + ".join(f"{c}t^{i}" if i else str(c) for i, c in enumerate(coeffs))


def section(name, closed, sg, terms):
    measured = semigroup_growth(sg, terms=terms)
    skew = skew_growth(closed, terms=terms)
    conv = tuple(
        sum(closed.coefficients[i] * skew.coefficients[k - i] for i in range(k + 1))
        for k in range(terms)
    )
    unit = (1,) + (0,) * (terms - 1)
    est = gk_dimension(closed)
    print(f"-- {name}  ({sg!r})")
    print(f"   counts      {measured.coefficients}")
    print(f"   closed form ({poly(closed.rational.numerator)}) / "
          f"({poly(closed.rational.denominator)})"
          f"  -> {closed.coefficients[:terms]}")
    print(f"   match: {closed.coefficients[:terms] == measured.coefficients}")
    print(f"   skew        {skew.coefficients}")
    print(f"   P*N == 1: {conv == unit}")
    print(f"   growth exponent: {est.label()} (method {est.method})")
    for w in closed.warnings:
        print(f"   note: {w}")
    print()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--terms", type=int, default=10, help="series length")
    args = parser.parse_args()
    terms = args.terms

    for n in (3, 5, 7):
        section(f"torus2:{n}", torus_growth(n, terms=terms), target("torus2", n), terms)
    for n, l in ((2, 2), (3, 2), (2, 4)):
        section(f"dtw:{n},{l}", dtw_growth(n, l, terms=terms), target("dtw", n, l), terms)

    sg = target("hopf")
    hopf = semigroup_growth(sg, terms=terms)
    est = gk_dimension(hopf)
    print(f"-- hopf  ({sg!r})")
    print(f"   counts      {hopf.coefficients}")
    print(f"   growth exponent: {est.label()} (method {est.method})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
