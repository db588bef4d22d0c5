"""Knot semigroups: diagrams, presentations, exact alternating-sum
arithmetic, bounded congruence counting, and growth."""

from .altsum import dtw_alphabet
from .diagrams import build_double_twist, build_family, diagram_to_dict, parse_family_spec
from .growth import gk_dimension, skew_growth, torus_growth
from .oracle import enumerate_classes, verify_family
from .presentation import presentation_from_diagram

__version__ = "0.1.0"
