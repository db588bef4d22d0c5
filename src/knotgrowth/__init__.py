"""Knot semigroups: diagrams, presentations, exact alternating-sum
arithmetic, bounded congruence counting, and growth."""

from .altsum import (
    AltSumSemigroup,
    ConjectureAlphabet,
    DtwAlphabet,
    Zmod,
    conjecture_alphabet,
    dtw_alphabet,
)
from .diagrams import (
    Crossing,
    Diagram,
    FamilySpec,
    ReidemeisterMove,
    apply_reidemeister,
    build_conway,
    build_double_twist,
    build_family,
    build_torus2,
    build_trivial,
    conway_with_traces,
    diagram_from_dict,
    diagram_to_dict,
    double_twist_arc_values,
    load_pd,
    parse_family_spec,
    r1_insert,
    r1_remove,
    r2_insert,
    r2_remove,
    r3_move,
)
from .errors import (
    DomainError,
    InternalConsistencyError,
    KnotgrowthError,
    MoveError,
    ParameterError,
    ResourceBudgetError,
)
from .growth import (
    GkEstimate,
    GrowthSeries,
    RationalForm,
    RmoveReport,
    SkewSeries,
    cumulative_dimension,
    dtw_growth,
    gk_dimension,
    growth_for_family,
    growth_from_counts,
    reidemeister_dimension_check,
    semigroup_growth,
    skew_growth,
    torus_growth,
)
from .oracle import (
    DEFAULT_WORD_BUDGET,
    CongruencePartition,
    DegreeVerdict,
    VerificationReport,
    conjecture_probe,
    enumerate_classes,
    verify_family,
    verify_homomorphism,
    verify_isomorphism,
)
from .presentation import Presentation, are_isomorphic, presentation_from_diagram

__version__ = "0.1.0"
