"""Knot semigroups: diagrams, presentations, exact alternating-sum
arithmetic, bounded congruence counting, and growth.

The exported names resolve on first use, each from the module that
defines it, so a caller that needs only the series never loads the
congruence closure (`oracle`, `presentation`)."""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS = {
    "dtw_alphabet": "altsum",
    "build_double_twist": "diagrams",
    "build_family": "diagrams",
    "diagram_to_dict": "diagrams",
    "parse_family_spec": "diagrams",
    "gk_dimension": "growth",
    "growth_for_family": "growth",
    "skew_growth": "growth",
    "enumerate_classes": "oracle",
    "verify_family": "oracle",
    "presentation_from_diagram": "presentation",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """An exported name, from its module; any other name is missing, so
    `from knotgrowth import oracle` falls through to the submodule."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
