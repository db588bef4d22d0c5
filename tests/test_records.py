"""The package's records: value semantics where they are compared, hashed
or printed, construction by keyword, and what importing the package loads
and exports."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import knotgrowth
from knotgrowth.altsum import AltSumSemigroup, DtwAlphabet, Zmod
from knotgrowth.diagrams import (
    Crossing,
    Diagram,
    Family,
    FamilySpec,
    ReidemeisterMove,
    build_trivial,
)
from knotgrowth.errors import ParameterError
from knotgrowth.growth import (
    DimensionComparison,
    GkEstimate,
    GrowthSeries,
    RationalForm,
    RmoveReport,
    SkewSeries,
)
from knotgrowth.oracle import DegreeVerdict, VerificationReport
from knotgrowth.presentation import Presentation

ROOT = Path(__file__).resolve().parents[1]

# (build one value, build an equal value afresh, build a different value)
VALUES = {
    "Zmod": (lambda: Zmod(5), lambda: Zmod(5), lambda: Zmod(7)),
    "AltSumSemigroup": (
        lambda: AltSumSemigroup(Zmod(5), (3, 1, 8)),
        lambda: AltSumSemigroup(Zmod(5), (1, 3)),
        lambda: AltSumSemigroup(Zmod(5), (1, 3), strong=True),
    ),
    "Crossing": (lambda: Crossing(0, (2, 1)), lambda: Crossing(0, (1, 2)),
                 lambda: Crossing(1, (0, 2))),
    "FamilySpec": (lambda: FamilySpec("dtw", (2, 2)), lambda: FamilySpec("dtw", (2, 2)),
                   lambda: FamilySpec("dtw", (2, 4))),
    "RationalForm": (lambda: RationalForm((1, 2, 0), (1, -1)),
                     lambda: RationalForm((1, 2), (1, -1)),
                     lambda: RationalForm((1, 2), (1, 1))),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_values_compare_and_hash_alike(name):
    one, same, other = VALUES[name]
    a, b, c = one(), same(), other()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != c and not a == c
    assert len({a, b, c}) == 2
    assert {a: "x"}[b] == "x"
    assert a != (a,)


FROZEN = {**{name: builders[0] for name, builders in VALUES.items()},
          "Diagram": lambda: Diagram(3, (Crossing(0, (1, 2)),))}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_hashable_records_refuse_assignment(name):
    record = FROZEN[name]()
    field = getattr(type(record), "_fields", type(record).__slots__)[0]
    value = getattr(record, field)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, value)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) == value


# Each record with arguments already in normal form, in positional order.
KEYWORDS = [
    (Zmod, {"modulus": 3}),
    (AltSumSemigroup, {"group": Zmod(3), "generators": (0, 1), "strong": True}),
    (DtwAlphabet, {"n": 2, "l": 4}),
    (Crossing, {"over": 0, "under": (1, 2)}),
    (Diagram, {"arc_count": 2, "crossings": (Crossing(0, (1, 1)),), "arc_names": ("p", "q")}),
    (Family, {"arity": 1, "build": build_trivial, "notes": None}),
    (FamilySpec, {"kind": "torus2", "params": (3,)}),
    (ReidemeisterMove, {"kind": "r2", "direction": "insert", "arc": 0, "end": 1,
                        "over_arc": 2, "crossings": ()}),
    (RationalForm, {"numerator": (1, 2), "denominator": (1, -1)}),
    (GrowthSeries, {"coefficients": (1, 3, 3), "rational": RationalForm((1, 2), (1, -1)),
                    "source": "torus2:3", "warnings": ("w",)}),
    (SkewSeries, {"coefficients": (1, -3), "rational": None, "source": "s"}),
    (GkEstimate, {"value": 1, "infinite": False, "method": "rational", "evidence": {}}),
    (DimensionComparison, {"degree": 1, "left_count": 3, "right_count": 3,
                           "left_cumulative": 4, "right_cumulative": 4}),
    (RmoveReport, {"description": "d", "max_len": 1, "pad": 2, "degrees": ()}),
    (DegreeVerdict, {"degree": 1, "class_count": 3, "element_count": 3, "aligned": True,
                     "verdict": "verified"}),
    (VerificationReport, {"description": "d", "semigroup": "AS(Zmod(3), {0, 1, 2})",
                          "alphabet_size": 3, "max_len": 1, "pad": 2, "phi": (0, 1, 2),
                          "homomorphism": True, "degrees": (), "warnings": ("w",)}),
    (Presentation, {"alphabet_size": 2, "relations": (((0, 1), (1, 0)),),
                    "letter_names": ("a", "b")}),
]


@pytest.mark.parametrize("cls, kwargs", KEYWORDS, ids=[cls.__name__ for cls, _ in KEYWORDS])
def test_construction_by_keyword_and_position(cls, kwargs):
    for record in (cls(**kwargs), cls(*kwargs.values())):
        assert {key: getattr(record, key) for key in kwargs} == kwargs


# The records of results, moves and families: tuples that are read, never
# hashed or compared.
RESULTS = (DegreeVerdict, VerificationReport, GkEstimate, DimensionComparison, RmoveReport,
           Family, ReidemeisterMove, DtwAlphabet)


@pytest.mark.parametrize("cls", RESULTS, ids=[cls.__name__ for cls in RESULTS])
def test_result_records_refuse_assignment(cls):
    assert "__init__" not in vars(cls)
    kwargs = dict(KEYWORDS)[cls]
    record = cls(**kwargs)
    for field, value in kwargs.items():
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert {key: getattr(record, key) for key in kwargs} == kwargs


def test_defaults_match_the_documented_signatures():
    assert AltSumSemigroup(Zmod(3), (0,)).strong is False
    assert FamilySpec("hopf").params == ()
    move = ReidemeisterMove("r1")
    assert (move.direction, move.arc, move.end, move.over_arc, move.crossings) == (
        "insert", None, 0, None, ()
    )
    series = GrowthSeries((1, 2))
    assert (series.rational, series.source, series.warnings) == (None, "counts", ())
    skew = SkewSeries((1, -2))
    assert (skew.rational, skew.source) == (None, "counts")
    assert Presentation(1, ()).letter_names is None
    assert Diagram(1, ()).arc_names is None


def test_reprs_that_reach_messages():
    assert repr(Zmod(3)) == "Zmod(3)"
    assert repr(AltSumSemigroup(Zmod(5), (3, 1, 8))) == "AS(Zmod(5), {1, 3})"
    assert repr(AltSumSemigroup(Zmod(4), (0, 1), strong=True)) == "SAS(Zmod(4), {0, 1})"
    assert repr(Crossing(0, (2, 1))) == "Crossing(over=0, under=(1, 2))"
    message = "crossing Crossing(over=0, under=(1, 5)) references arc 5, out of range for 2 arcs"
    with pytest.raises(ParameterError, match=re.escape(message)):
        Diagram(2, (Crossing(0, (5, 1)),))


def _fresh(code: str) -> str:
    """The stdout of `code` in a fresh interpreter without the site module."""
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout


def _loaded_by_import(modules, argv=None):
    """Which of the named modules `import knotgrowth, knotgrowth.cli` loads,
    in a fresh interpreter without the site module; with `argv`, once
    `cli.main(argv)` has also run and returned 0."""
    run = "" if argv is None else f"assert knotgrowth.cli.main({list(argv)!r}) == 0; "
    code = (
        f"import json, sys, knotgrowth, knotgrowth.cli; {run}"
        f"print(json.dumps([m for m in {tuple(modules)!r} if m in sys.modules]))"
    )
    return json.loads(_fresh(code).splitlines()[-1])


CLOSURE_MODULES = ("knotgrowth.oracle", "knotgrowth.presentation")

# each name the package exports -> the module that defines it
EXPORTS = {
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


def test_import_loads_no_code_generation_modules():
    """The records are plain classes or ``collections.namedtuple``
    subclasses: importing the package and its CLI pulls in none of the
    modules that dataclasses and other runtime-generated classes need."""
    assert _loaded_by_import(("dataclasses", "inspect", "string", "typing")) == []


def test_import_loads_no_pathlib():
    """Files are opened by name, so the import skips pathlib and what it
    pulls in."""
    assert _loaded_by_import(("pathlib", "fnmatch", "urllib.parse")) == []


def test_import_loads_no_decimal():
    """Only the text of a long rational series uses decimals, and it imports
    them when it first needs them."""
    assert _loaded_by_import(("decimal", "numbers")) == []


def test_import_loads_no_closure():
    """The congruence closure is compiled and loaded only by the
    subcommands that run it."""
    assert _loaded_by_import(CLOSURE_MODULES) == []


# id -> (argv, the closure modules it loads in a fresh interpreter)
STARTUP_CASES = {
    "growth": (("growth", "--family", "torus2:7"), []),
    "skew": (("skew", "--family", "dtw:2,2"), []),
    "gkdim": (("gkdim", "--family", "hopf"), []),
    "gkdim-conway": (("gkdim", "--family", "conway:2,1,2"), []),
    "classes": (("classes", "--family", "torus2:3", "--max-len", "2"), list(CLOSURE_MODULES)),
    "verify": (
        ("verify", "--theorem", "torus", "--params", "3", "--max-len", "2"),
        list(CLOSURE_MODULES),
    ),
}


@pytest.mark.parametrize("argv, loaded", STARTUP_CASES.values(), ids=list(STARTUP_CASES))
def test_subcommands_load_the_closure_only_to_run_it(argv, loaded):
    assert _loaded_by_import(CLOSURE_MODULES, argv) == loaded


# a well-formed call of each subcommand
WELL_FORMED_CALLS = [
    ("present", "--family", "torus2:3"),
    ("classes", "--family", "torus2:3", "--max-len", "2"),
    ("verify", "--theorem", "torus", "--params", "3", "--max-len", "2"),
    ("probe", "--conjecture", "cmln", "--params", "1,1,2", "--max-len", "2"),
    ("growth", "--family", "torus2:7", "--rational"),
    ("skew", "--family", "dtw:2,2", "--format", "json"),
    ("gkdim", "--family", "hopf", "--terms", "20"),
    ("rmove", "--family", "torus2:3", "--move", "r1", "--site", "arc=0", "--max-len", "2"),
]


@pytest.mark.parametrize("argv", WELL_FORMED_CALLS, ids=[a[0] for a in WELL_FORMED_CALLS])
def test_well_formed_calls_load_no_argparse(argv):
    """The option table reads a well-formed call whole, so it never imports
    argparse, nor the gettext that argparse loads."""
    assert _loaded_by_import(("argparse", "gettext"), argv) == []


@pytest.mark.parametrize("argv, code", [(("classes", "-h"), 0), (("classes", "--family", "hopf"), 2)])
def test_help_and_usage_errors_build_argparse_in_a_fresh_interpreter(argv, code):
    result = subprocess.run(
        [sys.executable, "-S", "-m", "knotgrowth", *argv],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
    )
    assert result.returncode == code
    assert "usage: knotgrowth" in result.stdout + result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_package_names_resolve_to_their_modules(name):
    module = importlib.import_module(f"knotgrowth.{EXPORTS[name]}")
    assert getattr(knotgrowth, name) is getattr(module, name)


def test_package_lists_its_names():
    """`dir` lists the names before any has resolved, in a fresh
    interpreter, and `import *` binds exactly them."""
    listed = json.loads(_fresh("import json, knotgrowth; print(json.dumps(dir(knotgrowth)))"))
    assert set(EXPORTS) <= set(listed)
    namespace: dict = {}
    exec("from knotgrowth import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTS)


def test_package_submodule_import_is_not_shadowed():
    """A name the package does not export falls through to the import
    system, so a fresh `from knotgrowth import oracle` gets the module."""
    code = (
        "import sys; from knotgrowth import oracle; "
        "print(oracle is sys.modules['knotgrowth.oracle'])"
    )
    assert _fresh(code) == "True\n"


def test_package_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nonesuch'"):
        knotgrowth.nonesuch  # noqa: B018
    assert not hasattr(knotgrowth, "nonesuch")


def test_readme_library_example():
    """The README's Library block runs against the package namespace, and
    each bare expression evaluates to the value its comment shows."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    shown = []
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            comment = lines[node.end_lineno - 1].split("#", 1)[1].strip()
            shown.append((repr(eval(source, namespace)), comment))
        else:
            exec(source, namespace)
    assert [comment for _, comment in shown] == [
        "(4, 5, 5, 5)", "5", "'AS(Zmod(5), {0, 1, 2, 3})'", "True", "(1, -3, 6, -12)", "'1'"
    ]
    assert [value for value, _ in shown] == [comment for _, comment in shown]
