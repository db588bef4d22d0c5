"""Command line interface: grammars, output formats, exit codes."""

import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from itertools import zip_longest
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotgrowth import cli
from knotgrowth.cli import (
    MAX_TERMS,
    SUBCOMMANDS,
    _no_digit_limit,
    _parse_from_table,
    _print_series_csv,
    build_parser,
    main,
)
from knotgrowth.diagrams import (
    build_family,
    build_torus2,
    diagram_from_dict,
    diagram_to_dict,
    parse_family_spec,
)
from knotgrowth.errors import InternalConsistencyError
from knotgrowth.growth import (
    GrowthSeries,
    RationalForm,
    SkewSeries,
    growth_for_family,
    skew_growth,
)
from knotgrowth.oracle import enumerate_classes
from knotgrowth.presentation import presentation_from_diagram


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- present / classes ---------------------------------------------------------


def test_present_json(capsys):
    code, out, _ = run(capsys, "present", "--family", "torus2:3")
    assert code == 0
    data = json.loads(out)
    assert data["schema_version"] == 1
    assert data["alphabet"] == 3
    relations = {tuple(map(tuple, r)) for r in data["relations"]}
    assert len(relations) == 6
    assert ((0, 1), (1, 2)) in relations  # ab = bc at the crossing over b


def test_present_text(capsys):
    code, out, _ = run(capsys, "present", "--family", "hopf", "--format", "text")
    assert code == 0
    assert "letters: 2" in out
    assert "a b = b a" in out


def test_present_from_pd_file(capsys, tmp_path):
    path = tmp_path / "trefoil.json"
    path.write_text(json.dumps(diagram_to_dict(build_torus2(3))))
    code, out, _ = run(capsys, "present", "--pd", str(path))
    assert code == 0
    assert json.loads(out)["alphabet"] == 3


def test_readme_diagram_json_example(capsys, tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Diagram JSON", 1)[1]
    example = section.split("```json", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.json"
    path.write_text(example)
    code, out, _ = run(capsys, "classes", "--pd", str(path), "--max-len", "3")
    assert code == 0
    assert out.splitlines() == ["degree,count", "1,3", "2,3", "3,3"]


def test_present_rejects_malformed_pd(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "present", "--pd", str(path))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "text",
    [
        '{"arcs": 3, "crossings": null}',
        '{"arcs": 1.5, "crossings": []}',
        '{"arcs": 3, "crossings": [{"over": 0, "under": "01"}]}',
        '{"arcs": 3, "crossings": [{"over": true, "under": [1, 2]}]}',
        '{"arcs": 3, "crossings": [{"over": 0, "under": [1, 1e400]}]}',
        '{"arcs": 3, "crossings": [7]}',
    ],
)
def test_classes_rejects_malformed_pd_types(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, "classes", "--pd", str(path), "--max-len", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed")


# bytes that no UTF-8 decoder reads: a UTF-16 byte order mark before JSON,
# and the start of an executable, whose bytes run through 0x80-0xff
NOT_UTF8 = [b"\xff\xfe{}", b"\x7fELF\x02\x01\x01\x00" + bytes(range(256))]


@pytest.mark.parametrize("data", NOT_UTF8, ids=["bom", "binary"])
def test_pd_that_is_not_utf8_exits_two(capsys, tmp_path, data):
    path = tmp_path / "diagram.json"
    path.write_bytes(data)
    code, out, err = run(capsys, "present", "--pd", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: diagram file {str(path)!r} is not UTF-8 text\n"


def test_deeply_nested_pd_exits_two(capsys, tmp_path):
    """JSON deeper than the interpreter's recursion limit is refused, not a
    RecursionError; shallower nesting is malformed diagram data."""
    path = tmp_path / "diagram.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "present", "--pd", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: diagram file {str(path)!r} is nested too deeply to read\n"
    path.write_text("[" * 100 + "]" * 100)
    code, out, err = run(capsys, "present", "--pd", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed diagram data")


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-1000, 1000)
    | st.floats()
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
ARC = st.integers(-1, 4) | JSON_VALUES
CROSSING = st.fixed_dictionaries({"over": ARC, "under": st.lists(ARC, max_size=3) | JSON_VALUES})
DIAGRAM = st.fixed_dictionaries(
    {"arcs": ARC, "crossings": st.lists(CROSSING | JSON_VALUES, max_size=3) | JSON_VALUES}
)


def run_quiet(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(data=JSON_VALUES | DIAGRAM)
def test_cli_pd_fuzz_exits_cleanly(data):
    # the small budget keeps the closures tiny; larger diagrams exit 3
    closure = ["--max-len", "2", "--budget", "20000"]
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "diagram.json")
        Path(path).write_text(json.dumps(data))
        code, err = run_quiet(["present", "--pd", path])
        assert code in (0, 2)
        assert "Traceback" not in err
        for argv in (
            ["classes", "--pd", path] + closure,
            ["rmove", "--pd", path, "--move", "r1", "--site", "arc=0"] + closure,
        ):
            code, err = run_quiet(argv)
            assert code in (0, 1, 2, 3)
            assert "Traceback" not in err


PARAM = st.integers(-3, 12) | st.sampled_from([10**8, 2**70])
SPEC = st.builds(
    lambda head, sep, params: head + sep + ",".join(map(str, params)),
    st.sampled_from(["trivial", "hopf", "torus2", "twist", "dtw", "conway", "nosuch", ""]),
    st.sampled_from(["", ":"]),
    st.lists(PARAM, max_size=3),
) | st.text(max_size=8)


@settings(max_examples=200, deadline=None)
@given(spec=SPEC)
def test_present_family_fuzz_exits_cleanly(spec):
    code, err = run_quiet(["present", "--family", spec])
    assert code in (0, 2)
    assert "Traceback" not in err


def test_oversized_inputs_exit_two(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"arcs": 100000000, "crossings": []}')
    for argv in (["present", "--pd", str(path)], ["present", "--family", "torus2:100000000"]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "at most 100000" in err
        assert "Traceback" not in err


def test_classes_csv(capsys):
    code, out, _ = run(
        capsys, "classes", "--family", "torus2:3", "--max-len", "3", "--pad", "1"
    )
    assert code == 0
    assert out.splitlines() == ["degree,count", "1,3", "2,3", "3,3"]


class CountingIO(io.StringIO):
    """A text buffer that counts its write calls."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_classes_csv_is_written_in_one_go():
    """A long window's CSV goes out in a bounded number of writes, not one
    or two per degree, with the same text as one line per degree."""
    out = CountingIO()
    with redirect_stdout(out):
        code = main(["classes", "--family", "trivial", "--max-len", "100000"])
    assert code == 0
    assert out.writes <= 4
    assert out.getvalue() == "degree,count\n" + "".join(f"{d},1\n" for d in range(1, 100001))


def test_classes_json(capsys):
    code, out, _ = run(
        capsys,
        "classes", "--family", "dtw:2,2", "--max-len", "3", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["schema_version"] == 1
    assert data["counts"] == [4, 5, 5]


def test_unknown_family_is_a_usage_error(capsys):
    code, _, err = run(capsys, "classes", "--family", "nonsense:3", "--max-len", "2")
    assert code == 2
    assert "error:" in err


# -- verify / probe -------------------------------------------------------------


def test_verify_torus_knot(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--theorem", "torus", "--params", "3", "--max-len", "4", "--pad", "2",
    )
    assert code == 0
    data = json.loads(out)
    assert data["all_verified"] is True
    assert [d["classes"] for d in data["degrees"]] == [3, 3, 3, 3]
    assert [d["verdict"] for d in data["degrees"]] == ["verified"] * 4


def test_verify_torus_link_text(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--theorem", "torus", "--params", "4",
        "--max-len", "3", "--format", "text",
    )
    assert code == 0
    assert "result: VERIFIED" in out
    assert "note: n = 4 is even: the braid closes to a two-component link" in out


def test_verify_torus_link_json_carries_the_note(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "torus", "--params", "4", "--max-len", "3")
    assert code == 0
    data = json.loads(out)
    assert data["all_verified"] is True
    assert data["warnings"] == ["n = 4 is even: the braid closes to a two-component link"]


def test_verify_failure_exits_one(capsys):
    # without pad levels the closure leaves degree-2 merges undone: 24
    # classes against the 15 elements of SAS(Z_10, ...), so dtw:3,3 stays
    # unresolved there, and carries the odd-product note
    code, out, _ = run(
        capsys, "verify", "--theorem", "dtw", "--params", "3,3", "--max-len", "2", "--pad", "0"
    )
    assert code == 1
    data = json.loads(out)
    assert data["all_verified"] is False
    assert data["degrees"][1]["verdict"] == "unresolved"
    assert data["warnings"]


def test_target_modulus_above_its_bound_exits_two(capsys):
    # dtw:2000,5000 has 7 000 arcs, well within MAX_ARCS, but its target
    # modulus 2000 * 5000 + 1 is one past MAX_MODULUS
    code, out, err = run(capsys, "growth", "--family", "dtw:2000,5000", "--terms", "3")
    assert (code, out) == (2, "")
    assert err == "error: target modulus 10000001 is above the bound 10000000\n"


def test_verify_arity_is_checked(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "torus", "--params", "3,3")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "verify", "--theorem", "torus", "--params", "x")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (("verify", "--theorem", "torus", "--params", "3,4"),
     "family 'torus2' takes 1 parameter(s), got 2"),
    (("verify", "--theorem", "dtw", "--params", "2"), "family 'dtw' takes 2 parameter(s), got 1"),
    (("verify", "--theorem", "twist", "--params", "x"),
     "bad parameter list 'x' for family 'twist'"),
    (("verify", "--theorem", "torus", "--params", ""),
     "family 'torus2' needs parameters, e.g. torus2:2"),
    (("probe", "--conjecture", "cmln", "--params", "a,b,c"),
     "bad parameter list 'a,b,c' for family 'conway'"),
    (("probe", "--conjecture", "cmln", "--params", "1,,2"),
     "bad parameter list '1,,2' for family 'conway'"),
    (("probe", "--conjecture", "cmln", "--params", "1,2"),
     "the cmln conjecture takes 3 parameters, got 2"),
])
def test_malformed_params_exit_two_through_the_family_grammar(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_probe_params_over_max_arcs_exit_two(capsys):
    # the cmln diagram is conway:m,l,n, so its arcs are bounded by MAX_ARCS
    # before it is built
    code, out, err = run(capsys, "probe", "--conjecture", "cmln", "--params", "99999,1,1")
    assert (code, out) == (2, "")
    assert err == (
        "error: family 'conway' with parameters summing to 100001 is too large; "
        "diagrams have at most 100000 arcs\n"
    )


def test_probe_target_modulus_above_its_bound_exits_two(capsys):
    # the conjectured modulus (ml + 1)n + m = 10 001 010 is past MAX_MODULUS,
    # though the diagram has only 2 012 arcs; the bound is met before the
    # word budget is
    code, out, err = run(
        capsys, "probe", "--conjecture", "cmln", "--params", "1000,1000,10", "--max-len", "2"
    )
    assert (code, out) == (2, "")
    assert err == "error: target modulus 10001010 is above the bound 10000000\n"


@pytest.mark.parametrize("argv", [
    ("classes", "--family", "torus2:3", "--max-len", "10000"),
    ("verify", "--theorem", "torus", "--params", "3", "--max-len", "10000"),
])
def test_universe_past_the_digit_limit_exits_three(capsys, argv):
    # 3 + 9 + ... + 3^10002 has 4 773 digits, past the int-to-str limit, so
    # the error names it in closed form
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == (
        "error: word universe needs (3^10003 - 3)/2 words but the budget is 5000000; "
        "raise the budget to at least (3^10003 - 3)/2\n"
    )


def test_huge_horizon_exits_three_at_once():
    # in a fresh process with a timeout: the universe is never built, where
    # building it power by power ran for minutes
    proc = subprocess.run(
        [sys.executable, "-m", "knotgrowth", "classes", "--family", "torus2:3",
         "--max-len", "1000000000"],
        capture_output=True, text=True, timeout=30,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == (
        "error: word universe needs (3^1000000003 - 3)/2 words but the budget is "
        "5000000; raise the budget to at least (3^1000000003 - 3)/2\n"
    )


@pytest.mark.parametrize("argv", [
    ("verify", "--theorem", "twist", "--params", "0"),
    ("classes", "--family", "twist:0", "--max-len", "2"),
    ("growth", "--family", "twist:0"),
    ("gkdim", "--family", "twist:0"),
])
def test_twist_rejects_zero_twists_in_its_own_terms(capsys, argv):
    # the twist family is dtw:n,2 inside, but the message names only the n
    # the user gave
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: twist needs n >= 1, got 0\n")


@pytest.mark.parametrize("n", ["0", "-2", "-3"])
@pytest.mark.parametrize("argv", [
    ("verify", "--theorem", "torus", "--max-len", "2", "--params"),
    ("classes", "--max-len", "2", "--family"),
    ("growth", "--family"),
    ("skew", "--family"),
    ("gkdim", "--family"),
])
def test_torus2_rejects_nonpositive_n_in_its_own_terms(capsys, argv, n):
    # even torus2 counts come from a target semigroup mod n, but the message
    # names the n the user gave, not a modulus
    code, out, err = run(capsys, *argv, n if argv[0] == "verify" else f"torus2:{n}")
    assert (code, out, err) == (2, "", f"error: torus2 needs n >= 1, got {n}\n")


def test_probe_exits_zero_even_when_unverified(capsys):
    code, out, _ = run(
        capsys,
        "probe", "--conjecture", "cmln", "--params", "2,1,2",
    )
    assert code == 0
    data = json.loads(out)
    assert data["all_verified"] is False
    assert data["description"] == "cmln:2,1,2"
    assert any("even" in w for w in data["warnings"])


def test_probe_verified_case(capsys):
    code, out, _ = run(
        capsys,
        "probe", "--conjecture", "cmln", "--params", "1,1,2",
        "--max-len", "3", "--pad", "2",
    )
    assert code == 0
    data = json.loads(out)
    assert data["all_verified"] is True
    assert sorted(data["phi"]) == [0, 1, 2, 3]


def test_probe_no_search(capsys):
    # the natural anchors fail on cmln:2,1,2 and no other anchors are tried
    code, out, _ = run(
        capsys,
        "probe", "--conjecture", "cmln", "--params", "2,1,2",
    )
    assert code == 0
    data = json.loads(out)
    assert data["homomorphism"] is False
    assert data["phi"] is None


# -- growth / skew / gkdim -------------------------------------------------------


def test_growth_family_with_rational(capsys):
    code, out, _ = run(
        capsys, "growth", "--family", "dtw:2,2", "--terms", "6", "--rational"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "degree,coefficient"
    assert lines[1:8] == ["0,1", "1,4", "2,5", "3,5", "4,5", "5,5", "6,5"]
    assert json.loads(lines[8]) == {"num": [1, 3, 1], "den": [1, -1]}


def test_growth_counts_without_stable_tail(capsys):
    code, out, _ = run(capsys, "growth", "--counts", "2,3,4,5", "--rational")
    assert code == 0
    lines = out.splitlines()
    assert lines[1:] == ["0,1", "1,2", "2,3", "3,4", "4,5", "null"]


def test_growth_counts_from_classes_csv(capsys, tmp_path):
    code, csv_out, _ = run(
        capsys, "classes", "--family", "torus2:3", "--max-len", "4", "--pad", "1"
    )
    assert code == 0
    path = tmp_path / "counts.csv"
    path.write_text(csv_out)
    code, out, _ = run(capsys, "growth", "--counts", str(path), "--terms", "4")
    assert code == 0
    assert out.splitlines()[1:] == ["0,1", "1,3", "2,3", "3,3", "4,3"]


def test_growth_json_format(capsys):
    code, out, _ = run(
        capsys, "growth", "--family", "torus2:3", "--terms", "4", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["coefficients"] == [1, 3, 3, 3, 3]
    assert data["rational"] == {"num": [1, 2], "den": [1, -1]}
    assert data["schema_version"] == 1


def test_trivial_growth_form_is_certified_at_two_terms(capsys):
    # the levels of AS(Z_1, {0}) settle at length 1, so two terms carry the
    # form that three equal counts would only extrapolate
    code, out, _ = run(capsys, "growth", "--family", "trivial", "--terms", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert (data["coefficients"], data["rational"]) == ([1, 1, 1], {"num": [1], "den": [1, -1]})


ODD_PRODUCT_NOTE = (
    "# note: twist product 3*3 is odd; the isomorphism is only asserted for even products"
)
CONJECTURE_NOTE = (
    "# note: the target is Vernitski's conjecture, checked one diagram and one degree at a time"
)


def _series_notes(capsys, *argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the stored note is the only channel
        code, _, err = run(capsys, *argv)
    assert code == 0
    assert "UserWarning" not in err
    return [line for line in err.splitlines() if line.startswith("# note:")]


def test_growth_warns_on_stderr_for_odd_twist_product(capsys):
    notes = _series_notes(capsys, "growth", "--family", "dtw:3,3", "--terms", "4")
    assert notes == [ODD_PRODUCT_NOTE]


@pytest.mark.parametrize("command", ["skew", "gkdim"])
def test_series_commands_note_odd_twist_product_once(capsys, command):
    notes = _series_notes(capsys, command, "--family", "dtw:3,3", "--terms", "4")
    assert notes == [ODD_PRODUCT_NOTE]


def test_conway_series_carry_the_conjecture_note(capsys):
    """A conway series or GK value is its target's, and says so."""
    code, out, err = run(capsys, "growth", "--family", "conway:3,1,3", "--format", "json")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["warnings"] == [CONJECTURE_NOTE.removeprefix("# note: ")]
    assert data["coefficients"][:4] == [1, 7, 15, 15]
    for argv in (
        ("growth", "--family", "conway:3,1,3", "--rational"),
        ("skew", "--family", "conway:2,1,2", "--terms", "4"),
        ("skew", "--family", "conway:2,1,2", "--format", "json"),
        ("gkdim", "--family", "conway:2,1,2"),
    ):
        assert _series_notes(capsys, *argv) == [CONJECTURE_NOTE], argv


def test_skew_csv(capsys):
    code, out, _ = run(capsys, "skew", "--family", "torus2:3", "--terms", "3")
    assert code == 0
    assert out.splitlines() == ["degree,coefficient", "0,1", "1,-3", "2,6", "3,-12"]


def _decimal(text: str) -> int:
    """A decimal integer of any length, parsed with Python's int-to-str
    digit limit lifted."""
    with _no_digit_limit():
        return int(text)


def _assert_int_csv(out: str, coefficients) -> None:
    """`out` is the series CSV from str() of each int, with the digit limit
    lifted.  A mismatch names its first line, since pytest's own diff of two
    texts of megabytes takes minutes to build."""
    with _no_digit_limit():
        lines = [f"{degree},{c}\n" for degree, c in enumerate(coefficients)]
    lines.insert(0, "degree,coefficient\n")
    if out != "".join(lines):
        pairs = enumerate(zip_longest(out.splitlines(keepends=True), lines))
        i, (got, want) = next((i, pair) for i, pair in pairs if pair[0] != pair[1])
        pytest.fail(f"line {i}: {got!r:.80} != {want!r:.80}")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_skew_prints_coefficients_past_the_digit_limit(capsys, fmt):
    # n_5600 = -7*(-6)^5599 has 4360 digits, past the default limit of 4300
    expected = (1,) + tuple(-7 * (-6) ** (k - 1) for k in range(1, 5601))
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = get_limit()
    code, out, err = run(
        capsys, "skew", "--family", "torus2:7", "--terms", "5600", "--format", fmt
    )
    assert (code, err) == (0, "")
    assert get_limit() == limit
    if fmt == "csv":
        _assert_int_csv(out, expected)
    else:
        assert tuple(json.loads(out, parse_int=_decimal)["coefficients"]) == expected


_small = st.one_of(st.just(0), st.integers(min_value=-9, max_value=9))


@given(
    numerator=st.lists(_small, min_size=1, max_size=6),
    denominator_tail=st.lists(_small, max_size=4),
    terms=st.integers(min_value=1, max_value=300),
)
@settings(max_examples=200, deadline=None)
def test_series_text_matches_int_text(numerator, denominator_tail, terms):
    """The text streamed from the decimal recurrence is str() of each int of
    the int recurrence, whose values solve den * c = num through the last
    degree."""
    form = RationalForm(tuple(numerator), (1, *denominator_tail))
    coefficients = form.expand(terms)
    assert all(type(c) is int for c in coefficients)
    num, den = form.numerator, form.denominator
    for i in range(terms):
        product = sum(d * coefficients[i - j] for j, d in enumerate(den[: i + 1]))
        assert product == (num[i] if i < len(num) else 0)
    out = io.StringIO()
    with redirect_stdout(out):
        _print_series_csv(SkewSeries(coefficients, rational=form))
    _assert_int_csv(out.getvalue(), coefficients)


def test_order_two_skew_text_matches_int_text(capsys):
    # N(t) of dtw:2,2 = (1 - t)/(1 + 3t + t^2): each value is a sum of the
    # last two, and degree 600 has 251 digits
    skew = skew_growth(growth_for_family("dtw", (2, 2), terms=601))
    assert len(skew.rational.denominator) == 3
    code, out, err = run(capsys, "skew", "--family", "dtw:2,2", "--terms", "600")
    assert (code, err) == (0, "")
    _assert_int_csv(out, skew.rational.expand(601))


def test_trivial_skew_text_has_no_negative_zero(capsys):
    # N(t) = 1 - t: every coefficient past degree 1 is a decimal zero
    code, out, err = run(capsys, "skew", "--family", "trivial", "--terms", "6")
    assert (code, err) == (0, "")
    _assert_int_csv(out, (1, -1, 0, 0, 0, 0, 0))


# (source flags, the growth coefficients they give); none has a rational form
FORMLESS_SKEWS = {
    "hopf": (["--family", "hopf", "--terms", "300"],
             lambda: growth_for_family("hopf", (), terms=301).coefficients),
    "torus2:4": (["--family", "torus2:4", "--terms", "2000"],
                 lambda: growth_for_family("torus2", (4,), terms=2001).coefficients),
    "quadratic counts": (["--counts", "2,6,12,20,30,42,56,72", "--terms", "8"],
                         lambda: (1, 2, 6, 12, 20, 30, 42, 56, 72)),
    "exponential counts": (["--counts", "3,9,27,81,243,729", "--terms", "4"],
                           lambda: (1, 3, 9, 27, 81)),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(FORMLESS_SKEWS))
def test_formless_skew_prints_the_int_reciprocal(capsys, name, fmt):
    """A skew whose growth has no rational form prints str() of each int of
    the power-series reciprocal n_k = -(p_1 n_{k-1} + ... + p_k n_0), and
    its JSON claims no form."""
    flags, growth = FORMLESS_SKEWS[name]
    p = growth()
    expected = [1]
    for k in range(1, len(p)):
        expected.append(-sum(p[i] * expected[k - i] for i in range(1, k + 1)))
    code, out, err = run(capsys, "skew", *flags, "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "csv":
        _assert_int_csv(out, expected)
        return
    source = "counts" if flags[0] == "--counts" else flags[1]
    payload = {"coefficients": expected, "rational": None, "source": source,
               "schema_version": cli.SCHEMA_VERSION}
    with _no_digit_limit():
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


SERIES_JSON_CASES = {
    # order 1, 262 digits at the end
    "skew torus2:7": lambda: skew_growth(growth_for_family("torus2", (7,), terms=301)),
    # no rational form: the ints go through json.dumps
    "skew torus2:12": lambda: skew_growth(growth_for_family("torus2", (12,), terms=41)),
    "growth dtw:2,2": lambda: growth_for_family("dtw", (2, 2), terms=301),
    "skew of one term": lambda: SkewSeries((1,), rational=RationalForm((1,), (1, 7))),
    "growth of one term": lambda: GrowthSeries((1,), rational=RationalForm((1,), (1, -1))),
}


@pytest.mark.parametrize("name", sorted(SERIES_JSON_CASES))
def test_series_json_matches_json_dumps(name):
    """The JSON of a growth or skew series, with the coefficients of a
    rational form spliced in as streamed decimals, has the bytes of
    json.dumps of the whole payload."""
    series = SERIES_JSON_CASES[name]()
    assert (series.rational is None) == (name == "skew torus2:12")
    payload = dict(series.to_json_dict(), schema_version=cli.SCHEMA_VERSION)
    out = io.StringIO()
    with redirect_stdout(out):
        cli._emit_series_json(series)
    assert out.getvalue() == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_growth_counts_respect_terms(capsys):
    code, out, _ = run(capsys, "growth", "--counts", "1,2,3,4,5,6", "--terms", "2")
    assert code == 0
    assert out.splitlines() == ["degree,coefficient", "0,1", "1,1", "2,2"]
    code, out, _ = run(
        capsys, "growth", "--counts", "1,2,3,4,5,6", "--terms", "2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["coefficients"] == [1, 1, 2]
    # a settled tail keeps its rational form
    code, out, _ = run(capsys, "growth", "--counts", "1,2,3,3,3", "--terms", "2", "--rational")
    assert code == 0
    assert out.splitlines()[1:] == ["0,1", "1,1", "2,2", '{"den": [1, -1], "num": [1, 0, 1, 1]}']


def test_long_inline_counts_match_a_counts_file(capsys, tmp_path):
    counts = ",".join(str(c) for c in range(4, 241, 2))
    assert len(counts) > 255  # longer than a file name may be
    path = tmp_path / "counts.txt"
    path.write_text(counts)
    inline = run(capsys, "gkdim", "--counts", counts)
    assert inline[0] == 0
    assert inline == run(capsys, "gkdim", "--counts", str(path))


@pytest.mark.parametrize("text", ["1,,2", "1, ,2", ",1,2", "1,2,,", "1,2\n,\n3"])
def test_empty_count_field_is_an_input_error(capsys, tmp_path, text):
    """An empty field would shift every later count down a degree."""
    path = tmp_path / "counts.txt"
    path.write_text(text)
    for source in (text, str(path)):
        code, out, err = run(capsys, "growth", "--counts", source)
        assert (code, out) == (2, "")
        assert err.startswith("error: empty count field in ")
        assert err.count("\n") == 1


def test_counts_lines_may_end_in_a_comma(capsys, tmp_path):
    path = tmp_path / "counts.txt"
    path.write_text("1,2,\n2,\n")
    expected = run(capsys, "growth", "--counts", "1,2,2", "--terms", "3")
    assert expected[0] == 0
    assert run(capsys, "growth", "--counts", "1,2,2,", "--terms", "3") == expected
    assert run(capsys, "growth", "--counts", str(path), "--terms", "3") == expected


@pytest.mark.parametrize("command", ["growth", "skew", "gkdim"])
def test_counts_file_that_is_not_utf8_exits_two(capsys, tmp_path, command):
    path = tmp_path / "counts.txt"
    path.write_bytes(b"1,2,\xff3\n")
    code, out, err = run(capsys, command, "--counts", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: counts file {str(path)!r} is not UTF-8 text\n"


# (counts, --terms, coefficients printed, the note on stderr)
COUNTS_NOTES = [
    ("1,2,3,3,3", "8", 9,
     "# note: degrees 6-8 are extrapolated from the settled tail of the counts\n"),
    ("1,2,3,3,3", "6", 7,
     "# note: degree 6 is extrapolated from the settled tail of the counts\n"),
    ("1,2,3,3,3", "5", 6, ""),
    ("1,2,3,3,3", "2", 3, ""),
    ("1,2,3", "8", 4, "# note: the series stops at degree 3, short of --terms 8\n"),
    ("1,2,3", "3", 4, ""),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["growth", "skew"])
@pytest.mark.parametrize("counts, terms, printed, note", COUNTS_NOTES,
                         ids=[f"{counts}-to-{terms}" for counts, terms, _, _ in COUNTS_NOTES])
def test_counts_notes_name_extrapolated_and_missing_degrees(
    capsys, command, fmt, counts, terms, printed, note
):
    """From --counts, degrees past the last count come from the settled-tail
    form, or are missing when there is none; a note says which."""
    code, out, err = run(capsys, command, "--counts", counts, "--terms", terms, "--format", fmt)
    assert (code, err) == (0, note)
    if fmt == "csv":
        assert len(out.splitlines()) == 1 + printed
    else:
        assert len(json.loads(out)["coefficients"]) == printed


@pytest.mark.parametrize("family", ["torus2:7", "dtw:2,4", "twist:3"])
def test_closed_form_series_print_without_int_expansion(capsys, monkeypatch, family):
    """The closed forms print, and their dimension is read, from the form's
    recurrence alone: no series is expanded in ints along the way."""
    argvs = [
        (command, "--family", family, "--terms", "40", "--format", fmt)
        for command, formats in (("growth", ("csv", "json")), ("skew", ("csv", "json")),
                                 ("gkdim", ("json", "text")))
        for fmt in formats
    ]
    expected = [run(capsys, *argv) for argv in argvs]

    def refuse(form, terms):
        raise AssertionError(f"expanded {form.to_json_dict()} to {terms} terms in ints")

    monkeypatch.setattr(RationalForm, "expand", refuse)
    for argv, want in zip(argvs, expected):
        assert run(capsys, *argv) == want, argv


@given(
    numerator=st.lists(_small, max_size=5),
    denominator_tail=st.lists(_small, max_size=3),
    terms=st.integers(min_value=1, max_value=300),
)
@settings(max_examples=100, deadline=None)
def test_form_backed_series_match_expanded_ones(numerator, denominator_tail, terms):
    """A series of order 0-3 built from its form reads and prints as the one
    built from the form's expanded coefficients."""
    form = RationalForm((1, *numerator), (1, *denominator_tail))
    coefficients = form.expand(terms)
    for cls in (GrowthSeries, SkewSeries):
        backed = cls.from_rational(form, terms)
        expanded = cls(coefficients, rational=form)
        texts = []
        for series in (backed, expanded):
            out = io.StringIO()
            with redirect_stdout(out):
                _print_series_csv(series)
                cli._emit_series_json(series)
            texts.append(out.getvalue())
        assert texts[0] == texts[1]
        assert backed.to_json_dict() == expanded.to_json_dict()
        assert backed.coefficients == expanded.coefficients == coefficients
        if cls is GrowthSeries:
            assert backed.counts() == expanded.counts()


def test_gkdim_family(capsys):
    code, out, _ = run(capsys, "gkdim", "--family", "torus2:3")
    assert code == 0
    data = json.loads(out)
    assert data["gk"] == "1"
    assert data["method"] == "rational"


def test_gkdim_counts_exponential(capsys):
    counts = ",".join(str(2**t) for t in range(1, 11))
    code, out, _ = run(capsys, "gkdim", "--counts", counts)
    assert code == 0
    assert json.loads(out)["gk"] == "infinity"


def test_gkdim_counts_respect_terms(capsys):
    counts = "1,2,4,8,16,32,64,128"
    code, out, _ = run(capsys, "gkdim", "--counts", counts, "--terms", "2")
    assert code == 0
    data = json.loads(out)
    assert (data["gk"], data["evidence"]) == ("unresolved", {"cumulative": [1, 2, 4]})
    # the counts past degree 2 are never examined
    assert run(capsys, "gkdim", "--counts", "1,2", "--terms", "2") == (code, out, "")
    code, out, _ = run(capsys, "gkdim", "--counts", counts, "--terms", "8")
    assert code == 0
    assert json.loads(out)["gk"] == "infinity"


def test_gkdim_closure_counts_respect_terms(capsys, tmp_path):
    # the closure's counts 3, 3, 3, 3, 3 reach gkdim through the classes
    # CSV, and only the first --terms of them are examined, as inline
    code, csv, _ = run(capsys, "classes", "--family", "conway:3", "--max-len", "5")
    assert code == 0
    path = tmp_path / "counts.csv"
    path.write_text(csv)
    argv = ("gkdim", "--counts", str(path), "--method", "difference")
    code, out, _ = run(capsys, *argv, "--terms", "2")
    assert code == 0
    data = json.loads(out)
    assert (data["gk"], data["evidence"]["cumulative"]) == ("unresolved", [1, 4, 7])
    for terms in ("2", "4", "12"):
        code, out, _ = run(capsys, *argv, "--terms", terms)
        inline = run(
            capsys, "gkdim", "--counts", "3,3,3,3,3", "--method", "difference", "--terms", terms
        )
        assert (code, out, "") == inline
    assert json.loads(out)["evidence"]["cumulative"] == [1, 4, 7, 10, 13, 16]


def test_gkdim_measures_conway_through_its_target(capsys):
    code, out, err = run(capsys, "gkdim", "--family", "conway:3")
    assert (code, err) == (0, f"{CONJECTURE_NOTE}\n")
    data = json.loads(out)
    assert (data["gk"], data["source"]) == ("1", "conway:3")
    code, out, err = run(capsys, "gkdim", "--family", "conway:2,1,2", "--format", "text")
    assert (code, err) == (0, f"{CONJECTURE_NOTE}\n")
    assert out.splitlines()[:2] == ["source: conway:2,1,2", "gk: 2"]


def test_gkdim_max_len_is_a_usage_error(capsys):
    # gkdim reads every family off its target, so it takes no closure options
    for flag in ("--max-len", "--pad", "--budget"):
        code, out, err = run(capsys, "gkdim", "--family", "conway:3", flag, "3")
        assert (code, out) == (2, "")
        assert err.endswith(f"error: unrecognized arguments: {flag} 3\n")


@pytest.mark.parametrize("command", ["growth", "skew", "gkdim"])
def test_modulus_too_long_to_print_exits_two(capsys, command):
    # the Fox modulus of conway:1,...,1 is a Fibonacci number: with 21 000
    # ones it has 4 389 digits, more than Python converts to str, so the
    # refusal names it by its size
    spec = "conway:" + ",".join(["1"] * 21_000)
    code, out, err = run(capsys, command, "--family", spec, "--terms", "3")
    assert (code, out) == (2, "")
    assert err == "error: target modulus of 14579 bits is above the bound 10000000\n"


def test_terms_at_the_bound(capsys):
    # the linked torus2:4 keeps every strong level, the costliest per term
    code, out, err = run(capsys, "growth", "--family", "torus2:4", "--terms", str(MAX_TERMS))
    assert code == 0
    assert err == ""
    assert out.splitlines()[-1] == f"{MAX_TERMS},{2 * MAX_TERMS + 2}"


@pytest.mark.parametrize("command", ["growth", "skew", "gkdim"])
def test_terms_above_the_bound_exit_two(capsys, command):
    code, out, err = run(
        capsys, command, "--family", "torus2:4", "--terms", str(MAX_TERMS + 1)
    )
    assert code == 2
    assert out == ""
    assert err == f"error: --terms must be at most {MAX_TERMS}, got {MAX_TERMS + 1}\n"


@pytest.mark.parametrize("source, max_len, pad", [
    ({"arcs": 3, "crossings": []}, 4, 2),
    ("trivial", 4, 2),
    # conway:1,...,1 with 35 regions: its Fox modulus 14 930 352 is above MAX_MODULUS
    ("conway:" + ",".join(["1"] * 35), 1, 1),
], ids=["free3", "trivial", "modulus-over-bound"])
def test_classes_without_fox_bounds_keep_their_output(capsys, tmp_path, source, max_len, pad):
    """Where the diagram gives no Fox bounds the closure runs unbounded:
    the counts, and the exit code, are the plain closure's."""
    if isinstance(source, dict):
        path = tmp_path / "free3.json"
        path.write_text(json.dumps(source))
        where, diagram = ["--pd", str(path)], diagram_from_dict(source)
    else:
        where, diagram = ["--family", source], build_family(parse_family_spec(source))
    counts = enumerate_classes(presentation_from_diagram(diagram), max_len, pad=pad).degree_counts
    code, out, err = run(capsys, "classes", *where, "--max-len", str(max_len), "--pad", str(pad))
    assert (code, err) == (0, "")
    assert out == "degree,count\n" + "".join(f"{d},{c}\n" for d, c in enumerate(counts, 1))


def test_probe_floor_keeps_an_unmapped_degree_unresolved(capsys):
    """probe 3,1,1 has no letter map.  Its diagram's own Fox target stops
    the closure below degree 4, where classes and elements are both 7;
    degree 4 stays unaligned and unresolved, as on the levels built."""
    argv = ("probe", "--conjecture", "cmln", "--params", "3,1,1", "--max-len", "4")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    top = json.loads(out)["degrees"][-1]
    assert top == {"degree": 4, "classes": 7, "elements": 7, "aligned": False,
                   "verdict": "unresolved"}
    code, out, _ = run(capsys, *argv, "--format", "text")
    assert out.splitlines()[-1] == "result: UNRESOLVED (0/4 degrees)"


# -- rmove -----------------------------------------------------------------------


def test_rmove_r1(capsys):
    code, out, _ = run(
        capsys,
        "rmove", "--family", "torus2:3", "--move", "r1",
        "--site", "arc=0,end=0", "--max-len", "3",
    )
    assert code == 0
    data = json.loads(out)
    assert data["all_equal"] is True
    assert [d["left"]["cumulative"] for d in data["degrees"]] == [4, 7, 10]


def test_rmove_r2(capsys):
    code, out, _ = run(
        capsys,
        "rmove", "--family", "torus2:3", "--move", "r2",
        "--site", "arc=0,over_arc=1", "--max-len", "3",
    )
    assert code == 0
    assert json.loads(out)["all_equal"] is True


RMOVE_TEXT = [
    (
        ("torus2:3", "r1", "arc=0"),
        0,
        "move: r1 insert on torus2:3\n"
        "arcs: 3 -> 4\n"
        "degree 1: cumulative 4 vs 4 equal\n"
        "degree 2: cumulative 7 vs 7 equal\n"
        "degree 3: cumulative 10 vs 10 equal\n"
        "result: EQUAL\n",
    ),
    (
        ("dtw:2,2", "r2", "arc=0,over_arc=2"),
        1,
        "move: r2 insert on dtw:2,2\n"
        "arcs: 4 -> 6\n"
        "degree 1: cumulative 5 vs 6 DIFFER\n"
        "degree 2: cumulative 10 vs 11 DIFFER\n"
        "degree 3: cumulative 15 vs 16 DIFFER\n"
        "result: DIFFER\n",
    ),
]


@pytest.mark.parametrize("case, want_code, want_out", RMOVE_TEXT, ids=["equal", "differ"])
def test_rmove_text(capsys, case, want_code, want_out):
    """The move, the arc counts, one line per degree and the result; the
    cumulative counts are the JSON report's."""
    family, move, site = case
    argv = ("rmove", "--family", family, "--move", move, "--site", site, "--max-len", "3")
    code, out, err = run(capsys, *argv, "--format", "text")
    assert (code, out, err) == (want_code, want_out, "")
    data = json.loads(run(capsys, *argv)[1])
    assert [
        f"degree {d['degree']}: cumulative {d['left']['cumulative']} vs "
        f"{d['right']['cumulative']}"
        for d in data["degrees"]
    ] == [line.rsplit(" ", 1)[0] for line in out.splitlines()[2:-1]]


@pytest.mark.parametrize(
    "move,site", [("r1", "--site arc=N"), ("r2", "--site arc=N,over_arc=N")]
)
def test_rmove_without_arc_names_the_flag(capsys, move, site):
    code, out, err = run(
        capsys, "rmove", "--family", "torus2:3", "--move", move, "--max-len", "3"
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {move} insert needs {site}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--move", "r1", "--direction", "remove"], "r1 remove needs --site crossings=N"),
        (["--move", "r2", "--direction", "remove"], "r2 remove needs --site crossings=N+N"),
        (["--move", "r3"], "r3 needs --site crossings=N+N+N"),
    ],
    ids=["r1-remove", "r2-remove", "r3"],
)
def test_rmove_without_crossings_names_the_flag(capsys, argv, message):
    code, out, err = run(capsys, "rmove", "--family", "torus2:3", *argv, "--max-len", "3")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_rmove_bad_site(capsys):
    code, _, err = run(
        capsys,
        "rmove", "--family", "torus2:3", "--move", "r3", "--max-len", "2",
    )
    assert code == 2
    assert "crossing" in err
    code, _, err = run(
        capsys,
        "rmove", "--family", "torus2:3", "--move", "r1",
        "--site", "arc=zero", "--max-len", "2",
    )
    assert code == 2


def test_rmove_repeated_site_key(capsys):
    code, out, err = run(
        capsys,
        "rmove", "--family", "torus2:3", "--move", "r1",
        "--site", "arc=0,arc=1,end=0", "--max-len", "2",
    )
    assert code == 2
    assert out == ""
    assert err == "error: site key 'arc' is given twice\n"


# (move flags, a --site with a key the move does not read, that key)
UNREAD_SITE_KEYS = [
    (["--move", "r1"], "arc=0,crossings=1", "r1 insert", "crossings"),
    (["--move", "r1"], "arc=0,over_arc=1", "r1 insert", "over_arc"),
    (["--move", "r2"], "arc=0,over_arc=1,crossings=0+1", "r2 insert", "crossings"),
    (["--move", "r1", "--direction", "remove"], "crossings=0,end=0", "r1 remove", "end"),
    (["--move", "r2", "--direction", "remove"], "arc=0,crossings=0+1", "r2 remove", "arc"),
    (["--move", "r3"], "crossings=0+1+2,end=0", "r3", "end"),
]


@pytest.mark.parametrize(
    "argv, site, move, key", UNREAD_SITE_KEYS,
    ids=[f"{move.replace(' ', '-')}-{key}" for _, _, move, key in UNREAD_SITE_KEYS],
)
def test_rmove_refuses_a_site_key_its_move_does_not_read(capsys, argv, site, move, key):
    code, out, err = run(
        capsys, "rmove", "--family", "torus2:3", *argv, "--site", site, "--max-len", "2"
    )
    assert (code, out) == (2, "")
    assert err == f"error: {move} does not read --site key {key!r}\n"


# -- exit codes and stability ------------------------------------------------------


def test_budget_flag_exit_three(capsys):
    code, _, err = run(
        capsys,
        "classes", "--family", "torus2:3", "--max-len", "3", "--budget", "10",
    )
    assert code == 3
    assert "raise the budget" in err


def test_budget_env_and_flag_priority(capsys, monkeypatch):
    monkeypatch.setenv("KNOTGROWTH_BUDGET", "10")
    code, _, _ = run(capsys, "classes", "--family", "torus2:3", "--max-len", "3")
    assert code == 3
    # the flag overrides the environment
    code, out, _ = run(
        capsys,
        "classes", "--family", "torus2:3", "--max-len", "3", "--budget", "1000000",
    )
    assert code == 0
    assert out.splitlines()[1] == "1,3"
    monkeypatch.setenv("KNOTGROWTH_BUDGET", "many")
    code, _, err = run(capsys, "classes", "--family", "torus2:3", "--max-len", "3")
    assert code == 2
    assert "KNOTGROWTH_BUDGET" in err


def test_internal_inconsistency_exit_four(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise InternalConsistencyError("class count fell below the element count")

    monkeypatch.setattr("knotgrowth.oracle.verify_family", explode)
    code, _, err = run(capsys, "verify", "--theorem", "torus", "--params", "3")
    assert code == 4
    assert "internal" in err.lower() or "class count" in err


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "classes", "--family", "torus2:3")[0] == 2  # missing --max-len
    assert run(capsys, "growth", "--counts", "1,2", "--terms", "1")[0] == 2
    assert run(capsys, "classes", "--family", "torus2:3", "--max-len", "0")[0] == 2
    assert run(capsys, "present", "--family", "cmln:1,1,2")[0] == 2
    assert run(capsys, "present", "--family", "pd")[0] == 2
    assert run(capsys, "verify", "--theorem", "torus-link", "--params", "4")[0] == 2
    # the probe labels arcs from the natural anchors only; there is no search to turn off
    probe = ("probe", "--conjecture", "cmln", "--params", "2,1,2")
    assert run(capsys, *probe, "--no-search")[0] == 2


# -- the parser -----------------------------------------------------------------

# per subcommand: a missing required flag, a bad choice, a trailing argument
USAGE_ERRORS = {
    "present": (
        [], ["--family", "hopf", "--format", "csv"], ["--family", "hopf", "junk"],
    ),
    "classes": (
        ["--family", "hopf"],
        ["--family", "hopf", "--max-len", "2", "--format", "text"],
        ["--family", "hopf", "--max-len", "2", "junk"],
    ),
    "verify": (
        ["--theorem", "torus"],
        ["--theorem", "torus-link", "--params", "4"],
        ["--theorem", "torus", "--params", "3", "junk"],
    ),
    "probe": (
        ["--params", "2,1,2"],
        ["--conjecture", "cmln2", "--params", "2,1,2"],
        ["--conjecture", "cmln", "--params", "2,1,2", "--max-len", "2", "junk"],
    ),
    "growth": (
        ["--terms", "3"], ["--family", "hopf", "--format", "json5"], ["--family", "hopf", "junk"],
    ),
    "skew": ([], ["--family", "hopf", "--format", "text"], ["--family", "hopf", "junk"]),
    "gkdim": (
        ["--terms", "3"], ["--family", "hopf", "--method", "guess"], ["--family", "hopf", "junk"],
    ),
    "rmove": (
        ["--family", "hopf", "--max-len", "2"],
        ["--family", "hopf", "--max-len", "2", "--move", "r4"],
        ["--family", "hopf", "--max-len", "2", "--move", "r1", "--site", "arc=0", "junk"],
    ),
}


def _subcommand_choices(parser) -> list[str]:
    (subs,) = (a for a in parser._actions if a.dest == "command")
    return list(subs.choices)


def test_subcommand_table_matches_the_full_parser():
    assert list(USAGE_ERRORS) == list(SUBCOMMANDS)
    assert _subcommand_choices(build_parser()) == list(SUBCOMMANDS)
    assert _subcommand_choices(build_parser("classes")) == ["classes"]


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
def test_one_subcommand_parser_reads_as_the_full_one(capsys, monkeypatch, command):
    built = []

    def record(only=None):
        built.append(only)
        return build_parser(only)

    argvs = [[command, "-h"]] + [[command, *rest] for rest in USAGE_ERRORS[command]]
    monkeypatch.setattr(cli, "build_parser", record)
    one = [run(capsys, *argv) for argv in argvs]
    assert built == [command] * len(argvs)
    monkeypatch.setattr(cli, "build_parser", lambda only=None: build_parser())
    full = [run(capsys, *argv) for argv in argvs]
    assert one == full
    assert one[0][0] == 0 and one[0][1].startswith(f"usage: knotgrowth {command} ")
    for code, out, err in one[1:]:
        assert (code, out) == (2, "")
        assert err.count("\nknotgrowth") == 1 and " error: " in err
    # the trailing argument is reported under the top-level usage line
    assert one[-1][2].startswith("usage: knotgrowth [-h]")
    assert "{" + ",".join(SUBCOMMANDS) + "} ..." in one[-1][2]
    assert one[-1][2].endswith(": error: unrecognized arguments: junk\n")


@pytest.mark.parametrize("argv", [["-h"], [], ["nonsense"], ["-h", "classes"]])
def test_top_level_usage_lists_every_subcommand(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == (0 if "-h" in argv else 2)
    assert "{" + ",".join(SUBCOMMANDS) + "}" in out + err
    if argv == ["nonsense"]:
        assert "argument command: invalid choice: 'nonsense'" in err


# tokens the table parse must leave to argparse, or read as argparse does
AWKWARD = ("2", "-1", "x", "", "hopf", "json", "r9", "--", "-h", "--max", "--max-len=2")


@st.composite
def _argvs(draw):
    """A subcommand, some of its flags in any order, each with a value of
    the flag's own kind or now and then from AWKWARD (or none, for
    --rational); sometimes one flag again, and sometimes one more awkward
    token anywhere."""
    command = draw(st.sampled_from(list(SUBCOMMANDS)))
    _, group, options, _ = SUBCOMMANDS[command]
    rows = dict(group + options)
    flags = draw(st.permutations(list(rows)))
    flags = flags[: draw(st.integers(0, len(flags)))]
    if draw(st.integers(0, 3)) == 0:
        flags.append(draw(st.sampled_from(list(rows))))
    words = []
    for flag in flags:
        words.append(flag)
        kwargs = rows[flag]
        if kwargs.get("action") != "store_true" or draw(st.booleans()):
            own = kwargs.get("choices") or (("2", "3") if "type" in kwargs else ("hopf", "x"))
            words.append(draw(st.sampled_from(AWKWARD if draw(st.integers(0, 4)) == 0 else own)))
    if draw(st.integers(0, 3)) == 0:
        words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(AWKWARD)))
    return [command, *words]


@given(_argvs())
@settings(max_examples=400, deadline=None)
def test_table_parse_reads_as_argparse(argv):
    args = _parse_from_table(argv)
    if args is not None:
        assert vars(args) == vars(build_parser(argv[0]).parse_args(argv))


PD = "diagram.json"  # the table parse reads the flag; it never opens the file

# the argv of the CI "CLI smoke" step and of the benchmark's wide and series cases
WELL_FORMED = [
    "present --family torus2:3",
    "classes --family torus2:3 --max-len 2",
    "classes --family trivial --max-len 4",
    "verify --theorem torus --params 3 --max-len 2",
    "verify --theorem dtw --params 2,4 --max-len 30 --budget 1000000000000000000000000000000",
    "verify --theorem torus --params 4 --max-len 6",
    "verify --theorem dtw --params 3,5 --max-len 4",
    "probe --conjecture cmln --params 1,1,2 --max-len 2",
    "growth --family torus2:7",
    "growth --family torus2:40 --terms 10000",
    "growth --family trivial --terms 2 --rational",
    "growth --family conway:3,1,3 --rational",
    "skew --family dtw:2,2",
    "skew --family dtw:3,3 --terms 4",
    "skew --family torus2:4 --terms 10000",
    "skew --family hopf --format json",
    "skew --family conway:2,1,2 --terms 4",
    "gkdim --family hopf",
    "gkdim --family hopf --terms 10000",
    "gkdim --family dtw:1,1",
    "gkdim --family conway:2,1,2 --terms 3",
    "rmove --family torus2:3 --move r1 --site arc=0 --max-len 2",
    "growth --counts 1,2,3,4,5",
    "skew --counts 4,5,5,5 --format json",
    "gkdim --counts 1,2,4,8,16",
    "verify --theorem dtw --params 2,2 --max-len 7",
    "classes --family hopf --max-len 16",
    "classes --family torus2:4 --max-len 4",
    f"gkdim --counts {PD}",
    f"classes --pd {PD} --max-len 10",
    f"classes --pd {PD} --max-len 16",
    "probe --conjecture cmln --params 2,1,2 --max-len 6",
    f"rmove --pd {PD} --move r1 --site arc=0,end=0 --max-len 5",
    "classes --family torus2:7 --max-len 5",
    "rmove --family torus2:5 --move r1 --site arc=0,end=0 --max-len 5",
    f"classes --pd {PD} --max-len 5",
    "probe --conjecture cmln --params 3,1,1 --max-len 4",
    "growth --family torus2:40 --terms 120",
    "skew --family torus2:7 --terms 2000",
    "skew --family torus2:12 --terms 150",
    "gkdim --family hopf --terms 400",
]


@pytest.mark.parametrize("line", WELL_FORMED)
def test_well_formed_calls_take_the_table_path(line):
    argv = line.split()
    args = _parse_from_table(argv)
    assert args is not None
    assert vars(args) == vars(build_parser(argv[0]).parse_args(argv))


def test_repeated_flag_keeps_its_last_value(capsys):
    code, out, _ = run(capsys, "classes", "--family", "hopf", "--max-len", "2", "--max-len", "3")
    assert code == 0
    assert out.splitlines()[0] == "degree,count"
    assert len(out.splitlines()) == 4  # three count rows, as argparse keeps the last value


def test_main_reads_sys_argv(capsys, monkeypatch):
    argv = ["present", "--family", "hopf", "--format", "text"]
    expected = run(capsys, *argv)
    assert expected[0] == 0
    monkeypatch.setattr(sys, "argv", ["knotgrowth", *argv])
    code = main()
    assert (code, *capsys.readouterr()) == expected
    monkeypatch.setattr(sys, "argv", ["knotgrowth", "-h"])
    code = main()
    assert code == 0
    assert "{" + ",".join(SUBCOMMANDS) + "}" in capsys.readouterr().out


def test_json_output_is_stable_and_sorted(capsys):
    first = run(capsys, "verify", "--theorem", "torus", "--params", "3", "--max-len", "2")
    second = run(capsys, "verify", "--theorem", "torus", "--params", "3", "--max-len", "2")
    assert first == second
    data = json.loads(first[1])
    assert list(data) == sorted(data)
