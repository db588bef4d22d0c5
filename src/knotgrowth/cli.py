"""Command line interface.

Subcommands cover the pipeline end to end: `present` and `classes` work on
any diagram, `verify` checks the stated isomorphisms for the torus, twist
and double twist families, `probe` tests the three-region conjecture, and
`growth`/`skew`/`gkdim`/`rmove` cover the series side.

`SUBCOMMANDS` maps each subcommand to its help line, its options and its
handler, and holds the only definition of each option.  `main` reads a
well-formed call straight from that table: a subcommand, then its flags
written out in full, each at most once, with values that pass their type
and choices.  Every other call (help, a usage error, an abbreviation,
`--flag=value`, a repeated flag) goes to argparse, imported and built from
the same table only then, so it keeps argparse's text and exit codes.  In a
fresh process the first argparse parser costs about 2 ms, as argparse loads
gettext and compiles its patterns.  It holds only the subcommand named;
help, a missing command and an unknown one get the full parser, and both
print the same usage and errors.

The closure modules, `presentation` and `oracle`, are imported inside the
handlers that use them: `present`, `classes`, `verify`, `probe` and
`rmove`.  So `growth`, `skew` and `gkdim`, which read every family's series
off its target, never compile or load them.  A `conway` series is its
target's, Vernitski's conjecture, and prints with a note that says so.

`--family`, `verify --params P` (as `torus2:P`, `twist:P` or `dtw:P`) and
`probe --params P` (as `conway:P`) all go through `parse_family_spec`.

Exit codes: 0 success (for verify, a fully positive verdict; for rmove,
equal dimensions), 1 verdict not fully positive, 2 bad arguments or input
(MAX_ARCS and MAX_MODULUS included), 3 word budget exceeded, 4 internal
consistency failure.  The default word budget can be overridden with the
KNOTGROWTH_BUDGET environment variable or the --budget flag, the flag
winning.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from .diagrams import (
    Diagram,
    ReidemeisterMove,
    apply_reidemeister,
    build_family,
    load_pd,
    parse_family_spec,
    read_text,
)
from .errors import (
    DEFAULT_WORD_BUDGET,
    InternalConsistencyError,
    KnotgrowthError,
    ParameterError,
    ResourceBudgetError,
)
from .growth import (
    GrowthSeries,
    gk_dimension,
    growth_for_family,
    growth_from_counts,
    reidemeister_dimension_check,
    skew_growth,
)

SCHEMA_VERSION = 1
# Largest --terms for growth, skew and gkdim.  Level t of a strong
# alternating-sum semigroup has one row per even count, so building one
# level per term takes time that grows with the square of the terms.  The
# family targets stop at a checked shift within 4 levels and add the rest
# of their counts up: at this bound growth --family torus2:40 takes 0.05 s,
# against 1.55 s at one level per term.  Every skew series prints from a
# recurrence, in time linear in its text: skew --family torus2:7 writes
# 39 MB in 0.3 s.  The skews of hopf and even torus2, whose growth has no
# rational form, expand from a denominator of at most 3 terms: at this
# bound skew --family torus2:4 takes 0.10 s, torus2:12 0.16 s and hopf
# 0.06 s (0.18, 0.48 and 0.09 s at one level per term, and 17.8 s, 44.7 s
# and 1.1 s as a power-series reciprocal printed from ints).  Medians of 3
# on a 2-vCPU host, except the reciprocal's one run each.
MAX_TERMS = 10_000
# The --site keys each Reidemeister move reads, as the flag is written.
SITE_KEYS = {
    ("r1", "insert"): "arc=N",
    ("r2", "insert"): "arc=N,over_arc=N",
    ("r1", "remove"): "crossings=N",
    ("r2", "remove"): "crossings=N+N",
    ("r3", "insert"): "crossings=N+N+N",
}


class _no_digit_limit:
    """Lift Python's int-to-str digit limit inside the block and restore it
    on leaving.  The limit is there because that conversion is quadratic in
    the digits.  The CSV and JSON of every growth and skew series print
    exact decimals from a recurrence, but another JSON payload may hold
    ints of any length.  Input is parsed outside, under the limit.  Python
    3.10.0-3.10.6 have none."""

    def __enter__(self):
        self.set_limit = getattr(sys, "set_int_max_str_digits", None)
        if self.set_limit is not None:
            self.limit = sys.get_int_max_str_digits()
            self.set_limit(0)

    def __exit__(self, *exc):
        if self.set_limit is not None:
            self.set_limit(self.limit)


def _emit_json(payload: dict) -> None:
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    with _no_digit_limit():
        print(json.dumps(payload, sort_keys=True, indent=2))


def _resolve_budget(args) -> int:
    if args.budget is not None:
        budget = args.budget
    else:
        raw = os.environ.get("KNOTGROWTH_BUDGET")
        if raw is None:
            return DEFAULT_WORD_BUDGET
        try:
            budget = int(raw)
        except ValueError:
            raise ParameterError(
                f"KNOTGROWTH_BUDGET must be an integer, got {raw!r}"
            ) from None
    if budget < 1:
        raise ParameterError(f"budget must be positive, got {budget}")
    return budget


def _check_window(args) -> None:
    if getattr(args, "max_len", None) is not None and args.max_len < 1:
        raise ParameterError(f"--max-len must be at least 1, got {args.max_len}")
    if getattr(args, "pad", None) is not None and args.pad < 0:
        raise ParameterError(f"--pad must not be negative, got {args.pad}")
    if getattr(args, "terms", None) is not None and args.terms < 2:
        raise ParameterError(f"--terms must be at least 2, got {args.terms}")
    if getattr(args, "terms", None) is not None and args.terms > MAX_TERMS:
        raise ParameterError(f"--terms must be at most {MAX_TERMS}, got {args.terms}")


def _diagram_from_args(args) -> tuple[Diagram, str]:
    if args.pd is not None:
        return load_pd(args.pd), f"pd:{args.pd}"
    spec = parse_family_spec(args.family)
    return build_family(spec), args.family


def _load_counts(arg: str) -> tuple[int, ...]:
    """Counts from a file (the classes CSV, or bare numbers) or an inline
    comma-separated list.  A line may end in a comma; no other field may be
    empty."""
    # os.path.exists gives False, not an error, for an inline list too long
    # to be a file name
    text = read_text(arg, "counts") if os.path.exists(arg) else arg
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParameterError("counts input is empty")
    counts: list[int] = []
    if lines[0].replace(" ", "").lower() == "degree,count":
        for i, line in enumerate(lines[1:], start=1):
            fields = line.split(",")
            try:
                degree, count = (int(f) for f in fields)
            except ValueError:
                raise ParameterError(f"bad counts row {line!r}") from None
            if degree != i:
                raise ParameterError(
                    f"counts rows must cover degrees 1,2,... in order; row {i} "
                    f"has degree {degree}"
                )
            counts.append(count)
    else:
        for line in lines:
            for f in line.removesuffix(",").split(","):
                f = f.strip()
                if not f:
                    raise ParameterError(f"empty count field in {line!r}")
                try:
                    counts.append(int(f))
                except ValueError:
                    raise ParameterError(f"bad count {f!r}") from None
    if not counts:
        raise ParameterError("counts input is empty")
    return tuple(counts)


def _parse_site(text: str) -> dict:
    """Parse 'arc=0,end=1' or 'crossings=0+2+4' into move fields."""
    site: dict = {}
    if not text:
        return site
    for chunk in text.split(","):
        key, eq, value = chunk.partition("=")
        key = key.strip()
        if not eq:
            raise ParameterError(f"site entry {chunk!r} is not key=value")
        if key in site:
            raise ParameterError(f"site key {key!r} is given twice")
        if key == "crossings":
            try:
                site[key] = tuple(int(x) for x in value.split("+"))
            except ValueError:
                raise ParameterError(f"bad crossing list {value!r}") from None
        elif key in ("arc", "end", "over_arc"):
            try:
                site[key] = int(value)
            except ValueError:
                raise ParameterError(f"site entry {key} needs an integer, got {value!r}") from None
        else:
            raise ParameterError(
                f"unknown site key {key!r}; expected arc, end, over_arc or crossings"
            )
    return site


# -- subcommand handlers ------------------------------------------------------


def _cmd_present(args) -> int:
    from .presentation import presentation_from_diagram

    diagram, label = _diagram_from_args(args)
    pres = presentation_from_diagram(diagram)
    if args.format == "text":
        names = ", ".join(pres.name_of(i) for i in range(pres.alphabet_size))
        print(f"family: {label}")
        print(f"letters: {pres.alphabet_size} ({names})")
        print(f"relations: {len(pres.relations)}")
        for lhs, rhs in pres.relations:
            print(f"  {pres.format_word(lhs)} = {pres.format_word(rhs)}")
        return 0
    _emit_json(pres.to_dict())
    return 0


def _cmd_classes(args) -> int:
    from .oracle import diagram_classes

    budget = _resolve_budget(args)
    diagram, label = _diagram_from_args(args)
    partition = diagram_classes(diagram, args.max_len, pad=args.pad, budget=budget)
    if args.format == "json":
        _emit_json(
            {
                "family": label,
                "max_len": args.max_len,
                "pad": args.pad,
                "counts": list(partition.degree_counts),
            }
        )
        return 0
    # one write: a print per degree took most of the time of a long window
    lines = (f"{degree},{count}\n" for degree, count in enumerate(partition.degree_counts, 1))
    sys.stdout.write("degree,count\n" + "".join(lines))
    return 0


def _verify_report(args):
    from .oracle import verify_family

    budget = _resolve_budget(args)
    kind = "torus2" if args.theorem == "torus" else args.theorem
    spec = parse_family_spec(f"{kind}:{args.params}")
    params = spec.params
    default_len = 3 if args.theorem in ("twist", "dtw") else 4
    max_len = args.max_len if args.max_len is not None else default_len
    description = f"torus:{params[0]}" if args.theorem == "torus" else None
    report = verify_family(
        str(spec), max_len, pad=args.pad, budget=budget, description=description
    )
    if args.theorem == "torus" and params[0] % 2 == 0:
        note = f"n = {params[0]} is even: the braid closes to a two-component link"
        report = report._replace(warnings=report.warnings + (note,))
    return report


def _print_report(report, fmt: str) -> None:
    if fmt == "json":
        _emit_json(report.to_json_dict())
        return
    print(f"subject: {report.description}")
    print(f"target: {report.semigroup}")
    if report.phi is not None:
        print(f"letter map: {', '.join(map(str, report.phi))}")
    print(f"homomorphism: {'yes' if report.homomorphism else 'no'}")
    for d in report.degrees:
        print(
            f"degree {d.degree}: classes={d.class_count} "
            f"elements={d.element_count} {d.verdict}"
        )
    for note in report.warnings:
        print(f"note: {note}")
    verified = sum(1 for d in report.degrees if d.verdict == "verified")
    status = "VERIFIED" if report.all_verified else "UNRESOLVED"
    print(f"result: {status} ({verified}/{len(report.degrees)} degrees)")


def _cmd_verify(args) -> int:
    report = _verify_report(args)
    _print_report(report, args.format)
    return 0 if report.all_verified else 1


def _cmd_probe(args) -> int:
    from .oracle import conjecture_probe

    budget = _resolve_budget(args)
    params = parse_family_spec(f"conway:{args.params}").params
    if len(params) != 3:
        raise ParameterError(f"the cmln conjecture takes 3 parameters, got {len(params)}")
    report = conjecture_probe(*params, max_len=args.max_len, pad=args.pad, budget=budget)
    _print_report(report, args.format)
    # the verdicts are findings; reaching a report is success
    return 0


def _growth_series(args) -> GrowthSeries:
    terms = args.terms + 1  # coefficients through degree --terms
    if args.counts is not None:
        series = growth_from_counts(_load_counts(args.counts))
        given = series.terms - 1  # the degrees counted
        if given < args.terms and series.rational is None:
            _print_notes((f"the series stops at degree {given}, short of --terms {args.terms}",))
        elif given < args.terms:
            first, last = given + 1, args.terms
            degrees = f"degree {last} is" if first == last else f"degrees {first}-{last} are"
            _print_notes((f"{degrees} extrapolated from the settled tail of the counts",))
        if series.rational is None:
            return GrowthSeries(series.coefficients[:terms], source=series.source)
        return GrowthSeries.from_rational(series.rational, terms, source=series.source)
    spec = parse_family_spec(args.family)
    return growth_for_family(spec.kind, spec.params, terms=terms)


def _print_notes(notes) -> None:
    for note in notes:
        print(f"# note: {note}", file=sys.stderr)


def _text_coefficients(series):
    """The coefficients to print and the context to print them in.  They
    stream from the series' recurrence (a rational form, the quotient that
    expands a skew with none, or given coefficients over 1) in exact
    decimals, whose str() is linear in the digits where an int's is
    quadratic, so the text of a recurrence takes time linear in its
    length."""
    from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded
    from decimal import localcontext

    # every step is exact, or raises instead of printing a rounded digit
    exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])
    coefficients = series._recurrence.iter_coefficients(series.terms, Decimal)
    return coefficients, localcontext(exact)


def _print_series_csv(series) -> None:
    """One line per coefficient, as `_text_coefficients` gives them."""
    coefficients, arithmetic = _text_coefficients(series)
    write = sys.stdout.write
    write("degree,coefficient\n")
    with arithmetic:
        for degree, c in enumerate(coefficients):
            write(f"{degree},{c!s}\n")


def _emit_series_json(series) -> None:
    """`_emit_json` of a growth or skew series, with the same bytes.  The
    other keys are dumped as usual and the coefficient list, never empty, is
    spliced in as `_text_coefficients` gives it, so a series prints in time
    linear in its text, and is never expanded in ints."""
    payload = dict(series.json_fields(), coefficients=[], schema_version=SCHEMA_VERSION)
    empty = '"coefficients": []'
    head, tail = json.dumps(payload, sort_keys=True, indent=2).split(empty, 1)
    coefficients, arithmetic = _text_coefficients(series)
    write = sys.stdout.write
    write(f'{head}"coefficients": [')
    with arithmetic:
        separator = "\n    "
        for c in coefficients:
            write(f"{separator}{c!s}")
            separator = ",\n    "
    write(f"\n  ]{tail}\n")


def _cmd_growth(args) -> int:
    series = _growth_series(args)
    if args.format == "json":
        _emit_series_json(series)
        return 0
    _print_series_csv(series)
    _print_notes(series.warnings)
    if args.rational:
        if series.rational is None:
            print("null")
        else:
            print(json.dumps(series.rational.to_json_dict(), sort_keys=True))
    return 0


def _cmd_skew(args) -> int:
    series = _growth_series(args)
    _print_notes(series.warnings)
    skew = skew_growth(series, terms=series.terms)
    if args.format == "json":
        _emit_series_json(skew)
        return 0
    _print_series_csv(skew)
    return 0


def _cmd_gkdim(args) -> int:
    if args.counts is not None:
        # counts past degree --terms are not examined, as with --family
        source = growth_from_counts(_load_counts(args.counts)[: args.terms])
        label = "counts"
    else:
        spec = parse_family_spec(args.family)
        label = args.family
        source = growth_for_family(spec.kind, spec.params, terms=args.terms + 1)
        _print_notes(source.warnings)
    estimate = gk_dimension(source, method=args.method)
    if args.format == "text":
        print(f"source: {label}")
        print(f"gk: {estimate.label()}")
        print(f"method: {estimate.method}")
        return 0
    payload = estimate.to_json_dict()
    payload["source"] = label
    _emit_json(payload)
    return 0


def _cmd_rmove(args) -> int:
    budget = _resolve_budget(args)
    diagram, label = _diagram_from_args(args)
    site = _parse_site(args.site)
    needs = SITE_KEYS.get((args.move, args.direction))
    if needs is not None:
        move = args.move if args.move == "r3" else f"{args.move} {args.direction}"
        reads = [flag.partition("=")[0] for flag in needs.split(",")]
        if any(key not in site for key in reads):
            raise ParameterError(f"{move} needs --site {needs}")
        # an insert also reads `end`, the under-endpoint of its arc
        allowed = {*reads, "end"} if "arc" in reads else set(reads)
        for key in site:
            if key not in allowed:
                raise ParameterError(f"{move} does not read --site key {key!r}")
    move = ReidemeisterMove(kind=args.move, direction=args.direction, **site)
    moved = apply_reidemeister(diagram, move)
    report = reidemeister_dimension_check(
        diagram,
        moved,
        args.max_len,
        pad=args.pad,
        budget=budget,
        description=f"{label} {args.move} {args.direction}",
    )
    if args.format == "text":
        print(f"move: {args.move} {args.direction} on {label}")
        print(f"arcs: {diagram.arc_count} -> {moved.arc_count}")
        for row in report.degrees:
            mark = "equal" if row.equal else "DIFFER"
            print(
                f"degree {row.degree}: cumulative {row.left_cumulative} vs "
                f"{row.right_cumulative} {mark}"
            )
        print(f"result: {'EQUAL' if report.all_equal else 'DIFFER'}")
    else:
        _emit_json(report.to_json_dict())
    return 0 if report.all_equal else 1


# -- options and parser -------------------------------------------------------

# Each option once, as (flag, add_argument's keywords).  `_parse_from_table`
# reads a well-formed call from these rows, and `build_parser` builds the
# argparse parser from them for every other call.
_DIAGRAM = (
    ("--family", {"help": "family spec, e.g. torus2:3 or dtw:2,2"}),
    ("--pd", {"help": "path to a diagram JSON file"}),
)
_SERIES_SOURCE = (
    ("--family", {"help": "trivial, hopf, torus2:n, twist:n, dtw:n,l or conway:a,b,..."}),
    ("--counts", {"help": "per-degree counts: a classes CSV file, a file of numbers, "
                  "or an inline list like 4,5,5,5"}),
)
_MAX_LEN = {"type": int, "help": "largest word length to count"}
_WINDOW = (
    ("--pad", {"type": int, "default": 2, "help": "extra closure degrees (default 2)"}),
    ("--budget", {"type": int, "help": f"word universe cap (default {DEFAULT_WORD_BUDGET}, "
                  "env KNOTGROWTH_BUDGET)"}),
)
_CLOSURE = (("--max-len", dict(_MAX_LEN, required=True)), *_WINDOW)
_JSON_TEXT = ("--format", {"choices": ("json", "text"), "default": "json"})
_CSV_JSON = ("--format", {"choices": ("csv", "json"), "default": "csv"})
_TERMS = ("--terms", {"type": int, "default": 10, "help": "expand through this degree"})

# name -> (help, the options of its one required mutually exclusive group,
# the other options, handler); the order is the order --help lists them in
SUBCOMMANDS = {
    "present": ("print the semigroup presentation of a diagram", _DIAGRAM, (_JSON_TEXT,),
                _cmd_present),
    "classes": ("count congruence classes per degree", _DIAGRAM, (*_CLOSURE, _CSV_JSON),
                _cmd_classes),
    "verify": ("check a stated isomorphism for a family", (), (
        ("--theorem", {"choices": ("torus", "twist", "dtw"), "required": True}),
        ("--params", {"required": True, "help": "e.g. 3 for torus, 2,2 for dtw"}),
        ("--max-len", _MAX_LEN), *_WINDOW, _JSON_TEXT), _cmd_verify),
    "probe": ("probe a stated conjecture", (), (
        ("--conjecture", {"choices": ("cmln",), "required": True}),
        ("--params", {"required": True, "help": "twist counts m,l,n"}),
        ("--max-len", dict(_MAX_LEN, default=3)), *_WINDOW, _JSON_TEXT), _cmd_probe),
    "growth": ("growth series of a family or counts", _SERIES_SOURCE, (
        _TERMS,
        ("--rational", {"action": "store_true", "default": False,
                        "help": "also print the rational form"}),
        _CSV_JSON), _cmd_growth),
    "skew": ("skew growth series (reciprocal of growth)", _SERIES_SOURCE, (_TERMS, _CSV_JSON),
             _cmd_skew),
    "gkdim": ("estimate the growth exponent", _SERIES_SOURCE, (
        ("--terms", {"type": int, "default": 12, "help": "series degrees to examine"}),
        ("--method", {"choices": ("rational", "difference", "ratio")}),
        _JSON_TEXT), _cmd_gkdim),
    "rmove": ("apply a diagram move and compare dimensions", _DIAGRAM, (
        ("--move", {"choices": ("r1", "r2", "r3"), "required": True}),
        ("--direction", {"choices": ("insert", "remove"), "default": "insert"}),
        ("--site", {"default": "", "help": "move site, e.g. arc=0,end=0 or "
                    "crossings=0+1 (join indices with +)"}),
        *_CLOSURE, _JSON_TEXT), _cmd_rmove),
}


def _parse_from_table(words):
    """The namespace argparse gives a well-formed call, read from the table
    alone: a subcommand, then each of its flags at most once, written out in
    full, with a value that does not begin with `-` and passes the flag's
    type and choices, and every required option.  Anything else (help, an
    abbreviation, `--flag=value`, a repeated flag, a negative number, `--`)
    gives None, and argparse decides."""
    if not words or words[0] not in SUBCOMMANDS:
        return None
    _, group, options, run = SUBCOMMANDS[words[0]]
    rows = dict(group + options)
    given = {}
    tokens = iter(words[1:])
    for flag in tokens:
        kwargs = rows.get(flag)
        if kwargs is None or flag in given:
            return None
        if kwargs.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(value)
        except ValueError:
            return None
        if value not in kwargs.get("choices", (value,)):
            return None
        given[flag] = value
    if sum(flag in given for flag, _ in group) != bool(group) or any(
        kwargs.get("required") and flag not in given for flag, kwargs in options
    ):
        return None
    args = {
        flag[2:].replace("-", "_"): given.get(flag, kwargs.get("default"))
        for flag, kwargs in rows.items()
    }
    return SimpleNamespace(command=words[0], run=run, **args)


def build_parser(only: str | None = None):
    """The full argparse parser, or with `only` one that holds just that
    subcommand.  The one-subcommand parser names every subcommand in its
    usage line, so the errors it prints read as the full parser's do.
    argparse is imported here: its first parser loads gettext and compiles
    its patterns, which a well-formed call never needs."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="knotgrowth",
        description="Knot semigroup presentations, congruence counting and growth.",
    )
    # a metavar on the full parser would rename `argument command` in its errors
    metavar = None if only is None else "{" + ",".join(SUBCOMMANDS) + "}"
    subs = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in SUBCOMMANDS if only is None else (only,):
        help_text, group, options, run = SUBCOMMANDS[name]
        sub = subs.add_parser(name, help=help_text)
        if group:
            exclusive = sub.add_mutually_exclusive_group(required=True)
            for flag, kwargs in group:
                exclusive.add_argument(flag, **kwargs)
        for flag, kwargs in options:
            sub.add_argument(flag, **kwargs)
        sub.set_defaults(run=run)
    return parser


def main(argv=None) -> int:
    words = sys.argv[1:] if argv is None else argv
    args = _parse_from_table(words)
    if args is None:
        # build only the subcommand named; help and usage errors get all of them
        only = words[0] if words and words[0] in SUBCOMMANDS else None
        try:
            args = build_parser(only).parse_args(argv)
        except SystemExit as exc:
            code = exc.code
            return code if isinstance(code, int) else 2
    try:
        _check_window(args)
        return args.run(args)
    except ResourceBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (KnotgrowthError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
