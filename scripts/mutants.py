#!/usr/bin/env python3
"""Check that the tests kill a fixed list of mutants of the closure, the
verification around it, the family targets, the alternating-sum levels, the
series, the reading of input files, and the CLI's start-up, parser and
series text.

Each mutant names a file, an exact text that must occur in it once, the
text that replaces it, and the tests that must fail on the result.  For
each one the tree is copied to a temporary directory, the edit is applied
there, and the selected tests run with ``-x``.  The check fails when a
mutant survives (its tests pass), when its old text does not occur exactly
once, or when its tests cannot run.  Only program files are mutated: no
test is edited, skipped or deselected.

    python scripts/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORACLE = "src/knotgrowth/oracle.py"
DIAGRAMS = "src/knotgrowth/diagrams.py"
GROWTH = "src/knotgrowth/growth.py"
ALTSUM = "src/knotgrowth/altsum.py"
CLI = "src/knotgrowth/cli.py"
CLOSURE_TESTS = (
    "tests/test_oracle.py::test_closure_matches_reference",
    "tests/test_oracle.py::test_partition_queries",
    "tests/test_oracle.py::test_representative_is_colex_first",
    "tests/test_oracle.py::test_conway_counts_with_many_letters",
    "tests/test_oracle.py::test_free_presentation_keeps_every_word_apart",
)

# (name, file, old text, new text, tests)
MUTANTS = [
    (
        "join one cross-column member per letter block, whatever its class",
        ORACLE,
        "                if root in seen:\n",
        "                if seen:\n",
        CLOSURE_TESTS,
    ),
    (
        "the largest id wins in union",
        ORACLE,
        "        if x > y:\n            x, y = y, x\n        parent[y] = x\n",
        "        if x < y:\n            x, y = y, x\n        parent[y] = x\n",
        CLOSURE_TESTS,
    ),
    (
        "sweep without right cancellation",
        ORACLE,
        "                if other != c:\n                    union(other, c, e - 1)\n"
        "            if queue:\n",
        "                if other != c:\n                    pass\n"
        "            if queue:\n",
        CLOSURE_TESTS,
    ),
    (
        "a sweep is skipped when its level is one class above its bound",
        ORACLE,
        "            if e > 1 and not at_bound(e - 1):\n",
        "            if e > 1 and not at_bound(e - 1) and not (\n"
        "                bounds and e <= max_len + 1\n"
        "                and k * width[e - 1] - absorbed[e - 1] - 1 == bounds[e - 2]\n"
        "            ):\n",
        (
            "tests/test_oracle.py::test_certified_reports_match_the_full_closure[torus2:6]",
            "tests/test_oracle.py::test_fox_bounds_stop_both_sides_of_a_move",
        ),
    ),
    (
        "the dropped partial level is kept",
        ORACLE,
        "        del parent[base[top]:]\n",
        "",
        ("tests/test_oracle.py::test_verify_family_keeps_the_levels_it_needs",),
    ),
    (
        "the stop rule reads the partial level",
        ORACLE,
        "                drop()\n                if at_bound(d):\n                    return\n",
        "                if settled():\n                    drop()\n                    return\n"
        "                drop()\n",
        ("tests/test_oracle.py::test_verify_family_keeps_the_levels_it_needs",),
    ),
    (
        "a partial level joins no member whose root's column is unbuilt",
        ORACLE,
        "                    root = stand.setdefault(root, n)\n",
        "                    continue\n",
        ("tests/test_oracle.py::test_verify_family_keeps_the_levels_it_needs",),
    ),
    (
        "the probe labels arcs from the anchors (0, 0): the constant map",
        ORACLE,
        "        anchors = {first: 0, second: 1}\n",
        "        anchors = {first: 0, second: 0}\n",
        ("tests/test_oracle.py::test_probe_letter_map_is_a_nonconstant_coloring",),
    ),
    (
        "the word universe is counted one power short",
        ORACLE,
        "    total = horizon if k == 1 else (k ** (horizon + 1) - k) // (k - 1)\n",
        "    total = horizon if k == 1 else (k ** horizon - k) // (k - 1)\n",
        ("tests/test_oracle.py::test_closure_argument_validation",),
    ),
    (
        "the letter map is checked before the closure's budget",
        ORACLE,
        "    _checked_horizon(pres, max_len, pad, budget)\n"
        "    hom = False\n"
        "    if phi is not None:\n"
        "        phi = tuple(phi)\n"
        "        hom = verify_homomorphism(pres, phi, sg)\n"
        "        if not hom:\n"
        "            warnings += (\"the letter map does not respect the relations\",)\n",
        "    hom = False\n"
        "    if phi is not None:\n"
        "        phi = tuple(phi)\n"
        "        hom = verify_homomorphism(pres, phi, sg)\n"
        "        if not hom:\n"
        "            warnings += (\"the letter map does not respect the relations\",)\n"
        "    _checked_horizon(pres, max_len, pad, budget)\n",
        ("tests/test_oracle.py::test_budget_is_checked_before_the_letter_map",),
    ),
    (
        "the closure stops without the counts of degrees 1..n meeting their bounds",
        ORACLE,
        "        while n < min(top, max_len) and at_bound(n + 1):\n",
        "        while n < min(top, max_len):\n",
        ("tests/test_oracle.py::test_counts_above_their_bounds_keep_the_pad",),
    ),
    (
        "the certificate's letter column is checked against the level's nodes, not its roots",
        ORACLE,
        "            len(set(map(find, range(z, z + w)))) == roots for z in",
        "            len(set(map(find, range(z, z + w)))) == k * w for z in",
        ("tests/test_oracle.py::test_certificate_stops_a_deep_closure_at_level_three",),
    ),
    (
        "join_merged does not count the roots it absorbs",
        ORACLE,
        "        if joined:\n            absorbed[d + 1] += joined\n",
        "        if joined:\n",
        CLOSURE_TESTS,
    ),
    (
        "grow builds no left rows for a level with no merged node",
        ORACLE,
        "        left.append(left_rows(d))\n",
        "        left.append(left_rows(d) if absorbed[d] else [])\n",
        (
            "tests/test_oracle.py::test_trefoil_needs_padding_at_degree_two",
            "tests/test_oracle.py::test_hopf_counts_grow_by_one",
        ),
    ),
    (
        "a merge-free top level stops the closure below the longest relation",
        ORACLE,
        "    floor = max((len(lhs) for lhs, _ in pres.relations), default=1)\n",
        "    floor = 1\n",
        ("tests/test_oracle.py::test_relation_longer_than_max_len_keeps_the_pad",),
    ),
    (
        "the closure stops past the longest relation whatever its top level merged",
        ORACLE,
        "        if top >= floor and not absorbed[top]:\n",
        "        if top >= floor:\n",
        ("tests/test_oracle.py::test_trefoil_needs_padding_at_degree_two",),
    ),
    (
        "the closure builds the pad levels above a merge-free top level",
        ORACLE,
        "        if top >= floor and not absorbed[top]:\n",
        "        if False:\n",
        ("tests/test_oracle.py::test_merge_free_top_level_stops_the_closure",),
    ),
    (
        "the free tail repeats the top count instead of multiplying by k",
        ORACLE,
        "    factor = k if tail == \"free\" else 1\n",
        "    factor = 1\n",
        ("tests/test_oracle.py::test_merge_free_top_level_stops_the_closure",),
    ),
    (
        "the image check above a free tail compares no state",
        ORACLE,
        "                aligned = len(set(states)) == len(states)\n",
        "                aligned = True\n",
        ("tests/test_oracle.py::test_free_tail_image_check_finds_collisions",),
    ),
    (
        "the target of an even modulus is the plain variant",
        DIAGRAMS,
        "    return AltSumSemigroup(Zmod(m), phi, strong=m % 2 == 0), phi\n",
        "    return AltSumSemigroup(Zmod(m), phi, strong=False), phi\n",
        (
            "tests/test_diagrams.py::test_fox_targets_are_the_hand_written_targets",
            "tests/test_oracle.py::test_fox_bounds_stop_the_classes_closure[hopf-16-16]",
        ),
    ),
    (
        "above the levels, aligned whenever the counts match, whatever the letter map",
        ORACLE,
        "            aligned = onto and class_count == element_count\n",
        "            aligned = class_count == element_count\n",
        ("tests/test_oracle.py::test_a_floor_without_a_letter_map_verifies_nothing",),
    ),
    (
        "the image check keeps a class's first state and compares no other",
        ORACLE,
        "                if image.setdefault(find(n), s) != s:\n",
        "                if image.setdefault(find(n), s) is None:\n",
        ("tests/test_oracle.py::test_image_check_catches_over_merge",),
    ),
    (
        "the coloring modulus is read from the last crossing, not the gcd of all",
        DIAGRAMS,
        "    return labels, gcd(*residuals)\n",
        "    return labels, gcd(*residuals[-1:])\n",
        ("tests/test_diagrams.py::test_fox_coloring_modulus_is_the_gcd_of_every_residual",),
    ),
    (
        "the crossings a firing readies ahead of it wait a scan, those behind it do not",
        DIAGRAMS,
        "                    heappush(queue, (scan + (j <= i), j))\n",
        "                    heappush(queue, (scan + (j >= i), j))\n",
        ("tests/test_diagrams.py::test_fox_coloring_keeps_the_scan_order_in_the_heap",),
    ),
    (
        "a coloring that two scans finish still enters the heap",
        DIAGRAMS,
        "    for _ in range(2):\n",
        "    for _ in range(1):\n",
        ("tests/test_diagrams.py::test_two_scan_colorings_leave_heapq_unimported",),
    ),
    (
        "the conway row drops its conjecture note",
        DIAGRAMS,
        "conway_with_traces(twists)[0], _conjecture_note),\n",
        "conway_with_traces(twists)[0]),\n",
        ("tests/test_cli.py::test_conway_series_carry_the_conjecture_note",),
    ),
    (
        "a file that is not UTF-8 text ends in a traceback",
        DIAGRAMS,
        "        except UnicodeDecodeError:\n",
        "        except ParameterError:\n",
        (
            "tests/test_cli.py::test_pd_that_is_not_utf8_exits_two",
            "tests/test_cli.py::test_counts_file_that_is_not_utf8_exits_two",
        ),
    ),
    (
        "a target's modulus is not bounded",
        ALTSUM,
        "        if (m := group.modulus) > MAX_MODULUS:\n",
        "        if False:\n",
        (
            "tests/test_altsum.py::test_modulus_above_the_bound_is_refused",
            "tests/test_cli.py::test_probe_target_modulus_above_its_bound_exits_two",
        ),
    ),
    (
        "a modulus too long to print is formatted whole",
        ALTSUM,
        "            try:\n"
        "                named = f\"target modulus {m}\"\n"
        "            except ValueError:  # more digits than Python converts to str\n"
        "                named = f\"target modulus of {m.bit_length()} bits\"\n",
        "            named = f\"target modulus {m}\"\n",
        ("tests/test_cli.py::test_modulus_too_long_to_print_exits_two",),
    ),
    (
        "a run of shifts is doubled without its remainder shift",
        ALTSUM,
        "        if span < count:\n            y |= y << step * (count - span)\n",
        "",
        ("tests/test_altsum.py::test_levels_of_symmetric_sets",),
    ),
    (
        "every generator set takes the one-side path of a set closed under negation",
        ALTSUM,
        "        self.neg_runs = None if neg_shifts == pos_shifts else _runs(neg_shifts)\n",
        "        self.neg_runs = None if True else _runs(neg_shifts)\n",
        ("tests/test_altsum.py::test_levels_of_asymmetric_sets",),
    ),
    (
        "a read below the last level built restarts from level 0",
        ALTSUM,
        "        if t <= self.t - len(self.seen):\n",
        "        if t < self.t:\n",
        ("tests/test_oracle.py::test_verify_steps_to_each_target_level_once",),
    ),
    (
        "a checked shift is checked at the residue j = 0 only",
        ALTSUM,
        "            if any(\n",
        "            if j == 0 and any(\n",
        ("tests/test_altsum.py::test_every_residue_is_checked",),
    ),
    (
        "a checked shift lets F^P(B_j) leave B_j | sh^s(B_j)",
        ALTSUM,
        "                side >> bits != old or fp & below != x or fp >> bits & ~x\n",
        "                side >> bits != old or fp & below != x\n",
        ("tests/test_altsum.py::test_shift_check_bounds_the_image_of_b",),
    ),
    (
        "an appended letter's sign ignores the parity of its degree",
        ALTSUM,
        "            step = b if degree % 2 else -b\n",
        "            step = -b if degree % 2 else b\n",
        ("tests/test_altsum.py::test_extend_states_appends_letters",),
    ),
    (
        "the homomorphism check ignores the even count of a strong target",
        ALTSUM,
        "            if self.strong:\n                state += width",
        "            if False:\n                state += width",
        ("tests/test_oracle.py::test_homomorphism_check_reads_the_even_count",),
    ),
    (
        "the strong levels lift every letter a row, odd letters too",
        ALTSUM,
        "        lifts = [self.width if strong and group.is_even(b) else 0 for b in generators]\n",
        "        lifts = [self.width if strong else 0 for b in generators]\n",
        ("tests/test_altsum.py::test_count_elements_matches_exhaustive_enumeration",),
    ),
    (
        "a series built from its form expands one coefficient too few",
        GROWTH,
        "            self._coefficients = self._recurrence.expand(self.terms)\n",
        "            self._coefficients = self._recurrence.expand(self.terms - 1)\n",
        ("tests/test_growth.py::test_form_backed_series_expands_terms_coefficients",),
    ),
    (
        "the skew of a series with no form keeps the numerator 1 over P (1 - t)^j",
        GROWTH,
        "                num, den = power, q\n",
        "                den = q\n",
        ("tests/test_growth.py::test_formless_skew_is_the_reciprocal",),
    ),
    (
        "the skew of a series with no form reports its recurrence as its rational form",
        GROWTH,
        "        return SkewSeries._from_recurrence(RationalForm(num, den), terms,",
        "        return SkewSeries.from_rational(RationalForm(num, den), terms,",
        (
            "tests/test_growth.py::test_formless_skew_is_the_reciprocal",
            "tests/test_cli.py::test_formless_skew_prints_the_int_reciprocal",
        ),
    ),
    (
        "a family's form is built from one count too few",
        GROWTH,
        "            _constant_tail(counts), terms,",
        "            _constant_tail(counts[:-1]), terms,",
        ("tests/test_growth.py::test_paper_forms_from_settled_levels",),
    ),
    (
        "a family's levels are read only through its last coefficient",
        GROWTH,
        "    counts, settled = sg.level_counts(terms)\n",
        "    counts, settled = sg.level_counts(terms - 1)\n",
        ("tests/test_growth.py::test_paper_forms_from_settled_levels",),
    ),
    (
        "a rational form's recurrence keeps its window oldest-first",
        GROWTH,
        "            recent.appendleft(c)\n",
        "            recent.append(c)\n",
        ("tests/test_growth.py::test_rational_form_order_two_recurrence",),
    ),
    (
        "series text runs its decimal recurrence at 28 digits",
        CLI,
        "    exact = Context(prec=MAX_PREC,",
        "    exact = Context(prec=28,",
        ("tests/test_cli.py::test_order_two_skew_text_matches_int_text",),
    ),
    (
        "the one-subcommand parser names no subcommands in its usage",
        CLI,
        "    subs = parser.add_subparsers(dest=\"command\", required=True, metavar=metavar)\n",
        "    subs = parser.add_subparsers(dest=\"command\", required=True)\n",
        ("tests/test_cli.py::test_one_subcommand_parser_reads_as_the_full_one",),
    ),
    (
        "gkdim --counts reads counts past --terms",
        CLI,
        "        source = growth_from_counts(_load_counts(args.counts)[: args.terms])\n",
        "        source = growth_from_counts(_load_counts(args.counts))\n",
        ("tests/test_cli.py::test_gkdim_counts_respect_terms",),
    ),
    (
        "the probe's params are parsed without the family grammar",
        CLI,
        "    params = parse_family_spec(f\"conway:{args.params}\").params\n",
        "    params = tuple(int(x) for x in args.params.split(\",\"))\n",
        (
            "tests/test_cli.py::test_malformed_params_exit_two_through_the_family_grammar",
            "tests/test_cli.py::test_probe_params_over_max_arcs_exit_two",
        ),
    ),
    (
        "cli imports the closure at module level",
        CLI,
        "from .growth import (\n",
        "from .oracle import enumerate_classes\nfrom .growth import (\n",
        ("tests/test_records.py::test_import_loads_no_closure",),
    ),
    (
        "the table parse skips the choices check",
        CLI,
        "        if value not in kwargs.get(\"choices\", (value,)):\n",
        "        if False:\n",
        ("tests/test_cli.py::test_one_subcommand_parser_reads_as_the_full_one",),
    ),
    (
        "the table parse keeps a repeated flag's first value",
        CLI,
        "        if kwargs is None or flag in given:\n            return None\n",
        "        if kwargs is None:\n            return None\n"
        "        if flag in given:\n            next(tokens)\n            continue\n",
        ("tests/test_cli.py::test_repeated_flag_keeps_its_last_value",),
    ),
    (
        "cli imports argparse at module level",
        CLI,
        "import json\n",
        "import argparse\nimport json\n",
        ("tests/test_records.py::test_well_formed_calls_load_no_argparse",),
    ),
]

IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_out", "*.egg-info"
)


def apply(tree: Path, path: str, old: str, new: str) -> None:
    """Replace the one occurrence of old in tree/path, or raise ValueError."""
    if path.startswith("tests/"):
        raise ValueError(f"{path} is a test file; mutants change program files only")
    target = tree / path
    text = target.read_text()
    found = text.count(old)
    if found != 1:
        raise ValueError(f"the old text occurs {found} times in {path}, not once")
    target.write_text(text.replace(old, new))


def run_mutant(name, path, old, new, tests) -> str:
    """'killed', 'SURVIVED', or an error message."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        try:
            apply(tree, path, old, new)
        except ValueError as err:
            return f"ERROR: {err}"
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=tree,
            env=env,
            capture_output=True,
            text=True,
        )
    # pytest exits 1 when a test failed; 0 means every test passed, and any
    # other code means the tests did not run as selected
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "SURVIVED"
    return f"ERROR: pytest exited {proc.returncode}\n{proc.stdout}{proc.stderr}"


def main() -> int:
    failed = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        outcome = run_mutant(*mutant)
        print(f"{outcome:<9} {mutant[0]}  ({time.perf_counter() - start:.1f}s)", flush=True)
        failed += outcome != "killed"
    print(f"mutants: {len(MUTANTS) - failed} of {len(MUTANTS)} killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
