"""Mutants of the source that the test suite must kill.

Each mutant is one exact edit of a file under src/: its text `old`,
found there exactly once, becomes `new`.  It names the tests that must
fail under that edit.  test_mutants.py checks, in the tier-1 suite, that
every `old` is still found exactly once, so an edit to the source that
moves a mutant's text fails there rather than here.

Run the mutants with

    python tests/mutants.py [NAME ...]

Each one is applied to its own copy of src/ and tests/ in a temporary
directory, never to this tree, and only its tests are run there, with
pytest.  One line per mutant says whether it was killed, that is whether
every test it names failed; the exit code is 1 if any mutant survived.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids that must fail under the edit


MUTANTS = (
    Mutant(
        "proof-not-strict",
        "src/rrseq/numtheory.py",
        "if 1 < rem < low * low:",
        "if 1 < rem <= low * low:",
        ("tests/test_numtheory.py::test_trial_stage_matches_prime_oracle",),
    ),
    Mutant(
        "low-one-too-high",
        "src/rrseq/numtheory.py",
        "return rem, min(reach, bound) + 1",
        "return rem, min(reach, bound) + 2",
        ("tests/test_numtheory.py::test_trial_stage_matches_prime_oracle",),
    ),
    Mutant(
        "low-ignores-bound",
        "src/rrseq/numtheory.py",
        "return rem, min(first, bound + 1)",
        "return rem, first",
        ("tests/test_numtheory.py::test_trial_stage_matches_prime_oracle",),
    ),
    Mutant(
        "chunk-composite-gcd-as-prime",
        "src/rrseq/numtheory.py",
        "        while c * c <= g and c <= bound:",
        "        while False:",
        ("tests/test_numtheory.py::test_trial_stage_matches_prime_oracle",),
    ),
    Mutant(
        "chunk-one-division-per-prime",
        "src/rrseq/numtheory.py",
        "                while rem % c == 0:",
        "                if rem % c == 0:",
        ("tests/test_numtheory.py::test_trial_stage_matches_prime_oracle",),
    ),
    Mutant(
        "chunk-early-stop-not-strict",
        "src/rrseq/numtheory.py",
        "first * first > rem",
        "first * first >= rem",
        ("tests/test_numtheory.py::test_trial_stage_matches_prime_oracle",),
    ),
    Mutant(
        "chunk-table-drops-last-chunk",
        "src/rrseq/numtheory.py",
        "    return tuple(chunks)",
        "    return tuple(chunks[:-1])",
        ("tests/test_numtheory.py::test_trial_stage_matches_prime_oracle",),
    ),
    Mutant(
        "chunk-one-division-for-leftover-prime",
        "src/rrseq/numtheory.py",
        "            while rem % g == 0:",
        "            if rem % g == 0:",
        ("tests/test_numtheory.py::test_trial_stage_matches_prime_oracle",),
    ),
    Mutant(
        "is-prime-one-base-too-many",
        "src/rrseq/numtheory.py",
        "return _miller_rabin(n, _MR_BASES_64[:k])",
        "return _miller_rabin(n, _MR_BASES_64[: k + 1])",
        (
            "tests/test_numtheory.py::test_is_prime_tests_each_range_with_its_prefix_of_bases",
            "tests/test_numtheory.py::test_miller_rabin_gets_bases_in_range",
        ),
    ),
    Mutant(
        "record-json-without-indent",
        "src/rrseq/cli.py",
        "json.dumps(value if keys is None else {k: value[k] for k in keys}, indent=2)",
        "json.dumps(value if keys is None else {k: value[k] for k in keys})",
        (
            "tests/test_cli_golden.py::test_cli_output_matches_golden[seed -p 3 -n 2 --row doubling --format json]",
            "tests/test_cli_golden.py::test_cli_output_matches_golden[verify -p 3 -n 2 -m 3 --row doubling --format json]",
            "tests/test_cli_golden.py::test_cli_output_matches_golden[search -p 3 -n 2 --row doubling --policy smallest --format json]",
        ),
    ),
    Mutant(
        "cli-loads-verify-eagerly",
        "src/rrseq/cli.py",
        "from .sequence import MAX_LENGTH, ROW_DOUBLING, ROW_KINDS, build_seed, check_length\n",
        "from .sequence import MAX_LENGTH, ROW_DOUBLING, ROW_KINDS, build_seed, check_length\n"
        "from .verify import check_rr, gram_check\n",
        (
            "tests/test_cli.py::test_only_verify_loads_numpy[seed -p 3 -n 16]",
            "tests/test_cli.py::test_only_verify_loads_numpy[search -p 3 -n 16]",
            "tests/test_cli.py::test_only_verify_loads_numpy[sweep -n 16 --primes-up-to 100 --format json]",
        ),
    ),
    Mutant(
        "lazy-check-rr-from-correlation",
        "src/rrseq/__init__.py",
        '"check_rr": "verify",',
        '"check_rr": "correlation",',
        (
            "tests/test_api.py::test_all_is_exactly_the_public_names",
            "tests/test_api.py::test_each_public_name_is_the_object_its_module_defines",
            "tests/test_api.py::test_star_import_binds_every_public_name",
            "tests/test_api.py::test_numpy_loads_only_for_the_gram_check_and_witness_scan[search-path]",
        ),
    ),
    Mutant(
        "statuses-swapped",
        "src/rrseq/modsearch.py",
        "_NO_VALID_MODULUS if cofactor == 1 else _INCOMPLETE",
        "_INCOMPLETE if cofactor == 1 else _NO_VALID_MODULUS",
        (
            "tests/test_modsearch.py::test_hand_oracle_failure_case",
            "tests/test_modsearch.py::test_incomplete_factorization_status",
            "tests/test_modsearch.py::test_doubling_closed_form_matches_oracle[64]",
            "tests/test_cli.py::test_search_negative_exit",
        ),
    ),
    Mutant(
        "gram-one-prime-short",
        "src/rrseq/verify.py",
        "k = bound.bit_length() // 21 + 1",
        "k = bound.bit_length() // 21",
        (
            "tests/test_verify.py::test_gram_ok_forms_one_product_per_prime",
            "tests/test_verify.py::test_exact_gram_matches_numpy_gram",
            "tests/test_verify.py::test_gram_matches_exact_oracle_at_odd_sizes",
        ),
    ),
    Mutant(
        "gram-crt-without-inverse",
        "src/rrseq/verify.py",
        "m * ((a - x) * inv % p)",
        "m * ((a - x) % p)",
        (
            "tests/test_verify.py::test_gram_matches_exact_oracle",
            "tests/test_verify.py::test_exact_gram_path_on_n128_row",
            "tests/test_verify.py::test_gram_agrees_with_profile_check_on_wide_moduli",
            "tests/test_cli.py::test_verify_wide_modulus",
        ),
    ),
    Mutant(
        "gram-circulant-check-without-wraparound",
        "src/rrseq/verify.py",
        "if not ((d[1:, 1:] == d[:-1, :-1]).all() and (d[1:, 0] == d[:-1, -1]).all()):",
        "if not (d[1:, 1:] == d[:-1, :-1]).all():",
        ("tests/test_verify.py::test_gram_ok_checks_the_wraparound_of_each_product",),
    ),
    Mutant(
        "gram-zero-scalar-passes",
        "src/rrseq/verify.py",
        "return c != 0 and not gram.any()",
        "return not gram.any()",
        (
            "tests/test_verify.py::test_peak_killed_by_modulus",
            "tests/test_verify.py::test_gram_agrees_with_profile_check",
            "tests/test_verify.py::test_gram_matches_exact_oracle",
            "tests/test_verify.py::test_zero_scalar_rows_fail_on_both_branches",
        ),
    ),
    Mutant(
        "gram-zero-scalar-passes-on-primes",
        "src/rrseq/verify.py",
        "return row[0] % n != 0 and all(",
        "return all(",
        (
            "tests/test_verify.py::test_gram_matches_exact_oracle",
            "tests/test_verify.py::test_zero_scalar_rows_fail_on_both_branches",
        ),
    ),
    Mutant(
        "gram-scalar-off-the-diagonal",
        "src/rrseq/verify.py",
        "c = int(gram[0, 0])",
        "c = int(gram[0, 1])",
        (
            "tests/test_verify.py::test_certificate_for_reference_row",
            "tests/test_verify.py::test_verified_rows_pass_gram",
            "tests/test_verify.py::test_gram_ok_checks_the_whole_one_product",
        ),
    ),
    Mutant(
        "word-primes-without-miller-rabin",
        "src/rrseq/verify.py",
        "if _miller_rabin(c, (2, 3, 5, 7))",
        "if c",
        (
            "tests/test_verify.py::test_word_primes_keep_every_product_exact",
            "tests/test_verify.py::test_gram_exact_path_large_modulus",
            "tests/test_verify.py::test_exact_gram_path_on_n128_row",
        ),
    ),
    Mutant(
        "doubling-peak-constant-off-by-one",
        "src/rrseq/modsearch.py",
        "((1 << 2 * n) - 4) // 3",
        "((1 << 2 * n) - 1) // 3",
        (
            "tests/test_modsearch.py::test_doubling_closed_form_matches_oracle[2]",
            "tests/test_modsearch.py::test_doubling_closed_form_matches_oracle[16]",
            "tests/test_modsearch.py::test_doubling_closed_form_matches_oracle[128]",
        ),
    ),
    Mutant(
        "doubling-gcd-without-abs",
        "src/rrseq/modsearch.py",
        "abs(m) * h // 3",
        "m * h // 3",
        (
            "tests/test_modsearch.py::test_doubling_closed_form_matches_oracle[2]",
            "tests/test_modsearch.py::test_doubling_closed_form_matches_oracle[16]",
            "tests/test_modsearch.py::test_doubling_closed_form_matches_oracle[17]",
        ),
    ),
    Mutant(
        "doubling-recogniser-ignores-last-element",
        "src/rrseq/sequence.py",
        "elems[1:] == _doubling_tail(len(elems))",
        "elems[1:-1] == _doubling_tail(len(elems))[:-1]",
        (
            "tests/test_sequence.py::test_recogniser_reads_only_the_tail",
            "tests/test_modsearch.py::test_changed_tail_takes_generic_path[3]",
            "tests/test_modsearch.py::test_changed_tail_takes_generic_path[16]",
        ),
    ),
    Mutant(
        "orbit-tables-from-right-rotations",
        "src/rrseq/verify.py",
        "r = (c << k | c >> (m - k)) & full",
        "r = (c >> k | c << (m - k)) & full",
        (
            "tests/test_kernels.py::test_scan_matches_brute_force_oracle[15]",
            "tests/test_kernels.py::test_scan_matches_popcount_oracle[10]",
            "tests/test_kernels.py::test_each_component_is_listed_as_the_mul_chain[11]",
        ),
    ),
    Mutant(
        "profile-digit-one-byte-narrower",
        "src/rrseq/correlation.py",
        "b = ((size * (n - 1) ** 2).bit_length() + 7) // 8",
        "b = ((size * (n - 1) ** 2).bit_length() - 1) // 8",
        (
            "tests/test_correlation.py::test_residue_profile_matches_oracle",
            "tests/test_correlation.py::test_matches_oracle_on_random_rows",
            "tests/test_verify.py::test_check_rr_matches_exact_profile_oracle",
        ),
    ),
    Mutant(
        "closed-form-n2-factor",
        "src/rrseq/modsearch.py",
        "h = 4 if n == 2 else",
        "h = 2 if n == 2 else",
        ("tests/test_modsearch.py::test_doubling_closed_form_matches_oracle[2]",),
    ),
    Mutant(
        "valid-moduli-from-zero-residues",
        "src/rrseq/modsearch.py",
        "return tuple(q for q, r in self.candidates if r)",
        "return tuple(q for q, r in self.candidates if not r)",
        (
            "tests/test_modsearch.py::test_found_with_policies",
            "tests/test_modsearch.py::test_candidates_pair_each_prime_factor_with_the_peak_residue[doubling-16]",
            "tests/test_acceptance.py::test_criterion_1_reference_table_len16_membership",
        ),
    ),
    Mutant(
        "candidate-holds-the-peak",
        "src/rrseq/modsearch.py",
        "candidates.append((q, residue))",
        "candidates.append((q, peak))",
        (
            "tests/test_modsearch.py::test_candidates_pair_each_prime_factor_with_the_peak_residue[doubling-16]",
            "tests/test_modsearch.py::test_doubling_closed_form_matches_oracle[16]",
            "tests/test_cli.py::test_search_json_fields",
        ),
    ),
    Mutant(
        "autocorr-seq-beside-p-or-n-accepted",
        "src/rrseq/cli.py",
        "if (args.prime is None) != with_seq or (args.length is None) != with_seq:",
        "if (args.seq is None) == (args.prime is None or args.length is None):",
        (
            "tests/test_cli.py::test_options_a_subcommand_does_not_use_exit_2[argv4]",
            "tests/test_cli.py::test_options_a_subcommand_does_not_use_exit_2[argv5]",
        ),
    ),
    Mutant(
        "failed-stdout-kept",
        "src/rrseq/cli.py",
        "            _drop_stdout()\n",
        "",
        ("tests/test_cli.py::test_stdout_on_full_device_exit_4[30]",),
    ),
    Mutant(
        "sweep-rows-a-generator-function",
        "src/rrseq/modsearch.py",
        "    return (\n        (p, *_search(",
        "    yield from (\n        (p, *_search(",
        (
            "tests/test_modsearch.py::test_sweep_rows_checks_its_arguments_at_the_call[low-bound]",
            "tests/test_modsearch.py::test_sweep_rows_checks_its_arguments_at_the_call[policy]",
            "tests/test_cli.py::test_refused_run_creates_no_out_file[argv3]",
        ),
    ),
    Mutant(
        "efficient-strict",
        "src/rrseq/cli.py",
        '"efficient": c is not None and c <= n,',
        '"efficient": c is not None and c < n,',
        (
            "tests/test_cli.py::test_efficient_flag",
            "tests/test_cli_golden.py::test_cli_output_matches_golden[search -p 3 -n 2 --row doubling --policy smallest --format csv]",
            "tests/test_cli_golden.py::test_cli_output_matches_golden[search -p 3 -n 2 --row doubling --policy smallest --format json]",
        ),
    ),
    Mutant(
        "sweep-efficient-strict",
        "src/rrseq/cli.py",
        'efficient = "true" if canonical is not None and canonical <= n else "false"',
        'efficient = "true" if canonical is not None and canonical < n else "false"',
        (
            "tests/test_cli.py::test_row_streams_equal_text_rebuilt_from_find_modulus[2-doubling-sweep-smallest-None-json]",
            "tests/test_cli.py::test_row_streams_equal_text_rebuilt_from_find_modulus[2-doubling-sweep-smallest-None-csv]",
        ),
    ),
    Mutant(
        "row-list-written-empty",
        "src/rrseq/cli.py",
        r"""    return '[\n      "' + '",\n      "'.join(items)""",
        r"""    return "[]" or '[\n      "' + '",\n      "'.join(items)""",
        (
            "tests/test_cli.py::test_row_streams_equal_text_rebuilt_from_find_modulus[16-doubling-sweep-largest-None-json]",
            "tests/test_cli.py::test_row_streams_equal_text_rebuilt_from_find_modulus[64-powers-sweep-all-5-json]",
            "tests/test_cli_golden.py::test_cli_output_matches_golden[sweep -n 16 --primes-up-to 100000 --format json]",
        ),
    ),
    Mutant(
        "row-valid-candidates-from-all",
        "src/rrseq/cli.py",
        "yield i, p, n, g, status._value_, canonical, valid, every, efficient",
        "yield i, p, n, g, status._value_, canonical, every, every, efficient",
        (
            "tests/test_cli.py::test_row_streams_equal_text_rebuilt_from_find_modulus[16-doubling-sweep-largest-None-json]",
            "tests/test_cli.py::test_row_streams_equal_text_rebuilt_from_find_modulus[16-doubling-sweep-largest-None-csv]",
            "tests/test_cli.py::test_sweep_csv_round_trip",
        ),
    ),
    Mutant(
        "row-missing-modulus-written-empty",
        "src/rrseq/cli.py",
        """"optional": lambda v: "null" if v is None""",
        """"optional": lambda v: '""' if v is None""",
        (
            "tests/test_cli.py::test_row_streams_equal_text_rebuilt_from_find_modulus[2-powers-sweep-largest-None-json]",
            "tests/test_cli.py::test_row_streams_equal_text_rebuilt_from_find_modulus[16-powers-sweep-all-5-json]",
        ),
    ),
    Mutant(
        "row-separator-after-the-last-row",
        "src/rrseq/cli.py",
        r'else "\n]\n"',
        r'else ",\n]\n"',
        (
            "tests/test_cli.py::test_row_streams_equal_text_rebuilt_from_find_modulus[16-doubling-sweep-largest-None-json]",
            "tests/test_cli.py::test_row_streams_equal_text_rebuilt_from_find_modulus[16-doubling-plotdata-largest-None-json]",
            "tests/test_cli.py::test_sweep_json_round_trip",
        ),
    ),
    Mutant(
        "sweep-rows-numbered-from-zero",
        "src/rrseq/cli.py",
        "enumerate(rows, 1)",
        "enumerate(rows)",
        (
            "tests/test_cli.py::test_sweep_csv_round_trip",
            "tests/test_cli.py::test_sweep_json_round_trip",
            "tests/test_cli_golden.py::test_cli_output_matches_golden[sweep -n 16 --primes-up-to 100000 --format json]",
        ),
    ),
    Mutant(
        "sweep-wraps-without-cofactor",
        "src/rrseq/modsearch.py",
        "SweepRow(p, ModulusSearchOutcome(g, Factorization(g, factors, cofactor),",
        "SweepRow(p, ModulusSearchOutcome(g, Factorization(g, factors),",
        (
            "tests/test_modsearch.py::test_sweep_equals_find_modulus_on_built_rows[bare-trial-SelectionPolicy.LARGEST-64-60-doubling]",
            "tests/test_modsearch.py::test_sweep_equals_find_modulus_on_built_rows[bare-trial-SelectionPolicy.ALL-16-60-powers]",
            "tests/test_modsearch.py::test_bare_trial_rows_keep_a_cofactor[64-60-doubling-SearchStatus.FOUND]",
        ),
    ),
    Mutant(
        "factorize-drops-cofactor",
        "src/rrseq/numtheory.py",
        "    return Factorization(n, factors, cofactor)",
        "    return Factorization(n, factors)",
        (
            "tests/test_numtheory.py::test_budget_exhaustion_reports_cofactor",
            "tests/test_numtheory.py::test_trial_stage_matches_prime_oracle",
            "tests/test_modsearch.py::test_doubling_closed_form_matches_oracle[64]",
        ),
    ),
    Mutant(
        "plotdata-reads-the-gcd",
        "src/rrseq/cli.py",
        "for p, *_, c in rows",
        "for p, c, *_ in rows",
        (
            "tests/test_cli.py::test_plotdata_pairs",
            "tests/test_cli.py::test_plotdata_length_15",
            "tests/test_cli_golden.py::test_cli_output_matches_golden[plotdata -n 16 --primes-up-to 30 --row doubling --policy largest --format csv]",
        ),
    ),
    Mutant(
        "check-rr-stops-before-lag-half",
        "src/rrseq/verify.py",
        "values[1 : len(residues) // 2 + 1]",
        "values[1 : len(residues) // 2]",
        (
            "tests/test_verify.py::test_lag_half_the_length_is_checked",
            "tests/test_verify.py::test_check_rr_matches_exact_profile_oracle",
            "tests/test_verify.py::test_gram_agrees_with_profile_check",
        ),
    ),
    Mutant(
        "residue-profile-fold-unshifted",
        "src/rrseq/correlation.py",
        "((z & ((1 << w * size) - 1)) << w)",
        "(z & ((1 << w * size) - 1))",
        (
            "tests/test_correlation.py::test_residue_profile_matches_oracle",
            "tests/test_correlation.py::test_hand_oracle_profile",
            "tests/test_verify.py::test_certificate_for_reference_row",
        ),
    ),
    Mutant(
        "ecm-stage2-drops-baby-steps",
        "src/rrseq/numtheory.py",
        "acc = acc * (gx - xs[b]) % n",
        "acc = acc * gx % n",
        ("tests/test_numtheory.py::test_ecm_matches_sympy_factorint",),
    ),
)


def _failed(report: Path) -> set[str]:
    """The ids of the tests that failed or errored in a junit report."""
    failed = set()
    for case in ET.parse(report).iter("testcase"):
        if case.find("failure") is not None or case.find("error") is not None:
            module = case.get("classname", "").replace(".", "/")
            failed.add(f"{module}.py::{case.get('name')}")
    return failed


def run(mutant: Mutant) -> set[str]:
    """Apply the mutant to a copy of the tree and run its tests; return
    the named tests that did not fail."""
    with tempfile.TemporaryDirectory(prefix="rrseq-mutant-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", work)
        target = work / mutant.file
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: the text to mutate is not found exactly once in {mutant.file}")
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        report = work / "report.xml"
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--junitxml={report}", *mutant.tests],
            cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=600,
        )
        return set(mutant.tests) - _failed(report)


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    survived = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        passing = run(mutant)
        survived += bool(passing)
        print(f"{mutant.name}: " + ("survived, not failed: " + ", ".join(sorted(passing)) if passing else "killed"))
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
