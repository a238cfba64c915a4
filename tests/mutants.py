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
every test it names failed.  A mutant whose tests could not be collected,
say because the edit breaks an import, did not run: it is neither killed
nor survived.  The exit code is 1 unless every mutant was killed.
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
        "is-prime-band-includes-psi13",
        "src/rrseq/numtheory.py",
        "n < _PSI_13",
        "n <= _PSI_13",
        (
            "tests/test_numtheory.py::test_mr_base_table_bound_is_strong_pseudoprime[k=13]",
            "tests/test_numtheory.py::test_is_prime_tests_each_band_with_its_bases",
        ),
    ),
    Mutant(
        "is-prime-band-drops-base-41",
        "src/rrseq/numtheory.py",
        "_miller_rabin(n, _MR_BASES_64 if",
        "_miller_rabin(n, _MR_BASES_64[:-1] if",
        (
            "tests/test_numtheory.py::test_mr_base_table_bound_is_strong_pseudoprime[k=12]",
            "tests/test_numtheory.py::test_is_prime_tests_each_band_with_its_bases",
        ),
    ),
    Mutant(
        "is-prime-without-3-screen",
        "src/rrseq/numtheory.py",
        "if n % 2 == 0 or n % 3 == 0:",
        "if n % 2 == 0:",
        (
            "tests/test_numtheory.py::test_is_prime_matches_sieve",
            "tests/test_numtheory.py::test_is_prime_rejects_composites_at_the_edges_of_its_proof",
        ),
    ),
    Mutant(
        "trial-proof-reach-one-power-short",
        "src/rrseq/numtheory.py",
        "_trial_chunks(1 << (n.bit_length() + 1) // 2)",
        "_trial_chunks(1 << (n.bit_length() - 1) // 2)",
        (
            "tests/test_numtheory.py::test_is_prime_matches_sieve",
            "tests/test_numtheory.py::test_is_prime_rejects_composites_at_the_edges_of_its_proof",
            "tests/test_numtheory.py::test_is_prime_matches_sympy_up_to_four_times_the_proof_limit",
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
            "tests/test_cli.py::test_no_subcommand_loads_numpy[seed -p 3 -n 16]",
            "tests/test_cli.py::test_no_subcommand_loads_numpy[search -p 3 -n 16]",
            "tests/test_cli.py::test_no_subcommand_loads_numpy[sweep -n 16 --primes-up-to 100 --format json]",
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
            "tests/test_api.py::test_no_entry_point_loads_numpy[search-path]",
        ),
    ),
    Mutant(
        "public-name-not-cached",
        "src/rrseq/__init__.py",
        "    globals()[name] = value\n",
        "",
        ("tests/test_api.py::test_import_loads_no_submodule",),
    ),
    Mutant(
        "eager-import-restored",
        "src/rrseq/__init__.py",
        "from importlib import import_module\n",
        "from importlib import import_module\n\nfrom .modsearch import sweep\n",
        ("tests/test_api.py::test_import_loads_no_submodule",),
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
        "gram-zero-scalar-passes",
        "src/rrseq/verify.py",
        "if sum(map(operator.mul, r, r)) % n == 0:",
        "if sum(map(operator.mul, r, r)) % n < 0:",
        (
            "tests/test_verify.py::test_peak_killed_by_modulus",
            "tests/test_verify.py::test_gram_agrees_with_profile_check",
            "tests/test_verify.py::test_gram_matches_exact_oracle",
            "tests/test_verify.py::test_zero_scalar_rows_fail_on_both_branches",
        ),
    ),
    Mutant(
        "gram-lags-stop-short",
        "src/rrseq/verify.py",
        "range(1, len(r) // 2 + 1)",
        "range(1, len(r) // 2)",
        (
            "tests/test_verify.py::test_lag_half_the_length_is_checked",
            "tests/test_verify.py::test_each_lag_is_checked[16-8]",
        ),
    ),
    Mutant(
        "gram-lags-without-wraparound",
        "src/rrseq/verify.py",
        "r[k:] + r[:k]",
        "r[k:]",
        (
            "tests/test_verify.py::test_verified_rows_pass_gram",
            "tests/test_verify.py::test_each_lag_is_checked[15-8]",
            "tests/test_verify.py::test_each_lag_is_checked[16-15]",
        ),
    ),
    Mutant(
        "gram-peak-unreduced",
        "src/rrseq/verify.py",
        "if sum(map(operator.mul, r, r)) % n == 0:",
        "if sum(map(operator.mul, r, r)) == 0:",
        ("tests/test_verify.py::test_zero_scalar_rows_fail_on_both_branches",),
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
        "src/rrseq/witness.py",
        "r = _rot(c, -k % m, m)",
        "r = _rot(c, k, m)",
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
        "            pass\n",
        ("tests/test_cli.py::test_stdout_on_full_device_exit_4[30]",),
    ),
    Mutant(
        "emit-skips-the-flush",
        "src/rrseq/cli.py",
        "            fh.flush()\n",
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
        "join(valid), join(every), efficient,",
        "join(every), join(every), efficient,",
        (
            "tests/test_cli.py::test_row_streams_equal_text_rebuilt_from_find_modulus[16-doubling-sweep-largest-None-json]",
            "tests/test_cli.py::test_row_streams_equal_text_rebuilt_from_find_modulus[16-doubling-sweep-largest-None-csv]",
            "tests/test_cli.py::test_sweep_csv_round_trip",
        ),
    ),
    Mutant(
        "row-missing-modulus-written-empty",
        "src/rrseq/cli.py",
        """none, modulus, join = ("null", """,
        """none, modulus, join = ('""', """,
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
        # find_modulus and sweep share the builder, so comparing the two
        # cannot see this edit: only tests with their own cofactor oracle name it.
        "outcome-drops-cofactor",
        "src/rrseq/modsearch.py",
        "Factorization(g, factors, cofactor)",
        "Factorization(g, factors)",
        (
            "tests/test_modsearch.py::test_bare_trial_rows_keep_a_cofactor[64-60-doubling-SearchStatus.FOUND]",
            "tests/test_modsearch.py::test_bare_trial_rows_keep_a_cofactor[16-60-powers-SearchStatus.INCOMPLETE_FACTORIZATION]",
            "tests/test_modsearch.py::test_incomplete_factorization_status",
        ),
    ),
    Mutant(
        "subcommand-handlers-swapped",
        "src/rrseq/cli.py",
        '_cmd_sweep, "search every starting prime up to a bound"),\n'
        '        ("verify", [output, row, one], _cmd_verify, "certify the two-valued property"),\n'
        '        ("plotdata", [output, factoring, row, many], _cmd_plotdata,',
        '_cmd_plotdata, "search every starting prime up to a bound"),\n'
        '        ("verify", [output, row, one], _cmd_verify, "certify the two-valued property"),\n'
        '        ("plotdata", [output, factoring, row, many], _cmd_sweep,',
        (
            "tests/test_cli.py::test_sweep_row_count_and_membership",
            "tests/test_cli.py::test_plotdata_pairs",
            "tests/test_cli_golden.py::test_cli_output_matches_golden[sweep -n 2 --primes-up-to 30 --row doubling --policy smallest --format csv]",
            "tests/test_cli_golden.py::test_cli_output_matches_golden[plotdata -n 2 --primes-up-to 30 --row doubling --policy smallest --format csv]",
        ),
    ),
    Mutant(
        "autocorr-row-defaults-to-doubling",
        "src/rrseq/cli.py",
        'auto.add_argument("--row", choices=ROW_KINDS, help=_ROW_HELP)',
        'auto.add_argument("--row", choices=ROW_KINDS, default=ROW_DOUBLING, help=_ROW_HELP)',
        (
            "tests/test_cli.py::test_autocorr_explicit_row",
            "tests/test_cli_golden.py::test_cli_output_matches_golden[autocorr --seq 3,2 --format csv]",
            "tests/test_cli_golden.py::test_cli_output_matches_golden[autocorr --seq 3,9,27 --format json]",
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
        "witness-check-stops-before-lag-half",
        "src/rrseq/witness.py",
        "for k in range(n // 2 + 1):",
        "for k in range(n // 2):",
        (
            "tests/test_verify.py::test_enumeration_refuses_a_mask_that_fails_the_profile_check[00111]",
            "tests/test_verify.py::test_enumeration_refuses_a_mask_that_fails_the_profile_check[101000010]",
        ),
    ),
    Mutant(
        "witness-check-ignores-the-peak",
        "src/rrseq/witness.py",
        "bad |= odd ^ ones if k == 0 else odd",
        "bad |= odd",
        ("tests/test_verify.py::test_enumeration_refuses_a_mask_that_fails_the_profile_check[1111]",),
    ),
    Mutant(
        "witness-check-without-wraparound",
        "src/rrseq/witness.py",
        "sliced[k:] + sliced[:k]",
        "sliced[k:]",
        (
            "tests/test_verify.py::test_witness_counts_match_golden",
            "tests/test_verify.py::test_enumeration_matches_the_per_row_construction",
            "tests/test_verify.py::test_enumeration_refuses_a_mask_that_fails_the_profile_check[101000010]",
        ),
    ),
    Mutant(
        "witness-planes-from-the-wrong-byte",
        "src/rrseq/witness.py",
        "packed[i >> 3 :: 4]",
        "packed[i >> 2 :: 4]",
        (
            "tests/test_verify.py::test_enumeration_matches_the_per_row_construction",
            "tests/test_verify.py::test_witness_bits_and_profile_from_the_mask[9]",
            "tests/test_verify.py::test_enumeration_refuses_a_mask_that_fails_the_profile_check[101000010]",
        ),
    ),
    Mutant(
        "witness-reports-the-last-failure",
        "src/rrseq/witness.py",
        "(bad & -bad).bit_length()",
        "bad.bit_length()",
        ("tests/test_verify.py::test_enumeration_refuses_a_mask_that_fails_the_profile_check[1111 0011]",),
    ),
    Mutant(
        "witness-build-leaves-the-collector-off",
        "src/rrseq/witness.py",
        "        if enabled:\n            gc.enable()\n",
        "        pass\n",
        (
            "tests/test_verify.py::test_witness_build_restores_the_collector[on-returns]",
            "tests/test_verify.py::test_witness_build_restores_the_collector[on-raises]",
        ),
    ),
    Mutant(
        "lift-basis-one-rotation",
        "src/rrseq/witness.py",
        "j = -i % h",
        "j = i",
        (
            "tests/test_kernels.py::test_scan_matches_brute_force_oracle[12]",
            "tests/test_kernels.py::test_scan_matches_popcount_oracle[20]",
            "tests/test_kernels.py::test_lift_past_the_cap_meets_the_definition[28-28672]",
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
    Mutant(
        "ecm-ladder-branch-swapped",
        "src/rrseq/numtheory.py",
        'if bit == "1":',
        'if bit == "0":',
        (
            "tests/test_numtheory.py::test_ecm_matches_sympy_factorint",
            "tests/test_numtheory.py::test_ecm_stage_splits_prime_squares",
            "tests/test_numtheory.py::test_certify_n128_miller_rabin_work",
            "tests/test_numtheory.py::test_certify_n128_second_stage_work",
            "tests/test_modsearch.py::test_n128_sweep_factors_every_row",
        ),
    ),
    Mutant(
        "ecm-retry-point-left-projective",
        "src/rrseq/numtheory.py",
        "x = xz[0] * pow(xz[1], -1, n) % n",
        "x = xz[0]",
        ("tests/test_numtheory.py::test_ecm_separates_small_primes_found_together",),
    ),
    Mutant(
        "ecm-retry-each-prime-once",
        "src/rrseq/numtheory.py",
        "for p in steps:",
        "for p in set(steps):",
        ("tests/test_numtheory.py::test_ecm_stage_splits_prime_squares",),
    ),
)


def verdict(tests: tuple[str, ...], report: Path) -> str:
    """A mutant's outcome, from the junit report of its tests: "killed"
    when every test failed or errored; "did not run" when a test file it
    names failed to collect, as when the edit breaks an import; else
    "survived", with the tests that passed."""
    failed, broken = set(), set()
    for case in ET.parse(report).iter("testcase"):
        error = case.find("error")
        if error is not None and error.get("message") == "collection failure":
            broken.add(case.get("name").replace(".", "/") + ".py")
        elif error is not None or case.find("failure") is not None:
            module = case.get("classname", "").replace(".", "/")
            failed.add(f"{module}.py::{case.get('name')}")
    unrun = sorted(broken & {test.split("::")[0] for test in tests})
    if unrun:
        return "did not run: collection error in " + ", ".join(unrun)
    passing = set(tests) - failed
    return "survived, not failed: " + ", ".join(sorted(passing)) if passing else "killed"


def run(mutant: Mutant) -> str:
    """Apply the mutant to a copy of the tree, run its tests and return
    their `verdict`."""
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
        return verdict(mutant.tests, report)


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    not_killed = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        outcome = run(mutant)
        not_killed += outcome != "killed"
        print(f"{mutant.name}: {outcome}")
    return 1 if not_killed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
