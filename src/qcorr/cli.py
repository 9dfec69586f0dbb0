"""Command-line surface: recompute every headline number and emit a report.

Exit status: 0 all checks pass, 1 at least one check failed, 2 usage error,
3 numerical failure (eigensolver breakdown, non-firing witness, ...) or out
of memory (a dimension or restart count too large to allocate).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import core
from .bell import analytic_value, bell_report, chsh_reduction_check, noise_threshold
from .correlators import (
    all_ghz4x3_families,
    build_C_ghz4x3,
    build_C_phi,
    build_C_psi,
    count_prop1_violations,
    count_prop2_violations,
    ghz4_x_pairs,
    ghz4_z_pairs,
    prop1_test,
    prop2_test,
    singlet_correlators,
)
from .report import Check, Report, approx_check, bound_check, exact_check
from .states import ghz4, ghz_4x3, singlet4
from .witnesses import (
    GHZ4_CASES,
    GHZ4_WITNESS_GRID,
    GHZ4X3_ALPHA,
    GHZ4X3_GAMMA,
    GHZ4X3_NOISE_DELTA,
    SINGLET_ALPHA,
    SINGLET_GAMMA,
    SINGLET_NOISE_DELTA,
    WitnessNeverFiresError,
    biseparable_max,
    make_witness,
    noise_tolerance,
    projector_witness,
    verify_dominance,
)

BISEP_SLACK = 0.02


def _witness_block(report, prefix, witness, state, gamma, expected_delta, delta_tol, tol) -> None:
    """Projector-witness dominance and noise tolerance of `witness` at `state`,
    as three results and two checks whose keys start with `prefix`."""
    wp = projector_witness(state)
    cert = verify_dominance(witness, wp, gamma, tol=tol)
    delta = noise_tolerance(witness, state)
    report.add_result(f"{prefix}alpha_p", wp.alpha_p)
    report.add_result(f"{prefix}dominance_min_eig", cert.min_eig)
    report.add_result(f"{prefix}noise_delta", delta)
    report.add_check(Check(f"{prefix}dominance(gamma={gamma})", True, cert.passed, None, cert.passed))
    report.add_check(approx_check(f"{prefix}noise_delta", expected_delta, delta, delta_tol))


def run_table1(args) -> Report:
    report = Report(
        "table1",
        parameters={"restarts": args.restarts, "tol": args.tol},
        seed=args.seed,
    )
    c_phi = build_C_phi()
    seesaw = biseparable_max(c_phi, restarts=args.restarts, seed=args.seed)
    report.add_result("biseparable_max", seesaw.value)
    report.add_result("biseparable_cut", "+".join(str(p) for p in seesaw.cut))
    report.add_result("lms_count", 2)
    for idx, case in enumerate(GHZ4_CASES, start=1):
        witness = make_witness(case.alpha, c_phi)
        state = ghz4(case.theta, case.phi)
        _witness_block(report, f"case{idx}.", witness, state, case.gamma, case.noise_delta, 1e-3, args.tol)
        report.add_check(
            bound_check(f"case{idx}.biseparable_max", case.alpha + BISEP_SLACK, seesaw.value)
        )
    return report


def run_table2(args) -> Report:
    report = Report("table2", seed=args.seed)
    c_phi = build_C_phi()
    for row, (case_w, expected_row) in enumerate(zip(GHZ4_CASES, GHZ4_WITNESS_GRID), start=1):
        witness = make_witness(case_w.alpha, c_phi)
        for col, (case_s, expected) in enumerate(zip(GHZ4_CASES, expected_row), start=1):
            actual = witness.value(ghz4(case_s.theta, case_s.phi))
            report.add_result(f"value[{row}][{col}]", actual)
            report.add_check(approx_check(f"value[{row}][{col}]", expected, actual, 0.01))
    return report


def run_singlet(args) -> Report:
    report = Report("singlet", parameters={"tol": args.tol}, seed=args.seed)
    state = singlet4()
    flips, groups, kinds = [], [], set()
    for kind in ("z", "x", "y"):
        pairs = singlet_correlators(kind)
        kinds.update(p.setting.kind for p in pairs)
        flips.extend(v for pair in pairs[:4] for v in pair.expectations(state).tolist())
        groups.extend(v for pair in pairs[4:] for v in pair.expectations(state).tolist())
    lo, hi = min(flips), max(flips)
    report.add_result("flip_expectation_min", lo)
    report.add_result("flip_expectation_max", hi)
    report.add_check(
        approx_check("flip_expectations_dev_from_1/3", 0.0, max(abs(lo - 1 / 3), abs(hi - 1 / 3)), 1e-10)
    )
    lo, hi = min(groups), max(groups)
    report.add_result("group_expectation_min", lo)
    report.add_result("group_expectation_max", hi)
    report.add_check(
        approx_check("group_expectations_dev_from_1/6", 0.0, max(abs(lo - 1 / 6), abs(hi - 1 / 6)), 1e-10)
    )

    witness = make_witness(SINGLET_ALPHA, build_C_psi())
    _witness_block(report, "", witness, state, SINGLET_GAMMA, SINGLET_NOISE_DELTA, 1e-6, args.tol)
    report.add_result("lms_count", len(kinds))
    report.add_check(exact_check("lms_count", 3, len(kinds)))
    return report


def run_ghz4x3(args) -> Report:
    report = Report("ghz4x3", parameters={"tol": args.tol}, seed=args.seed)
    state = ghz_4x3()
    values, kinds = [], set()
    for family in all_ghz4x3_families():
        kinds.add(family.setting.kind)
        values.extend(family.expectations(state).tolist())
    lo, hi = min(values), max(values)
    report.add_result("family_expectation_min", lo)
    report.add_result("family_expectation_max", hi)
    report.add_result("family_member_count", len(values))
    report.add_check(
        approx_check("family_expectations_dev_from_1/4", 0.0, max(abs(lo - 0.25), abs(hi - 0.25)), 1e-10)
    )

    witness = make_witness(GHZ4X3_ALPHA, build_C_ghz4x3())
    _witness_block(report, "", witness, state, GHZ4X3_GAMMA, GHZ4X3_NOISE_DELTA, 1e-3, args.tol)
    report.add_result("lms_count", len(kinds))
    report.add_check(exact_check("lms_count", 2, len(kinds)))
    return report


def run_bell(args) -> Report:
    if args.sweep and args.d is not None:
        raise ValueError("give either a dimension d or --sweep DMIN DMAX, not both")
    d = 2 if args.d is None else args.d
    report = Report(
        "bell",
        parameters={"d": d, "lhv": args.lhv, "sweep": bool(args.sweep)},
        seed=args.seed,
    )
    if args.sweep:
        dmin, dmax = args.sweep
        if not 2 <= dmin <= dmax:
            raise ValueError(f"bad sweep range {args.sweep}")
        values = []
        for d in range(dmin, dmax + 1):
            value = analytic_value(d)
            values.append(value)
            report.add_result(f"analytic_d{d}", value)
            report.add_result(f"noise_threshold_d{d}", noise_threshold(d))
        increasing = all(b > a for a, b in zip(values, values[1:]))
        limit = (16.0 / (3.0 * math.pi)) ** 2
        report.add_check(Check("sweep_strictly_increasing", True, increasing, None, increasing))
        report.add_check(bound_check("sweep_below_limit", limit, max(values)))
        return report

    rep = bell_report(d, include_lhv=args.lhv)
    report.add_result("quantum_value", rep.quantum_value)
    report.add_result("analytic_value", rep.analytic_value)
    report.add_result("noise_threshold", rep.noise_threshold)
    report.add_result("detection_events_per_correlation", rep.detection_events_per_correlation)
    report.add_check(
        approx_check("quantum_vs_analytic", rep.analytic_value, rep.quantum_value, 1e-9)
    )
    report.add_check(
        exact_check("detection_events_per_correlation", 2 * d, rep.detection_events_per_correlation)
    )
    if args.lhv:
        report.add_result("lhv_max", rep.lhv_max)
        report.add_result("lhv_maximizer_count", rep.lhv_maximizer_count)
        report.add_check(exact_check("lhv_max", 2, rep.lhv_max))
    if d == 2:
        report.add_check(
            approx_check("quantum_value_d2", 2.0 * math.sqrt(2.0), rep.quantum_value, 1e-9)
        )
        chsh_ok = chsh_reduction_check()
        report.add_check(Check("two_setting_reduction", True, chsh_ok, None, chsh_ok))
    return report


def run_proptest(args) -> Report:
    report = Report("proptest", parameters={"trials": args.trials}, seed=args.seed)
    pairs = ghz4_z_pairs() + ghz4_x_pairs()
    for kind in ("z", "x", "y"):
        pairs.extend(singlet_correlators(kind))
    families = all_ghz4x3_families()

    ghz_state = ghz4(math.pi / 4, 0.0)
    singlet_state = singlet4()
    ghz4x3_state = ghz_4x3()
    positives = all(
        prop1_test(pair, ghz_state if pair.label.startswith("ghz4.") else singlet_state)
        for pair in pairs
    )
    positives = positives and all(prop2_test(f, ghz4x3_state) for f in families)

    violations1 = sum(
        count_prop1_violations(pair, args.trials, args.seed + i) for i, pair in enumerate(pairs)
    )
    violations2 = sum(
        count_prop2_violations(f, args.trials, args.seed + 1000 + i)
        for i, f in enumerate(families)
    )
    report.add_result("pair_count", len(pairs))
    report.add_result("family_count", len(families))
    report.add_result("pair_trials", args.trials * len(pairs))
    report.add_result("family_trials", args.trials * len(families))
    report.add_check(exact_check("target_states_all_positive", True, positives))
    report.add_check(exact_check("pair_sign_violations", 0, violations1))
    report.add_check(exact_check("family_sign_violations", 0, violations2))
    return report


def _tolerance(text: str) -> float:
    """A finite, non-negative float; anything else is a usage error naming the flag."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite non-negative number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--seed", type=int, default=1234, help="seed for randomized procedures")
    witness = argparse.ArgumentParser(add_help=False, parents=[common])
    witness.add_argument(
        "--tol",
        type=_tolerance,
        default=None,
        help="absolute tolerance of the dominance eigenvalue check "
        "(default: 1e-8 times the witness's spectral norm)",
    )

    parser = argparse.ArgumentParser(
        prog="qcorr",
        description="Recompute correlator-witness and Bell-functional results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    table1 = sub.add_parser("table1", parents=[witness], help="GHZ witness constants and noise tolerances")
    table1.add_argument("--restarts", type=int, default=200, help="seesaw restarts")
    sub.add_parser("table2", parents=[common], help="GHZ witness cross-expectation grid")
    sub.add_parser("singlet", parents=[witness], help="four-qubit singlet witness pipeline")
    sub.add_parser("ghz4x3", parents=[witness], help="four-level tripartite GHZ witness pipeline")
    bell = sub.add_parser("bell", parents=[common], help="d-level bipartite Bell functional")
    bell.add_argument("d", type=int, nargs="?", default=None, help="dimension (default 2)")
    mode = bell.add_mutually_exclusive_group()
    mode.add_argument("--lhv", action="store_true", help="run the exhaustive local-model search")
    mode.add_argument(
        "--sweep", nargs=2, type=int, metavar=("DMIN", "DMAX"), help="tabulate a dimension range"
    )
    prop = sub.add_parser("proptest", parents=[common], help="random product-state sign suites")
    prop.add_argument("--trials", type=int, default=200, help="random states per correlator")
    return parser


RUNNERS = {
    "table1": run_table1,
    "table2": run_table2,
    "singlet": run_singlet,
    "ghz4x3": run_ghz4x3,
    "bell": run_bell,
    "proptest": run_proptest,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report = RUNNERS[args.command](args)
    except (core.EigensolverError, WitnessNeverFiresError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render(args.format))
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
