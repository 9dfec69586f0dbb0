"""Command-line surface: recompute every headline number and emit a report.

Exit status: 0 all checks pass, 1 at least one check failed, 2 usage error,
3 numerical failure (eigensolver breakdown, non-firing witness, ...) or out
of memory (a dimension or restart count too large to allocate).  A reader
that closes stdout before the report is written (`qcorr table2 | head -c 1`)
does not change the status.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable

# One BLAS thread unless the user chose a count: every matrix here is small,
# and starting BLAS threads on them costs more than they save.  Only while
# numpy is unloaded, so a process that loaded it first keeps its settings.
if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

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
    family_positive,
    ghz4_x_pairs,
    ghz4_z_pairs,
    member_expectations,
    pair_positive,
    singlet_correlators,
)
from .report import Report, approx_check, bound_check, exact_check
from .states import ghz4, ghz_4x3, singlet4
from .witnesses import (
    GHZ4_CASES,
    GHZ4_CERTIFICATE,
    GHZ4_WITNESS_GRID,
    GHZ4X3_ALPHA,
    GHZ4X3_GAMMA,
    GHZ4X3_NOISE_DELTA,
    SINGLET_ALPHA,
    SINGLET_GAMMA,
    SINGLET_NOISE_DELTA,
    Witness,
    WitnessNeverFiresError,
    biseparable_max,
    certified_max,
    noise_tolerance,
    projector_witness,
    verify_dominance,
)

if TYPE_CHECKING:
    import argparse

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
    report.add_check(exact_check(f"{prefix}dominance(gamma={gamma})", True, cert.passed))
    report.add_check(approx_check(f"{prefix}noise_delta", expected_delta, delta, delta_tol))


def _expectation_range(report, name: str, values, target: Fraction) -> None:
    """The least and greatest of `values` as results, and a check that both
    lie within 1e-10 of `target`."""
    lo, hi = min(values), max(values)
    report.add_result(f"{name}_expectation_min", lo)
    report.add_result(f"{name}_expectation_max", hi)
    dev = max(abs(lo - float(target)), abs(hi - float(target)))
    report.add_check(approx_check(f"{name}_expectations_dev_from_{target}", 0.0, dev, 1e-10))


def run_table1(args) -> Report:
    report = Report(
        "table1",
        parameters={"restarts": args.restarts, "tol": args.tol},
        seed=args.seed,
    )
    c_phi = build_C_phi()
    # the seesaw stops at the first cut that reaches the proven maximum
    bound = float(certified_max(c_phi, GHZ4_CERTIFICATE))
    seesaw = biseparable_max(c_phi, restarts=args.restarts, seed=args.seed, bound=bound)
    report.add_result("biseparable_max", seesaw.value)
    report.add_result("biseparable_cut", "+".join(str(p) for p in seesaw.cut))
    kinds = {pair.setting.kind for pair in ghz4_z_pairs() + ghz4_x_pairs()}
    report.add_result("lms_count", len(kinds))
    for idx, case in enumerate(GHZ4_CASES, start=1):
        witness = Witness(case.alpha, c_phi)
        state = ghz4(case.theta, case.phi)
        _witness_block(report, f"case{idx}.", witness, state, case.gamma, case.noise_delta, 1e-3, args.tol)
        report.add_check(
            bound_check(f"case{idx}.biseparable_max", case.alpha + BISEP_SLACK, seesaw.value)
        )
    return report


def run_table2(args) -> Report:
    report = Report("table2", seed=args.seed)
    c_phi = build_C_phi()
    targets = [ghz4(case.theta, case.phi) for case in GHZ4_CASES]
    for row, (case_w, expected_row) in enumerate(zip(GHZ4_CASES, GHZ4_WITNESS_GRID), start=1):
        witness = Witness(case_w.alpha, c_phi)
        for col, (target, expected) in enumerate(zip(targets, expected_row), start=1):
            actual = witness.value(target)
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
        values = member_expectations(pairs, state)
        flips.extend(v for pair in values[:4] for v in pair.tolist())
        groups.extend(v for pair in values[4:] for v in pair.tolist())
    _expectation_range(report, "flip", flips, Fraction(1, 3))
    _expectation_range(report, "group", groups, Fraction(1, 6))

    witness = Witness(SINGLET_ALPHA, build_C_psi())
    _witness_block(report, "", witness, state, SINGLET_GAMMA, SINGLET_NOISE_DELTA, 1e-6, args.tol)
    report.add_result("lms_count", len(kinds))
    report.add_check(exact_check("lms_count", 3, len(kinds)))
    return report


def run_ghz4x3(args) -> Report:
    report = Report("ghz4x3", parameters={"tol": args.tol}, seed=args.seed)
    state = ghz_4x3()
    families = all_ghz4x3_families()
    kinds = {family.setting.kind for family in families}
    values = [v for family in member_expectations(families, state) for v in family.tolist()]
    _expectation_range(report, "family", values, Fraction(1, 4))
    report.add_result("family_member_count", len(values))

    witness = Witness(GHZ4X3_ALPHA, build_C_ghz4x3())
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
        report.add_check(exact_check("sweep_strictly_increasing", True, increasing))
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
        report.add_check(exact_check("two_setting_reduction", True, chsh_ok))
    return report


def run_proptest(args) -> Report:
    report = Report("proptest", parameters={"trials": args.trials}, seed=args.seed)
    ghz_pairs = ghz4_z_pairs() + ghz4_x_pairs()
    singlet_pairs = [pair for kind in ("z", "x", "y") for pair in singlet_correlators(kind)]
    pairs = ghz_pairs + singlet_pairs
    families = all_ghz4x3_families()

    # The sign tests of `prop1_test` and `prop2_test`, reading each target
    # state's records through one `member_expectations` call.
    pair_values = member_expectations(ghz_pairs, ghz4(math.pi / 4, 0.0))
    pair_values += member_expectations(singlet_pairs, singlet4())
    family_values = member_expectations(families, ghz_4x3())
    positives = all(map(pair_positive, pair_values)) and all(map(family_positive, family_values))

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
        import argparse

        raise argparse.ArgumentTypeError(f"expected a finite non-negative number, got {text!r}")
    return value


def _seed(text: str) -> int:
    """A non-negative integer; anything else is a usage error naming the flag."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        import argparse

        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _option(*flags, **kwargs) -> tuple:
    """An option as its `add_argument` arguments."""
    return flags, kwargs


_FORMAT = _option("--format", choices=("text", "json", "csv"), default="text")
_SEED = _option("--seed", type=_seed, default=1234, help="seed for randomized procedures")
_TOL = _option(
    "--tol",
    type=_tolerance,
    default=None,
    help="absolute tolerance of the dominance eigenvalue check "
    "(default: 1e-8 times the witness's spectral norm)",
)
_RESTARTS = _option("--restarts", type=int, default=200, help="seesaw restarts")
_TRIALS = _option("--trials", type=int, default=200, help="random states per correlator")
_D = _option("d", type=int, nargs="?", default=None, help="dimension (default 2)")
_LHV = _option("--lhv", action="store_true", help="run the exhaustive local-model search")
_SWEEP = _option("--sweep", nargs=2, type=int, metavar=("DMIN", "DMAX"), help="tabulate a dimension range")
_COMMON = (_FORMAT, _SEED)
_WITNESS = _COMMON + (_TOL,)


@dataclass(frozen=True)
class Command:
    """One `qcorr` command: its runner, its help line in `qcorr --help`, and
    its options, added in order and then `exclusive` as one mutually
    exclusive group."""

    name: str
    run: Callable[[argparse.Namespace | SimpleNamespace], Report]
    help: str
    options: tuple
    exclusive: tuple = ()

    def parser(self) -> argparse.ArgumentParser:
        import argparse

        parser = argparse.ArgumentParser(prog=f"qcorr {self.name}")
        for flags, kwargs in self.options:
            parser.add_argument(*flags, **kwargs)
        if self.exclusive:
            group = parser.add_mutually_exclusive_group()
            for flags, kwargs in self.exclusive:
                group.add_argument(*flags, **kwargs)
        return parser

    def scan(self, rest: list[str]) -> SimpleNamespace | None:
        """What `self.parser().parse_args(rest)` returns, read from the option
        table without argparse, if `rest` keeps to the strict grammar of a
        normal run: an optional leading bare positional, then options spelled
        in full, each at most once and followed by exactly its `nargs` values,
        none of which starts with `-`, and at most one exclusive option.  None
        for anything else (help, abbreviations, `--opt=value`, negative
        values, `--`, a value its `type` or `choices` refuses), which argparse
        then parses or rejects with its own message."""
        options = self.options + self.exclusive
        named = {flags[0]: kwargs for flags, kwargs in options if flags[0].startswith("--")}
        bare = [(flags[0], kwargs) for flags, kwargs in options if not flags[0].startswith("-")]
        given = {}
        try:
            if bare and rest and not rest[0].startswith("-"):
                (name, kwargs), = bare
                given[name] = _value(kwargs, rest[0])
                rest = rest[1:]
            while rest:
                flag, rest = rest[0], rest[1:]
                kwargs = named.get(flag)
                if kwargs is None or flag in given:
                    return None
                if kwargs.get("action") == "store_true":
                    given[flag] = True
                    continue
                count = kwargs.get("nargs", 1)
                words, rest = rest[:count], rest[count:]
                if len(words) < count:
                    return None
                words = [_value(kwargs, word) for word in words]
                given[flag] = words if "nargs" in kwargs else words[0]
        except Exception:  # argparse refuses the same value, with its message
            return None
        if sum(flags[0] in given for flags, _ in self.exclusive) > 1:
            return None
        namespace = SimpleNamespace()
        for flags, kwargs in options:
            default = False if kwargs.get("action") == "store_true" else kwargs.get("default")
            setattr(namespace, flags[0].lstrip("-").replace("-", "_"), given.get(flags[0], default))
        return namespace


def _value(kwargs: dict, word: str):
    """`word` converted by the option's `type` and checked against its
    `choices`, as argparse does; raises on a word that starts with `-`."""
    if word.startswith("-"):
        raise ValueError(f"{word!r} looks like an option")
    value = kwargs.get("type", str)(word)
    if "choices" in kwargs and value not in kwargs["choices"]:
        raise ValueError(f"{value!r} is not a choice")
    return value


COMMANDS = {
    command.name: command
    for command in (
        Command("table1", run_table1, "GHZ witness constants and noise tolerances", _WITNESS + (_RESTARTS,)),
        Command("table2", run_table2, "GHZ witness cross-expectation grid", _COMMON),
        Command("singlet", run_singlet, "four-qubit singlet witness pipeline", _WITNESS),
        Command("ghz4x3", run_ghz4x3, "four-level tripartite GHZ witness pipeline", _WITNESS),
        Command("bell", run_bell, "d-level bipartite Bell functional", _COMMON + (_D,), (_LHV, _SWEEP)),
        Command("proptest", run_proptest, "random product-state sign suites", _COMMON + (_TRIALS,)),
    )
}


def _listing_parser() -> argparse.ArgumentParser:
    """The top-level parser: the commands by name, without their options."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="qcorr",
        description="Recompute correlator-witness and Bell-functional results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS.values():
        sub.add_parser(command.name, help=command.help)
    return parser


def main(argv=None) -> int:
    """Run `qcorr <argv>` (default `sys.argv[1:]`).  A command whose options
    `Command.scan` reads runs without argparse; any other options go to that
    command's parser, and an argv that names no command to the listing
    parser, for help or a usage error."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0] in COMMANDS:
            command, rest = COMMANDS[argv[0]], argv[1:]
        else:  # exits with help or a usage error, unless a leading `--` hid the command
            command, rest = COMMANDS[_listing_parser().parse_args(argv).command], []
        args = command.scan(rest)
        if args is None:
            args = command.parser().parse_args(rest)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report = command.run(args)
    except (core.EigensolverError, WitnessNeverFiresError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = report.render(args.format)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed stdout; the flush at interpreter exit must not raise again
        sys.stdout = open(os.devnull, "w")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
