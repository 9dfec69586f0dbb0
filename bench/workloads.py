"""The four benchmark workloads.

Every input the library receives is drawn from the run's seed: per-op seeds
and noise fractions come from one generator and never repeat within a run, so
memoising on them cannot pass for a speed-up.  Each op checks its own output
and raises `CheckFailed` when the check does not hold.  The library is always
called through module attributes (`correlators.build_C_phi`, not a name bound
at import), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable

import numpy as np

from qcorr import bell, cli, correlators, states, witnesses

REFERENCE_FILE = Path(__file__).parent / "reference.json"

#: Floats in a report match their reference within abs + rel of this size;
#: integers, strings and verdicts must match exactly.
FLOAT_TOL = 1e-9
#: Criterion 10: a seesaw value may exceed no witness constant by more than this.
BISEP_SLACK = 0.02
#: A seesaw value matches its reference within this relative distance.
SEESAW_TOL = 1e-8
BELL_TOL = 1e-9


@cache
def reference() -> dict:
    """Outputs captured at the baseline commit by make_reference.py."""
    return json.loads(REFERENCE_FILE.read_text())


class CheckFailed(Exception):
    """An op's output failed its check."""


@dataclass(frozen=True)
class Op:
    cls: str
    #: Names the work the op does; ops with the same key differ only in
    #: their drawn inputs, so their latencies pool.
    key: str
    #: Runs the op and raises on failure.  Returns the op's latency in seconds
    #: when it is measured elsewhere (in a forked child), else None.
    fn: Callable[[], float | None]


class Draws:
    """Per-op seeds and noise fractions, none repeated within a run."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self._seen: set = set()

    def _fresh(self, draw):
        while True:
            value = draw()
            if value not in self._seen:
                self._seen.add(value)
                return value

    def seed(self) -> int:
        return self._fresh(lambda: int(self._rng.integers(1, 2**31 - 1)))

    def fraction(self) -> float:
        return self._fresh(lambda: float(self._rng.uniform(0.05, 0.95)))


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Workload:
    name = ""
    #: op class -> (name of its metric, unit); the metric is the sum over the
    #: class's op keys of each key's median latency in the run.
    classes: dict[str, tuple[str, str]] = {}

    def __init__(self, seed: int, tracer=None):
        self.draws = Draws(seed)
        self.tracer = tracer

    def setup(self) -> None:
        """Build what every pass reuses."""

    def ops(self) -> list[Op]:
        """The op list of one pass, with freshly drawn inputs."""
        raise NotImplementedError

    def sizes(self) -> dict:
        """The workload's sizes, for the environment record."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# pipelines: every CLI command in a forked child


COMMANDS = {
    "table1": ["table1"],
    "table2": ["table2"],
    "singlet": ["singlet"],
    "ghz4x3": ["ghz4x3"],
    "bell3_lhv": ["bell", "3", "--lhv"],
    "bell_sweep": ["bell", "--sweep", "2", "32"],
}

#: Report fields that legitimately change with --seed.
SEED_DEPENDENT = {"table1": {"biseparable_cut"}}


def _read_all(fd: int) -> bytes:
    chunks = []
    while True:
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def run_forked(argv: list[str], tracer=None) -> dict:
    """Run `qcorr <argv>` in a forked child of this process.

    The child starts with qcorr imported and nothing built, like a fresh
    `qcorr` process, and no cache it fills outlives it.
    """
    traced = tracer is not None and tracer.installed
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        payload: dict = {}
        try:
            if traced:
                tracer.fork_reset()
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
                t0 = time.perf_counter()
                code = cli.main(argv)
                payload["latency"] = time.perf_counter() - t0
            payload.update(code=code, stdout=out.getvalue(), stderr=err.getvalue())
            if traced:
                payload["spans"] = tracer.export()
        except BaseException as exc:  # the child must always reach os._exit
            payload["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            data = json.dumps(payload).encode()
            while data:
                data = data[os.write(write_fd, data):]
            os._exit(0)
    os.close(write_fd)
    try:
        raw = _read_all(read_fd)
    finally:
        os.close(read_fd)
        os.waitpid(pid, 0)
    result = json.loads(raw) if raw else {"error": "child exited without a result"}
    if traced and "spans" in result:
        tracer.merge(result.pop("spans"))
    return result


def _same(ref, actual, path: str, skip: set) -> None:
    if path.split(".")[-1] in skip:
        return
    if isinstance(ref, dict):
        _check(isinstance(actual, dict) and set(ref) == set(actual), f"{path}: keys differ")
        for key in ref:
            _same(ref[key], actual[key], f"{path}.{key}", skip)
    elif isinstance(ref, list):
        _check(isinstance(actual, list) and len(ref) == len(actual), f"{path}: lengths differ")
        for i, (r, a) in enumerate(zip(ref, actual)):
            _same(r, a, f"{path}[{i}]", skip)
    elif isinstance(ref, float) and isinstance(actual, (int, float)) and not isinstance(actual, bool):
        _check(
            abs(actual - ref) <= FLOAT_TOL * (1.0 + abs(ref)),
            f"{path}: {actual!r} differs from reference {ref!r}",
        )
    else:
        _check(ref == actual and type(ref) is type(actual), f"{path}: {actual!r} != reference {ref!r}")


def comparable(report: dict) -> dict:
    """The seed-independent part of a JSON report."""
    return {k: v for k, v in report.items() if k not in ("versions", "seed")}


class Pipelines(Workload):
    name = "pipelines"
    classes = {c: (f"cmd.{c}_ms", "ms") for c in COMMANDS}

    def ops(self) -> list[Op]:
        return [self._op(c) for c in COMMANDS]

    def _op(self, command: str) -> Op:
        argv = COMMANDS[command] + ["--format", "json", "--seed", str(self.draws.seed())]

        def run() -> float:
            result = run_forked(argv, self.tracer)
            _check("error" not in result, f"{command}: {result.get('error')}")
            _check(result["code"] == 0, f"{command}: exit {result['code']}: {result['stderr'].strip()}")
            report = json.loads(result["stdout"])
            failing = [c["name"] for c in report["checks"] if not c["pass"]]
            _check(not failing, f"{command}: failing checks {failing}")
            _same(
                reference()["pipelines"][command],
                comparable(report),
                command,
                SEED_DEPENDENT.get(command, set()),
            )
            return result["latency"]

        return Op(command, command, run)

    def sizes(self) -> dict:
        return {"commands": {c: " ".join(argv) for c, argv in COMMANDS.items()}}


# ---------------------------------------------------------------------------
# signs: the random product-state sign suites of `qcorr proptest`


TRIALS = 100


class Signs(Workload):
    name = "signs"
    classes = {"pair": ("signs.pair_suites_ms", "ms"), "family": ("signs.family_suites_ms", "ms")}

    def setup(self) -> None:
        pairs = correlators.ghz4_z_pairs() + correlators.ghz4_x_pairs()
        for kind in ("z", "x", "y"):
            pairs.extend(correlators.singlet_correlators(kind))
        self.pairs = pairs
        self.families = correlators.all_ghz4x3_families()
        self.ghz = states.ghz4(math.pi / 4, 0.0)
        self.singlet = states.singlet4()
        self.ghz4x3 = states.ghz_4x3()

    def ops(self) -> list[Op]:
        return [self._pair_op(p) for p in self.pairs] + [self._family_op(f) for f in self.families]

    def _pair_op(self, pair) -> Op:
        seed = self.draws.seed()
        target = self.ghz if pair.label.startswith("ghz4.") else self.singlet

        def run() -> None:
            violations = correlators.count_prop1_violations(pair, TRIALS, seed)
            _check(violations == 0, f"{pair.label}: {violations} sign violations")
            _check(correlators.prop1_test(pair, target), f"{pair.label}: target state not positive")

        return Op("pair", pair.label, run)

    def _family_op(self, family) -> Op:
        seed = self.draws.seed()

        def run() -> None:
            violations = correlators.count_prop2_violations(family, TRIALS, seed)
            _check(violations == 0, f"{family.label}: {violations} sign violations")
            _check(correlators.prop2_test(family, self.ghz4x3), f"{family.label}: target state not positive")

        return Op("family", family.label, run)

    def sizes(self) -> dict:
        return {
            "pairs": len(self.pairs),
            "families": len(self.families),
            "trials_per_suite": TRIALS,
            "states_per_pass": TRIALS * (len(self.pairs) + len(self.families)),
        }


# ---------------------------------------------------------------------------
# seesaw: biseparable_max on the three witness operators


RESTARTS = 200
#: Searches per subject in one pass.  A C_psi search takes as long as ~20
#: C_phi or ~3 C_ghz4x3 searches; repeating the short ones gives each subject
#: a similar share of the run.
REPEATS = {"phi": 5, "psi": 1, "ghz4x3": 2}


class Seesaw(Workload):
    name = "seesaw"
    classes = {
        "phi": ("seesaw.phi_s", "s"),
        "psi": ("seesaw.psi_s", "s"),
        "ghz4x3": ("seesaw.ghz4x3_s", "s"),
    }

    def setup(self) -> None:
        alpha_phi = min(case.alpha for case in witnesses.GHZ4_CASES)
        self.subjects = {
            "phi": (correlators.build_C_phi(), alpha_phi),
            "psi": (correlators.build_C_psi(), witnesses.SINGLET_ALPHA),
            "ghz4x3": (correlators.build_C_ghz4x3(), witnesses.GHZ4X3_ALPHA),
        }
        self.lambda_max = {
            name: float(np.linalg.eigvalsh(op.matrix)[-1]) for name, (op, _) in self.subjects.items()
        }

    def ops(self) -> list[Op]:
        return [self._op(name) for name in self.subjects for _ in range(REPEATS[name])]

    def _op(self, name: str) -> Op:
        seed = self.draws.seed()
        op, alpha = self.subjects[name]
        expected = reference()["seesaw"][name]

        def run() -> None:
            value = witnesses.biseparable_max(op, restarts=RESTARTS, seed=seed).value
            _check(value <= self.lambda_max[name] + 1e-9, f"{name}: {value} above lambda_max")
            _check(value <= alpha + BISEP_SLACK, f"{name}: {value} above {alpha} + {BISEP_SLACK}")
            _check(
                abs(value - expected) <= SEESAW_TOL * abs(expected),
                f"{name}: {value!r} differs from reference {expected!r}",
            )

        return Op(name, name, run)

    def sizes(self) -> dict:
        return {
            "restarts": RESTARTS,
            "searches_per_pass": REPEATS,
            "dims": {name: list(op.structure.dims) for name, (op, _) in self.subjects.items()},
        }


# ---------------------------------------------------------------------------
# bell: the d-level functional on pure and noisy states


DIMENSIONS = (2, 3, 4, 6, 8, 12, 16, 23, 32)


class Bell(Workload):
    name = "bell"
    classes = {"pure": ("bell.pure_ms", "ms"), "mixed": ("bell.mixed_ms", "ms")}

    def setup(self) -> None:
        self.states = {d: states.max_entangled_qudit(d) for d in DIMENSIONS}
        self.closed = {d: bell.analytic_value(d) for d in DIMENSIONS}

    def ops(self) -> list[Op]:
        out = []
        for d in DIMENSIONS:
            out += [self._pure_op(d), self._mixed_op(d)]
        return out

    def _pure_op(self, d: int) -> Op:
        def run() -> None:
            rep = bell.bell_report(d, include_lhv=True)
            dev = abs(rep.quantum_value - self.closed[d])
            _check(dev <= BELL_TOL, f"d={d}: pure value off the closed form by {dev}")
            _check(rep.lhv_max == 2, f"d={d}: lhv_max {rep.lhv_max}")

        return Op("pure", f"pure.d{d}", run)

    def _mixed_op(self, d: int) -> Op:
        p = self.draws.fraction()

        def run() -> None:
            value = bell.quantum_value(states.mix_white_noise(self.states[d], p))
            # Every correlator vanishes on 1/d^2, so the noisy value is affine in p.
            dev = abs(value - (1.0 - p) * self.closed[d])
            _check(dev <= BELL_TOL, f"d={d} p={p}: noisy value off (1-p)*closed form by {dev}")

        return Op("mixed", f"mixed.d{d}", run)

    def sizes(self) -> dict:
        top = max(DIMENSIONS)
        return {"dimensions": list(DIMENSIONS), "top_d_noise_matrix_bytes": 16 * top**4}


WORKLOADS = {w.name: w for w in (Pipelines, Signs, Seesaw, Bell)}
