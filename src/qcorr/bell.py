"""d-level bipartite Bell functional: quantum value, closed form, exhaustive
deterministic local-model maximization, and noise thresholds.

`quantum_value` is the one evaluation path.  Each of its four correlation
functions reads only 2d joint detection events (CGLMP reads d^2) from its
setting pair's d x d outcome table, and the deterministic local bound of the
functional is 2 for every d.  The four tables come from one call to
`core.outcome_probabilities`, with each party's two setting bases stacked,
as the blocks of one (2, d, 2, d) table, and the four bases from one complex
`exp` over the phase offsets: at these sizes four builds and four
contractions cost more than one of each.  `outcome_table`, `correlation`
and `joint_prob` read their block of the same table, so `quantum_value` is
bitwise the sum of the four `correlation`s.  Nothing is cached across calls:
a cache keyed on d would help only repeated dimensions, at the price of
memory held for the life of the process.

Every term of the functional depends only on a residue sum of two outcomes,
with the coefficients in `RESIDUES` (read by the quantum correlators, the
local residue table and the d = 2 check alike), and t21 = t11 - t12 + t22
(mod d), so the local search tabulates the value of each residue triple
(t11, t12, t22) once: d^3 entries, each reached by exactly d assignments.
`bell_report` keeps only the maximum and the maximizer count; `lhv_max`
rebuilds the maximizing assignments when asked.  The search is refused past
`ENUMERATION_GUARD`.  The tests check the table against `lhv_value` in
`tests/oracles.py`, written apart from `RESIDUES`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

from .core import local_dimension, outcome_probabilities
from .states import max_entangled_qudit

#: Phase offsets of the four local observables, keyed by (party, setting).
OFFSETS: dict[tuple[int, int], Fraction] = {
    (1, 1): Fraction(0),
    (2, 1): Fraction(1, 4),
    (1, 2): Fraction(1, 2),
    (2, 2): Fraction(-1, 4),
}

SETTING_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))

#: The functional's coefficients, keyed by setting pair (i, j): its term for
#: the pair is [v1 + v2 = plus] - [v1 + v2 = minus] (mod d), with v1 party 1's
#: outcome under setting i and v2 party 2's under setting j.  The correlators
#: and the local residue table both read them from here.
RESIDUES: dict[tuple[int, int], tuple[int, int]] = {
    (1, 1): (0, -1),
    (1, 2): (0, 1),
    (2, 1): (-1, 0),
    (2, 2): (0, -1),
}

#: The exhaustive local search (over d^3 residue triples, standing for all d^4
#: deterministic assignments) refuses dimensions past this point.
ENUMERATION_GUARD = 40


@dataclass(frozen=True)
class MeasurementSetting:
    """One party's observable: a discrete-Fourier basis with a fixed phase offset."""

    party: int
    setting: int
    dimension: int
    offset: Fraction = field(init=False)

    def __post_init__(self) -> None:
        if self.party not in (1, 2):
            raise ValueError(f"party must be 1 or 2, got {self.party}")
        if self.setting not in (1, 2):
            raise ValueError(f"setting must be 1 or 2, got {self.setting}")
        local_dimension(self.dimension)
        object.__setattr__(self, "offset", OFFSETS[(self.party, self.setting)])


def _fourier_bases(d: int, offsets) -> np.ndarray:
    """Discrete-Fourier bases side by side, from one `exp`: for `offsets` of
    shape (..., K), entry [..., m, k, l] is exp[i 2pi m (l+offset)/d]/sqrt(d)
    with the k-th offset, so [..., :, k, :] is basis k, its vectors the
    columns."""
    levels = np.arange(d)
    shifted = levels + np.asarray(offsets, dtype=float)[..., None]
    return np.exp(2j * np.pi * levels[:, None, None] * shifted[..., None, :, :] / d) / math.sqrt(d)


def setting_basis(ms: MeasurementSetting) -> np.ndarray:
    """The observable's eigenvectors as columns: entry (m, l) is
    exp[i 2pi m (l+offset)/d]/sqrt(d)."""
    return _fourier_bases(ms.dimension, [ms.offset])[:, 0]


def _setting_bases(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Each party's two setting bases as a (setting, d, d) stack, entry
    [s - 1] bitwise `setting_basis` of (party, s).  One `exp` builds all
    four, and each stack is a view of its bases side by side, the layout the
    kernel contracts against, so it copies nothing."""
    bases = _fourier_bases(d, [[OFFSETS[p, s] for s in (1, 2)] for p in (1, 2)])
    return bases[0].transpose(1, 0, 2), bases[1].transpose(1, 0, 2)


def _tables(state) -> np.ndarray:
    """The four setting pairs' outcome tables from one kernel call, with each
    party's two setting bases stacked: entry [i-1, v1, j-1, v2] is P[v1, v2]
    under party 1's setting i and party 2's setting j."""
    return outcome_probabilities(state, _setting_bases(state.structure.dims[0]))


def outcome_table(state, s1: MeasurementSetting, s2: MeasurementSetting) -> np.ndarray:
    """Joint outcome probabilities P[v1, v2] of one setting pair: its block
    of the four pairs' tables, so every pair's table is bitwise the one
    `quantum_value` reads."""
    if s1.party != 1 or s2.party != 2:
        raise ValueError("first setting must belong to party 1, second to party 2")
    d = s1.dimension
    if s2.dimension != d or state.structure.dims != (d, d):
        raise ValueError(
            f"state structure {state.structure.dims} does not match settings of dimension {d}"
        )
    return _tables(state)[s1.setting - 1, :, s2.setting - 1]


def joint_prob(state, s1: MeasurementSetting, s2: MeasurementSetting, v1: int, v2: int) -> float:
    """Probability of outcomes (v1, v2) under the two settings.  Each outcome
    is an integer (Python or numpy, via `operator.index`, so 0.7 and "1" are
    refused rather than truncated or parsed) in 0..d-1."""
    try:
        v1, v2 = operator.index(v1), operator.index(v2)
    except TypeError:
        raise ValueError(f"outcomes must be integers, got {(v1, v2)!r}") from None
    table = outcome_table(state, s1, s2)
    d = table.shape[0]
    if not (0 <= v1 < d and 0 <= v2 < d):
        raise ValueError(f"outcomes {(v1, v2)} outside 0..{d - 1}")
    return float(table[v1, v2])


def _correlation(table: np.ndarray, i: int, j: int) -> float:
    """Sum of the d correlators of setting pair (i, j), read from its outcome
    table: at v2 = m, P(v1 + m = plus) - P(v1 + m = minus) (mod d), with the
    residues (plus, minus) of `RESIDUES`."""
    d = table.shape[0]
    plus, minus = RESIDUES[(i, j)]
    m = np.arange(d)
    return float((table[(plus - m) % d, m] - table[(minus - m) % d, m]).sum())


def correlation(state, i: int, j: int) -> float:
    """Sum of the d correlators of one setting pair."""
    d = state.structure.dims[0]
    table = outcome_table(state, MeasurementSetting(1, i, d), MeasurementSetting(2, j, d))
    return _correlation(table, i, j)


def quantum_value(state) -> float:
    """Full functional: sum of all 4d correlators, read from the four blocks
    of one kernel call, so bitwise the sum of `correlation` over
    `SETTING_PAIRS`."""
    dims = state.structure.dims
    if len(dims) != 2 or dims[0] != dims[1]:
        raise ValueError(f"expected a two-party d x d state, got structure {dims}")
    tables = _tables(state)
    return sum(_correlation(tables[i - 1, :, j - 1], i, j) for i, j in SETTING_PAIRS)


def analytic_value(d: int) -> float:
    """Closed form of the functional on the maximally entangled state:
    (2/d^2)(csc^2(pi/4d) - csc^2(3pi/4d)); increases with d towards (16/3pi)^2."""
    d = local_dimension(d)
    return (2.0 / d**2) * (
        1.0 / math.sin(math.pi / (4 * d)) ** 2 - 1.0 / math.sin(3 * math.pi / (4 * d)) ** 2
    )


@dataclass(frozen=True)
class LhvAssignment:
    """Deterministic outcomes (party 1 setting 1/2, party 2 setting 1/2)."""

    v11: int
    v21: int
    v12: int
    v22: int


def lhv_residue_table(d: int) -> np.ndarray:
    """Functional value of every residue triple: int8 values[t11, t12, t22],
    with t21 = t11 - t12 + t22 (mod d) derived from the other three.

    Each triple is reached by exactly d assignments, one per v11:
    v21 = t11 - v11, v22 = t12 - v11, v12 = t22 - v22 (mod d).
    """
    d = local_dimension(d)
    if d > ENUMERATION_GUARD:
        raise ValueError(f"dimension {d} exceeds the enumeration guard {ENUMERATION_GUARD}")
    r = np.arange(d)
    # Row k holds setting pair k's term at each residue: +1 at plus, -1 at minus.
    coefficients = np.zeros((len(SETTING_PAIRS), d), dtype=np.int8)
    for row, pair in zip(coefficients, SETTING_PAIRS):
        plus, minus = RESIDUES[pair]
        row[plus % d], row[minus % d] = 1, -1
    c11, c12, c21, c22 = coefficients
    # shifted[u, t22] = c21[(u + t22) % d], gathered at u = t11 - t12.
    shifted = c21[(r[:, None] + r[None, :]) % d]
    values = shifted[(r[:, None] - r[None, :]) % d]
    values += (c11[:, None] + c12[None, :])[:, :, None]
    values += c22
    return values


def lhv_max(d: int) -> tuple[int, list[LhvAssignment]]:
    """Exhaustive maximum over all d^4 deterministic assignments, with every
    maximizer in lexicographic (v11, v21, v12, v22) order."""
    d = local_dimension(d)
    values = lhv_residue_table(d)
    best = int(values.max())
    triples = np.nonzero(values == best)
    v11 = np.repeat(np.arange(d), triples[0].size)
    t11, t12, t22 = (np.tile(t, d) for t in triples)
    v21, v22 = (t11 - v11) % d, (t12 - v11) % d
    v12 = (t22 - v22) % d
    rows = np.stack((v11, v21, v12, v22), axis=1)[np.lexsort((v22, v12, v21, v11))]
    return best, [LhvAssignment(*row) for row in rows.tolist()]


def noise_threshold(d: int) -> float:
    """White-noise fraction below which the functional still exceeds the local bound."""
    return 1.0 - 2.0 / analytic_value(d)


def chsh_reduction_check() -> bool:
    """At d=2 the functional collapses to the familiar two-setting form
    C~11 + C~12 + C~22 - C~21; verify the identity on all 16 assignments,
    reading each value from the residue table built from `RESIDUES`."""

    def signed(v1: int, v2: int) -> int:
        return sum((-1) ** k * int((v1 + v2) % 2 == k) for k in (0, 1))

    values = lhv_residue_table(2)
    for v11, v21, v12, v22 in product(range(2), repeat=4):
        two_setting = signed(v11, v21) + signed(v11, v22) + signed(v12, v22) - signed(v12, v21)
        if values[(v11 + v21) % 2, (v11 + v22) % 2, (v12 + v22) % 2] != two_setting:
            return False
    return True


class BellInvariantError(ArithmeticError):
    """A computed Bell quantity missed its closed form or the local bound 2."""


@dataclass(frozen=True, eq=False)
class BellReport:
    """Summary of the functional at one dimension."""

    d: int
    quantum_value: float
    analytic_value: float
    noise_threshold: float
    detection_events_per_correlation: int
    lhv_max: int | None = None
    lhv_maximizer_count: int | None = None

    def __post_init__(self) -> None:
        if abs(self.quantum_value - self.analytic_value) > 1e-9:
            raise BellInvariantError(
                f"quantum value {self.quantum_value!r} misses the closed form "
                f"{self.analytic_value!r}"
            )
        if self.lhv_max is not None and self.lhv_max != 2:
            raise BellInvariantError(
                f"deterministic local bound came out as {self.lhv_max}, expected 2"
            )
        expected = self.d * (6 * self.d - 8)
        if self.lhv_max is not None and self.lhv_maximizer_count != expected:
            raise BellInvariantError(
                f"local bound reached by {self.lhv_maximizer_count} assignments, "
                f"expected d(6d - 8) = {expected}"
            )


def bell_report(d: int, include_lhv: bool = True) -> BellReport:
    """Evaluate the functional on the maximally entangled state of dimension d."""
    total = quantum_value(max_entangled_qudit(d))
    best = count = None
    if include_lhv:
        values = lhv_residue_table(d)
        best = int(values.max())
        count = int(d) * int(np.count_nonzero(values == best))
    return BellReport(
        d=int(d),
        quantum_value=float(total),
        analytic_value=analytic_value(d),
        noise_threshold=noise_threshold(d),
        detection_events_per_correlation=2 * d,
        lhv_max=best,
        lhv_maximizer_count=count,
    )
