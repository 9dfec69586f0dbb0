"""Witness assembly, projector-witness dominance, noise tolerance, seesaw search."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    HermitianOperator,
    PartyStructure,
    PureState,
    bipartitions,
    combine_bipartite,
    expectation,
    identity,
    min_eigenvalue,
    schmidt_max_sq,
    spectral_norm,
)

DOMINANCE_TOL_SCALE = 1e-8
#: Seesaw restarts whose values lie within this of the best value tie; the
#: lowest (cut index, restart) among them is reported.
SEESAW_TIE_TOL = 1e-9
#: A seesaw restart stops once an alternation moves its value by less than this.
SEESAW_STOP_TOL = 1e-10
#: A restart is closed without its next alternation when that alternation
#: provably cannot move its value by more than this, a tenth of the stop test;
#: the rest of the margin absorbs the round-off of the two skipped eigensolves.
CERTIFY_TOL = 1e-11


class WitnessNeverFiresError(ValueError):
    """The witness cannot be negative on the target state, so no noise tolerance exists."""


@dataclass(frozen=True, eq=False)
class Witness:
    """Operator alpha*1 - c_op; a negative expectation certifies entanglement."""

    alpha: float
    c_op: HermitianOperator
    label: str = ""

    def __post_init__(self) -> None:
        if not math.isfinite(self.alpha):
            raise ValueError(f"witness constant must be finite, got {self.alpha}")

    def operator(self) -> HermitianOperator:
        return self.alpha * identity(self.c_op.structure) - self.c_op

    def value(self, state) -> float:
        return self.alpha - expectation(self.c_op, state)


@dataclass(frozen=True, eq=False)
class ProjectorWitness:
    """alpha_p*1 - |target><target| with alpha_p the maximal biseparable overlap,
    i.e. the largest squared Schmidt coefficient of the target over all cuts."""

    target: PureState
    alpha_p: float = field(init=False)

    def __post_init__(self) -> None:
        cuts = bipartitions(self.target.structure.n_parties)
        object.__setattr__(self, "alpha_p", max(schmidt_max_sq(self.target, cut) for cut in cuts))

    def operator(self) -> HermitianOperator:
        return self.alpha_p * identity(self.target.structure) - self.target.projector()

    def value(self, state) -> float:
        return self.alpha_p - expectation(self.target.projector(), state)


@dataclass(frozen=True)
class DominanceCertificate:
    """Record of a W - gamma*W_p >= 0 check."""

    gamma: float
    min_eig: float
    passed: bool
    tol: float


@dataclass(frozen=True, eq=False)
class SeesawResult:
    """Best biseparable value found, with the cut, restart and state attaining
    it, and how the restarts converged.

    `cut_values` holds the best value per cut in `bipartitions` order,
    `iteration_histogram[k]` the number of restarts that ran k alternations,
    `capped` the number stopped by the iteration cap rather than convergence,
    `at_best` the number within `SEESAW_TIE_TOL` of the best value, and
    `certified` the number closed by the fixed-point certificate of
    `_certify` instead of a last alternation.
    """

    value: float
    cut: tuple[int, ...]
    restart: int
    state: PureState
    cut_values: np.ndarray
    iteration_histogram: np.ndarray
    capped: int
    at_best: int
    certified: int


def make_witness(alpha: float, c_op: HermitianOperator, label: str = "") -> Witness:
    return Witness(float(alpha), c_op, label)


def projector_witness(target: PureState) -> ProjectorWitness:
    """Projector witness with constant = max squared Schmidt coefficient over all cuts."""
    return ProjectorWitness(target)


def verify_dominance(
    w: Witness, wp: ProjectorWitness, gamma: float, tol: float | None = None
) -> DominanceCertificate:
    """Check W - gamma*W_p >= 0 via the smallest eigenvalue of the difference.

    The default tolerance is -1e-8 scaled by the spectral norm of W, since
    witness constants quoted to a few digits cannot give exact semidefiniteness.
    """
    gamma = float(gamma)
    if gamma <= 0.0:
        raise ValueError(f"dominance factor must be positive, got {gamma}")
    w_op = w.operator()
    lowest = min_eigenvalue(w_op - gamma * wp.operator())
    if tol is None:
        tol = DOMINANCE_TOL_SCALE * spectral_norm(w_op)
    return DominanceCertificate(gamma, lowest, lowest >= -tol, float(tol))


def noise_tolerance(w: Witness, target: PureState) -> float:
    """Largest white-noise fraction at which the witness still fires on the target.

    Solves alpha = (p/dim) Tr(c_op) + (1-p) <c_op> exactly; the left side is
    affine in p so the root is closed-form.
    """
    c_target = expectation(w.c_op, target)
    if c_target <= w.alpha:
        raise WitnessNeverFiresError(
            f"expectation {c_target} does not exceed the witness constant {w.alpha}"
        )
    c_mixed = w.c_op.trace() / w.c_op.structure.dim
    denom = c_target - c_mixed
    if denom <= 0.0:
        raise ArithmeticError("maximally mixed state outperforms the target; no finite tolerance")
    return float((c_target - w.alpha) / denom)


def _certify(mats: np.ndarray, vecs: np.ndarray, values: np.ndarray, c_norm: float) -> np.ndarray:
    """Mask of the rows whose next alternation provably cannot move their value
    by more than `CERTIFY_TOL`.

    Row i holds a Hermitian matrix M (side a contracted against the current
    side b), the unit vector a from the last alternation and the stored value
    v.  With r = ||Ma - va|| and M's top eigenvalues l1 >= l2, the row is
    certified when |l1 - v| <= r, delta = l1 - l2 - 2r > 0 and
    2 c_norm r / delta <= CERTIFY_TOL, where c_norm = ||C||_F bounds the
    operator norm of the searched operator C.  Then a is the top eigenvector
    up to an angle theta with sin(theta) <= r / delta (Davis-Kahan), so the
    vector the eigensolve would return changes the side-b value by at most
    2 ||C|| sin(theta).  r carries a round-off allowance of 4 dim eps c_norm,
    which covers the computed residual and eigenvalues.  Only rows with
    r <= CERTIFY_TOL, which the last test implies, reach `eigvalsh`.
    """
    dim = mats.shape[-1]
    resid = (mats @ vecs[:, :, None])[:, :, 0] - values[:, None] * vecs
    resid = np.sqrt((resid.real**2 + resid.imag**2).sum(axis=1))
    resid += 4 * dim * np.finfo(float).eps * c_norm
    certified = resid <= CERTIFY_TOL
    rows = np.flatnonzero(certified)
    if rows.size:
        top = np.linalg.eigvalsh(mats[rows])
        r = resid[rows]
        gap = top[:, -1] - top[:, -2] - 2 * r
        with np.errstate(divide="ignore", invalid="ignore"):
            drift = 2 * c_norm * r / gap
        certified[rows] = (np.abs(top[:, -1] - values[rows]) <= r) & (gap > 0) & (drift <= CERTIFY_TOL)
    return certified


class _CutRun(tuple):
    """`(values, counts, converged, vec_a, vec_b)` of one cut's restarts, with
    `certified`, the number of them closed by `_certify`."""

    def __new__(cls, fields: tuple, certified: int):
        run = super().__new__(cls, fields)
        run.certified = certified
        return run


def _seesaw_cut(
    tensor: np.ndarray, cut: tuple[int, ...], cut_index: int, restarts: int, iters: int, seed: int
) -> _CutRun:
    """Alternating top-eigenvector updates for every restart of one cut at once.

    `tensor` is the operator with one axis per party and side (bra then ket).
    The starts of all restarts come from one generator per cut: restart r starts
    side b from row r of `default_rng([seed, cut_index]).standard_normal((restarts,
    2 * dim_b))`, real parts then imaginary parts, so a row does not depend on
    `restarts`.  Side a needs no start, since the first half-step overwrites
    it.  Each half-step is one matmul of the stacked outer products conj(v)⊗v against the operator,
    permuted once here, and one batched eigh over the rows still active.  A
    row stops when its value moves by less than `SEESAW_STOP_TOL` or after
    `iters` alternations.

    From the second alternation on, a row that `_certify` proves cannot move
    by more than `CERTIFY_TOL` stops before the alternation's eigensolves, with
    the same count and flag as the alternation would give it and its value
    within `CERTIFY_TOL` of the one it would store.  The check runs at
    alternation 2, again right after any check that closed a row, and
    otherwise at alternations 3, 5, 9, 17, ..., so a search whose restarts
    converge only linearly pays for a logarithmic number of checks.
    Returns per restart the final value, the alternation count, whether it
    converged, and the two side vectors; `certified` counts the rows the
    certificate closed.
    """
    n = tensor.ndim // 2
    dims = tensor.shape[:n]
    axes_a = [p - 1 for p in cut]
    axes_b = [k for k in range(n) if k not in axes_a]
    dim_a = math.prod(dims[k] for k in axes_a)
    dim_b = math.prod(dims[k] for k in axes_b)
    perm = axes_a + axes_b
    # contracted[i, j, k, l] = <i j| op |k l> with i, k on side a.
    contracted = tensor.transpose(perm + [n + ax for ax in perm]).reshape(
        dim_a, dim_b, dim_a, dim_b
    )
    op_for_a = contracted.transpose(1, 3, 0, 2).reshape(dim_b * dim_b, dim_a * dim_a)
    op_for_b = contracted.transpose(0, 2, 1, 3).reshape(dim_a * dim_a, dim_b * dim_b)
    c_norm = math.sqrt(np.vdot(tensor, tensor).real)

    starts = np.random.default_rng([seed, cut_index]).standard_normal((restarts, 2 * dim_b))
    vec_a = np.empty((restarts, dim_a), dtype=complex)
    vec_b = starts[:, :dim_b] + 1j * starts[:, dim_b:]
    vec_b /= np.linalg.norm(vec_b, axis=1, keepdims=True)
    values = np.full(restarts, -math.inf)
    counts = np.zeros(restarts, dtype=np.int64)
    converged = np.zeros(restarts, dtype=bool)
    certified = 0
    check_at = 2
    active = np.arange(restarts)
    for step in range(1, iters + 1):
        side_b = vec_b[active]
        outer_b = (side_b.conj()[:, :, None] * side_b[:, None, :]).reshape(-1, dim_b * dim_b)
        mats_a = (outer_b @ op_for_a).reshape(-1, dim_a, dim_a)
        if step == check_at:
            closed = _certify(mats_a, vec_a[active], values[active], c_norm)
            if closed.any():
                counts[active[closed]] = step
                converged[active[closed]] = True
                certified += int(np.count_nonzero(closed))
                active = active[~closed]
                if active.size == 0:
                    break
                mats_a = mats_a[~closed]
                check_at = step + 1
            else:
                check_at = 2 * step - 1
        _, vecs = np.linalg.eigh(mats_a)
        side_a = vecs[:, :, -1]
        outer_a = (side_a.conj()[:, :, None] * side_a[:, None, :]).reshape(-1, dim_a * dim_a)
        vals, vecs = np.linalg.eigh((outer_a @ op_for_b).reshape(-1, dim_b, dim_b))
        new_values = vals[:, -1]
        vec_a[active] = side_a
        vec_b[active] = vecs[:, :, -1]
        done = np.abs(new_values - values[active]) < SEESAW_STOP_TOL
        values[active] = new_values
        counts[active] = step
        converged[active[done]] = True
        active = active[~done]
        if active.size == 0:
            break
    return _CutRun((values, counts, converged, vec_a, vec_b), certified)


def biseparable_max(
    op: HermitianOperator, restarts: int = 200, iters: int = 500, seed: int = 1234
) -> SeesawResult:
    """Lower bound on max <a x b|op|a x b> over all bipartitions, by alternating
    top-eigenvector updates of the operator contracted against the other side.

    Each cut runs all its restarts as one stack (see `_seesaw_cut`).  A restart
    stops when an alternation moves its value by less than `SEESAW_STOP_TOL`,
    or one alternation early when a Davis-Kahan residual bound (`_certify`)
    proves that alternation cannot move it by more than `CERTIFY_TOL`; counts
    and flags are the same either way, and values differ by at most
    `CERTIFY_TOL` from those the extra alternation would store.  Among the
    restarts within `SEESAW_TIE_TOL` of the best value, the lowest (cut index,
    restart) wins and its own value and state are reported, so round-off in
    `op` does not reorder near-equal maxima.  Deterministic for a fixed seed;
    the returned value never exceeds the global maximum eigenvalue of `op`.
    """
    if restarts < 1:
        raise ValueError(f"seesaw needs at least one restart, got {restarts}")
    if iters < 1:
        raise ValueError(f"seesaw needs at least one iteration, got {iters}")
    structure = op.structure
    tensor = op.matrix.reshape(structure.dims + structure.dims)
    cuts = bipartitions(structure.n_parties)
    runs = [
        _seesaw_cut(tensor, cut, cut_index, restarts, iters, seed)
        for cut_index, cut in enumerate(cuts)
    ]
    values, counts, converged, vecs_a, vecs_b = zip(*runs)
    values = np.stack(values)
    within = values >= values.max() - SEESAW_TIE_TOL
    cut_index, restart = (int(k) for k in np.argwhere(within)[0])
    cut = cuts[cut_index]
    return SeesawResult(
        value=float(values[cut_index, restart]),
        cut=cut,
        restart=restart,
        state=combine_bipartite(
            vecs_a[cut_index][restart], cut, vecs_b[cut_index][restart], structure
        ),
        cut_values=values.max(axis=1),
        iteration_histogram=np.bincount(np.concatenate(counts)),
        capped=int(np.count_nonzero(~np.concatenate(converged))),
        at_best=int(np.count_nonzero(within)),
        certified=sum(run.certified for run in runs),
    )


# ---------------------------------------------------------------------------
# Reference constants for the three witness families, as published alongside
# the constructions this package reproduces.


@dataclass(frozen=True)
class Ghz4Case:
    """One row of the GHZ witness summary: angles, witness constant, dominance
    factor, and quoted white-noise tolerance."""

    theta: float
    phi: float
    alpha: float
    gamma: float
    noise_delta: float
    label: str


GHZ4_CASES: tuple[Ghz4Case, ...] = (
    Ghz4Case(math.pi / 4, math.pi / 6, 9.01, 6.54, 0.139, "theta=pi/4 phi=pi/6"),
    Ghz4Case(math.pi / 4.9, 0.0, 9.21, 6.44, 0.150, "theta=pi/4.9 phi=0"),
    Ghz4Case(math.pi / 3.7, math.pi / 9, 8.92, 6.86, 0.169, "theta=pi/3.7 phi=pi/9"),
)

#: Expected witness expectation values: row = witness case, column = state case.
GHZ4_WITNESS_GRID: tuple[tuple[float, float, float], ...] = (
    (-1.45, -1.83, -1.72),
    (-1.25, -1.63, -1.52),
    (-1.55, -1.92, -1.81),
)

SINGLET_ALPHA = 36.5
SINGLET_GAMMA = 30.0
SINGLET_NOISE_DELTA = 15.0 / 88.0

GHZ4X3_ALPHA = 40.5
GHZ4X3_GAMMA = 36.0
GHZ4X3_NOISE_DELTA = 0.4
