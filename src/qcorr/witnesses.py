"""Witness assembly, projector-witness dominance, noise tolerance, seesaw search."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (
    HermitianOperator,
    PureState,
    bipartitions,
    combine_bipartite,
    cut_axes,
    expectation,
    identity,
    min_eigenvalue,
    schmidt_max_sq,
    spectral_norm,
    unit_rows,
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
    `_certify` instead of a last alternation, whether the interlacing bound
    or an eigensolve proved it; the count is the same either way.
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


def make_witness(alpha: float, c_op: HermitianOperator) -> Witness:
    return Witness(float(alpha), c_op)


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


def _certify(
    mats: np.ndarray, vecs: np.ndarray, values: np.ndarray, c_norm: float, second: float
) -> np.ndarray:
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
    which covers the computed residual and eigenvalues.

    `second` bounds l2 from above for every row (see `_second_bound`); pass
    `math.inf` when no bound is known.  M has an eigenvalue within r of v, so
    once v - r > `second` that eigenvalue is l1, and delta >= v - second - 3r.
    A row with 2 c_norm r <= CERTIFY_TOL (v - second - 3r) therefore meets
    all three conditions without an eigensolve.  The rule certifies only
    rows that meet the conditions for M's exact eigenvalues, so it closes
    the rows `eigvalsh` would close, up to that eigensolve's own round-off at
    the edge of the test.  Of the other rows, only those with
    r <= CERTIFY_TOL, which the last condition implies, reach `eigvalsh`.
    """
    dim = mats.shape[-1]
    resid = (mats @ vecs[:, :, None])[:, :, 0] - values[:, None] * vecs
    resid = np.sqrt((resid.real**2 + resid.imag**2).sum(axis=1))
    resid += 4 * dim * np.finfo(float).eps * c_norm
    certified = 2 * c_norm * resid <= CERTIFY_TOL * (values - second - 3 * resid)
    rows = np.flatnonzero(~certified & (resid <= CERTIFY_TOL))
    if rows.size:
        top = np.linalg.eigvalsh(mats[rows])
        r = resid[rows]
        gap = top[:, -1] - top[:, -2] - 2 * r
        with np.errstate(divide="ignore", invalid="ignore"):
            drift = 2 * c_norm * r / gap
        certified[rows] = (np.abs(top[:, -1] - values[rows]) <= r) & (gap > 0) & (drift <= CERTIFY_TOL)
    return certified


def _second_bound(mat: np.ndarray) -> float:
    """Upper bound on the second eigenvalue of every matrix the seesaw
    contracts out of the D x D operator `mat`, for any cut and side.

    Side a's matrix M is the compression (1_a x b)^H C (1_a x b) of C by an
    isometry, so Cauchy interlacing gives l2(M) <= l2(C); the same holds for
    side b.  To the computed l2(C) the bound adds the Hermitian defect
    ||C - C^H||_F, since the eigensolves of C and M read one triangle each,
    and a round-off pad of 4 D^2 eps ||C||_F.  The pad covers the backward
    error of C's `eigvalsh`, the matmul that builds M (each entry sums at
    most D^2/4 products, an error of about (D^2/4 + 1) eps ||C||_F in
    Frobenius norm) and the rounding of b's norm.
    """
    dim = mat.shape[0]
    defect = mat - mat.conj().T
    pad = 4 * dim * dim * np.finfo(float).eps * math.sqrt(np.vdot(mat, mat).real)
    return float(np.linalg.eigvalsh(mat)[-2]) + math.sqrt(np.vdot(defect, defect).real) + pad


class _CutRun(NamedTuple):
    """One cut's restarts: per restart the final value, the alternation count,
    whether it converged and the two side vectors; `certified` counts the
    restarts `_certify` closed."""

    values: np.ndarray
    counts: np.ndarray
    converged: np.ndarray
    vec_a: np.ndarray
    vec_b: np.ndarray
    certified: int


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

    At alternation 2, a row that `_certify` proves cannot move by more than
    `CERTIFY_TOL` stops before the alternation's eigensolves, with the same
    count and flag as the alternation would give it and its value within
    `CERTIFY_TOL` of the one it would store.  The check runs once: a restart
    it does not close by then runs to the stop test.  The proof needs M's
    second eigenvalue l2 only as an upper bound, so the cut first computes
    `_second_bound` of the D x D operator with one `eigvalsh` (l2(C) plus the
    Hermitian defect and a round-off pad; Cauchy interlacing).  A row whose
    value clears that bound by enough is certified without an eigensolve of
    its own, and only the others reach `_certify`'s batched `eigvalsh`.  The
    bound accepts only rows that pass that eigensolve's test for M's exact
    eigenvalues, so the same rows close, with the same counts, values and
    vectors, barring the eigensolve's round-off at the edge of its test.
    """
    dims = tensor.shape[:tensor.ndim // 2]
    order, dim_a = cut_axes(dims, cut)
    dim_b = math.prod(dims) // dim_a
    # contracted[i, j, k, l] = <i j| op |k l> with i, k on side a.
    contracted = tensor.transpose(order + tuple(len(dims) + k for k in order)).reshape(
        dim_a, dim_b, dim_a, dim_b
    )
    op_for_a = contracted.transpose(1, 3, 0, 2).reshape(dim_b * dim_b, dim_a * dim_a)
    op_for_b = contracted.transpose(0, 2, 1, 3).reshape(dim_a * dim_a, dim_b * dim_b)
    c_norm = math.sqrt(np.vdot(tensor, tensor).real)
    second = _second_bound(tensor.reshape(dim_a * dim_b, dim_a * dim_b))

    starts = np.random.default_rng([seed, cut_index]).standard_normal((restarts, 2 * dim_b))
    vec_a = np.empty((restarts, dim_a), dtype=complex)
    vec_b = unit_rows(starts)
    values = np.full(restarts, -math.inf)
    counts = np.zeros(restarts, dtype=np.int64)
    converged = np.zeros(restarts, dtype=bool)
    certified = 0
    active = np.arange(restarts)
    for step in range(1, iters + 1):
        side_b = vec_b[active]
        outer_b = (side_b.conj()[:, :, None] * side_b[:, None, :]).reshape(-1, dim_b * dim_b)
        mats_a = (outer_b @ op_for_a).reshape(-1, dim_a, dim_a)
        if step == 2:
            closed = _certify(mats_a, vec_a[active], values[active], c_norm, second)
            counts[active[closed]] = step
            converged[active[closed]] = True
            certified = int(np.count_nonzero(closed))
            active = active[~closed]
            if active.size == 0:
                break
            mats_a = mats_a[~closed]
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
    return _CutRun(values, counts, converged, vec_a, vec_b, certified)


def biseparable_max(
    op: HermitianOperator, restarts: int = 200, iters: int = 500, seed: int = 1234
) -> SeesawResult:
    """Lower bound on max <a x b|op|a x b> over all bipartitions, by alternating
    top-eigenvector updates of the operator contracted against the other side.

    Each cut runs all its restarts as one stack (see `_seesaw_cut`).  A restart
    stops when an alternation moves its value by less than `SEESAW_STOP_TOL`,
    or, at alternation 2 only, before that alternation when a Davis-Kahan
    residual bound (`_certify`) proves it cannot move the value by more than
    `CERTIFY_TOL`; counts and flags are the same either way, and values
    differ by at most `CERTIFY_TOL` from those the extra alternation would
    store.  For a restart whose value clears op's second eigenvalue by
    enough, the spectral gap that bound needs comes from Cauchy interlacing
    and one eigensolve of `op` per cut, not from an eigensolve of its own;
    for C_phi every restart clears it.  The same restarts close either way,
    so the result does not change.  Among the restarts within
    `SEESAW_TIE_TOL` of the best value, the lowest (cut index, restart) wins
    and its own value and state are reported, so round-off in `op` does not
    reorder near-equal maxima.  Deterministic for a fixed seed;
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
    values, counts, converged, vecs_a, vecs_b, certified = zip(*runs)
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
        certified=sum(certified),
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


GHZ4_CASES: tuple[Ghz4Case, ...] = (
    Ghz4Case(math.pi / 4, math.pi / 6, 9.01, 6.54, 0.139),
    Ghz4Case(math.pi / 4.9, 0.0, 9.21, 6.44, 0.150),
    Ghz4Case(math.pi / 3.7, math.pi / 9, 8.92, 6.86, 0.169),
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
