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
    min_eigenvalue,
    schmidt_max_sq,
    spectral_norm,
    unit_rows,
)

DOMINANCE_TOL_SCALE = 1e-8
#: Seesaw restarts whose values lie within this of the best value tie; the
#: lowest (cut index, restart) among them is reported.
SEESAW_TIE_TOL = 1e-9
#: A seesaw restart stops once side a's top value, for the stored side b, is
#: within this of the stored value.
SEESAW_STOP_TOL = 1e-10


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
        object.__setattr__(self, "alpha", float(self.alpha))

    def operator(self) -> HermitianOperator:
        eye = np.eye(self.c_op.structure.dim, dtype=np.complex128)
        return HermitianOperator(self.alpha * eye - self.c_op.matrix, self.c_op.structure)

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
        eye = np.eye(self.target.structure.dim, dtype=np.complex128)
        return HermitianOperator(self.alpha_p * eye - self.target.projector().matrix, self.target.structure)


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
    `iteration_histogram[k]` the number of restarts that stopped in
    alternation k (by the stop test or the iteration cap), `capped` the
    number stopped by the cap rather than the stop test, and `at_best` the
    number within `SEESAW_TIE_TOL` of the best value.
    """

    value: float
    cut: tuple[int, ...]
    restart: int
    state: PureState
    cut_values: np.ndarray
    iteration_histogram: np.ndarray
    capped: int
    at_best: int


def projector_witness(target: PureState) -> ProjectorWitness:
    """Projector witness with constant = max squared Schmidt coefficient over all cuts."""
    return ProjectorWitness(target)


def verify_dominance(
    w: Witness, wp: ProjectorWitness, gamma: float, tol: float | None = None
) -> DominanceCertificate:
    """Check W - gamma*W_p >= 0 via the smallest eigenvalue of the difference.

    The default tolerance is -1e-8 scaled by the spectral norm of W, since
    witness constants quoted to a few digits cannot give exact semidefiniteness;
    a given tolerance must be finite and non-negative, and gamma positive and
    finite.
    """
    gamma = float(gamma)
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"dominance factor must be positive and finite, got {gamma}")
    if tol is not None and not 0.0 <= tol < math.inf:
        raise ValueError(f"dominance tolerance must be finite and non-negative, got {tol}")
    structure = w.c_op.structure
    if structure.dims != wp.target.structure.dims:
        raise ValueError(f"party structures differ: {structure.dims} vs {wp.target.structure.dims}")
    w_op = w.operator()
    lowest = min_eigenvalue(HermitianOperator(w_op.matrix - gamma * wp.operator().matrix, structure))
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


def _blocks(linked: np.ndarray) -> np.ndarray:
    """The diagonal blocks of every matrix with nonzero pattern within
    `linked` (dim x dim, True where an entry may be nonzero), as a
    (blocks, m) index array.

    The blocks are the connected components of `linked`, ordered by their
    lowest index, each listed ascending.  When the components differ in size
    (or there is only one), the whole side is one block, arange(dim).
    """
    dim = len(linked)
    linked = linked | linked.T | np.eye(dim, dtype=bool)
    labels = np.arange(dim)
    while True:  # each index takes the lowest label among its neighbours
        spread = np.where(linked, labels, dim).min(axis=1)
        if np.array_equal(spread, labels):
            break
        labels = spread
    sizes = np.bincount(labels)
    sizes = sizes[sizes > 0]
    if sizes.min() != sizes.max():
        return np.arange(dim)[None, :]
    return labels.argsort(kind="stable").reshape(sizes.size, -1)


def _top_pairs(mats: np.ndarray, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenvalue and unit eigenvector of each Hermitian matrix of the
    (rows, dim, dim) stack `mats`, each block diagonal under `blocks` (see
    `_blocks`).

    Each row keeps the block with the largest top eigenvalue (the lowest
    block on a tie), and its eigenvector is scattered back into a dim vector
    that is zero off the block.  A single block is the whole matrix.  Every
    solve reads the lower triangle only, as `eigh` does.  Blocks 2 wide are
    solved in closed form: with a, d the diagonal and b the lower entry, the
    top eigenvalue is (a + d)/2 + hypot((a - d)/2, |b|), and its vector is
    (lam - d, b) when a >= d, else (conj(b), lam - a), neither of which
    cancels; a zero vector (a = d, b = 0) becomes (1, 0).  Any other block
    size goes through one `eigh` of the (rows, blocks, m, m) stack.
    """
    rows = np.arange(len(mats))
    top = np.zeros(mats.shape[:2], dtype=complex)
    if blocks.shape[1] != 2:
        vals, vecs = np.linalg.eigh(mats[:, blocks[:, :, None], blocks[:, None, :]])
        best = vals[:, :, -1].argmax(axis=1)
        top[rows[:, None], blocks[best]] = vecs[rows, best, :, -1]
        return vals[rows, best, -1], top
    lo, hi = blocks.T
    diag_a, diag_d = mats[:, lo, lo].real, mats[:, hi, hi].real
    lower = mats[:, hi, lo]
    vals = (diag_a + diag_d) / 2 + np.hypot((diag_a - diag_d) / 2, np.abs(lower))
    best = vals.argmax(axis=1)
    a, d, b, lam = (part[rows, best] for part in (diag_a, diag_d, lower, vals))
    upper = a >= d
    v_lo = np.where(upper, lam - d, b.conj())
    v_hi = np.where(upper, b, lam - a)
    norm = np.hypot(np.abs(v_lo), np.abs(v_hi))
    flat = norm == 0
    v_lo[flat], norm[flat] = 1, 1
    top[rows, lo[best]] = v_lo / norm
    top[rows, hi[best]] = v_hi / norm
    return lam, top


class _CutRun(NamedTuple):
    """One cut's restarts: per restart the value and the two side vectors of
    its last full alternation, the alternation it stopped in and whether the
    stop test (rather than the iteration cap) stopped it."""

    values: np.ndarray
    counts: np.ndarray
    converged: np.ndarray
    vec_a: np.ndarray
    vec_b: np.ndarray


def _seesaw_cut(
    tensor: np.ndarray,
    cut: tuple[int, ...],
    cut_index: int,
    restarts: int,
    iters: int,
    seed: int,
) -> _CutRun:
    """Alternating top-eigenvector updates for every restart of one cut at once.

    `tensor` is the operator with one axis per party and side (bra then ket).
    The starts of all restarts come from one generator per cut: restart r starts
    side b from row r of `default_rng([seed, cut_index]).standard_normal((restarts,
    2 * dim_b))`, real parts then imaginary parts, so a row does not depend on
    `restarts`.  Side a needs no start, since the first half-step overwrites
    it.  Each half-step is one matmul of the stacked outer products conj(v)⊗v
    against the operator, permuted once here, and one batched top eigensolve
    over the rows still active (`_top_pairs`).

    A row stops in alternation k when side a's top value, solved for the
    stored b, is within `SEESAW_STOP_TOL` of the stored value: the
    stored b is already side b's top vector for the stored a, so the stored
    pair is then a mutual fixed point to that tolerance.  It keeps the value
    and vectors of alternation k - 1, a state that attains that value, and
    skips side b's solve.  The stored value starts at -inf, so every row runs
    one full alternation; a row still active after `iters` alternations is
    capped.

    Each side's matrices share the exact zero pattern of `tensor`: entry
    (i, k) of side a's matrix is zero for every side-b vector when every
    <i j|op|k l> is.  The connected components of that pattern, found once
    per side (`_blocks`), split the side into equal diagonal blocks, solved
    in closed form when 2 wide and by one `eigh` of the (rows, blocks, m, m)
    stack otherwise.  An exactly built operator has such zeros: C_phi's sides
    split into 2 x 2 blocks on every cut, so its search calls no `eigh`, and
    C_ghz4x3's 16-dimensional sides into four 4 x 4 blocks.  A side without
    zeros, or with components of unequal sizes (every side of C_psi), is one
    block and is solved as a whole, in closed form when it is 2-dimensional.
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
    linked = contracted != 0
    blocks_a = _blocks(linked.any(axis=(1, 3)))
    blocks_b = _blocks(linked.any(axis=(0, 2)))

    starts = np.random.default_rng([seed, cut_index]).standard_normal((restarts, 2 * dim_b))
    vec_a = np.empty((restarts, dim_a), dtype=complex)
    vec_b = unit_rows(starts)
    values = np.full(restarts, -math.inf)
    counts = np.zeros(restarts, dtype=np.int64)
    converged = np.zeros(restarts, dtype=bool)
    active = np.arange(restarts)
    for step in range(1, iters + 1):
        side_b = vec_b[active]
        outer_b = (side_b.conj()[:, :, None] * side_b[:, None, :]).reshape(-1, dim_b * dim_b)
        mats_a = (outer_b @ op_for_a).reshape(-1, dim_a, dim_a)
        top_a, side_a = _top_pairs(mats_a, blocks_a)
        done = np.abs(top_a - values[active]) < SEESAW_STOP_TOL
        counts[active] = step
        converged[active[done]] = True
        active, side_a = active[~done], side_a[~done]
        if active.size == 0:
            break
        outer_a = (side_a.conj()[:, :, None] * side_a[:, None, :]).reshape(-1, dim_a * dim_a)
        values[active], vec_b[active] = _top_pairs((outer_a @ op_for_b).reshape(-1, dim_b, dim_b), blocks_b)
        vec_a[active] = side_a
    return _CutRun(values, counts, converged, vec_a, vec_b)


def biseparable_max(
    op: HermitianOperator, restarts: int = 200, iters: int = 500, seed: int = 1234
) -> SeesawResult:
    """Lower bound on max <a x b|op|a x b> over all bipartitions, by alternating
    top-eigenvector updates of the operator contracted against the other side.

    Each cut runs all its restarts as one stack (see `_seesaw_cut`), and each
    side's eigensolves run block by block where the exact zeros of `op`
    make that side's matrices block diagonal; 2 x 2 blocks are solved in
    closed form, so C_phi's search calls no eigensolver at all.  A restart
    stops in the alternation whose side-a solve moves its value by less than
    `SEESAW_STOP_TOL`, keeping the value and state of the alternation
    before, or after `iters` alternations.  Among the restarts within
    `SEESAW_TIE_TOL` of the best value, the lowest (cut index, restart) wins
    and its own value and state are reported, so round-off in `op` does not
    reorder near-equal maxima.  Deterministic for a fixed seed; the returned
    value never exceeds the global maximum eigenvalue of `op`.
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
