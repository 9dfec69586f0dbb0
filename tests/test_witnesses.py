import math
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorr import (
    HermitianOperator,
    PartyStructure,
    PureState,
    bipartitions,
    build_C_ghz4x3,
    build_C_phi,
    build_C_psi,
    expectation,
    ghz4,
    ghz_4x3,
    max_entangled_qudit,
    min_eigenvalue,
    mix_white_noise,
    noise_tolerance,
    projector_witness,
    random_product_state,
    singlet4,
    spectral_norm,
    verify_dominance,
)
from qcorr import witnesses
from qcorr.states import QUBIT4
from qcorr.witnesses import (
    GHZ4_CASES,
    GHZ4_CERTIFICATE,
    GHZ4_WITNESS_GRID,
    GHZ4X3_ALPHA,
    GHZ4X3_GAMMA,
    SEESAW_STOP_TOL,
    SEESAW_TIE_TOL,
    SINGLET_ALPHA,
    SINGLET_GAMMA,
    MaxCertificate,
    ProjectorWitness,
    Witness,
    WitnessNeverFiresError,
    _seesaw_cut,
    biseparable_max,
    certified_max,
)

from oracles import principal_minors_psd


def test_projector_witness_ghz4_branches():
    for theta in (0.3, math.pi / 4.9, math.pi / 4):
        wp = projector_witness(ghz4(theta, 0.1))
        assert abs(wp.alpha_p - math.cos(theta) ** 2) < 1e-10
    for theta in (math.pi / 3.7, 1.2):
        wp = projector_witness(ghz4(theta, 0.0))
        assert abs(wp.alpha_p - math.sin(theta) ** 2) < 1e-10


def test_projector_witness_singlet():
    assert abs(projector_witness(singlet4()).alpha_p - 0.75) < 1e-10


def test_projector_witness_ghz4x3():
    assert abs(projector_witness(ghz_4x3()).alpha_p - 0.25) < 1e-10


def test_projector_witness_qudits():
    for d in range(2, 9):
        wp = projector_witness(max_entangled_qudit(d))
        assert abs(wp.alpha_p - 1.0 / d) < 1e-10


def test_projector_witness_derives_its_constant_in_one_pass(monkeypatch):
    # one squared Schmidt coefficient per cut, computed by the constructor only
    calls = []
    schmidt = witnesses.schmidt_max_sq

    def spy(state, cut):
        calls.append(cut)
        return schmidt(state, cut)

    monkeypatch.setattr(witnesses, "schmidt_max_sq", spy)
    wp = projector_witness(singlet4())
    assert isinstance(wp, ProjectorWitness) and wp.alpha_p == pytest.approx(0.75, abs=1e-10)
    assert calls == bipartitions(4)
    assert ProjectorWitness(singlet4()).alpha_p == wp.alpha_p
    with pytest.raises(TypeError):
        ProjectorWitness(0.75, singlet4())


def test_dominance_builds_the_witness_operator_once(monkeypatch):
    built = []
    operator = witnesses.Witness.operator

    def spy(self):
        built.append(self)
        return operator(self)

    monkeypatch.setattr(witnesses.Witness, "operator", spy)
    witness = Witness(SINGLET_ALPHA, build_C_psi())
    assert verify_dominance(witness, projector_witness(singlet4()), SINGLET_GAMMA).passed
    assert built == [witness]


def test_witness_grid_values():
    c_phi = build_C_phi()
    for case_w, expected_row in zip(GHZ4_CASES, GHZ4_WITNESS_GRID):
        witness = Witness(case_w.alpha, c_phi)
        for case_s, expected in zip(GHZ4_CASES, expected_row):
            actual = witness.value(ghz4(case_s.theta, case_s.phi))
            assert abs(actual - expected) < 0.01


def test_singlet_witness_value():
    witness = Witness(SINGLET_ALPHA, build_C_psi())
    assert abs(witness.value(singlet4()) + 7.5) < 1e-10


def test_dominance_ghz4_cases():
    c_phi = build_C_phi()
    for case in GHZ4_CASES:
        witness = Witness(case.alpha, c_phi)
        wp = projector_witness(ghz4(case.theta, case.phi))
        cert = verify_dominance(witness, wp, case.gamma)
        assert cert.passed
        assert cert.min_eig >= -1e-8 * spectral_norm(witness.operator())


def test_dominance_singlet():
    witness = Witness(SINGLET_ALPHA, build_C_psi())
    cert = verify_dominance(witness, projector_witness(singlet4()), SINGLET_GAMMA)
    assert cert.passed


def test_dominance_ghz4x3():
    witness = Witness(GHZ4X3_ALPHA, build_C_ghz4x3())
    cert = verify_dominance(witness, projector_witness(ghz_4x3()), GHZ4X3_GAMMA)
    assert cert.passed


def test_dominance_fails_for_oversized_factor():
    case = GHZ4_CASES[0]
    witness = Witness(case.alpha, build_C_phi())
    wp = projector_witness(ghz4(case.theta, case.phi))
    cert = verify_dominance(witness, wp, 20.0)
    assert not cert.passed
    assert cert.min_eig < -1e-3


def test_dominance_rejects_nonpositive_gamma():
    witness = Witness(9.01, build_C_phi())
    wp = projector_witness(ghz4(math.pi / 4, 0.0))
    for gamma in (0.0, math.nan):
        with pytest.raises(ValueError, match="dominance factor must be positive"):
            verify_dominance(witness, wp, gamma)


def test_dominance_refuses_an_infinite_gamma():
    # inf * 0 in the difference would emit a RuntimeWarning, which the suite
    # turns into an error, instead of the ValueError
    wp = projector_witness(ghz4(math.pi / 4, 0.0))
    for gamma in (math.inf, -math.inf):
        with pytest.raises(ValueError, match="dominance factor must be positive and finite"):
            verify_dominance(Witness(9.01, build_C_phi()), wp, gamma)


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1e-8])
def test_dominance_refuses_a_tolerance_not_finite_and_non_negative(tol):
    # an infinite tolerance would pass any operator, a NaN one none
    wp = projector_witness(ghz4(math.pi / 4, 0.0))
    with pytest.raises(ValueError, match="finite and non-negative"):
        verify_dominance(Witness(9.01, build_C_phi()), wp, 6.54, tol=tol)


def test_dominance_refuses_differing_party_structures():
    with pytest.raises(ValueError, match="party structures differ"):
        verify_dominance(Witness(9.01, build_C_phi()), projector_witness(ghz_4x3()), 6.54)


def test_dominance_builds_four_operators(monkeypatch):
    # W, |target><target|, W_p and W - gamma W_p: one checked matrix each
    built = []
    check = HermitianOperator.__post_init__

    def spy(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(HermitianOperator, "__post_init__", spy)
    witness, wp = Witness(SINGLET_ALPHA, build_C_psi()), projector_witness(singlet4())
    built.clear()
    verify_dominance(witness, wp, SINGLET_GAMMA)
    assert len(built) == 4


def test_witness_refuses_a_string_constant():
    with pytest.raises(TypeError):
        Witness("36.5", build_C_psi())


def test_noise_tolerance_ghz4_cases():
    c_phi = build_C_phi()
    for case in GHZ4_CASES:
        witness = Witness(case.alpha, c_phi)
        delta = noise_tolerance(witness, ghz4(case.theta, case.phi))
        assert abs(delta - case.noise_delta) < 1e-3


def test_noise_tolerance_singlet_exact_fraction():
    witness = Witness(SINGLET_ALPHA, build_C_psi())
    assert abs(noise_tolerance(witness, singlet4()) - 15.0 / 88.0) < 1e-6


def test_noise_tolerance_ghz4x3():
    witness = Witness(GHZ4X3_ALPHA, build_C_ghz4x3())
    assert abs(noise_tolerance(witness, ghz_4x3()) - 0.4) < 1e-3


def test_noise_tolerance_never_fires():
    witness = Witness(1000.0, build_C_phi())
    with pytest.raises(WitnessNeverFiresError):
        noise_tolerance(witness, ghz4(math.pi / 4, 0.0))


def test_witness_affine_in_noise():
    witness = Witness(SINGLET_ALPHA, build_C_psi())
    target = singlet4()
    c_target = expectation(witness.c_op, target)
    c_mixed = witness.c_op.trace() / 16.0
    rng = np.random.default_rng(31)
    for _ in range(50):
        p = float(rng.uniform(0.0, 1.0))
        direct = witness.value(mix_white_noise(target, p))
        affine = witness.alpha - (p * c_mixed + (1 - p) * c_target)
        assert abs(direct - affine) < 1e-10


def test_witness_fires_exactly_below_threshold():
    c_phi = build_C_phi()
    for case in GHZ4_CASES:
        witness = Witness(case.alpha, c_phi)
        target = ghz4(case.theta, case.phi)
        delta = noise_tolerance(witness, target)
        assert witness.value(mix_white_noise(target, delta - 1e-3)) < 0.0
        assert witness.value(mix_white_noise(target, delta + 1e-3)) > 0.0


def test_seesaw_rank_one_projector():
    structure = PartyStructure((2, 2, 2, 2))
    amps = np.zeros(16)
    amps[0] = 1.0
    op = PureState(amps, structure).projector()
    result = biseparable_max(op, restarts=10, seed=5)
    assert abs(result.value - 1.0) < 1e-9


def test_seesaw_consistent_with_witness_constants():
    slack = 0.02
    result = biseparable_max(build_C_phi(), restarts=50, seed=11)
    assert result.value <= min(case.alpha for case in GHZ4_CASES) + slack
    result = biseparable_max(build_C_psi(), restarts=50, seed=11)
    assert result.value <= SINGLET_ALPHA + slack
    result = biseparable_max(build_C_ghz4x3(), restarts=50, seed=11)
    assert result.value <= GHZ4X3_ALPHA + slack


def test_seesaw_bracket():
    op = build_C_psi()
    result = biseparable_max(op, restarts=50, seed=11)
    assert result.value <= -min_eigenvalue(HermitianOperator(-op.matrix, op.structure)) + 1e-9
    rng = np.random.default_rng(2024)
    cuts = bipartitions(4)
    sampled = max(
        expectation(op, random_product_state(op.structure, cuts[i % len(cuts)], rng))
        for i in range(1000)
    )
    assert result.value >= sampled - 1e-9


def test_seesaw_deterministic():
    op = build_C_phi()
    a = biseparable_max(op, restarts=20, seed=3)
    b = biseparable_max(op, restarts=20, seed=3)
    assert a.value == b.value
    assert a.cut == b.cut
    assert a.restart == b.restart
    assert np.array_equal(a.state.amplitudes, b.state.amplitudes)


def test_seesaw_state_attains_value():
    # a restart that stops keeps the value and state of its last full
    # alternation, so the reported state attains the reported value
    for build in (build_C_phi, build_C_psi, build_C_ghz4x3):
        op = build()
        for seed in (1, 9, 1234, 2024):
            result = biseparable_max(op, restarts=20, seed=seed)
            assert abs(expectation(op, result.state) - result.value) <= 1e-12 * spectral_norm(op)


def _scalar_seesaw(op, cut_index, cut, restarts, iters, seed):
    """Reference: one restart at a time, einsum contraction and a full eigh
    per half-step.  Per restart: the value of its last full alternation, the
    alternation it stopped in, whether the stop test stopped it, and the
    side-a move |top value of side a - stored value| in that alternation."""
    dims = op.structure.dims
    n = len(dims)
    tensor = op.matrix.reshape(dims + dims)
    axes_a = [p - 1 for p in cut]
    axes_b = [k for k in range(n) if k not in axes_a]
    dim_a = int(np.prod([dims[k] for k in axes_a]))
    dim_b = op.structure.dim // dim_a
    perm = axes_a + axes_b
    contracted = tensor.transpose(perm + [n + ax for ax in perm]).reshape(
        dim_a, dim_b, dim_a, dim_b
    )
    starts = np.random.default_rng([seed, cut_index]).standard_normal((restarts, 2 * dim_b))
    values, counts, converged, moves = [], [], [], []
    for restart in range(restarts):
        vec_b = starts[restart, :dim_b] + 1j * starts[restart, dim_b:]
        vec_b /= np.linalg.norm(vec_b)
        value = -math.inf
        count = 0
        done = False
        for _ in range(iters):
            count += 1
            mat_a = np.einsum("ijkl,j,l->ik", contracted, vec_b.conj(), vec_b)
            vals, vecs = np.linalg.eigh(mat_a)
            move = abs(vals[-1] - value)
            done = move < 1e-10
            if done:
                break
            vec_a = vecs[:, -1]
            mat_b = np.einsum("ijkl,i,k->jl", contracted, vec_a.conj(), vec_a)
            vals, vecs = np.linalg.eigh(mat_b)
            value, vec_b = vals[-1], vecs[:, -1]
        values.append(value)
        counts.append(count)
        converged.append(done)
        moves.append(move)
    return np.array(values), np.array(counts), np.array(converged), np.array(moves)


def _random_hermitian(structure, rng):
    raw = rng.standard_normal((structure.dim,) * 2) + 1j * rng.standard_normal(
        (structure.dim,) * 2
    )
    return HermitianOperator((raw + raw.conj().T) / 2, structure)


def _rank_one_projector():
    amps = np.zeros(16)
    amps[0] = 1.0
    return PureState(amps, PartyStructure((2, 2, 2, 2))).projector()


@pytest.mark.parametrize(
    "make_op, restarts",
    [
        (build_C_phi, 200),
        (build_C_psi, 20),
        (build_C_ghz4x3, 20),
        (_rank_one_projector, 20),
        (lambda: _random_hermitian(PartyStructure((2, 3, 2)), np.random.default_rng(8)), 20),
    ],
)
def test_batched_seesaw_matches_scalar_loop(make_op, restarts):
    op = make_op()
    seed, iters = 1234, 500
    tensor = op.matrix.reshape(op.structure.dims * 2)
    for cut_index, cut in enumerate(bipartitions(op.structure.n_parties)):
        ref = _scalar_seesaw(op, cut_index, cut, restarts, iters, seed)
        values, counts, converged, *_ = _seesaw_cut(tensor, cut, cut_index, restarts, iters, seed)
        assert np.max(np.abs(values - ref[0])) <= 1e-9
        assert np.array_equal(counts, ref[1])
        assert np.array_equal(converged, ref[2])


def test_seesaw_tie_break_stable_under_perturbation():
    rng = np.random.default_rng(77)
    for build, restarts in ((build_C_phi, 200), (build_C_psi, 20), (build_C_ghz4x3, 20)):
        op = build()
        noise = _random_hermitian(op.structure, rng)
        noise = noise.matrix * (1e-13 / spectral_norm(noise))
        base = biseparable_max(op, restarts=restarts)
        moved = biseparable_max(HermitianOperator(op.matrix + noise, op.structure), restarts=restarts)
        assert (moved.cut, moved.restart) == (base.cut, base.restart)


def test_seesaw_phi_ties_pick_first_cut_and_restart():
    for seed in (1, 1234, 2024):
        result = biseparable_max(build_C_phi(), restarts=20, seed=seed)
        assert (result.cut, result.restart) == ((1,), 0)


def test_seesaw_rejects_empty_search():
    op = build_C_phi()
    for kwargs in ({"restarts": 0}, {"restarts": -3}, {"iters": 0}):
        with pytest.raises(ValueError):
            biseparable_max(op, **kwargs)


def test_seesaw_diagnostics():
    result = biseparable_max(build_C_phi(), restarts=200, seed=1234)
    hist = result.iteration_histogram
    assert hist.sum() == 1400
    assert (np.arange(len(hist)) * hist).sum() == 2800
    assert result.at_best == 1400
    assert result.capped == 0
    assert len(result.cut_values) == len(bipartitions(4))
    assert abs(result.value - result.cut_values.max()) <= SEESAW_TIE_TOL


def test_seesaw_iteration_cap():
    result = biseparable_max(build_C_psi(), restarts=5, iters=1, seed=1234)
    assert result.capped == 5 * len(bipartitions(4))
    assert list(result.iteration_histogram) == [0, result.capped]


@pytest.mark.parametrize(
    "build, block_sizes",
    [
        # every side of C_phi splits into 2 x 2 blocks of complementary strings
        (build_C_phi, {2: 2, 4: 2, 8: 2}),
        # C_ghz4x3's 16-dimensional sides split into four 4 x 4 blocks
        (build_C_ghz4x3, {4: 4, 16: 4}),
        # C_psi does not split: each side is one block
        (build_C_psi, {2: 2, 4: 4, 8: 8}),
    ],
    ids=["C_phi", "C_ghz4x3", "C_psi"],
)
def test_seesaw_blocks_per_cut(monkeypatch, build, block_sizes):
    found = []
    blocks = witnesses._blocks

    def record(linked):
        found.append(blocks(linked))
        return found[-1]

    monkeypatch.setattr(witnesses, "_blocks", record)
    op = build()
    biseparable_max(op, restarts=1, iters=1)
    cuts = bipartitions(op.structure.n_parties)
    assert len(found) == 2 * len(cuts)
    for side in found:
        dim = side.size
        assert side.shape == (dim // block_sizes[dim], block_sizes[dim])
        assert np.array_equal(np.sort(side, axis=None), np.arange(dim))


def test_blocks_take_equal_components_only():
    # components {0, 2} and {1, 3}: two blocks, each ascending, lowest first
    linked = np.zeros((4, 4), dtype=bool)
    linked[0, 2] = linked[3, 1] = True
    assert witnesses._blocks(linked).tolist() == [[0, 2], [1, 3]]
    # components {0, 1, 2} and {3}: unequal, so one block
    linked[0, 1] = True
    assert witnesses._blocks(linked).tolist() == [[0, 1, 2, 3]]
    # a chain joins everything; no link at all leaves 1 x 1 blocks
    assert witnesses._blocks(np.eye(4, k=1, dtype=bool)).tolist() == [[0, 1, 2, 3]]
    assert witnesses._blocks(np.zeros((3, 3), dtype=bool)).tolist() == [[0], [1], [2]]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
def test_block_solve_matches_the_full_eigensolve(n_blocks, size, rows, seed):
    # Hermitian stacks that are block diagonal under a random permutation
    rng = np.random.default_rng(seed)
    dim = n_blocks * size
    planted = np.zeros((rows, dim, dim), dtype=complex)
    for k in range(n_blocks):
        part = slice(k * size, (k + 1) * size)
        raw = rng.standard_normal((rows, size, size)) + 1j * rng.standard_normal((rows, size, size))
        planted[:, part, part] = raw + raw.conj().transpose(0, 2, 1)
    perm = rng.permutation(dim)
    mats = np.empty_like(planted)
    mats[:, perm[:, None], perm[None, :]] = planted
    blocks = witnesses._blocks(np.any(mats != 0, axis=0))
    expected = {frozenset(perm[k * size:(k + 1) * size]) for k in range(n_blocks)}
    assert blocks.shape == (n_blocks, size)
    assert {frozenset(block) for block in blocks.tolist()} == expected
    values, vecs = witnesses._top_pairs(mats, blocks)
    norms = np.linalg.norm(mats, ord=2, axis=(1, 2))
    assert np.all(np.abs(values - np.linalg.eigvalsh(mats)[:, -1]) <= 1e-12 * norms)
    resid = np.einsum("rij,rj->ri", mats, vecs) - values[:, None] * vecs
    assert np.all(np.linalg.norm(resid, axis=1) <= 1e-12 * norms)
    assert np.allclose(np.linalg.norm(vecs, axis=1), 1.0, rtol=0, atol=1e-12)


def test_phi_seesaw_calls_no_eigh(monkeypatch):
    op = build_C_phi()
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        solve = getattr(np.linalg, name)

        def record(a, *args, _name=name, _solve=solve, **kwargs):
            calls[_name] += 1
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, record)
    for seed in (1, 1234, 2024):
        calls.update(eigh=0, eigvalsh=0)
        result = biseparable_max(op, restarts=200, seed=seed)
        # every side splits into 2 x 2 blocks, solved in closed form
        assert calls == {"eigh": 0, "eigvalsh": 0}
        # every restart reaches 7 in alternation 1, and the side-a solve of
        # alternation 2 stops it
        assert list(result.iteration_histogram) == [0, 0, 1400]


def _two_wide(sub, layout):
    """(rows, dim, dim) stack holding the (rows, blocks, 2, 2) stack `sub` as
    its diagonal blocks, block k on the indices `layout[k]`."""
    rows, n_blocks = sub.shape[:2]
    mats = np.zeros((rows, 2 * n_blocks, 2 * n_blocks), dtype=complex)
    for k, (lo, hi) in enumerate(layout):
        mats[:, [[lo], [hi]], [[lo, hi]]] = sub[:, k]
    return mats


def _check_top_pairs(mats, values, vecs, expected):
    norms = np.linalg.norm(mats, ord=2, axis=(1, 2))
    assert np.all(np.abs(values - expected) <= 1e-12 * norms)
    # scaled first, so the norm of a residual near 1e200 cannot overflow
    resid = (np.einsum("rij,rj->ri", mats, vecs) - values[:, None] * vecs) / norms[:, None]
    assert np.all(np.linalg.norm(resid, axis=1) <= 1e-12)
    assert np.allclose(np.linalg.norm(vecs, axis=1), 1.0, rtol=0, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 5),
    st.sampled_from(["random", "b=0, a>d", "b=0, a<d", "b=0, a=d", "a=d"]),
    st.sampled_from([1e-200, 1e-150, 1.0, 1e150, 1e200]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_two_wide_blocks_match_eigh(n_blocks, rows, kind, scale, junk_upper, seed):
    rng = np.random.default_rng(seed)
    shape = (rows, n_blocks)
    a, d = rng.standard_normal(shape), rng.standard_normal(shape)
    b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if kind.startswith("b=0"):
        b[:] = 0
    if kind.endswith("a>d"):
        a = d + np.abs(a)
    elif kind.endswith("a<d"):
        a = d - np.abs(a)
    elif kind.endswith("a=d"):
        a = d.copy()
    sub = np.empty(shape + (2, 2), dtype=complex)
    sub[..., 0, 0], sub[..., 1, 1] = a, d
    sub[..., 1, 0], sub[..., 0, 1] = b, b.conj()
    sub *= scale
    read = sub.copy()
    if junk_upper:
        # eigh reads the lower triangle and the real part of the diagonal only
        noise = rng.standard_normal(shape + (3,)) * scale
        read[..., 0, 1] = noise[..., 0] + 1j * noise[..., 1]
        read[..., 1, 1] += 1j * noise[..., 2]
    layout = np.sort(rng.permutation(2 * n_blocks).reshape(n_blocks, 2), axis=1)
    layout = layout[layout[:, 0].argsort()]
    values, vecs = witnesses._top_pairs(_two_wide(read, layout), layout)
    expected = np.linalg.eigh(read)[0][..., -1].max(axis=1)
    _check_top_pairs(_two_wide(sub, layout), values, vecs, expected)


def test_two_wide_ties_take_the_lowest_block():
    # four blocks whose top eigenvalue is exactly 3, with their top vectors
    blocks = [
        (np.diag([3.0, 1.0]), [1, 0]),
        (np.array([[2.0, 1.0], [1.0, 2.0]]), [1, 1]),
        (np.diag([1.0, 3.0]), [0, 1]),
        (np.diag([3.0, 3.0]), [1, 0]),
    ]
    layout = np.arange(8).reshape(4, 2)
    for shift in range(4):
        order = blocks[shift:] + blocks[:shift]
        mats = _two_wide(np.stack([m for m, _ in order])[None].astype(complex), layout)
        values, vecs = witnesses._top_pairs(mats, layout)
        expected = np.zeros(8)
        expected[:2] = np.array(order[0][1]) / np.linalg.norm(order[0][1])
        assert values.tolist() == [3.0]
        assert np.allclose(np.abs(vecs[0]), expected, rtol=0, atol=1e-15)


def _unitary(rng, dim):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q


def _locally_diagonal(structure, rng):
    """Real spectrum in a random product basis: seesaw restarts reach exact
    fixed points after a few alternations, so the side-a stop test fires
    early."""
    u = reduce(np.kron, [_unitary(rng, d) for d in structure.dims])
    return HermitianOperator((u * rng.standard_normal(structure.dim)) @ u.conj().T, structure)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([(2, 2, 2), (2, 3, 2), (2, 2, 2, 2)]),
    st.sampled_from([None, 0.0, 1e-12, 1e-8, 1e-4]),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
    st.integers(1, 30),
)
def test_early_stopped_seesaw_matches_scalar_loop(dims, tilt, op_seed, seed, restarts):
    """`tilt` None draws a generic Hermitian operator; otherwise a locally
    diagonal one plus `tilt` times a generic one, near which restarts reach
    a fixed point within a few alternations."""
    structure = PartyStructure(dims)
    rng = np.random.default_rng(op_seed)
    op = _random_hermitian(structure, rng)
    if tilt is not None:
        op = HermitianOperator(_locally_diagonal(structure, rng).matrix + tilt * op.matrix, structure)
    tensor = op.matrix.reshape(dims * 2)
    for cut_index, cut in enumerate(bipartitions(len(dims))):
        values, counts, converged, *_ = _seesaw_cut(tensor, cut, cut_index, restarts, 100, seed)
        ref_values, ref_counts, ref_converged, _ = _scalar_seesaw(op, cut_index, cut, restarts, 100, seed)
        same = (counts == ref_counts) & (converged == ref_converged)
        assert np.max(np.abs(values - ref_values)[same], initial=0.0) <= 1e-10
        # The two loops round differently, so a restart whose side-a move in
        # alternation k is SEESAW_STOP_TOL to within round-off may stop in
        # alternation k in one and k + 1 in the other; any other difference
        # is a fault.  Capped at k alternations, the scalar loop ends on the
        # side-a move of alternation k.
        for r in np.flatnonzero(~same):
            k = min(counts[r], ref_counts[r])
            assert abs(counts[r] - ref_counts[r]) == 1 and k >= 2
            move = _scalar_seesaw(op, cut_index, cut, restarts, k, seed)[3][r]
            assert abs(move - SEESAW_STOP_TOL) <= 1e-13


SEEDS = (0, 1, 1234, 2**32 - 1, 2**32, 2**64 + 1)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("cut_index", [0, 6])
@pytest.mark.parametrize("restarts", [1, 257])
def test_seed_states_equal_seed_sequence(monkeypatch, seed, cut_index, restarts):
    op = _random_hermitian(PartyStructure((2, 2, 2, 2)), np.random.default_rng(8))
    cut = bipartitions(4)[cut_index]
    default_rng = np.random.default_rng
    states = []

    def record(*args, **kwargs):
        rng = default_rng(*args, **kwargs)
        states.append(rng.bit_generator.state)
        return rng

    monkeypatch.setattr(np.random, "default_rng", record)
    _seesaw_cut(op.matrix.reshape((2,) * 8), cut, cut_index, restarts, 1, seed)
    # one generator per cut, whatever the restart count, seeded by the cut's SeedSequence
    assert len(states) == 1
    assert states[0] == np.random.PCG64(np.random.SeedSequence([seed, cut_index])).state


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("cut_index", [0, 6])
@pytest.mark.parametrize("restarts", [1, 257])
def test_restart_starts_equal_default_rng_streams(monkeypatch, seed, cut_index, restarts):
    op = _random_hermitian(PartyStructure((2, 2, 2, 2)), np.random.default_rng(8))
    cut = bipartitions(4)[cut_index]
    dim_b = 16 // 2 ** len(cut)
    norm = np.linalg.norm
    seen = []

    def record(x, *args, **kwargs):
        seen.append(np.array(x))
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", record)
    _seesaw_cut(op.matrix.reshape((2,) * 8), cut, cut_index, restarts, 1, seed)
    rows = np.random.default_rng([seed, cut_index]).standard_normal((restarts, 2 * dim_b))
    # the one vector normalised is side b's start; side a is never drawn
    assert len(seen) == 1
    assert np.array_equal(seen[0], rows[:, :dim_b] + 1j * rows[:, dim_b:])


@pytest.mark.parametrize(
    "make_op",
    [build_C_psi, lambda: _random_hermitian(PartyStructure((2, 3, 2)), np.random.default_rng(8))],
)
def test_seesaw_restarts_do_not_depend_on_their_number(make_op):
    op = make_op()
    tensor = op.matrix.reshape(op.structure.dims * 2)
    for cut_index, cut in enumerate(bipartitions(op.structure.n_parties)):
        few = _seesaw_cut(tensor, cut, cut_index, 20, 500, 1234)
        many = _seesaw_cut(tensor, cut, cut_index, 57, 500, 1234)
        # same starts; the stacked matmul's round-off depends on the stack height
        assert np.max(np.abs(few[0] - many[0][:20])) <= 1e-9
        assert np.array_equal(few[1], many[1][:20])
        assert np.array_equal(few[2], many[2][:20])


def test_seesaw_rejects_negative_seed():
    with pytest.raises(ValueError, match="non-negative"):
        biseparable_max(build_C_phi(), restarts=2, seed=-1)


def test_table1_negative_seed_exits_2(capsys):
    from qcorr.cli import main

    assert main(["table1", "--seed", "-1"]) == 2
    assert "non-negative" in capsys.readouterr().err


def test_import_leaves_numpy_random_unloaded():
    import qcorr

    src = str(Path(qcorr.__file__).resolve().parents[1])
    probe = (
        "import sys, numpy; print('numpy.random' in sys.modules); "
        "import qcorr; print('numpy.random' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, cwd=src
    ).stdout.split()
    if out[0] == "True":
        pytest.skip("this numpy imports numpy.random itself")
    assert out[1] == "False"


# ---------------------------------------------------------------------------
# exact certificates of biseparable maxima


def test_phi_certificate_is_exactly_seven():
    bound = certified_max(build_C_phi(), GHZ4_CERTIFICATE)
    assert type(bound) is Fraction and bound == 7
    # the bound is attained: |0000> is a product state with <C_phi> = 7
    assert expectation(build_C_phi(), PureState(np.eye(16)[0], QUBIT4)) == 7.0


@pytest.mark.parametrize(
    "changes",
    [
        {"factor": Fraction(8) - Fraction(1, 1000)},
        {"shift": Fraction(3) - Fraction(1, 1000)},
        {"overlap": Fraction(1, 2) - Fraction(1, 1000)},
        {"target": (1,) + (0,) * 14 + (2,)},
    ],
    ids=["factor", "shift", "overlap", "target"],
)
def test_phi_certificate_fails_when_tightened(changes):
    with pytest.raises(ArithmeticError):
        certified_max(build_C_phi(), replace(GHZ4_CERTIFICATE, **changes))


@pytest.mark.parametrize("index", [0, 5, 15])
def test_phi_certificate_fails_on_an_entry_changed_by_one(index):
    matrix = np.array(build_C_phi().matrix)
    matrix[index, index] += 1
    with pytest.raises(ArithmeticError, match="not positive semidefinite"):
        certified_max(HermitianOperator(matrix, QUBIT4), GHZ4_CERTIFICATE)


def test_certificate_refuses_operators_without_an_integer_form():
    # one entry needs a scale of 2^80, the other is past int64 already
    for entry in (math.ldexp(1.0, -80), 2.0**63):
        matrix = np.array(build_C_phi().matrix)
        matrix[3, 3] = entry
        with pytest.raises(ArithmeticError, match="int64"):
            certified_max(HermitianOperator(matrix, QUBIT4), GHZ4_CERTIFICATE)
    # the scaled difference would leave int64
    huge = replace(GHZ4_CERTIFICATE, target=(2**40,) + (0,) * 14 + (2**40,))
    with pytest.raises(ArithmeticError, match="int64"):
        certified_max(build_C_phi(), huge)
    matrix = np.array(build_C_phi().matrix)
    matrix[1, 14] += 1e-13  # Hermitian to the operator's tolerance, not exactly
    with pytest.raises(ArithmeticError, match="exactly Hermitian"):
        certified_max(HermitianOperator(matrix, QUBIT4), GHZ4_CERTIFICATE)


def test_certificate_refuses_bad_data():
    with pytest.raises(ValueError, match="non-negative"):
        replace(GHZ4_CERTIFICATE, factor=-1)
    with pytest.raises(ValueError, match="nonzero"):
        replace(GHZ4_CERTIFICATE, target=(0,) * 16)
    with pytest.raises(TypeError):
        replace(GHZ4_CERTIFICATE, target=(0.5,) * 16)
    with pytest.raises(ValueError, match="length"):
        certified_max(build_C_phi(), replace(GHZ4_CERTIFICATE, target=(1, 0, 0, 1)))


def test_ghz4x3_certificate_is_exactly_forty_and_a_half(monkeypatch):
    # the paper's dominance factor gamma = 36 against sum_l |lll>, whose
    # largest biseparable overlap is 1/4: shift 40.5 - 36/4
    target = tuple(int(i in (0, 21, 42, 63)) for i in range(64))
    cert = MaxCertificate(Fraction(63, 2), GHZ4X3_GAMMA, target, Fraction(1, 4))
    sizes = []
    components = witnesses._components

    def record(linked):
        sizes.append([len(part) for part in components(linked)])
        return components(linked)

    monkeypatch.setattr(witnesses, "_components", record)
    assert certified_max(build_C_ghz4x3(), cert) == Fraction(81, 2) == GHZ4X3_ALPHA
    # the 64 x 64 difference is tested in blocks of at most 4
    assert sum(sizes[0]) == 64 and max(sizes[0]) == 4
    for changes in ({"factor": GHZ4X3_GAMMA - Fraction(1, 1000)}, {"shift": Fraction(63, 2) - Fraction(1, 1000)}):
        with pytest.raises(ArithmeticError, match="not positive semidefinite"):
            certified_max(build_C_ghz4x3(), replace(cert, **changes))
    with pytest.raises(ArithmeticError, match="overlaps"):
        certified_max(build_C_ghz4x3(), replace(cert, overlap=Fraction(1, 4) - Fraction(1, 1000)))


def _exact(rows):
    return np.array(rows, dtype=object)


@pytest.mark.parametrize(
    "rows, psd",
    [
        ([[0, 1], [1, 0]], False),  # a zero pivot over a nonzero column
        ([[1, 2], [2, 1]], False),  # second pivot -3
        ([[0, 0], [0, 0]], True),  # a zero block
        ([[0, 0, 0], [0, 2, -2], [0, -2, 2]], True),  # a zero pivot, then a singular block
        ([[4, 2, 0], [2, 1, 0], [0, 0, -1]], False),  # a negative 1 x 1 block
        ([[-1]], False),
    ],
)
def test_exact_psd_cases(rows, psd):
    assert witnesses._exact_psd(_exact(rows), np.zeros((len(rows),) * 2, dtype=object)) is psd
    assert witnesses._ldl_psd(rows) is psd


def test_exact_psd_reads_complex_blocks_through_their_realification():
    # [[1, i], [-i, 1]] has eigenvalues 0 and 2; [[1, 2i], [-2i, 1]] has -1,
    # though its real part, the identity, is PSD
    re = _exact([[1, 0], [0, 1]])
    assert witnesses._exact_psd(re, _exact([[0, 1], [-1, 0]]))
    assert not witnesses._exact_psd(re, _exact([[0, 2], [-2, 0]]))


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 4),
    rank=st.integers(0, 4),
    gram=st.booleans(),
    imaginary=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_psd_matches_principal_minors(n, rank, gram, imaginary, seed):
    # Gram matrices of low rank hit zero pivots, zeroed rows split blocks
    rng = np.random.default_rng(seed)
    if imaginary:
        n = min(n, 3)
    if gram:
        g = rng.integers(-2, 3, (rank, n)) + 1j * imaginary * rng.integers(-2, 3, (rank, n))
        h = g.conj().T @ g
    else:
        h = rng.integers(-3, 4, (n, n)) + 1j * imaginary * rng.integers(-3, 4, (n, n))
        h = h + h.conj().T
    keep = rng.random(n) < 0.8
    h = h * np.outer(keep, keep)
    re, im = (np.rint(part).astype(int).astype(object) for part in (h.real, h.imag))
    real = np.block([[re, -im], [im, re]]).tolist() if imaginary else re.tolist()
    assert witnesses._exact_psd(re, im) is principal_minors_psd(real)


@pytest.mark.parametrize("seed", range(50))
def test_bounded_seesaw_equals_the_full_search(seed):
    op = build_C_phi()
    for restarts in (200, 1, 2):
        full = biseparable_max(op, restarts=restarts, seed=seed)
        bounded = biseparable_max(op, restarts=restarts, seed=seed, bound=7.0)
        assert (bounded.value, bounded.cut, bounded.restart) == (full.value, full.cut, full.restart)
        assert np.array_equal(bounded.state.amplitudes, full.state.amplitudes)
        # cut (1,) reaches the bound, so only it was searched
        assert len(bounded.cut_values) == 1 and bounded.iteration_histogram.sum() == restarts


def test_bounded_seesaw_searches_on_until_a_cut_reaches_the_bound():
    op = build_C_psi()
    full = biseparable_max(op, restarts=5, seed=3)
    # a bound no cut reaches leaves the full search
    above = biseparable_max(op, restarts=5, seed=3, bound=full.value + 1.0)
    assert np.array_equal(above.cut_values, full.cut_values)
    assert (above.value, above.cut, above.restart) == (full.value, full.cut, full.restart)
    # the first cut at the best value stops it
    stop = int(np.argmax(full.cut_values >= full.value - SEESAW_TIE_TOL))
    at = biseparable_max(op, restarts=5, seed=3, bound=full.value)
    assert len(at.cut_values) == stop + 1
    assert (at.value, at.cut, at.restart) == (full.value, full.cut, full.restart)


def test_seesaw_above_its_bound_raises():
    with pytest.raises(ArithmeticError, match="exceeds the certified maximum"):
        biseparable_max(build_C_phi(), restarts=5, bound=6.5)
    for bound in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            biseparable_max(build_C_phi(), restarts=5, bound=bound)


def test_table1_exits_3_on_a_failed_certificate(monkeypatch, capsys):
    from qcorr import cli

    monkeypatch.setattr(cli, "GHZ4_CERTIFICATE", replace(GHZ4_CERTIFICATE, shift=2))
    assert cli.main(["table1", "--restarts", "2"]) == 3
    assert "not positive semidefinite" in capsys.readouterr().err


def test_table1_exits_3_when_the_seesaw_beats_the_certificate(monkeypatch, capsys):
    from qcorr import cli

    monkeypatch.setattr(cli, "certified_max", lambda op, cert: Fraction(13, 2))
    assert cli.main(["table1", "--restarts", "2"]) == 3
    assert "exceeds the certified maximum" in capsys.readouterr().err
