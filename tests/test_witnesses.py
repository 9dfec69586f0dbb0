import math
import subprocess
import sys
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
    make_witness,
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
from qcorr.core import unit_rows
from qcorr.witnesses import (
    GHZ4_CASES,
    GHZ4_WITNESS_GRID,
    GHZ4X3_ALPHA,
    GHZ4X3_GAMMA,
    CERTIFY_TOL,
    SEESAW_STOP_TOL,
    SEESAW_TIE_TOL,
    SINGLET_ALPHA,
    SINGLET_GAMMA,
    ProjectorWitness,
    WitnessNeverFiresError,
    _certify,
    _second_bound,
    _seesaw_cut,
    biseparable_max,
)


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
    witness = make_witness(SINGLET_ALPHA, build_C_psi())
    assert verify_dominance(witness, projector_witness(singlet4()), SINGLET_GAMMA).passed
    assert built == [witness]


def test_witness_grid_values():
    c_phi = build_C_phi()
    for case_w, expected_row in zip(GHZ4_CASES, GHZ4_WITNESS_GRID):
        witness = make_witness(case_w.alpha, c_phi)
        for case_s, expected in zip(GHZ4_CASES, expected_row):
            actual = witness.value(ghz4(case_s.theta, case_s.phi))
            assert abs(actual - expected) < 0.01


def test_singlet_witness_value():
    witness = make_witness(SINGLET_ALPHA, build_C_psi())
    assert abs(witness.value(singlet4()) + 7.5) < 1e-10


def test_dominance_ghz4_cases():
    c_phi = build_C_phi()
    for case in GHZ4_CASES:
        witness = make_witness(case.alpha, c_phi)
        wp = projector_witness(ghz4(case.theta, case.phi))
        cert = verify_dominance(witness, wp, case.gamma)
        assert cert.passed
        assert cert.min_eig >= -1e-8 * spectral_norm(witness.operator())


def test_dominance_singlet():
    witness = make_witness(SINGLET_ALPHA, build_C_psi())
    cert = verify_dominance(witness, projector_witness(singlet4()), SINGLET_GAMMA)
    assert cert.passed


def test_dominance_ghz4x3():
    witness = make_witness(GHZ4X3_ALPHA, build_C_ghz4x3())
    cert = verify_dominance(witness, projector_witness(ghz_4x3()), GHZ4X3_GAMMA)
    assert cert.passed


def test_dominance_fails_for_oversized_factor():
    case = GHZ4_CASES[0]
    witness = make_witness(case.alpha, build_C_phi())
    wp = projector_witness(ghz4(case.theta, case.phi))
    cert = verify_dominance(witness, wp, 20.0)
    assert not cert.passed
    assert cert.min_eig < -1e-3


def test_dominance_rejects_nonpositive_gamma():
    witness = make_witness(9.01, build_C_phi())
    wp = projector_witness(ghz4(math.pi / 4, 0.0))
    with pytest.raises(ValueError):
        verify_dominance(witness, wp, 0.0)


def test_noise_tolerance_ghz4_cases():
    c_phi = build_C_phi()
    for case in GHZ4_CASES:
        witness = make_witness(case.alpha, c_phi)
        delta = noise_tolerance(witness, ghz4(case.theta, case.phi))
        assert abs(delta - case.noise_delta) < 1e-3


def test_noise_tolerance_singlet_exact_fraction():
    witness = make_witness(SINGLET_ALPHA, build_C_psi())
    assert abs(noise_tolerance(witness, singlet4()) - 15.0 / 88.0) < 1e-6


def test_noise_tolerance_ghz4x3():
    witness = make_witness(GHZ4X3_ALPHA, build_C_ghz4x3())
    assert abs(noise_tolerance(witness, ghz_4x3()) - 0.4) < 1e-3


def test_noise_tolerance_never_fires():
    witness = make_witness(1000.0, build_C_phi())
    with pytest.raises(WitnessNeverFiresError):
        noise_tolerance(witness, ghz4(math.pi / 4, 0.0))


def test_witness_affine_in_noise():
    witness = make_witness(SINGLET_ALPHA, build_C_psi())
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
        witness = make_witness(case.alpha, c_phi)
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
    assert result.value <= -min_eigenvalue(-1.0 * op) + 1e-9
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
    op = build_C_ghz4x3()
    result = biseparable_max(op, restarts=20, seed=9)
    assert abs(expectation(op, result.state) - result.value) < 1e-8


def _scalar_seesaw(op, cut_index, cut, restarts, iters, seed):
    """Reference: one restart at a time, einsum contraction and single eigh."""
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
    values, counts, converged = [], [], []
    for restart in range(restarts):
        vec_b = starts[restart, :dim_b] + 1j * starts[restart, dim_b:]
        vec_b /= np.linalg.norm(vec_b)
        value = -math.inf
        count = 0
        done = False
        for _ in range(iters):
            count += 1
            mat_a = np.einsum("ijkl,j,l->ik", contracted, vec_b.conj(), vec_b)
            vec_a = np.linalg.eigh(mat_a)[1][:, -1]
            mat_b = np.einsum("ijkl,i,k->jl", contracted, vec_a.conj(), vec_a)
            vals, vecs = np.linalg.eigh(mat_b)
            new_value, vec_b = vals[-1], vecs[:, -1]
            done = abs(new_value - value) < 1e-10
            value = new_value
            if done:
                break
        values.append(value)
        counts.append(count)
        converged.append(done)
    return np.array(values), np.array(counts), np.array(converged)


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
        noise = noise * (1e-13 / spectral_norm(noise))
        base = biseparable_max(op, restarts=restarts)
        moved = biseparable_max(op + noise, restarts=restarts)
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


def _unitary(rng, dim):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q


def _certify_one(mat, vec, value, second=math.inf):
    return _certify(mat[None], vec[None], np.array([value]), float(np.linalg.norm(mat)), second)


def test_certify_accepts_top_eigenvector_with_gap():
    u = _unitary(np.random.default_rng(5), 3)
    mat = (u * [5.0, 1.0, 0.0]) @ u.conj().T
    assert _certify_one(mat, u[:, 0], 5.0).tolist() == [True]


def test_certify_accepts_top_eigenvector_by_interlacing_alone(monkeypatch):
    u = _unitary(np.random.default_rng(5), 3)
    mat = (u * [5.0, 1.0, 0.0]) @ u.conj().T
    # a matrix is its own compression, so its bound holds for it
    second = _second_bound(mat)
    assert 1.0 <= second <= 1.0 + 1e-12

    def eigvalsh(a, *args, **kwargs):
        raise AssertionError(f"eigvalsh called on shape {np.shape(a)}")

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    assert _certify_one(mat, u[:, 0], 5.0, second).tolist() == [True]


def test_certify_refuses_second_eigenvector():
    # an exact eigenpair, residual zero, but not the top one
    mat = np.diag([5.0, 1.0, 0.0]).astype(complex)
    for second in (math.inf, 1.0):
        assert _certify_one(mat, np.eye(3, dtype=complex)[1], 1.0, second).tolist() == [False]


def test_certify_refuses_degenerate_top():
    mat = np.diag([5.0, 5.0, 0.0]).astype(complex)
    assert _certify_one(mat, np.eye(3, dtype=complex)[0], 5.0).tolist() == [False]


def test_certify_refuses_residual_above_bound():
    # gap 0.1: a tilt of 1e-11 leaves r ~ 1e-12 <= CERTIFY_TOL, but the
    # bound 2 ||C|| r / delta is ~1.4e-10; untilted, the row is certified
    mat = np.diag([5.0, 4.9, 0.0]).astype(complex)
    c_norm = float(np.linalg.norm(mat))
    vecs = np.array([[1.0, 1e-11, 0.0], [1.0, 0.0, 0.0]], dtype=complex)
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    values = np.einsum("ri,ij,rj->r", vecs.conj(), mat, vecs).real
    r = np.linalg.norm(np.einsum("ij,rj->ri", mat, vecs) - values[:, None] * vecs, axis=1)
    assert r[0] <= CERTIFY_TOL < 2 * c_norm * r[0] / (0.1 - 2 * r[0])
    assert _certify(np.stack([mat, mat]), vecs, values, c_norm, math.inf).tolist() == [False, True]


def test_certificate_closes_every_phi_restart(monkeypatch):
    eigvalsh = np.linalg.eigvalsh
    shapes = []

    def record(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", record)
    for seed in (1, 1234, 2024):
        shapes.clear()
        result = biseparable_max(build_C_phi(), restarts=200, seed=seed)
        assert result.certified == 1400
        assert list(result.iteration_histogram) == [0, 0, 1400]
        # lambda_2(C_phi) = 3 and every restart reaches 7: interlacing closes
        # them all, leaving one eigensolve of the operator per cut
        assert shapes == [(16, 16)] * len(bipartitions(4))


def _planted(dims, perm, vec_b, rng):
    """Hermitian matrix on `dims` whose top two eigenvectors are x1 (x) b and
    x2 (x) b, with side a the parties `perm` lists first.  Its compression by
    1_a (x) b has x1 and x2 as eigenvectors with C's top two eigenvalues, so
    interlacing holds with equality: l2(M) = l2(C)."""
    dim = math.prod(dims)
    top = np.kron(_unitary(rng, dim // vec_b.size)[:, :2], vec_b[:, None])
    rest = rng.standard_normal((dim, dim - 2)) + 1j * rng.standard_normal((dim, dim - 2))
    basis = np.linalg.qr(np.hstack([top, rest]))[0]
    spectrum = np.concatenate([[2.0, 1.0 + rng.random()], -rng.random(dim - 2)])
    mat = (basis * spectrum) @ basis.conj().T
    back = list(np.argsort(perm))
    shape = tuple(dims[k] for k in perm) * 2
    return mat.reshape(shape).transpose(back + [len(dims) + k for k in back]).reshape(dim, dim)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([(2, 2, 2), (2, 3, 2), (2, 2, 2, 2)]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_second_bound_holds_for_every_compression(dims, planted, seed):
    """Every cut's side-a and side-b matrices, for random unit vectors on the
    other side, have l2 at most `_second_bound` of the operator; `planted`
    makes side a's matrix meet interlacing with equality."""
    n = len(dims)
    dim = math.prod(dims)
    rng = np.random.default_rng(seed)
    mat = _random_hermitian(PartyStructure(dims), rng).matrix
    for cut in bipartitions(n):
        axes_a = [p - 1 for p in cut]
        perm = axes_a + [k for k in range(n) if k not in axes_a]
        dim_a = math.prod(dims[k] for k in axes_a)
        vec_a, vec_b = (unit_rows(rng.standard_normal(2 * d)) for d in (dim_a, dim // dim_a))
        if planted:
            mat = _planted(dims, perm, vec_b, rng)
        bound = _second_bound(mat)
        contracted = mat.reshape(dims * 2).transpose(perm + [n + ax for ax in perm]).reshape(
            dim_a, dim // dim_a, dim_a, dim // dim_a
        )
        mat_a = np.einsum("ijkl,j,l->ik", contracted, vec_b.conj(), vec_b)
        mat_b = np.einsum("ijkl,i,k->jl", contracted, vec_a.conj(), vec_a)
        if planted:
            assert abs(np.linalg.eigvalsh(mat_a)[-2] - np.linalg.eigvalsh(mat)[-2]) <= 1e-12
        for side in (mat_a, mat_b):
            assert np.linalg.eigvalsh(side)[-2] <= bound


def _locally_diagonal(structure, rng):
    """Real spectrum in a random product basis: seesaw restarts reach exact
    fixed points after a few alternations, so the certificate fires."""
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
def test_certified_seesaw_matches_scalar_loop(dims, tilt, op_seed, seed, restarts):
    """`tilt` None draws a generic Hermitian operator; otherwise a locally
    diagonal one plus `tilt` times a generic one, near which restarts
    converge fast enough to be certified."""
    structure = PartyStructure(dims)
    rng = np.random.default_rng(op_seed)
    op = _random_hermitian(structure, rng)
    if tilt is not None:
        op = _locally_diagonal(structure, rng) + tilt * op
    tensor = op.matrix.reshape(dims * 2)
    for cut_index, cut in enumerate(bipartitions(len(dims))):
        values, counts, converged, *_ = _seesaw_cut(tensor, cut, cut_index, restarts, 100, seed)
        ref_values, ref_counts, ref_converged = _scalar_seesaw(op, cut_index, cut, restarts, 100, seed)
        same = (counts == ref_counts) & (converged == ref_converged)
        assert np.max(np.abs(values - ref_values)[same], initial=0.0) <= 1e-10
        # The two loops round differently, so a restart whose value moves by
        # SEESAW_STOP_TOL to within round-off may stop one alternation apart
        # in them; any other difference is a fault.
        for r in np.flatnonzero(~same):
            k = min(counts[r], ref_counts[r])
            assert abs(counts[r] - ref_counts[r]) == 1 and k >= 2
            before = _scalar_seesaw(op, cut_index, cut, restarts, k - 1, seed)[0][r]
            after = _scalar_seesaw(op, cut_index, cut, restarts, k, seed)[0][r]
            assert abs(abs(after - before) - SEESAW_STOP_TOL) <= 1e-13


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
