import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qcorr import (
    DERANGEMENTS_4,
    DensityMatrix,
    SIGN_MARGIN,
    CorrelatorFamily,
    CorrelatorPair,
    HermitianOperator,
    LocalBasis,
    PartyStructure,
    PureState,
    all_ghz4x3_families,
    build_C_ghz4x3,
    build_C_phi,
    build_C_psi,
    combine_bipartite,
    expectation,
    ghz4,
    ghz4_pair_z,
    ghz4_party_x,
    ghz4_party_z,
    ghz4_x_pairs,
    ghz4_z_pairs,
    ghz4x3_correlators,
    ghz_4x3,
    mix_white_noise,
    prop1_test,
    prop2_test,
    random_product_state,
    random_product_states,
    schmidt_max_sq,
    singlet4,
    singlet_correlators,
)
from qcorr import core, correlators
from qcorr.correlators import (
    count_prop1_violations,
    count_prop2_violations,
    margin_sign,
    singlet_flip_pair,
    singlet_group_pair,
)
from qcorr.states import QUBIT4, QUDIT4X3

GHZ_ANGLES = ((math.pi / 4, math.pi / 6), (math.pi / 4.9, 0.0), (math.pi / 3.7, math.pi / 9))


def _dense(record):
    """Each member of `record` as its dense operator U diag(t) U^dagger."""
    return tuple(correlators._operator(record.setting, table) for table in record.tables)


def _basis_state(structure, index):
    amps = np.zeros(structure.dim)
    amps[index] = 1.0
    return PureState(amps, structure)


# ---------------------------------------------------------------------------
# local bases


def test_local_projector_z():
    assert np.allclose(LocalBasis("z", 2).projector(0), np.diag([1.0, 0.0]))


def test_local_projector_x():
    assert np.allclose(LocalBasis("x", 2).projector(0), np.full((2, 2), 0.5))


@pytest.mark.parametrize("kind,dim", [("z", 2), ("x", 2), ("y", 2), ("z", 4), ("fourier", 4)])
def test_projector_completeness(kind, dim):
    basis = LocalBasis(kind, dim)
    total = sum(basis.projector(level) for level in range(dim))
    assert np.allclose(total, np.eye(dim), atol=1e-12)


def test_local_basis_refuses_non_integral_dimension():
    for kind in ("z", "fourier"):
        with pytest.raises(ValueError, match="integer"):
            LocalBasis(kind, 2.5)
    assert LocalBasis("z", np.int64(3)).vector(2).shape == (3,)


def test_exchange_swaps_projectors():
    for kind in ("z", "x", "y"):
        basis = LocalBasis(kind, 2)
        flip = basis.exchange()
        assert np.allclose(flip @ basis.projector(0) @ flip.conj().T, basis.projector(1), atol=1e-12)


def test_level_out_of_range():
    with pytest.raises(ValueError):
        LocalBasis("z", 2).projector(2)


# ---------------------------------------------------------------------------
# tunable four-qubit GHZ family


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ghz4_party_z_expectations(n):
    c0, c1 = _dense(ghz4_party_z(n))
    for theta, phi in GHZ_ANGLES:
        state = ghz4(theta, phi)
        assert abs(expectation(c0, state) - math.cos(theta) ** 2) < 1e-12
        assert abs(expectation(c1, state) - math.sin(theta) ** 2) < 1e-12


def test_ghz4_party_z_matrix():
    expected = np.zeros((16, 16))
    expected[0, 0] = 1.0
    expected[8, 8] = -1.0
    assert np.allclose(_dense(ghz4_party_z(1))[0].matrix, expected)


def test_ghz4_party_z_on_all_ones():
    assert expectation(_dense(ghz4_party_z(2))[0], _basis_state(QUBIT4, 15)) == 0.0


@pytest.mark.parametrize("m", [2, 3, 4])
def test_ghz4_pair_z_expectations(m):
    c0, c1 = _dense(ghz4_pair_z(1, m))
    for theta, phi in GHZ_ANGLES:
        state = ghz4(theta, phi)
        assert abs(expectation(c0, state) - math.cos(theta) ** 2) < 1e-12
        assert abs(expectation(c1, state) - math.sin(theta) ** 2) < 1e-12
    assert expectation(c0, _basis_state(QUBIT4, 0b0011)) == 0.0


def test_ghz4_pair_z_rejects_equal_parties():
    with pytest.raises(ValueError):
        ghz4_pair_z(2, 2)
    with pytest.raises(ValueError):
        ghz4_party_z(5)
    with pytest.raises(ValueError):
        ghz4_party_x(0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ghz4_party_x_expectations(n):
    c0, c1 = _dense(ghz4_party_x(n))
    for theta, phi in GHZ_ANGLES:
        state = ghz4(theta, phi)
        expected = math.sin(2 * theta) * math.cos(phi) / 2
        assert abs(expectation(c0, state) - expected) < 1e-12
        assert abs(expectation(c1, state) - expected) < 1e-12


def test_ghz4_party_x_vanishes_at_quarter_phase():
    # phi = pi/2 sits outside the constructor's range; build the state directly
    amps = np.zeros(16, dtype=complex)
    amps[0] = math.cos(math.pi / 4)
    amps[15] = 1j * math.sin(math.pi / 4)
    state = PureState(amps, QUBIT4)
    c0, c1 = _dense(ghz4_party_x(1))
    assert abs(expectation(c0, state)) < 1e-12
    assert abs(expectation(c1, state)) < 1e-12


def test_ghz4_party_z_sign_rule_on_products():
    pair = ghz4_party_z(1)
    c0, c1 = _dense(pair)
    rng = np.random.default_rng(101)
    for _ in range(500):
        state = random_product_state(QUBIT4, pair.cut, rng)
        assert expectation(c0, state) * expectation(c1, state) <= 1e-12


def test_ghz4_all_pairs_sign_rule():
    for i, pair in enumerate(ghz4_z_pairs() + ghz4_x_pairs()):
        assert count_prop1_violations(pair, trials=100, seed=500 + i) == 0


def test_z_sum_closed_form():
    total = np.zeros((16, 16), dtype=complex)
    for pair in ghz4_z_pairs():
        total += sum(op.matrix for op in _dense(pair))
    closed = -np.eye(16, dtype=complex)
    closed[0, 0] += 8.0
    closed[15, 15] += 8.0
    assert np.max(np.abs(total - closed)) <= 1e-12


def test_x_sum_closed_form():
    total = np.zeros((16, 16), dtype=complex)
    for pair in ghz4_x_pairs():
        total += sum(op.matrix for op in _dense(pair))
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    closed = 4.0 * np.kron(np.kron(sx, sx), np.kron(sx, sx))
    assert np.max(np.abs(total - closed)) <= 1e-12


def _projector_sum(kind, structure, value):
    """Sum over outcome strings s of value(s) times the product of the s-projectors."""
    basis = LocalBasis(kind, structure.dims[0])
    total = np.zeros((structure.dim, structure.dim), dtype=complex)
    for levels in itertools.product(range(basis.dimension), repeat=structure.n_parties):
        total += value(levels) * functools.reduce(np.kron, [basis.projector(level) for level in levels])
    return total


def _psi_value(s):
    weight = sum(s)
    if weight % 2:
        return -7
    return (20 if s[0] == s[1] else 4) if weight == 2 else 0


def _singlet_weighted_members():
    for kind in ("z", "x", "y"):
        pairs = singlet_correlators(kind)
        for weight, group in ((5.0, pairs[:4]), (1.0, pairs[4:])):
            for pair in group:
                for op in _dense(pair):
                    yield weight, op


#: builder -> (weighted public members, closed form from projector sums)
COMBINED = {
    "C_phi": (
        build_C_phi,
        lambda: ((1.0, op) for p in ghz4_z_pairs() + ghz4_x_pairs() for op in _dense(p)),
        lambda: _projector_sum("z", QUBIT4, lambda s: 8 * (len(set(s)) == 1) - 1)
        + _projector_sum("x", QUBIT4, lambda s: 4 * (-1) ** sum(s)),
    ),
    "C_psi": (
        build_C_psi,
        _singlet_weighted_members,
        lambda: sum(_projector_sum(kind, QUBIT4, _psi_value) for kind in ("z", "x", "y")),
    ),
    "C_ghz4x3": (
        build_C_ghz4x3,
        lambda: (
            (1.5 if f.setting.kind == "z" else 1.0, op) for f in all_ghz4x3_families() for op in _dense(f)
        ),
        lambda: 1.5 * _projector_sum("z", QUDIT4X3, lambda s: {1: 27, 2: -3, 3: 0}[len(set(s))])
        + _projector_sum("fourier", QUDIT4X3, lambda s: 36 * (sum(s) % 4 == 0) - 9),
    ),
}


@pytest.mark.parametrize("name", sorted(COMBINED))
def test_combined_operator_equals_member_sum_and_closed_form(name):
    build, weighted_members, closed_form = COMBINED[name]
    op = build()
    member_sum = sum(weight * member.matrix for weight, member in weighted_members())
    assert np.max(np.abs(op.matrix - member_sum)) <= 1e-12
    assert np.max(np.abs(op.matrix - closed_form())) <= 1e-12


@pytest.mark.parametrize("name", sorted(COMBINED))
def test_combined_operator_rejects_a_table_off_its_closed_form(monkeypatch, name):
    moved = correlators._moved

    def off_by_one(*args):
        table = moved(*args)
        table.flat[0] += 1
        return table

    monkeypatch.setattr(correlators, "_moved", off_by_one)
    # The four-level member tables are memoised: build from fresh, corrupted
    # ones, and keep those out of the cache for later tests.
    correlators._ghz4x3_table.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="closed form"):
            COMBINED[name][0].__wrapped__()
    finally:
        correlators._ghz4x3_table.cache_clear()


def test_build_C_phi_values():
    op = build_C_phi()
    assert abs(op.trace()) < 1e-12
    state = ghz4(math.pi / 4, math.pi / 6)
    value = expectation(op, state)
    assert abs(value - 10.46) < 0.01
    assert abs(value - (7 + 2 * math.sqrt(3))) < 1e-12
    from qcorr import mix_white_noise

    maximally_mixed = mix_white_noise(state, 1.0)
    assert abs(expectation(op, maximally_mixed)) < 1e-12


# ---------------------------------------------------------------------------
# four-qubit singlet


@pytest.mark.parametrize("kind", ["z", "x", "y"])
def test_singlet_correlator_values(kind):
    state = singlet4()
    pairs = singlet_correlators(kind)
    assert len(pairs) == 8
    for pair in pairs[:4]:
        for op in _dense(pair):
            assert abs(expectation(op, state) - 1 / 3) < 1e-10
    for pair in pairs[4:]:
        for op in _dense(pair):
            assert abs(expectation(op, state) - 1 / 6) < 1e-10


def test_singlet_flip_pair_matrix():
    expected = np.zeros((16, 16))
    expected[0b0011, 0b0011] = 1.0
    expected[0b1011, 0b1011] = -1.0
    assert np.allclose(_dense(singlet_flip_pair("z", 1))[0].matrix, expected)


def test_singlet_sign_rule_on_products():
    for kind in ("z", "x", "y"):
        for i, pair in enumerate(singlet_correlators(kind)):
            assert count_prop1_violations(pair, trials=60, seed=900 + i) == 0


def test_build_C_psi_values():
    op = build_C_psi()
    assert abs(expectation(op, singlet4()) - 44.0) < 1e-10
    assert abs(op.trace()) < 1e-12
    zero_state = _basis_state(QUBIT4, 0)
    value = expectation(op, zero_state)
    assert abs(value) < 1e-12
    assert value <= 36.5


# ---------------------------------------------------------------------------
# four-level tripartite GHZ


def test_derangements():
    assert len(DERANGEMENTS_4) == 9
    assert len(set(DERANGEMENTS_4)) == 9
    for perm in DERANGEMENTS_4:
        assert sorted(perm) == [0, 1, 2, 3]
        assert all(perm[i] != i for i in range(4))
    assert list(DERANGEMENTS_4) == sorted(DERANGEMENTS_4)
    assert DERANGEMENTS_4[1] == (1, 2, 3, 0)
    assert DERANGEMENTS_4[4] == (2, 3, 0, 1)


@pytest.mark.parametrize("kind", ["z", "f"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_ghz4x3_family_values(kind, n):
    state = ghz_4x3()
    for j in range(1, 10):
        family = ghz4x3_correlators(kind, n, j)
        members = _dense(family)
        assert len(members) == 4
        for member in members:
            assert abs(expectation(member, state) - 0.25) < 1e-10


def test_ghz4x3_cyclic_shift_family_explicit():
    # the cyclic shift k -> k+1 mod 4 sits at lexicographic index j=2
    members = _dense(ghz4x3_correlators("z", 1, 2))
    eye = np.eye(4, dtype=complex)
    for k in range(4):
        proj = lambda level: np.outer(eye[level], eye[level])  # noqa: E731
        first = proj(k) - proj((k + 1) % 4)
        expected = np.kron(first, np.kron(proj(k), proj(k)))
        assert np.allclose(members[k].matrix, expected, atol=1e-12)


def test_ghz4x3_cyclic_shift_fourier_family_explicit():
    vectors = np.exp(-2j * np.pi * np.outer(np.arange(4), np.arange(4)) / 4) / 2.0
    proj = lambda g: np.outer(vectors[:, g], vectors[:, g].conj())  # noqa: E731
    listed_pairs = {
        0: ((0, 0), (1, 3), (2, 2), (3, 1)),
        1: ((0, 3), (1, 2), (2, 1), (3, 0)),
        2: ((0, 2), (1, 1), (2, 0), (3, 3)),
        3: ((0, 1), (1, 0), (2, 3), (3, 2)),
    }
    members = _dense(ghz4x3_correlators("f", 1, 2))
    for k in range(4):
        pair_sum = sum(np.kron(proj(l), proj(r)) for l, r in listed_pairs[k])
        expected = np.kron(proj(k) - proj((k + 1) % 4), pair_sum)
        assert np.allclose(members[k].matrix, expected, atol=1e-12)


def test_ghz4x3_bad_indices():
    with pytest.raises(ValueError):
        ghz4x3_correlators("z", 4, 1)
    with pytest.raises(ValueError):
        ghz4x3_correlators("z", 1, 10)
    with pytest.raises(ValueError):
        ghz4x3_correlators("w", 1, 1)


def test_families_share_their_72_distinct_members():
    # member k depends on the permutation only through s_k
    families = all_ghz4x3_families()
    assert len({(f.setting.kind, t.tobytes()) for f in families for t in f.tables}) == 72
    for family in families:
        n, j = family.cut[0], int(family.label.rsplit(".j", 1)[1])
        alone = ghz4x3_correlators(family.label.split(".")[1], n, j)
        assert alone.label == family.label
        for shared, own in zip(family.tables, alone.tables):
            assert np.array_equal(shared, own)


def test_build_C_ghz4x3_values():
    op = build_C_ghz4x3()
    assert abs(expectation(op, ghz_4x3()) - 67.5) < 1e-10
    assert abs(op.trace()) < 1e-10
    value = expectation(op, _basis_state(QUDIT4X3, 0))
    assert abs(value - 40.5) < 1e-10
    assert value < 67.5


# ---------------------------------------------------------------------------
# sign tests


def test_prop1_examples():
    pair = ghz4_party_z(1)
    assert prop1_test(pair, ghz4(math.pi / 4, 0.0))
    assert not prop1_test(pair, _basis_state(QUBIT4, 0))


def test_prop2_examples():
    state = ghz_4x3()
    family = ghz4x3_correlators("z", 1, 1)
    assert prop2_test(family, state)
    assert not prop2_test(family, _basis_state(QUDIT4X3, 0 * 16 + 1 * 4 + 2))


def test_prop2_sign_rule_on_products():
    for i, family in enumerate(all_ghz4x3_families()):
        assert count_prop2_violations(family, trials=40, seed=1300 + i) == 0


def test_prop2_single_family_long_run():
    family = ghz4x3_correlators("z", 2, 3)
    assert count_prop2_violations(family, trials=500, seed=77) == 0


@pytest.mark.parametrize("trials", [0, -5])
def test_sign_suites_reject_empty_runs(trials):
    with pytest.raises(ValueError, match="at least one trial"):
        count_prop1_violations(ghz4_z_pairs()[0], trials, seed=1)
    with pytest.raises(ValueError, match="at least one trial"):
        count_prop2_violations(ghz4x3_correlators("z", 2, 3), trials, seed=1)


def test_product_of_members_never_all_positive_manually():
    family = ghz4x3_correlators("f", 3, 7)
    rng = np.random.default_rng(55)
    for _ in range(50):
        state = random_product_state(QUDIT4X3, family.cut, rng)
        values = [expectation(m, state) for m in _dense(family)]
        assert min(values) <= 1e-12


# ---------------------------------------------------------------------------
# sign margin


def _basis_product_states(structure, basis):
    """Every product of `basis` vectors over the parties of `structure`."""
    for levels in itertools.product(range(basis.dimension), repeat=structure.n_parties):
        amps = functools.reduce(np.kron, [basis.vector(level) for level in levels])
        yield PureState(amps, structure)


def test_basis_product_states_of_own_setting_are_no_violations():
    # On these states several expectations are exactly zero and rounding
    # leaves residues near 1e-17, which a bare `> 0` counted as signs.
    qubit_bases = {"z": LocalBasis("z", 2), "x": LocalBasis("x", 2), "y": LocalBasis("y", 2)}
    pairs = ghz4_z_pairs() + ghz4_x_pairs()
    for kind in ("z", "x", "y"):
        pairs.extend(singlet_correlators(kind))
    assert len(pairs) == 35
    for pair in pairs:
        for state in _basis_product_states(QUBIT4, qubit_bases[pair.setting.kind]):
            assert not prop1_test(pair, state), pair.label

    qudit_bases = {"z": LocalBasis("z", 4), "fourier": LocalBasis("fourier", 4)}
    families = all_ghz4x3_families()
    assert len(families) == 54
    for family in families:
        states = list(_basis_product_states(QUDIT4X3, qudit_bases[family.setting.kind]))
        assert len(states) == 64
        for state in states:
            assert not prop2_test(family, state), family.label


@pytest.mark.parametrize("scale, counted", [(2.0, True), (0.5, False)])
def test_sign_margin_boundary(monkeypatch, scale, counted):
    # A constant table 1 has expectation 1 on every state; with the margin at
    # 1/scale, a value just above the margin must still count as a sign, one
    # inside it must not.
    monkeypatch.setattr(correlators, "SIGN_MARGIN", 1.0 / scale)
    table = np.ones(QUBIT4.dims, dtype=int)
    z = LocalBasis("z", 2)
    pair = CorrelatorPair(z, (table, table), label="constant", cut=(1,))
    family = CorrelatorFamily(z, (table,) * 4, label="constant", cut=(2, 3))
    state = _basis_state(QUBIT4, 5)
    assert prop1_test(pair, state) is counted
    assert prop2_test(family, state) is counted
    assert count_prop1_violations(pair, trials=30, seed=4) == (30 if counted else 0)
    assert count_prop2_violations(family, trials=30, seed=4) == (30 if counted else 0)


def test_margin_sign():
    values = [3.0, SIGN_MARGIN * 1.01, SIGN_MARGIN, 0.0, -SIGN_MARGIN, -SIGN_MARGIN * 1.01, -2.0]
    assert margin_sign(values).tolist() == [1, 1, 0, 0, 0, -1, -1]


# ---------------------------------------------------------------------------
# batched sign suites against the scalar loop


def _reference_state(structure, cut, rng):
    """A random product state drawn the scalar way: side a, then side b."""
    axes_a = sorted(cut)
    dim_a = math.prod(structure.dims[p - 1] for p in axes_a)

    def unit(dim):
        vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return vec / np.linalg.norm(vec)

    return combine_bipartite(unit(dim_a), axes_a, unit(structure.dim // dim_a), structure)


def _reference_count(operators, cut, trials, seed, violated):
    """Scalar reference loop: one state and one `expectation` per member and trial."""
    rng = np.random.default_rng(seed)
    count = 0
    for _ in range(trials):
        state = _reference_state(operators[0].structure, cut, rng)
        signs = [
            1 if v > SIGN_MARGIN else -1 if v < -SIGN_MARGIN else 0
            for v in (expectation(op, state) for op in operators)
        ]
        count += violated(signs)
    return count


def _pair_violated(signs):
    return signs[0] * signs[1] > 0


def _family_violated(signs):
    return all(s > 0 for s in signs)


def _suites():
    """Every pair and family of proptest, plus a variant of each that fails often:
    the pair with its second member negated, the family with its first."""
    pairs = ghz4_z_pairs() + ghz4_x_pairs()
    for kind in ("z", "x", "y"):
        pairs.extend(singlet_correlators(kind))
    families = all_ghz4x3_families()
    flipped_pairs = [
        CorrelatorPair(p.setting, (p.tables[0], -p.tables[1]), p.label, p.cut) for p in pairs
    ]
    flipped_families = [
        CorrelatorFamily(f.setting, (-f.tables[0],) + f.tables[1:], f.label, f.cut)
        for f in families
    ]
    return pairs + flipped_pairs, families + flipped_families


def test_batched_counts_match_scalar_loop():
    pairs, families = _suites()
    trials = 8
    nonzero = 0
    for seed in range(10):
        for i, pair in enumerate(pairs):
            expected = _reference_count(_dense(pair), pair.cut, trials, 31 * seed + i, _pair_violated)
            assert count_prop1_violations(pair, trials, 31 * seed + i) == expected, pair.label
            nonzero += expected > 0
        for i, family in enumerate(families):
            expected = _reference_count(_dense(family), family.cut, trials, 97 * seed + i, _family_violated)
            assert count_prop2_violations(family, trials, 97 * seed + i) == expected, family.label
            nonzero += expected > 0
    # the flipped variants make the comparison more than 0 == 0
    assert nonzero > 100


def test_chunked_counts_do_not_depend_on_chunk_size(monkeypatch):
    pairs, families = _suites()
    pair, family = pairs[-1], families[-1]
    whole = (count_prop1_violations(pair, 50, 3), count_prop2_violations(family, 50, 3))
    monkeypatch.setattr(correlators, "CHUNK_ROWS", 7)
    assert (count_prop1_violations(pair, 50, 3), count_prop2_violations(family, 50, 3)) == whole
    assert whole[0] > 0


@pytest.mark.parametrize("structure, cut", [(QUDIT4X3, (2,)), (QUBIT4, (1, 3)), (QUBIT4, (2, 4, 3))])
def test_batch_sampler_rows_are_successive_draws(structure, cut):
    batch = random_product_states(structure, cut, 9, np.random.default_rng(21))
    assert batch.shape == (9, structure.dim)
    one_rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
    for row in batch:
        single = random_product_state(structure, cut, one_rng)
        reference = _reference_state(structure, cut, ref_rng)
        assert np.max(np.abs(single.amplitudes - row)) <= 1e-14
        assert np.max(np.abs(reference.amplitudes - row)) <= 1e-14
        assert schmidt_max_sq(single, cut) == pytest.approx(1.0, abs=1e-12)
    # every path leaves the generator at the same point
    assert one_rng.random() == ref_rng.random()


def test_batch_runs_the_scalar_checks(monkeypatch):
    # Table values are real by construction; the imaginary-residue check
    # stays on dense `expectation`.
    family, pair = ghz4x3_correlators("f", 1, 2), ghz4_party_z(1)
    state = random_product_state(QUDIT4X3, family.cut, np.random.default_rng(1))
    monkeypatch.setattr(core, "IMAG_TOL", -1.0)
    with pytest.raises(ValueError, match="imaginary residue"):
        expectation(_dense(family)[0], state)
    monkeypatch.setattr(core, "STRUCTURAL_TOL", -1.0)
    with pytest.raises(ValueError, match="norm"):
        random_product_states(QUDIT4X3, (1,), 3, np.random.default_rng(1))
    with pytest.raises(ValueError, match="probabilities sum"):
        count_prop1_violations(pair, trials=3, seed=1)
    with pytest.raises(ValueError, match="probabilities sum"):
        count_prop2_violations(family, trials=3, seed=1)


def test_local_basis_reads_structural_tolerance_at_call_time(monkeypatch):
    LocalBasis("fourier", 4)
    monkeypatch.setattr(core, "STRUCTURAL_TOL", -1.0)
    with pytest.raises(ValueError, match="orthonormal"):
        LocalBasis("fourier", 4)


def test_family_suite_memory_is_bounded():
    family = ghz4x3_correlators("f", 2, 3)
    count_prop2_violations(family, trials=10, seed=1)
    tracemalloc.start()
    try:
        assert count_prop2_violations(family, trials=5000, seed=2) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# outcome tables


def _random_states(structure, rng):
    """A random pure state, a random full-rank density matrix and a white-noise mixture."""
    amps = rng.standard_normal(structure.dim) + 1j * rng.standard_normal(structure.dim)
    pure = PureState(amps / np.linalg.norm(amps), structure)
    root = rng.standard_normal((structure.dim, structure.dim)) + 1j * rng.standard_normal(
        (structure.dim, structure.dim)
    )
    rho = root @ root.conj().T
    return [pure, DensityMatrix(rho / np.trace(rho).real, structure), mix_white_noise(pure, 0.3)]


def test_table_expectations_equal_dense_expectations():
    rng = np.random.default_rng(8)
    pairs = ghz4_z_pairs() + ghz4_x_pairs()
    for kind in ("z", "x", "y"):
        pairs.extend(singlet_correlators(kind))
    families = all_ghz4x3_families()
    qubit_states = [ghz4(math.pi / 4, 0.0), singlet4(), *_random_states(QUBIT4, rng)]
    qudit_states = [ghz_4x3(), *_random_states(QUDIT4X3, rng)]
    checked = 0
    for records, states in ((pairs, qubit_states), (families, qudit_states)):
        for record in records:
            dense = _dense(record)
            for state in states:
                values = record.expectations(state)
                reference = [expectation(op, state) for op in dense]
                assert np.max(np.abs(values - reference)) <= 1e-12, record.label
                signs = margin_sign(reference)
                if isinstance(record, CorrelatorFamily):
                    assert prop2_test(record, state) == bool(np.all(signs > 0))
                else:
                    assert prop1_test(record, state) == bool(signs[0] * signs[1] > 0)
            checked += len(dense)
    assert checked == 70 + 216


def test_outcome_distribution_rejects_a_mismatched_state():
    with pytest.raises(ValueError, match="setting dimension"):
        correlators.outcome_distribution(LocalBasis("z", 2), ghz_4x3())
    with pytest.raises(ValueError, match="party structures"):
        ghz4_party_z(1).expectations(PureState([1.0, 0, 0, 0], PartyStructure((2, 2))))


_Z2 = LocalBasis("z", 2)
_ONES4 = (np.ones(QUBIT4.dims, int),) * 4


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: CorrelatorFamily(_Z2, (), "empty", (1,)), "at least one"),
        (
            lambda: CorrelatorFamily(_Z2, (np.ones((2, 2), int), np.ones((2, 2, 2), int)), "f", (1,)),
            "share one shape",
        ),
        (lambda: CorrelatorPair(_Z2, (np.ones((2, 3), int),) * 2, "p", (1,)), "setting dimension"),
        (lambda: CorrelatorPair(_Z2, (np.full((2, 2), 0.5),) * 2, "p", (1,)), "integer"),
        (lambda: CorrelatorPair(_Z2, (np.ones((2, 2), int),) * 3, "p", (1,)), "two tables"),
        (lambda: CorrelatorPair(_Z2, _ONES4[:2], "p", ()), r"cut \(\)"),
        (lambda: CorrelatorPair(_Z2, _ONES4[:2], "p", (1, 1)), r"cut \(1, 1\)"),
        (lambda: CorrelatorPair(_Z2, _ONES4[:2], "p", (0,)), r"cut \(0,\)"),
        (lambda: CorrelatorFamily(_Z2, _ONES4, "f", (2, 5)), r"cut \(2, 5\)"),
        (lambda: CorrelatorFamily(_Z2, _ONES4, "f", (1, 2, 3, 4)), r"cut \(1, 2, 3, 4\)"),
    ],
)
def test_record_validation(make, message):
    with pytest.raises(ValueError, match=message):
        make()


#: Every entry point that takes a cut of the four qubits, called with `cut`.
_CUT_TAKERS = {
    "schmidt_max_sq": lambda cut: schmidt_max_sq(ghz4(math.pi / 4, 0.0), cut),
    "combine_bipartite": lambda cut: combine_bipartite(np.ones(2), cut, np.ones(8), QUBIT4),
    "random_product_states": lambda cut: random_product_states(QUBIT4, cut, 2, np.random.default_rng(1)),
    "CorrelatorPair": lambda cut: CorrelatorPair(_Z2, _ONES4[:2], "p", cut),
    "CorrelatorFamily": lambda cut: CorrelatorFamily(_Z2, _ONES4, "f", cut),
}


@pytest.mark.parametrize("taker", sorted(_CUT_TAKERS))
@pytest.mark.parametrize("cut", [(), (0,), (2, 5), (1, 2, 3, 4), (1, 1), (1.5,)], ids=str)
def test_one_cut_rule_refuses(taker, cut):
    with pytest.raises(ValueError, match=r"must be distinct parties of 1\.\.4, not all of them"):
        _CUT_TAKERS[taker](cut)


@pytest.mark.parametrize("taker", sorted(_CUT_TAKERS))
def test_one_cut_rule_takes_numpy_integers(taker):
    _CUT_TAKERS[taker]((np.int64(2),))


def test_ghz4x3_tables_are_memoised_read_only():
    correlators._ghz4x3_table.cache_clear()
    all_ghz4x3_families()
    build_C_ghz4x3.__wrapped__()
    info = correlators._ghz4x3_table.cache_info()
    assert (info.misses, info.currsize) == (72, 72)
    assert not correlators._ghz4x3_table("f", 2, 1, 3).flags.writeable


def test_records_keep_read_only_integer_tables():
    source = np.ones((2, 2), dtype=np.int32)
    pair = CorrelatorPair(_Z2, (source, source), "p", (1,))
    source[0, 0] = 5
    assert all(t.dtype == np.int64 and not t.flags.writeable for t in pair.tables)
    assert pair.tables[0][0, 0] == 1


def test_sign_suites_build_no_dense_correlator(monkeypatch, capsys):
    from qcorr.cli import main

    built = []
    operator = correlators._operator
    init = HermitianOperator.__init__

    def spy_operator(*args):
        built.append("_operator")
        return operator(*args)

    def spy_init(self, *args, **kwargs):
        built.append("HermitianOperator")
        init(self, *args, **kwargs)

    monkeypatch.setattr(correlators, "_operator", spy_operator)
    monkeypatch.setattr(HermitianOperator, "__init__", spy_init)
    # proptest builds its pairs and families afresh and runs every suite and
    # target-state check on them
    assert main(["proptest", "--trials", "20", "--format", "json"]) == 0
    capsys.readouterr()
    assert built == []
