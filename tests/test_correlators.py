import functools
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    family_positive,
    margin_sign,
    pair_positive,
)
from qcorr.states import QUBIT4, QUDIT4X3

from oracles import (
    _signed,
    basis_exchange,
    basis_projector,
    basis_vector,
    dense_members,
    ghz_record_oracle,
    singlet_record_oracle,
)

GHZ_ANGLES = ((math.pi / 4, math.pi / 6), (math.pi / 4.9, 0.0), (math.pi / 3.7, math.pi / 9))


def _ghz(label):
    """The GHZ record named `label`."""
    return next(r for r in ghz4_z_pairs() + ghz4_x_pairs() + all_ghz4x3_families() if r.label == label)


def _basis_state(structure, index):
    amps = np.zeros(structure.dim)
    amps[index] = 1.0
    return PureState(amps, structure)


# ---------------------------------------------------------------------------
# local bases


def test_local_projector_z():
    assert np.allclose(basis_projector(LocalBasis("z", 2), 0), np.diag([1.0, 0.0]))


def test_local_projector_x():
    assert np.allclose(basis_projector(LocalBasis("x", 2), 0), np.full((2, 2), 0.5))


@pytest.mark.parametrize("kind,dim", [("z", 2), ("x", 2), ("y", 2), ("z", 4), ("fourier", 4)])
def test_projector_completeness(kind, dim):
    basis = LocalBasis(kind, dim)
    total = sum(basis_projector(basis, level) for level in range(dim))
    assert np.allclose(total, np.eye(dim), atol=1e-12)


def test_local_basis_refuses_non_integral_dimension():
    for kind in ("z", "fourier"):
        with pytest.raises(ValueError, match="integer"):
            LocalBasis(kind, 2.5)
    assert basis_vector(LocalBasis("z", np.int64(3)), 2).shape == (3,)


def test_exchange_swaps_projectors():
    for kind in ("z", "x", "y"):
        basis = LocalBasis(kind, 2)
        flip = basis_exchange(basis)
        assert np.allclose(
            flip @ basis_projector(basis, 0) @ flip.conj().T, basis_projector(basis, 1), atol=1e-12
        )


# ---------------------------------------------------------------------------
# GHZ records of the four-qubit and four-level subjects


def test_ghz_records_are_the_listed_labels_in_order():
    z, x, families = ghz4_z_pairs(), ghz4_x_pairs(), all_ghz4x3_families()
    assert [p.label for p in z] == [f"ghz4.z.n{cut}" for cut in ("1", "2", "3", "4", "1m2", "1m3", "1m4")]
    assert [p.label for p in x] == [f"ghz4.x.n{n}" for n in (1, 2, 3, 4)]
    assert [f.label for f in families] == [
        f"ghz4x3.{kind}.n{n}.j{j}" for kind in "zf" for n in (1, 2, 3) for j in range(1, 10)
    ]
    assert all(type(p) is CorrelatorPair for p in z + x)
    assert all(type(f) is CorrelatorFamily for f in families)
    assert correlators._ghz_records(4, 2) == tuple(z + x)
    assert correlators._ghz_records(3, 4) == tuple(families)


def test_ghz_records_match_the_paper_member_definitions():
    settings_by_kind = {
        ("z", 2): correlators._Z2,
        ("x", 2): correlators._X2,
        ("z", 4): correlators._Z4,
        ("fourier", 4): correlators._F4,
    }
    for record in ghz4_z_pairs() + ghz4_x_pairs() + all_ghz4x3_families():
        kind, dimension, cut, tables = ghz_record_oracle(record.label)
        assert record.setting is settings_by_kind[kind, dimension], record.label
        assert record.cut == cut, record.label
        assert len(record.tables) == len(tables), record.label
        for got, expected in zip(record.tables, tables):
            assert got.dtype == np.int64 and not got.flags.writeable, record.label
            assert np.array_equal(got, expected), record.label


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ghz4_party_z_expectations(n):
    c0, c1 = dense_members(_ghz(f"ghz4.z.n{n}"))
    for theta, phi in GHZ_ANGLES:
        state = ghz4(theta, phi)
        assert abs(expectation(c0, state) - math.cos(theta) ** 2) < 1e-12
        assert abs(expectation(c1, state) - math.sin(theta) ** 2) < 1e-12


def test_ghz4_party_z_matrix():
    expected = np.zeros((16, 16))
    expected[0, 0] = 1.0
    expected[8, 8] = -1.0
    assert np.allclose(dense_members(_ghz("ghz4.z.n1"))[0].matrix, expected)


def test_ghz4_party_z_on_all_ones():
    assert expectation(dense_members(_ghz("ghz4.z.n2"))[0], _basis_state(QUBIT4, 15)) == 0.0


@pytest.mark.parametrize("m", [2, 3, 4])
def test_ghz4_pair_z_expectations(m):
    c0, c1 = dense_members(_ghz(f"ghz4.z.n1m{m}"))
    for theta, phi in GHZ_ANGLES:
        state = ghz4(theta, phi)
        assert abs(expectation(c0, state) - math.cos(theta) ** 2) < 1e-12
        assert abs(expectation(c1, state) - math.sin(theta) ** 2) < 1e-12
    assert expectation(c0, _basis_state(QUBIT4, 0b0011)) == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ghz4_party_x_expectations(n):
    c0, c1 = dense_members(_ghz(f"ghz4.x.n{n}"))
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
    c0, c1 = dense_members(_ghz("ghz4.x.n1"))
    assert abs(expectation(c0, state)) < 1e-12
    assert abs(expectation(c1, state)) < 1e-12


def test_ghz4_party_z_sign_rule_on_products():
    pair = _ghz("ghz4.z.n1")
    c0, c1 = dense_members(pair)
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
        total += sum(op.matrix for op in dense_members(pair))
    closed = -np.eye(16, dtype=complex)
    closed[0, 0] += 8.0
    closed[15, 15] += 8.0
    assert np.max(np.abs(total - closed)) <= 1e-12


def test_x_sum_closed_form():
    total = np.zeros((16, 16), dtype=complex)
    for pair in ghz4_x_pairs():
        total += sum(op.matrix for op in dense_members(pair))
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    closed = 4.0 * np.kron(np.kron(sx, sx), np.kron(sx, sx))
    assert np.max(np.abs(total - closed)) <= 1e-12


def _projector_sum(kind, structure, value):
    """Sum over outcome strings s of value(s) times the product of the s-projectors."""
    basis = LocalBasis(kind, structure.dims[0])
    total = np.zeros((structure.dim, structure.dim), dtype=complex)
    for levels in itertools.product(range(basis.dimension), repeat=structure.n_parties):
        projectors = [basis_projector(basis, level) for level in levels]
        total += value(levels) * functools.reduce(np.kron, projectors)
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
                for op in dense_members(pair):
                    yield weight, op


#: builder -> (weighted public members, closed form from projector sums)
COMBINED = {
    "C_phi": (
        build_C_phi,
        lambda: ((1.0, op) for p in ghz4_z_pairs() + ghz4_x_pairs() for op in dense_members(p)),
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
            (1.5 if f.setting.kind == "z" else 1.0, op) for f in all_ghz4x3_families() for op in dense_members(f)
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


#: Each combined operator's record-list function, as the builder reads it.
_RECORD_LISTS = {"C_phi": "_ghz_records", "C_psi": "_singlet_records", "C_ghz4x3": "_ghz_records"}
#: The arguments the builder passes it.
_RECORD_ARGS = {"C_phi": (4, 2), "C_psi": (), "C_ghz4x3": (3, 4)}


@pytest.mark.parametrize("name", sorted(COMBINED))
def test_combined_operator_rejects_a_table_off_its_closed_form(monkeypatch, name):
    build = COMBINED[name][0]
    records = getattr(correlators, _RECORD_LISTS[name])(*_RECORD_ARGS[name])

    def build_from(served):
        monkeypatch.setattr(correlators, _RECORD_LISTS[name], lambda *args: served)
        return build.__wrapped__()

    # rebuilt records with unchanged arrays pass the exact check ...
    copies = tuple(type(r)(r.setting, r.tables, r.label, r.cut) for r in records)
    assert np.array_equal(build_from(copies).matrix, build().matrix)
    # ... and a one-entry change in any record's array fails it
    rng = np.random.default_rng(len(records))
    for i, record in enumerate(records):
        broken = record.tables.copy()
        broken.flat[rng.integers(broken.size)] += rng.choice((-1, 1))
        variant = type(record)(record.setting, broken, record.label, record.cut)
        with pytest.raises(ArithmeticError, match="closed form"):
            build_from(records[:i] + (variant,) + records[i + 1:])


@pytest.mark.parametrize("name", sorted(COMBINED))
def test_combined_operator_is_summed_from_its_records(monkeypatch, name):
    records = getattr(correlators, _RECORD_LISTS[name])
    monkeypatch.setattr(correlators, _RECORD_LISTS[name], lambda *args: records(*args)[1:])
    with pytest.raises(ArithmeticError, match="closed form"):
        COMBINED[name][0].__wrapped__()


def test_combined_operator_reuses_memoised_records():
    all_ghz4x3_families()
    misses = correlators._ghz_records.cache_info().misses
    build_C_ghz4x3.__wrapped__()
    assert correlators._ghz_records.cache_info().misses == misses


@pytest.mark.parametrize(
    "case",
    [
        (ghz4x3_correlators, "z", 4, 1),
        (ghz4x3_correlators, "f", 4, 1),
    ],
    ids=lambda case: f"{case[0].__name__}{case[1:]}",
)
def test_record_constructors_take_the_one_cut_rule(case):
    with pytest.raises(ValueError, match=r"must be distinct parties of 1\.\.\d, not all of them"):
        case[0](*case[1:])


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
        for op in dense_members(pair):
            assert abs(expectation(op, state) - 1 / 3) < 1e-10
    for pair in pairs[4:]:
        for op in dense_members(pair):
            assert abs(expectation(op, state) - 1 / 6) < 1e-10


def test_singlet_flip_pair_matrix():
    expected = np.zeros((16, 16))
    expected[0b0011, 0b0011] = 1.0
    expected[0b1011, 0b1011] = -1.0
    assert np.allclose(dense_members(singlet_correlators("z")[0])[0].matrix, expected)


#: The singlet's pair labels of one setting, in the order `cli.run_singlet`
#: reads them: the four flip pairs (`values[:4]`), then the four group pairs.
SINGLET_NAMES = ("m1", "m2", "m3", "m4", "n0k1", "n0k2", "n1k3", "n1k4")


def test_singlet_records_are_the_listed_labels_in_order():
    for kind in "zxy":
        assert [p.label for p in singlet_correlators(kind)] == [f"singlet4.{kind}.{name}" for name in SINGLET_NAMES]
    records = correlators._singlet_records()
    assert [p.label for p in records] == [f"singlet4.{kind}.{name}" for kind in "zxy" for name in SINGLET_NAMES]
    assert records == tuple(p for kind in "zxy" for p in singlet_correlators(kind))
    assert all(type(p) is CorrelatorPair for p in records)


def test_singlet_records_match_the_paper_member_definitions():
    records = correlators._singlet_records()
    for record in records:
        kind, cut, tables = singlet_record_oracle(record.label)
        assert record.setting is correlators._QUBIT_BASES[kind], record.label
        assert record.cut == cut, record.label
        assert len(record.tables) == len(tables), record.label
        for got, expected in zip(record.tables, tables):
            assert got.dtype == np.int64 and not got.flags.writeable, record.label
            assert np.array_equal(got, expected), record.label


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
        members = dense_members(family)
        assert len(members) == 4
        for member in members:
            assert abs(expectation(member, state) - 0.25) < 1e-10


def test_ghz4x3_cyclic_shift_family_explicit():
    # the cyclic shift k -> k+1 mod 4 sits at lexicographic index j=2
    members = dense_members(ghz4x3_correlators("z", 1, 2))
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
    members = dense_members(ghz4x3_correlators("f", 1, 2))
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
    pair = _ghz("ghz4.z.n1")
    assert prop1_test(pair, ghz4(math.pi / 4, 0.0))
    assert not prop1_test(pair, _basis_state(QUBIT4, 0))


def test_prop1_refuses_a_non_pair():
    # Prop 1 reads two members; a family's first two of four say nothing
    family = all_ghz4x3_families()[0]
    with pytest.raises(ValueError, match=re.escape(family.label)):
        prop1_test(family, ghz_4x3())
    with pytest.raises(ValueError, match=re.escape(family.label)):
        count_prop1_violations(family, trials=10, seed=1)
    # Prop 2 stays open to pairs, whose two tables also sum to zero
    pair = _ghz("ghz4.z.n1")
    assert not prop2_test(pair, _basis_state(QUBIT4, 0))
    assert count_prop2_violations(pair, trials=50, seed=1) == 0


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


def _dephased_mixture(state, bases):
    """The average over `bases` of `state` dephased in the product basis of
    each: a mixture of product basis states, so fully separable."""
    rho = 0
    for basis in bases:
        unitary = functools.reduce(np.kron, [basis._vectors] * len(state.structure.dims))
        probs = np.abs(unitary.conj().T @ state.amplitudes) ** 2
        rho = rho + (unitary * probs) @ unitary.conj().T
    return DensityMatrix(rho / len(bases), state.structure)


@pytest.mark.parametrize(
    "state, kinds, records, least, build, value",
    [
        (lambda: ghz4(math.pi / 4, 0.0), ("z2", "x2"), lambda: correlators._ghz_records(4, 2), 1 / 4, build_C_phi, 11 / 2),
        (ghz_4x3, ("z4", "fourier4"), lambda: correlators._ghz_records(3, 4), 1 / 8, build_C_ghz4x3, 135 / 4),
        (singlet4, ("z2", "x2", "y2"), correlators._singlet_records, 1 / 18, build_C_psi, 44 / 3),
    ],
    ids=["ghz4", "ghz4x3", "singlet"],
)
def test_sign_propositions_do_not_hold_for_separable_mixtures(state, kinds, records, least, build, value):
    # Props 1 and 2 are about pure states product across the cut: each of
    # these fully separable mixtures reads positive on every member of every
    # record, yet no witness fires on it
    bases = [LocalBasis(kind[:-1], int(kind[-1])) for kind in kinds]
    rho = _dephased_mixture(state(), bases)
    values = correlators.member_expectations(records(), rho)
    assert all(prop2_test(record, rho) for record in records())
    assert all(prop1_test(record, rho) for record in records() if type(record) is CorrelatorPair)
    assert abs(min(float(v.min()) for v in values) - least) <= 1e-12
    assert abs(expectation(build(), rho) - value) <= 1e-12
    assert value < {build_C_phi: 7, build_C_psi: 36, build_C_ghz4x3: 81 / 2}[build]


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
        values = [expectation(m, state) for m in dense_members(family)]
        assert min(values) <= 1e-12


# ---------------------------------------------------------------------------
# sign margin


def _basis_product_states(structure, basis):
    """Every product of `basis` vectors over the parties of `structure`."""
    for levels in itertools.product(range(basis.dimension), repeat=structure.n_parties):
        amps = functools.reduce(np.kron, [basis_vector(basis, level) for level in levels])
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
    above = SIGN_MARGIN * 1.01
    assert pair_positive([above, 2.0]) and pair_positive([-above, -2.0])
    assert not pair_positive([above, -above])
    assert not pair_positive([SIGN_MARGIN, 2.0])
    assert family_positive([above, 1.0, 2.0])
    assert not family_positive([above, SIGN_MARGIN, 2.0])
    assert not family_positive([-2.0, 1.0])


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
        CorrelatorFamily(f.setting, (-f.tables[0], *f.tables[1:]), f.label, f.cut)
        for f in families
    ]
    return pairs + flipped_pairs, families + flipped_families


def _sign_premise(record):
    """Whether `record` meets the exact premise of the sign propositions, in
    Python integers: each member table, laid out by `core.cut_axes` as a
    (cut side) x (other side) matrix, is u_k (x) m_k with u_k an integer
    vector and m_k a 0/1 mask; sum_k u_k = 0, and u_1 = -u_0 for a pair.
    On a product state <c_k> = (u_k . P_a)(m_k . P_b) with m_k . P_b >= 0,
    so no product state makes every member positive."""
    us = []
    for table in record.tables:
        order, dim_a = core.cut_axes(table.shape, record.cut)
        rows = table.transpose(order).reshape(dim_a, -1).tolist()
        columns = list(zip(*rows))
        mask = [int(any(column)) for column in columns]
        u = next((list(column) for column in columns if any(column)), [0] * dim_a)
        if rows != [[x * m for m in mask] for x in u]:
            return False
        us.append(u)
    if any(map(sum, zip(*us))):
        return False
    return type(record) is not CorrelatorPair or us[1] == [-x for x in us[0]]


def test_every_record_meets_the_exact_sign_premise():
    pairs, families = _suites()
    half_p, half_f = len(pairs) // 2, len(families) // 2
    assert (half_p, half_f) == (35, 54)
    for record in pairs[:half_p] + families[:half_f]:
        assert _sign_premise(record), record.label
    # the negated-table variants, which Monte Carlo finds violating
    for record in pairs[half_p:] + families[half_f:]:
        assert not _sign_premise(record), record.label


@pytest.mark.parametrize("label", ["ghz4.z.n1m3", "ghz4.x.n2", "ghz4x3.f.n3.j4"])
def test_sign_premise_refuses_any_one_broken_entry(label):
    record = _ghz(label)
    table = record.tables[0]
    for index in np.ndindex(table.shape):
        broken = table.copy()
        broken[index] += 1
        variant = type(record)(record.setting, (broken, *record.tables[1:]), record.label, record.cut)
        assert not _sign_premise(variant), index


def test_batched_counts_match_scalar_loop():
    pairs, families = _suites()
    trials = 8
    nonzero = 0
    for seed in range(10):
        for i, pair in enumerate(pairs):
            expected = _reference_count(dense_members(pair), pair.cut, trials, 31 * seed + i, _pair_violated)
            assert count_prop1_violations(pair, trials, 31 * seed + i) == expected, pair.label
            nonzero += expected > 0
        for i, family in enumerate(families):
            expected = _reference_count(dense_members(family), family.cut, trials, 97 * seed + i, _family_violated)
            assert count_prop2_violations(family, trials, 97 * seed + i) == expected, family.label
            nonzero += expected > 0
    # the flipped variants make the comparison more than 0 == 0
    assert nonzero > 100


def test_suite_values_equal_member_expectations(monkeypatch):
    # With `margin_sign` the identity a suite yields its per-member values,
    # which must be those of `member_expectations` on the same product states.
    monkeypatch.setattr(correlators, "margin_sign", np.asarray)
    pairs, families = _suites()
    for record in pairs + families:
        structure = PartyStructure(record.tables.shape[1:])
        for seed in (0, 1, 2):
            (values,) = correlators._suite_signs(record, 10, seed)
            rows = random_product_states(structure, record.cut, 10, np.random.default_rng(seed))
            expected = [correlators.member_expectations([record], PureState(row, structure))[0] for row in rows]
            assert values.shape == (len(record.tables), 10), record.label
            assert np.max(np.abs(values - np.transpose(expected))) <= 1e-12, (record.label, seed)


def test_sum_check_catches_a_non_unitary_rotation(monkeypatch):
    # The suite's probabilities take their norm from the drawn normals, so they
    # sum to 1 only if the rotation is unitary: a form off by 1e-9 fails.
    real_form = correlators._real_form
    monkeypatch.setattr(correlators, "_real_form", lambda basis, parties: real_form(basis, parties) * (1 + 1e-9))
    with pytest.raises(ValueError, match="probabilities sum"):
        count_prop1_violations(_ghz("ghz4.x.n1"), trials=3, seed=1)
    with pytest.raises(ValueError, match="probabilities sum"):
        count_prop2_violations(ghz4x3_correlators("f", 1, 2), trials=3, seed=1)


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
    family, pair = ghz4x3_correlators("f", 1, 2), _ghz("ghz4.z.n1")
    state = random_product_state(QUDIT4X3, family.cut, np.random.default_rng(1))
    monkeypatch.setattr(core, "IMAG_TOL", -1.0)
    with pytest.raises(ValueError, match="imaginary residue"):
        expectation(dense_members(family)[0], state)
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
            dense = dense_members(record)
            for state in states:
                values = correlators.member_expectations([record], state)[0]
                reference = [expectation(op, state) for op in dense]
                assert np.max(np.abs(values - reference)) <= 1e-12, record.label
                signs = margin_sign(reference)
                if isinstance(record, CorrelatorFamily):
                    assert prop2_test(record, state) == bool(np.all(signs > 0))
                else:
                    assert prop1_test(record, state) == bool(signs[0] * signs[1] > 0)
            checked += len(dense)
    assert checked == 70 + 216


def _dense_expectation(record, table, state):
    """<state| U diag(table) U^dagger |state>, with U the Kronecker product of
    the setting's basis matrix over the parties."""
    unitary = functools.reduce(np.kron, [record.setting._vectors] * table.ndim)
    op = (unitary * table.reshape(-1)) @ unitary.conj().T
    if isinstance(state, PureState):
        return np.vdot(state.amplitudes, op @ state.amplitudes).real
    return np.trace(state.matrix @ op).real  # a density matrix or white-noise mixture


@pytest.mark.parametrize("seed", [3, 4])
def test_member_expectations_equal_dense_expectations(seed):
    rng = np.random.default_rng(seed)
    pairs = ghz4_z_pairs() + [p for kind in "zxy" for p in singlet_correlators(kind)] + ghz4_x_pairs()
    for records, structure in ((pairs, QUBIT4), (all_ghz4x3_families(), QUDIT4X3)):
        for state in _random_states(structure, rng):
            values = correlators.member_expectations(records, state)
            assert len(values) == len(records)
            for record, got in zip(records, values):
                reference = [_dense_expectation(record, table, state) for table in record.tables]
                assert np.max(np.abs(got - reference)) <= 1e-12, record.label
                # the shared distribution gives each record its own values, bit for bit
                alone = correlators.member_expectations([record], state)[0]
                assert np.array_equal(got, alone), record.label


def test_member_expectations_read_one_distribution_per_setting(monkeypatch):
    bases = []
    probabilities = core.outcome_probabilities

    def count(state, unitaries):
        bases.append(unitaries[0])
        return probabilities(state, unitaries)

    monkeypatch.setattr(core, "outcome_probabilities", count)
    pairs = [p for kind in "zxy" for p in singlet_correlators(kind)] + ghz4_z_pairs()
    correlators.member_expectations(pairs, singlet4())
    qubit_bases = (correlators._Z2, correlators._X2, correlators._Y2)
    assert [id(u) for u in bases] == [id(b._vectors) for b in qubit_bases]
    bases.clear()
    correlators.member_expectations(all_ghz4x3_families(), ghz_4x3())
    assert [id(u) for u in bases] == [id(b._vectors) for b in (correlators._Z4, correlators._F4)]


def test_singlet_settings_hold_equal_tables():
    # the tables depend on the flip party (and group), not on the setting
    z, x, y = (singlet_correlators(kind) for kind in "zxy")
    distinct = {t.tobytes() for pairs in (z, x, y) for pair in pairs for t in pair.tables}
    assert len(distinct) == 16
    for pz, px, py in zip(z, x, y):
        assert [p.setting.kind for p in (pz, px, py)] == ["z", "x", "y"]
        assert np.array_equal(pz.tables, px.tables) and np.array_equal(pz.tables, py.tables)


#: Each support of `correlators._SUPPORTS` string by string, with the least
#: number of parties it applies to.
_SUPPORT_STRINGS = {
    "all levels equal": (2, lambda x, d: len(set(x)) == 1),
    "level sum 0 mod d": (2, lambda x, d: sum(x) % d == 0),
    "0011/1100": (4, lambda x, d: x[0] == x[1] and x[2] == x[3] and x[0] != x[2]),
    "b1!=b2 and b3!=b4": (4, lambda x, d: x[0] != x[1] and x[2] != x[3]),
}


@st.composite
def _support_cases(draw):
    """A support, shape, split party, cut and derangements beyond the paper's:
    n <= 4 parties of d <= 4 levels with d**n <= 256."""
    support = draw(st.sampled_from(sorted(_SUPPORT_STRINGS)))
    n = draw(st.integers(_SUPPORT_STRINGS[support][0], 4))
    d = draw(st.integers(2, 4))
    parties = range(1, n + 1)
    cut = draw(st.lists(st.sampled_from(parties), min_size=1, max_size=n - 1, unique=True))
    derangements = draw(st.lists(st.sampled_from(correlators._derangements(d)), min_size=1, max_size=4))
    return support, (d,) * n, draw(st.sampled_from(parties)), tuple(cut), tuple(derangements)


@settings(max_examples=150, deadline=None)
@given(_support_cases())
def test_support_tables_equal_the_string_definition(case):
    support, shape, split, cut, derangements = case
    d = shape[0]
    rule = _SUPPORT_STRINGS[support][1]
    strings = [x for x in itertools.product(range(d), repeat=len(shape)) if rule(x, d)]
    mask = correlators._SUPPORTS[support](correlators._grid(shape), d)
    tables = correlators._support_tables(mask, split, cut, derangements)
    assert tables.shape == (len(derangements), d, *shape) and tables.dtype == np.int64
    for j, s in enumerate(derangements):
        for k in range(d):
            member = [x for x in strings if x[split - 1] == k]
            assert np.array_equal(tables[j, k], _signed(member, shape, cut, s[k] - k)), (j, k)



@pytest.mark.parametrize(
    "basis",
    [
        LocalBasis("z", 2),
        LocalBasis("x", 2),
        LocalBasis("y", 2),
        LocalBasis("z", 4),
        LocalBasis("fourier", 4),
        LocalBasis("fourier", 3),
    ],
    ids=lambda b: f"{b.kind}{b.dimension}",
)
@pytest.mark.parametrize("parties", [1, 2, 3, 4])
def test_unitary_equals_kron_chain(basis, parties):
    # the sign suites hold U only as the blocks [[Re U, Im U], [Im U, -Re U]]
    form = correlators._real_form.__wrapped__(basis, parties)
    unitary = functools.reduce(np.kron, [basis._vectors] * parties)
    dim = unitary.shape[0]
    assert form.shape == (2 * dim, 2 * dim) and form.dtype == np.float64
    for block, part in (
        (form[:dim, :dim], unitary.real),
        (form[:dim, dim:], unitary.imag),
        (form[dim:, :dim], unitary.imag),
        (form[dim:, dim:], -unitary.real),
    ):
        assert np.array_equal(block, part)
    assert not form.flags.writeable


def _gaussian_integer(mat: np.ndarray) -> bool:
    return np.array_equal(mat, np.round(mat.real) + 1j * np.round(mat.imag))


def test_combined_operators_are_exact():
    # C_phi is 8(P_0000 + P_1111) - 1 + 4 sigma_x^(x)4 entry for entry, so
    # 7 - C_phi is 4 times the Toth-Guehne two-setting GHZ stabilizer witness
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    ghz = np.zeros(16)
    ghz[[0, 15]] = 1.0
    closed = 8 * np.diag(ghz) - np.eye(16) + 4 * functools.reduce(np.kron, [sx] * 4)
    assert np.array_equal(build_C_phi().matrix, closed)
    assert np.count_nonzero(build_C_phi().matrix == 0) == 224
    assert _gaussian_integer(16 * build_C_psi().matrix)
    assert _gaussian_integer(64 * build_C_ghz4x3().matrix)


@pytest.mark.parametrize(
    "basis, scale",
    [
        (LocalBasis("z", 2), 1),
        (LocalBasis("x", 2), 2),
        (LocalBasis("y", 2), 2),
        (LocalBasis("z", 4), 1),
        (LocalBasis("fourier", 4), 4),
    ],
    ids=lambda b: f"{b.kind}{b.dimension}" if isinstance(b, LocalBasis) else None,
)
@pytest.mark.parametrize("parties", [1, 2, 3])
def test_operator_is_exact_and_equals_the_float_product(basis, scale, parties):
    # oracle: U diag(t) U^dagger in floats, from the basis's own vectors
    rng = np.random.default_rng(parties)
    table = rng.integers(-40, 41, size=(basis.dimension,) * parties)
    unitary = functools.reduce(np.kron, [basis._vectors] * parties)
    dense = core._divided(*correlators._operator(basis, table))
    assert np.max(np.abs(dense - (unitary * table.reshape(-1)) @ unitary.conj().T)) <= 1e-12
    assert _gaussian_integer(scale**parties * dense)
    assert np.array_equal(dense, dense.conj().T)


@pytest.mark.parametrize(
    "build, den", [(build_C_phi, 1), (build_C_psi, 1), (build_C_ghz4x3, 2)], ids=["phi", "psi", "ghz4x3"]
)
def test_combined_operators_carry_their_least_exact_forms(build, den):
    re, im, form_den = build().exact
    assert form_den == den and re.dtype == im.dtype == np.int64
    # least: no common factor is left between the denominator and the numerators
    assert math.gcd(den, *re.ravel().tolist(), *im.ravel().tolist()) == 1
    assert np.array_equal(build().matrix.view(np.int64), core._divided(re, im, den).view(np.int64))


def test_each_combined_build_constructs_one_operator(monkeypatch):
    built = []
    init = HermitianOperator.__init__

    def spy_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(HermitianOperator, "__init__", spy_init)
    for build in (build_C_phi, build_C_psi, build_C_ghz4x3):
        built.clear()
        op = build.__wrapped__()
        assert len(built) == 1 and built[0] is op, build.__name__
    # a setting's operator is its exact form only: no operator is built
    built.clear()
    re, im, den = correlators._operator(LocalBasis("y", 2), np.eye(2, dtype=np.int64))
    assert built == []
    assert type(re) is type(im) is np.ndarray and re.dtype == im.dtype == np.int64 and type(den) is int


def test_operator_refuses_a_numerator_past_the_float_range():
    table = np.zeros((2, 2), dtype=np.int64)
    table[0, 0], table[1, 1] = 2**52, 2**52 + 1
    with pytest.raises(ArithmeticError, match="floats hold exactly"):
        correlators._operator(LocalBasis("x", 2), table)
    table[1, 1] -= 1
    assert correlators._operator(LocalBasis("x", 2), table)[0][0, 0] == 2**53


def test_combined_operator_refuses_a_numerator_past_the_float_range():
    weight = sum(correlators._grid(QUBIT4.dims))
    forms = {correlators._Z2: (2**50, 8 * ((weight == 0) | (weight == 4)) - 1), correlators._X2: (1, 4 * (-1) ** weight)}
    with pytest.raises(ArithmeticError, match="floats hold exactly"):
        correlators._combined("C", correlators._ghz_records(4, 2), (1,), forms)


@pytest.mark.parametrize(
    "basis",
    [LocalBasis("fourier", 3), LocalBasis("fourier", 5)],
    ids=["fourier3", "fourier5"],
)
def test_operator_refuses_a_basis_without_integer_form(basis):
    with pytest.raises(ValueError, match="no Gaussian-integer form"):
        correlators._operator(basis, np.ones((basis.dimension,) * 2, dtype=np.int64))


def test_outcome_distribution_rejects_a_mismatched_state():
    with pytest.raises(ValueError, match="do not match"):
        correlators.member_expectations([_ghz("ghz4.z.n1")], ghz_4x3())
    two_qubits = PureState([1.0, 0, 0, 0], PartyStructure((2, 2)))
    with pytest.raises(ValueError, match="party structures"):
        correlators.member_expectations([_ghz("ghz4.z.n1")], two_qubits)


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


def _all_records():
    return correlators._ghz_records(4, 2) + correlators._ghz_records(3, 4) + correlators._singlet_records()


def test_every_record_holds_one_read_only_int64_array():
    records = _all_records()
    assert len(records) == 89
    for record in records:
        tables = record.tables
        assert type(tables) is np.ndarray and tables.dtype == np.int64, record.label
        members, *dims = tables.shape
        assert members == (2 if type(record) is CorrelatorPair else 4), record.label
        assert set(dims) == {record.setting.dimension}, record.label
        # read-only at every level, down to an immutable buffer
        owner = tables.base
        assert isinstance(owner.base, bytes), record.label
        assert not tables.flags.writeable and not owner.flags.writeable, record.label
        for view in (tables, tables[0], owner):
            with pytest.raises(ValueError, match="WRITEABLE"):
                view.setflags(write=True)
    # no record's array shares memory with another's
    for a, b in itertools.combinations(records, 2):
        assert not np.shares_memory(a.tables, b.tables), (a.label, b.label)


def test_families_hold_their_support_tables():
    mask = correlators._SUPPORTS["level sum 0 mod d"](correlators._grid((4, 4, 4)), 4)
    tables = correlators._support_tables(mask, 2, (2,), DERANGEMENTS_4)
    for j in range(1, 10):
        assert np.array_equal(ghz4x3_correlators("f", 2, j).tables, tables[j - 1])


def test_records_keep_read_only_integer_tables():
    # a writable array and a read-only view of one can both change after
    # the record is built, so the record holds copies of them
    for dtype in (np.int32, np.int64):
        for hand_over in (lambda a, v: (a[0], v[1]), lambda a, v: a, lambda a, v: v):
            source = np.ones((2, 2, 2), dtype=dtype)
            view = source.view()
            view.setflags(write=False)
            pair = CorrelatorPair(_Z2, hand_over(source, view), "p", (1,))
            source[:, 0, 0] = 5
            assert pair.tables.dtype == np.int64 and not pair.tables.flags.writeable
            assert np.array_equal(pair.tables, np.ones((2, 2, 2)))


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


def test_records_refuse_entries_outside_int64():
    # an unsigned table past int64 would wrap to negative entries
    limit = np.iinfo(np.int64).max
    for tables in (
        np.full((2, 2, 2), 2**63, dtype=np.uint64),
        [np.zeros((2, 2), dtype=np.uint64), np.full((2, 2), 2**64 - 1, dtype=np.uint64)],
    ):
        with pytest.raises(ValueError, match="int64"):
            CorrelatorPair(_Z2, tables, "p", (1,))
    pair = CorrelatorPair(_Z2, np.full((2, 2, 2), limit, dtype=np.uint64), "p", (1,))
    assert pair.tables.dtype == np.int64 and np.all(pair.tables == limit)


def test_shared_arrays_cannot_be_made_writable():
    # memoised records, bases and operators are shared by every later call,
    # so neither an array nor any base under it can be made writable
    pure = ghz4(math.pi / 4, 0.0)
    arrays = {
        "record tables": ghz4_z_pairs()[0].tables,
        "family tables": all_ghz4x3_families()[0].tables,
        "C_phi": build_C_phi().matrix,
        "C_phi numerator": build_C_phi().exact[0],
        "C_ghz4x3 numerator": build_C_ghz4x3().exact[1],
        "C_psi numerator": build_C_psi().exact[1],
        "HermitianOperator": HermitianOperator(np.eye(4), PartyStructure((2, 2))).matrix,
        "basis vectors": LocalBasis("fourier", 4)._vectors,
        "_real_form": correlators._real_form(LocalBasis("y", 2), 2),
        "_integer_form": correlators._integer_form(LocalBasis("fourier", 4))[0],
        "amplitudes": pure.amplitudes,
        "density matrix": DensityMatrix(pure.projector().matrix, QUBIT4).matrix,
        "white noise": mix_white_noise(pure, 0.25).matrix,
    }
    for name, array in arrays.items():
        assert array.flags.aligned, name
        level = array
        while isinstance(level, np.ndarray):
            assert not level.flags.writeable, name
            with pytest.raises(ValueError, match="WRITEABLE"):
                level.setflags(write=True)
            level = level.base
        assert isinstance(level, bytes), name
    # the operator built from the memoised records is unchanged
    assert np.array_equal(build_C_phi.__wrapped__().matrix, build_C_phi().matrix)
