import math
import tracemalloc
from dataclasses import astuple
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorr import (
    LhvAssignment,
    MeasurementSetting,
    Witness,
    analytic_value,
    bell_report,
    chsh_reduction_check,
    joint_prob,
    lhv_max,
    max_entangled_qudit,
    mix_white_noise,
    noise_threshold,
    noise_tolerance,
    projector_witness,
    quantum_value,
)
import qcorr.bell as bell
from qcorr.bell import (
    ENUMERATION_GUARD,
    RESIDUES,
    SETTING_PAIRS,
    BellInvariantError,
    BellReport,
    correlation,
    lhv_residue_table,
    setting_basis,
)
from qcorr.core import DensityMatrix, PartyStructure, PureState

from oracles import correlator_m, lhv_value, projector_witness_threshold, setting_vector


def closed_form_correlator(d: int) -> float:
    return (1.0 / (2 * d**3)) * (
        1.0 / math.sin(math.pi / (4 * d)) ** 2 - 1.0 / math.sin(3 * math.pi / (4 * d)) ** 2
    )


def test_setting_vector_d2_offset0():
    ms = MeasurementSetting(1, 1, 2)
    assert np.allclose(setting_vector(ms, 0), np.array([1.0, 1.0]) / math.sqrt(2))


def test_dimensions_must_be_integral():
    with pytest.raises(ValueError, match="integer"):
        MeasurementSetting(1, 1, 2.5)
    # int() would truncate 2.5 to 2 and parse "2"
    for fn in (analytic_value, lhv_residue_table):
        for d in (2.5, 3.5, "2"):
            with pytest.raises(ValueError, match="integer"):
                fn(d)
    assert setting_basis(MeasurementSetting(1, 1, np.int64(3))).shape == (3, 3)


@pytest.mark.parametrize("d", [2.5, "2"])
def test_quantum_value_and_lhv_max_refuse_a_non_integral_dimension(d):
    # quantum_value takes its dimension from the state, whose structure
    # refuses both; lhv_max must not truncate 2.5 to 2 or parse "2"
    with pytest.raises(ValueError, match="integer"):
        lhv_max(d)


def test_quantum_value_and_lhv_max_take_numpy_integers():
    assert lhv_max(np.int64(2)) == lhv_max(2)


def test_setting_offsets():
    from fractions import Fraction

    assert MeasurementSetting(1, 1, 5).offset == Fraction(0)
    assert MeasurementSetting(2, 1, 5).offset == Fraction(1, 4)
    assert MeasurementSetting(1, 2, 5).offset == Fraction(1, 2)
    assert MeasurementSetting(2, 2, 5).offset == Fraction(-1, 4)


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
def test_setting_vectors_orthonormal(d):
    for party in (1, 2):
        for setting in (1, 2):
            ms = MeasurementSetting(party, setting, d)
            matrix = np.column_stack([setting_vector(ms, l) for l in range(d)])
            assert np.allclose(matrix.conj().T @ matrix, np.eye(d), atol=1e-12)
            completeness = sum(
                np.outer(setting_vector(ms, l), setting_vector(ms, l).conj()) for l in range(d)
            )
            assert np.allclose(completeness, np.eye(d), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 7])
def test_joint_prob_normalization(d):
    state = max_entangled_qudit(d)
    s1 = MeasurementSetting(1, 1, d)
    s2 = MeasurementSetting(2, 2, d)
    total = sum(joint_prob(state, s1, s2, v1, v2) for v1 in range(d) for v2 in range(d))
    assert abs(total - 1.0) < 1e-12


def test_joint_prob_uniform_on_maximally_mixed():
    d = 3
    rho = mix_white_noise(max_entangled_qudit(d), 1.0)
    s1 = MeasurementSetting(1, 1, d)
    s2 = MeasurementSetting(2, 1, d)
    for v1 in range(d):
        for v2 in range(d):
            assert abs(joint_prob(rho, s1, s2, v1, v2) - 1.0 / d**2) < 1e-12


@pytest.mark.parametrize("outcome, refused", [(0.7, True), ("1", True), (np.int64(1), False)], ids=repr)
def test_joint_prob_reads_integer_outcomes_only(outcome, refused):
    # At d = 3, int() read 0.7 as outcome 0 and "1" as outcome 1.
    state = max_entangled_qudit(3)
    s1, s2 = MeasurementSetting(1, 1, 3), MeasurementSetting(2, 2, 3)
    for v1, v2 in ((outcome, 0), (0, outcome)):
        if refused:
            with pytest.raises(ValueError, match="integers"):
                joint_prob(state, s1, s2, v1, v2)
        else:
            assert joint_prob(state, s1, s2, v1, v2) == joint_prob(state, s1, s2, int(v1), int(v2))


def test_joint_prob_party_order_enforced():
    d = 2
    state = max_entangled_qudit(d)
    with pytest.raises(ValueError):
        joint_prob(state, MeasurementSetting(2, 1, d), MeasurementSetting(1, 1, d), 0, 0)


def test_correlator_d2_value():
    state = max_entangled_qudit(2)
    expected = (1.0 / 16.0) * (
        1.0 / math.sin(math.pi / 8) ** 2 - 1.0 / math.sin(3 * math.pi / 8) ** 2
    )
    assert abs(expected - math.sqrt(2) / 4) < 1e-12
    for i, j in SETTING_PAIRS:
        for m in range(2):
            assert abs(correlator_m(state, i, j, m) - expected) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
def test_correlators_match_closed_form(d):
    state = max_entangled_qudit(d)
    expected = closed_form_correlator(d)
    for i, j in SETTING_PAIRS:
        for m in range(d):
            assert abs(correlator_m(state, i, j, m) - expected) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 8, 17, 32])
def test_correlators_positive(d):
    state = max_entangled_qudit(d)
    for i, j in SETTING_PAIRS:
        for m in range(d):
            assert correlator_m(state, i, j, m) > 0.0


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 16, 17, 32])
def test_quantum_matches_analytic(d):
    assert abs(quantum_value(max_entangled_qudit(d)) - analytic_value(d)) < 1e-9


def test_quantum_value_d2_is_tsirelson():
    assert abs(quantum_value(max_entangled_qudit(2)) - 2 * math.sqrt(2)) < 1e-9


def test_quantum_value_d3():
    assert abs(quantum_value(max_entangled_qudit(3)) - 2.87293) < 1e-5


def test_quantum_value_on_maximally_mixed():
    rho = mix_white_noise(max_entangled_qudit(3), 1.0)
    assert abs(quantum_value(rho)) < 1e-12


def test_quantum_value_mixed_linearity():
    d = 3
    state = max_entangled_qudit(d)
    pure_value = quantum_value(state)
    rng = np.random.default_rng(41)
    for _ in range(20):
        p = float(rng.uniform(0.0, 1.0))
        assert abs(quantum_value(mix_white_noise(state, p)) - (1 - p) * pure_value) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_noisy_value_agrees_across_representations(d):
    rng = np.random.default_rng(100 + d)
    amps = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
    psi = PureState(amps / np.linalg.norm(amps), PartyStructure((d, d)))
    pure_value = quantum_value(psi)
    for p in (0.0, 0.1, 0.5, 0.93, 1.0):
        noisy = mix_white_noise(psi, p)
        factored = quantum_value(noisy)
        dense = quantum_value(DensityMatrix(noisy.matrix, noisy.structure))
        assert abs(factored - dense) < 1e-12
        assert abs(factored - (1 - p) * pure_value) < 1e-12


def test_noisy_value_needs_no_dense_matrix():
    d, p = 64, 0.3
    tracemalloc.start()
    try:
        value = quantum_value(mix_white_noise(max_entangled_qudit(d), p))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(value - (1 - p) * analytic_value(d)) < 1e-9
    # The dense d^2 x d^2 complex matrix would take 16 * d**4 bytes = 268 MB.
    assert peak < 1_000_000


def test_analytic_value_limits():
    assert abs(analytic_value(2) - 2 * math.sqrt(2)) < 1e-12
    assert abs(analytic_value(10**6) - 2.88202) < 1e-5
    values = [analytic_value(d) for d in range(2, 101)]
    assert all(b > a for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        analytic_value(1)


def test_lhv_value_hand_cases():
    assert lhv_value(LhvAssignment(0, 0, 0, 1), 2) == -2
    for d in range(2, 7):
        assert lhv_value(LhvAssignment(0, 0, 0, 0), d) == 2


def test_lhv_value_range_and_bound():
    for d in (2, 3, 4):
        values = [
            lhv_value(LhvAssignment(a, b, c, e), d)
            for a in range(d)
            for b in range(d)
            for c in range(d)
            for e in range(d)
        ]
        assert max(values) == 2
        assert min(values) >= -4
    with pytest.raises(ValueError):
        lhv_value(LhvAssignment(0, 0, 0, 5), 3)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
def test_lhv_max_is_two(d):
    best, ties = lhv_max(d)
    assert best == 2
    assert ties
    for a in ties:
        assert lhv_value(a, d) == 2
    ordered = [astuple(a) for a in ties]
    assert ordered == sorted(ordered)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_lhv_max_ties_are_every_maximizer(d):
    best, ties = lhv_max(d)
    every = [a for a in product(range(d), repeat=4) if lhv_value(LhvAssignment(*a), d) == 2]
    assert best == 2
    assert [astuple(a) for a in ties] == every


def test_lhv_max_guard():
    with pytest.raises(ValueError):
        lhv_max(41)
    with pytest.raises(ValueError):
        lhv_max(1)


def test_noise_threshold_values():
    assert abs(noise_threshold(2) - (1 - 2 / (2 * math.sqrt(2)))) < 1e-12
    assert abs(noise_threshold(10**6) - 0.30604) < 1e-5
    values = [noise_threshold(d) for d in range(2, 101)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_projector_witness_threshold():
    # The library's noise tolerance of (1/d)1 - |psi_d><psi_d| on psi_d.
    for d in range(2, 12):
        state = max_entangled_qudit(d)
        witness = Witness(projector_witness(state).alpha_p, state.projector())
        assert abs(noise_tolerance(witness, state) - projector_witness_threshold(d)) <= 1e-12


def test_chsh_reduction():
    assert chsh_reduction_check()
    assert quantum_value(max_entangled_qudit(2)) > 2.0


@pytest.mark.parametrize("d", range(2, 9))
def test_correlation_reads_only_2d_detection_events(d, monkeypatch):
    # Every outcome-table entry but the 2d that RESIDUES names is NaN, so a
    # correlation that read any other entry would come out NaN.
    state = max_entangled_qudit(d)
    events = bell_report(d, include_lhv=False).detection_events_per_correlation
    exact = {pair: correlation(state, *pair) for pair in SETTING_PAIRS}
    table_of = bell.outcome_table
    m = np.arange(d)
    for pair in SETTING_PAIRS:
        plus, minus = RESIDUES[pair]
        kept = np.zeros((d, d), dtype=bool)
        kept[(plus - m) % d, m] = kept[(minus - m) % d, m] = True
        monkeypatch.setattr(
            bell, "outcome_table", lambda *args, kept=kept: np.where(kept, table_of(*args), np.nan)
        )
        value = correlation(state, *pair)
        assert math.isfinite(value) and value.hex() == exact[pair].hex()
        assert np.count_nonzero(kept) == 2 * d == events
    monkeypatch.undo()

    # The same masks on the path bell_report takes: quantum_value reads all
    # four tables from one core.outcome_probabilities call, shaped
    # (2, d, 2, d), so block [i - 1, :, j - 1] is masked with the kept set
    # of setting pair (i, j).
    exact_value = quantum_value(state)
    probabilities_of = bell.outcome_probabilities
    kept = np.zeros((2, d, 2, d), dtype=bool)
    for i, j in SETTING_PAIRS:
        plus, minus = RESIDUES[i, j]
        block = kept[i - 1, :, j - 1]
        block[(plus - m) % d, m] = block[(minus - m) % d, m] = True
    calls = []

    def masked(*args):
        calls.append(args)
        return np.where(kept, probabilities_of(*args), np.nan)

    monkeypatch.setattr(bell, "outcome_probabilities", masked)
    value = quantum_value(state)
    assert len(calls) == 1
    assert math.isfinite(value) and value.hex() == exact_value.hex()
    assert [np.count_nonzero(kept[i - 1, :, j - 1]) for i, j in SETTING_PAIRS] == [2 * d] * 4


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16, 32])
def test_quantum_value_builds_each_basis_once(d, monkeypatch):
    # One stacked build of the four (party, setting) bases per evaluation,
    # each bitwise its setting_basis, no basis built on its own, and the
    # value bitwise the sum of the four pairs' correlations.
    rng = np.random.default_rng(200 + d)
    amps = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
    psi = PureState(amps / np.linalg.norm(amps), PartyStructure((d, d)))
    noisy = mix_white_noise(psi, float(rng.uniform()))
    subjects = [psi, noisy]
    if d <= 8:
        subjects.append(DensityMatrix(noisy.matrix, noisy.structure))
    basis_of, stacks_of = bell.setting_basis, bell._setting_bases
    stacked, single = [], []

    def spy_stacks(dim):
        stacked.append((dim, stacks_of(dim)))
        return stacked[-1][1]

    def spy_single(ms):
        single.append(ms)
        return basis_of(ms)

    monkeypatch.setattr(bell, "_setting_bases", spy_stacks)
    monkeypatch.setattr(bell, "setting_basis", spy_single)
    for state in subjects:
        stacked.clear()
        single.clear()
        value = quantum_value(state)
        assert len(stacked) == 1 and stacked[0][0] == d and not single
        stacks = stacked[0][1]
        assert [stack.shape for stack in stacks] == [(2, d, d)] * 2
        for party, setting in bell.OFFSETS:
            expected = basis_of(MeasurementSetting(party, setting, d))
            assert stacks[party - 1][setting - 1].tobytes() == expected.tobytes()
        assert value.hex() == sum(correlation(state, i, j) for i, j in SETTING_PAIRS).hex()


@pytest.mark.parametrize("pair", SETTING_PAIRS)
def test_two_setting_reduction_reads_residues(pair, monkeypatch):
    # the d = 2 check must see a swap of any pair's residues
    plus, minus = RESIDUES[pair]
    monkeypatch.setitem(RESIDUES, pair, (minus, plus))
    assert not chsh_reduction_check()


def test_bell_report_fields():
    rep = bell_report(3)
    assert rep.d == 3
    assert rep.lhv_max == 2
    assert rep.detection_events_per_correlation == 6
    assert abs(rep.quantum_value - rep.analytic_value) < 1e-9
    assert abs(rep.noise_threshold - (1 - 2 / rep.analytic_value)) < 1e-12
    assert lhv_max(rep.d)[1]
    skipped = bell_report(4, include_lhv=False)
    assert skipped.lhv_max is None


def broadcast_lhv_max(d: int) -> tuple[int, list[tuple[int, int, int, int]]]:
    """Oracle: the functional broadcast over all d^4 assignments, maximizers
    in lexicographic (v11, v21, v12, v22) order."""
    r = np.arange(d)
    zero = (r == 0).astype(np.int8)
    one = (r == 1).astype(np.int8)
    minus_one = ((-r) % d == 1).astype(np.int8)
    residue = (r[:, None] + r[None, :]) % d
    c11 = (zero - minus_one)[residue]  # indexed (v11, v21)
    c12 = (zero - one)[residue]  # (v11, v22)
    c22 = (zero - minus_one)[residue]  # (v12, v22)
    c21 = (minus_one - zero)[residue]  # (v12, v21)
    values = (c11[:, :, None, None] + c12[:, None, None, :]) + (
        c22[None, None, :, :] + c21.T[None, :, :, None]
    )
    best = int(values.max())
    return best, [tuple(idx) for idx in np.argwhere(values == best).tolist()]


@pytest.mark.parametrize("d", range(2, 13))
def test_residue_search_matches_broadcast_oracle(d):
    best, every = broadcast_lhv_max(d)
    found, ties = lhv_max(d)
    assert found == best
    assert [astuple(a) for a in ties] == every
    rep = bell_report(d)
    assert rep.lhv_max == best
    assert rep.lhv_maximizer_count == len(every) == d * (6 * d - 8)


@st.composite
def _assignments(draw):
    d = draw(st.integers(2, ENUMERATION_GUARD))
    values = draw(st.tuples(*[st.integers(0, d - 1)] * 4))
    return d, LhvAssignment(*values)


@settings(max_examples=300, deadline=None)
@given(_assignments())
def test_lhv_value_is_its_residue_table_entry(case):
    d, a = case
    t11 = (a.v11 + a.v21) % d
    t12 = (a.v11 + a.v22) % d
    t22 = (a.v12 + a.v22) % d
    assert lhv_value(a, d) == lhv_residue_table(d)[t11, t12, t22]


def test_bell_report_memory_stays_small():
    tracemalloc.start()
    try:
        rep = bell_report(32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.lhv_maximizer_count == 32 * (6 * 32 - 8)
    assert peak < 1_000_000


def test_bell_report_without_search():
    rep = bell_report(5, include_lhv=False)
    assert rep.lhv_max is None
    assert rep.lhv_maximizer_count is None


def test_maximizer_count_invariant():
    fields = dict(
        d=3,
        quantum_value=analytic_value(3),
        analytic_value=analytic_value(3),
        noise_threshold=noise_threshold(3),
        detection_events_per_correlation=6,
        lhv_max=2,
    )
    assert BellReport(**fields, lhv_maximizer_count=30).lhv_maximizer_count == 30
    for wrong in (29, 31, None):
        with pytest.raises(BellInvariantError, match=r"d\(6d - 8\) = 30"):
            BellReport(**fields, lhv_maximizer_count=wrong)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_correlations_on_assigned_eigenvectors_are_lhv_value(d):
    # Every deterministic assignment: on the product of the assigned setting
    # eigenvectors, the four correlations sum to the local model's value, so
    # the quantum and local sides read the same coefficients.
    structure = PartyStructure((d, d))
    vectors = {
        (party, setting): [setting_vector(MeasurementSetting(party, setting, d), l) for l in range(d)]
        for party in (1, 2)
        for setting in (1, 2)
    }
    for v11, v21, v12, v22 in product(range(d), repeat=4):
        outcome = {(1, 1): v11, (1, 2): v12, (2, 1): v21, (2, 2): v22}
        total = 0.0
        for i, j in SETTING_PAIRS:
            u, w = vectors[(1, i)][outcome[(1, i)]], vectors[(2, j)][outcome[(2, j)]]
            total += correlation(PureState(np.kron(u, w), structure), i, j)
        assert abs(total - lhv_value(LhvAssignment(v11, v21, v12, v22), d)) <= 1e-9
