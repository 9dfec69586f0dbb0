"""Acceptance suite: every headline criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or on failure).
"""

import math

import numpy as np

from qcorr import (
    Witness,
    analytic_value,
    bipartitions,
    build_C_ghz4x3,
    build_C_phi,
    build_C_psi,
    expectation,
    ghz4,
    ghz4_x_pairs,
    ghz4_z_pairs,
    ghz_4x3,
    all_ghz4x3_families,
    joint_prob,
    lhv_max,
    max_entangled_qudit,
    noise_threshold,
    noise_tolerance,
    projector_witness,
    quantum_value,
    schmidt_max_sq,
    singlet4,
    singlet_correlators,
    spectral_norm,
    verify_dominance,
)
from qcorr.bell import MeasurementSetting, SETTING_PAIRS
from qcorr.correlators import (
    LocalBasis,
    count_prop1_violations,
    count_prop2_violations,
)
from qcorr.witnesses import (
    GHZ4_CASES,
    GHZ4_WITNESS_GRID,
    GHZ4X3_ALPHA,
    GHZ4X3_GAMMA,
    SINGLET_ALPHA,
    SINGLET_GAMMA,
    biseparable_max,
)

from oracles import basis_projector, dense_members, projector_witness_threshold


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {name} failed{suffix}"


def test_criterion_01_ghz4_noise_and_dominance():
    c_phi = build_C_phi()
    ok = True
    details = []
    for case in GHZ4_CASES:
        state = ghz4(case.theta, case.phi)
        witness = Witness(case.alpha, c_phi)
        delta = noise_tolerance(witness, state)
        cert = verify_dominance(witness, projector_witness(state), case.gamma)
        norm = spectral_norm(witness.operator())
        ok = ok and abs(delta - case.noise_delta) <= 1e-3
        ok = ok and cert.min_eig >= -1e-8 * norm
        details.append(f"delta={delta:.6f} min_eig={cert.min_eig:.2e}")
    _verdict("01 ghz4 noise tolerances + dominance", ok, "; ".join(details))


def test_criterion_02_ghz4_witness_grid():
    c_phi = build_C_phi()
    worst = 0.0
    for case_w, row in zip(GHZ4_CASES, GHZ4_WITNESS_GRID):
        witness = Witness(case_w.alpha, c_phi)
        for case_s, expected in zip(GHZ4_CASES, row):
            actual = witness.value(ghz4(case_s.theta, case_s.phi))
            worst = max(worst, abs(actual - expected))
    _verdict("02 ghz4 witness value grid", worst <= 0.01, f"worst dev {worst:.4f}")


def test_criterion_03_singlet_pipeline():
    state = singlet4()
    flips, groups = [], []
    for kind in ("z", "x", "y"):
        pairs = singlet_correlators(kind)
        flips.extend(expectation(op, state) for p in pairs[:4] for op in dense_members(p))
        groups.extend(expectation(op, state) for p in pairs[4:] for op in dense_members(p))
    ok = len(flips) == 24 and len(groups) == 24
    ok = ok and max(abs(v - 1 / 3) for v in flips) <= 1e-10
    ok = ok and max(abs(v - 1 / 6) for v in groups) <= 1e-10
    witness = Witness(SINGLET_ALPHA, build_C_psi())
    delta = noise_tolerance(witness, state)
    ok = ok and abs(delta - 15.0 / 88.0) <= 1e-6
    cert = verify_dominance(witness, projector_witness(state), SINGLET_GAMMA)
    ok = ok and cert.passed
    lms = {p.setting.kind for kind in ("z", "x", "y") for p in singlet_correlators(kind)}
    ok = ok and len(lms) == 3
    _verdict("03 singlet pipeline", ok, f"delta={delta:.8f} min_eig={cert.min_eig:.2e} lms={len(lms)}")


def test_criterion_04_ghz4x3_pipeline():
    state = ghz_4x3()
    families = all_ghz4x3_families()
    values = [expectation(m, state) for f in families for m in dense_members(f)]
    ok = len(values) == 216 and max(abs(v - 0.25) for v in values) <= 1e-10
    witness = Witness(GHZ4X3_ALPHA, build_C_ghz4x3())
    delta = noise_tolerance(witness, state)
    ok = ok and abs(delta - 0.4) <= 1e-3
    cert = verify_dominance(witness, projector_witness(state), GHZ4X3_GAMMA)
    ok = ok and cert.passed
    lms = {f.setting.kind for f in families}
    ok = ok and len(lms) == 2
    _verdict("04 ghz4x3 pipeline", ok, f"delta={delta:.6f} min_eig={cert.min_eig:.2e} lms={len(lms)}")


def test_criterion_05_projector_witness_constants():
    ok = True
    for theta in (0.2, 0.5, math.pi / 4.9, math.pi / 4):
        ok = ok and abs(projector_witness(ghz4(theta, 0.3)).alpha_p - math.cos(theta) ** 2) <= 1e-10
    for theta in (math.pi / 3.7, 1.1, 1.4):
        ok = ok and abs(projector_witness(ghz4(theta, 0.0)).alpha_p - math.sin(theta) ** 2) <= 1e-10
    ok = ok and abs(projector_witness(singlet4()).alpha_p - 0.75) <= 1e-10
    ok = ok and abs(projector_witness(ghz_4x3()).alpha_p - 0.25) <= 1e-10
    for d in range(2, 9):
        ok = ok and abs(projector_witness(max_entangled_qudit(d)).alpha_p - 1.0 / d) <= 1e-10
    _verdict("05 projector-witness constants", ok)


def test_criterion_06_bell_quantum_values():
    worst = max(
        abs(quantum_value(max_entangled_qudit(d)) - analytic_value(d)) for d in range(2, 17)
    )
    ok = worst <= 1e-9
    ok = ok and abs(quantum_value(max_entangled_qudit(2)) - 2 * math.sqrt(2)) <= 1e-9
    ok = ok and abs(quantum_value(max_entangled_qudit(3)) - 2.87293) <= 1e-5
    ok = ok and abs(analytic_value(10**6) - 2.88202) <= 1e-5
    _verdict("06 bell quantum values", ok, f"worst quantum/analytic dev {worst:.2e}")


def test_criterion_07_lhv_bound():
    maxima = {d: lhv_max(d)[0] for d in range(2, 9)}
    ok = all(v == 2 for v in maxima.values())
    _verdict("07 exhaustive local bound", ok, f"maxima {maxima}")


def test_criterion_08_noise_thresholds():
    ok = abs(noise_threshold(10**6) - 0.30604) <= 1e-5
    for d in range(2, 11):
        state = max_entangled_qudit(d)
        witness = Witness(projector_witness(state).alpha_p, state.projector())
        ok = ok and abs(noise_tolerance(witness, state) - projector_witness_threshold(d)) <= 1e-12
    _verdict("08 noise thresholds", ok, f"limit {noise_threshold(10**6):.6f}")


def test_criterion_09_property_suites():
    pairs = ghz4_z_pairs() + ghz4_x_pairs()
    for kind in ("z", "x", "y"):
        pairs.extend(singlet_correlators(kind))
    pair_trials = 30
    violations1 = sum(
        count_prop1_violations(pair, pair_trials, 9000 + i) for i, pair in enumerate(pairs)
    )
    families = all_ghz4x3_families()
    family_trials = 20
    violations2 = sum(
        count_prop2_violations(f, family_trials, 9500 + i) for i, f in enumerate(families)
    )
    ok = len(pairs) * pair_trials >= 1000 and violations1 == 0
    ok = ok and len(families) * family_trials >= 1000 and violations2 == 0

    # closed-form operator identities
    z_total = np.zeros((16, 16), dtype=complex)
    for pair in ghz4_z_pairs():
        z_total += sum(op.matrix for op in dense_members(pair))
    closed = -np.eye(16, dtype=complex)
    closed[0, 0] += 8.0
    closed[15, 15] += 8.0
    ok = ok and np.max(np.abs(z_total - closed)) <= 1e-12
    x_total = np.zeros((16, 16), dtype=complex)
    for pair in ghz4_x_pairs():
        x_total += sum(op.matrix for op in dense_members(pair))
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    ok = ok and np.max(np.abs(x_total - 4.0 * np.kron(np.kron(sx, sx), np.kron(sx, sx)))) <= 1e-12

    # probability normalization and basis completeness
    for d in (2, 3, 5):
        state = max_entangled_qudit(d)
        for i, j in SETTING_PAIRS:
            s1, s2 = MeasurementSetting(1, i, d), MeasurementSetting(2, j, d)
            total = sum(joint_prob(state, s1, s2, a, b) for a in range(d) for b in range(d))
            ok = ok and abs(total - 1.0) <= 1e-12
    for kind, dim in (("z", 2), ("x", 2), ("y", 2), ("z", 4), ("fourier", 4)):
        basis = LocalBasis(kind, dim)
        total = sum(basis_projector(basis, level) for level in range(dim))
        ok = ok and np.max(np.abs(total - np.eye(dim))) <= 1e-12
    _verdict(
        "09 property suites",
        ok,
        f"pair violations {violations1}/{len(pairs) * pair_trials}, "
        f"family violations {violations2}/{len(families) * family_trials}",
    )


def test_criterion_10_seesaw_consistency():
    restarts = 200
    slack = 0.02
    details = []
    ok = True
    phi_result = biseparable_max(build_C_phi(), restarts=restarts, seed=1234)
    for case in GHZ4_CASES:
        ok = ok and phi_result.value <= case.alpha + slack
    details.append(f"ghz4 {phi_result.value:.4f} <= {min(c.alpha for c in GHZ4_CASES)}+{slack}")
    psi_result = biseparable_max(build_C_psi(), restarts=restarts, seed=1234)
    ok = ok and psi_result.value <= SINGLET_ALPHA + slack
    details.append(f"singlet {psi_result.value:.4f} <= {SINGLET_ALPHA}+{slack}")
    g_result = biseparable_max(build_C_ghz4x3(), restarts=restarts, seed=1234)
    ok = ok and g_result.value <= GHZ4X3_ALPHA + slack
    details.append(f"ghz4x3 {g_result.value:.4f} <= {GHZ4X3_ALPHA}+{slack}")
    _verdict("10 seesaw consistency with witness constants", ok, "; ".join(details))
