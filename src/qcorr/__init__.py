"""Correlator-based entanglement witnesses and a d-level bipartite Bell functional.

The package builds the correlator operators whose joint sign pattern certifies
correlation across a bipartition, assembles them into entanglement witnesses
for three reference states (tunable four-qubit GHZ, four-qubit singlet,
four-level tripartite GHZ), and evaluates a two-qudit Bell functional whose
deterministic local bound is 2 at every dimension.

Each public name resolves on first use (PEP 562), so `import qcorr` loads
neither numpy nor any submodule until a name or submodule is asked for.
"""

import importlib

__version__ = "0.1.0"

#: The public names, by the submodule that defines them.
_EXPORTS = {
    "core": """DensityMatrix EigensolverError HermitianOperator PartyStructure PureState
        WhiteNoiseState bipartitions combine_bipartite expectation min_eigenvalue
        outcome_probabilities schmidt_max_sq spectral_norm""",
    "states": "ghz4 ghz_4x3 max_entangled_qudit mix_white_noise singlet4",
    "correlators": """CorrelatorFamily CorrelatorPair DERANGEMENTS_4 LocalBasis SIGN_MARGIN
        all_ghz4x3_families build_C_ghz4x3 build_C_phi build_C_psi ghz4_x_pairs ghz4_z_pairs
        ghz4x3_correlators member_expectations prop1_test prop2_test random_product_state
        random_product_states singlet_correlators""",
    "witnesses": """DominanceCertificate GHZ4_CASES MaxCertificate ProjectorWitness SeesawResult
        Witness WitnessNeverFiresError biseparable_max certified_max noise_tolerance
        projector_witness verify_dominance""",
    "bell": """BellInvariantError BellReport LhvAssignment MeasurementSetting analytic_value
        bell_report chsh_reduction_check joint_prob lhv_max noise_threshold outcome_table
        quantum_value""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
