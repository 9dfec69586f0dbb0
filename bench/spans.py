"""Spans recorded by the benchmark around calls into qcorr's public functions.

Nothing under `src/` is edited.  `Tracer.install()` replaces each traced
public name with a recording wrapper in every qcorr module that holds it, so
calls made through names imported by value (`cli` and `correlators` import
`expectation`, `build_C_*` and similar names that way) are caught too.
`uninstall()` puts the originals back, so untraced passes run the unmodified
library.

Spans carry a name, start, end, parent and phase (-1 for set-up, else the pass
index).  They are kept in flat in-memory arrays and written once, at the end.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from array import array

import numpy as np

LAYERS = ("cli", "report", "correlators", "core", "states", "witnesses", "bell")

#: Public functions traced, by layer (= qcorr module).
FUNCTIONS = {
    "cli": ("main",),
    "core": ("expectation", "min_eigenvalue", "spectral_norm", "schmidt_max_sq", "combine_bipartite"),
    "states": ("ghz4", "singlet4", "ghz_4x3", "max_entangled_qudit", "mix_white_noise"),
    "correlators": (
        "build_C_phi",
        "build_C_psi",
        "build_C_ghz4x3",
        "all_ghz4x3_families",
        "ghz4x3_correlators",
        "singlet_correlators",
        "ghz4_z_pairs",
        "ghz4_x_pairs",
        "random_product_state",
        "prop1_test",
        "prop2_test",
        "count_prop1_violations",
        "count_prop2_violations",
    ),
    "witnesses": ("biseparable_max", "verify_dominance", "noise_tolerance", "projector_witness"),
    "bell": ("bell_report", "quantum_value", "correlation", "joint_prob", "lhv_max"),
}

#: Public methods traced: (layer, class, method).  Constructors carry the
#: validation work (norm, hermiticity, PSD eigendecomposition).
METHODS = (
    ("core", "PureState", "__init__"),
    ("core", "DensityMatrix", "__init__"),
    ("core", "HermitianOperator", "__init__"),
    ("report", "Report", "render"),
)

SUBJECTS = {"build_C_phi": "phi", "build_C_psi": "psi", "build_C_ghz4x3": "ghz4x3"}
FAMILY_BUILDERS = (
    "correlators.all_ghz4x3_families",
    "correlators.ghz4x3_correlators",
    "correlators.singlet_correlators",
    "correlators.ghz4_z_pairs",
    "correlators.ghz4_x_pairs",
)
BELL_EVALUATIONS = ("bell.quantum_value", "bell.correlation")
SETUP = -1


def _modules():
    import qcorr
    from qcorr import bell, cli, core, correlators, report, states, witnesses

    return {
        "qcorr": qcorr,
        "cli": cli,
        "core": core,
        "states": states,
        "correlators": correlators,
        "witnesses": witnesses,
        "bell": bell,
        "report": report,
    }


class _LinalgProxy:
    """numpy.linalg as seen by `qcorr.witnesses`, counting each eigensolved matrix."""

    def __init__(self, on_eigh):
        self._on_eigh = on_eigh

    def __getattr__(self, name):
        return getattr(np.linalg, name)

    def eigh(self, a, *args, **kwargs):
        shape = np.shape(a)
        self._on_eigh(math.prod(shape[:-2]))
        return np.linalg.eigh(a, *args, **kwargs)


class _NumpyProxy:
    def __init__(self, linalg):
        self.linalg = linalg

    def __getattr__(self, name):
        return getattr(np, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.phase_of = array("i")
        self.failed = array("b")
        self.attrs: dict[int, dict] = {}
        self.counts: dict[tuple[int, str], float] = {}
        self.phase = SETUP
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._subjects: dict[int, str] = {}

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: float = 1) -> None:
        slot = (self.phase, key)
        self.counts[slot] = self.counts.get(slot, 0) + amount

    def _wrap(self, name: str, fn, on_call=None, on_return=None):
        nid = self._id(name)
        signature = inspect.signature(fn) if on_call else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.start.append(0.0)
            self.end.append(0.0)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.phase_of.append(self.phase)
            self.failed.append(0)
            if on_call is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_call(idx, bound.arguments)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[idx] = 1
                raise
            finally:
                self.end[idx] = time.perf_counter()
                self.start[idx] = t0
                self._stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    # -- per-function annotations -------------------------------------------

    def _hooks(self, name: str):
        from qcorr.core import DensityMatrix, PureState

        if name in SUBJECTS:
            subject = SUBJECTS[name]

            def remember(op):
                self._subjects[id(op)] = subject

            return None, remember
        if name == "biseparable_max":

            def seesaw(idx, a):
                op = a["op"]
                n_cuts = 2 ** (op.structure.n_parties - 1) - 1
                self.attrs[idx] = {"subject": self._subjects.get(id(op), "other"), "eigh": 0}
                self.count("witnesses.seesaw_restarts", int(a["restarts"]) * n_cuts)

            return seesaw, None
        if name in ("quantum_value", "correlation"):

            def kind(idx, a):
                self.attrs[idx] = {"kind": "pure" if isinstance(a["state"], PureState) else "mixed"}

            return kind, None
        if name == "joint_prob":

            def lookup(idx, a):
                self.count("bell.joint_prob_calls")
                state = a["state"]
                if isinstance(state, DensityMatrix):
                    self.count("bell.mixed_bytes_computed", 16 * state.structure.dim**2)

            return lookup, None
        if name == "mix_white_noise":

            def noise(idx, a):
                self.count("states.noise_matrix_bytes", 16 * a["state"].structure.dim ** 2)

            return noise, None
        if name == "lhv_max":

            def assignments(idx, a):
                self.count("bell.lhv_assignments", int(a["d"]) ** 4)

            return assignments, None
        return None, None

    def _on_eigh(self, matrices: int) -> None:
        seesaw_id = self._ids["witnesses.biseparable_max"]
        for idx in reversed(self._stack):
            if self.name_id[idx] == seesaw_id:
                self.attrs[idx]["eigh"] += matrices
                return

    # -- install / uninstall ----------------------------------------------------

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        if self._saved:
            return
        mods = _modules()
        holders = list(mods.values())
        for layer, names in FUNCTIONS.items():
            for name in names:
                original = getattr(mods[layer], name)
                on_call, on_return = self._hooks(name)
                wrapper = self._wrap(f"{layer}.{name}", original, on_call, on_return)
                for holder in holders:
                    if getattr(holder, name, None) is original:
                        self._saved.append((holder, name, original))
                        setattr(holder, name, wrapper)
        for layer, cls_name, method in METHODS:
            cls = getattr(mods[layer], cls_name)
            original = cls.__dict__[method]
            label = cls_name if method == "__init__" else f"{cls_name}.{method}"
            self._saved.append((cls, method, original))
            setattr(cls, method, self._wrap(f"{layer}.{label}", original))
        witnesses = mods["witnesses"]
        self._saved.append((witnesses, "np", witnesses.np))
        witnesses.np = _NumpyProxy(_LinalgProxy(self._on_eigh))

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._saved):
            setattr(holder, name, original)
        self._saved.clear()

    # -- forked children -------------------------------------------------------

    def fork_reset(self) -> None:
        """In a forked child: drop the parent's spans so only the child's are sent back."""
        for arr in (self.name_id, self.start, self.end, self.parent, self.phase_of, self.failed):
            del arr[:]
        self.attrs.clear()
        self.counts.clear()
        self._stack.clear()

    def export(self) -> dict:
        return {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "failed": self.failed.tolist(),
            "attrs": {str(k): v for k, v in self.attrs.items()},
            "counts": [[key, value] for (_, key), value in self.counts.items()],
        }

    def merge(self, child: dict) -> None:
        """Append a forked child's spans under the current phase."""
        offset = len(self.start)
        remap = [self._id(name) for name in child["names"]]
        self.name_id.extend(remap[i] for i in child["name_id"])
        self.start.extend(child["start"])
        self.end.extend(child["end"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in child["parent"])
        self.phase_of.extend([self.phase] * len(child["start"]))
        self.failed.extend(child["failed"])
        for k, v in child["attrs"].items():
            self.attrs[int(k) + offset] = v
        for key, value in child["counts"]:
            self.count(key, value)

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            phase=np.frombuffer(self.phase_of, dtype=np.int32),
            failed=np.frombuffer(self.failed, dtype=np.int8),
        )

    # -- per-layer metrics -----------------------------------------------------

    def metrics(self, traced_passes: list[int]) -> dict[str, float]:
        """Per-layer metrics; see DESIGN.md for the definition of each."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        phase = np.frombuffer(self.phase_of, dtype=np.int32)
        failed = np.frombuffer(self.failed, dtype=np.int8)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child_time
        span_layer = np.array([n.split(".")[0] for n in self.names])[nid]
        first = traced_passes[0]
        in_passes = np.isin(phase, traced_passes)

        def mask(*span_names):
            ids = [self._ids[n] for n in span_names if n in self._ids]
            return np.isin(nid, ids)

        def mean(values, m):
            return float(values[m].mean()) if m.any() else 0.0

        def per_pass_total(m):
            return float(np.median([dur[m & (phase == p)].sum() for p in traced_passes]))

        def calls(*span_names):
            return int((mask(*span_names) & (phase == first)).sum())

        def first_count(key):
            return self.counts.get((first, key), 0)

        def outermost(m):
            out = m.copy()
            for idx in np.flatnonzero(m):
                p = parent[idx]
                while p >= 0:
                    if m[p]:
                        out[idx] = False
                        break
                    p = parent[p]
            return out

        def kind_mask(kind):
            m = np.zeros(len(dur), dtype=bool)
            m[[i for i, a in self.attrs.items() if a.get("kind") == kind]] = True
            return m

        out: dict[str, float] = {}
        for layer in LAYERS:
            in_layer = span_layer == layer
            out[f"{layer}.self_ms"] = 1e3 * float(
                np.median([self_time[in_layer & (phase == p)].sum() for p in traced_passes])
            )
            out[f"{layer}.errors"] = int((failed[in_layer] != 0).sum())
        out["report.render_ms"] = 1e3 * mean(dur, mask("report.Report.render"))
        for fn in SUBJECTS:
            out[f"correlators.{fn}_ms"] = 1e3 * mean(dur, mask(f"correlators.{fn}"))
        builders = outermost(mask(*FAMILY_BUILDERS))
        building_phases = sorted(set(phase[builders].tolist()))
        out["correlators.families_ms"] = (
            1e3 * float(dur[builders].sum()) / len(building_phases) if building_phases else 0.0
        )
        out["correlators.sample_us"] = 1e6 * mean(dur, mask("correlators.random_product_state"))
        out["correlators.states_sampled"] = calls("correlators.random_product_state")
        out["correlators.sign_test_us"] = 1e6 * mean(dur, mask("correlators.prop1_test", "correlators.prop2_test"))
        out["correlators.sign_tests"] = calls("correlators.prop1_test", "correlators.prop2_test")
        out["core.expectation_us"] = 1e6 * mean(dur, mask("core.expectation"))
        out["core.expectation_calls"] = calls("core.expectation")
        out["core.eigen_ms"] = 1e3 * mean(dur, mask("core.min_eigenvalue", "core.spectral_norm"))
        out["core.schmidt_us"] = 1e6 * mean(dur, mask("core.schmidt_max_sq"))
        out["core.pure_state_us"] = 1e6 * mean(dur, mask("core.PureState"))
        out["core.density_matrix_ms"] = 1e3 * mean(dur, mask("core.DensityMatrix"))
        out["states.mix_white_noise_ms"] = 1e3 * mean(dur, mask("states.mix_white_noise"))
        out["states.noise_matrix_mb_computed"] = first_count("states.noise_matrix_bytes") / 1e6

        seesaw = np.flatnonzero(mask("witnesses.biseparable_max"))
        for subject in SUBJECTS.values():
            spans = [i for i in seesaw if self.attrs[i]["subject"] == subject]
            out[f"witnesses.seesaw_{subject}_s"] = float(dur[spans].mean()) if spans else 0.0
        out["witnesses.seesaw_restarts"] = first_count("witnesses.seesaw_restarts")
        out["witnesses.seesaw_alternations"] = (
            sum(self.attrs[i]["eigh"] for i in seesaw if phase[i] == first) / 2
        )
        eigh_total = sum(self.attrs[i]["eigh"] for i in seesaw)
        out["witnesses.us_per_alternation"] = (
            1e6 * float(dur[seesaw].sum()) / (eigh_total / 2) if eigh_total else 0.0
        )
        out["witnesses.dominance_ms"] = 1e3 * mean(dur, mask("witnesses.verify_dominance"))
        out["witnesses.noise_tolerance_us"] = 1e6 * mean(dur, mask("witnesses.noise_tolerance"))
        out["witnesses.projector_witness_us"] = 1e6 * mean(dur, mask("witnesses.projector_witness"))

        evaluations = outermost(mask(*BELL_EVALUATIONS))
        out["bell.quantum_value_pure_ms"] = 1e3 * per_pass_total(evaluations & kind_mask("pure"))
        out["bell.quantum_value_mixed_ms"] = 1e3 * per_pass_total(evaluations & kind_mask("mixed"))
        lhv = mask("bell.lhv_max")
        out["bell.lhv_max_ms"] = 1e3 * mean(dur, lhv)
        lhv_time = float(dur[lhv & in_passes].sum())
        lhv_work = sum(self.counts.get((p, "bell.lhv_assignments"), 0) for p in traced_passes)
        out["bell.lhv_assignments_per_s"] = lhv_work / lhv_time if lhv_time > 0 else 0.0
        out["bell.mixed_bytes_computed"] = first_count("bell.mixed_bytes_computed")
        out["bell.joint_prob_calls"] = first_count("bell.joint_prob_calls")
        return out
