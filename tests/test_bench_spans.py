"""The benchmark's tracer wraps qcorr names with `getattr`; each must exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    spans = _spans()
    for layer, names in spans.FUNCTIONS.items():
        module = importlib.import_module(f"qcorr.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    for layer, cls_name, method in spans.METHODS:
        cls = getattr(importlib.import_module(f"qcorr.{layer}"), cls_name, None)
        assert cls is not None and method in vars(cls), f"{layer}.{cls_name}.{method}"
