"""The lazy package namespace and the `qcorr` command's one-BLAS-thread default,
each checked in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcorr

SRC = str(Path(qcorr.__file__).resolve().parents[1])
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fresh(code, **env):
    """The JSON that `code` prints in a fresh interpreter whose environment has
    none of `BLAS_VARS` apart from those given in `env`."""
    base = {key: value for key, value in os.environ.items() if key not in BLAS_VARS}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=SRC, env={**base, **env}
    ).stdout
    return json.loads(out)


def test_import_loads_no_numpy_and_no_submodule():
    loaded = _fresh("import json, sys, qcorr; print(json.dumps(sorted(sys.modules)))")
    assert "numpy" not in loaded
    assert [name for name in loaded if name.startswith("qcorr")] == ["qcorr"]


def test_every_public_name_is_its_defining_modules_object():
    code = """
import importlib, json, qcorr
bound = {}
exec("from qcorr import *", bound)
print(json.dumps({
    "all": qcorr.__all__,
    "star": sorted(name for name in bound if name != "__builtins__"),
    "same": [
        getattr(qcorr, name) is getattr(importlib.import_module("qcorr." + home), name)
        and getattr(getattr(qcorr, name), "__module__", "qcorr." + home) == "qcorr." + home
        for name, home in sorted(qcorr._HOME.items())
    ],
}))
"""
    got = _fresh(code)
    assert len(got["all"]) == 60
    assert got["star"] == sorted(got["all"])
    assert got["same"] == [True] * 60


def test_submodules_resolve_and_unknown_names_raise():
    code = """
import json, qcorr
print(json.dumps([qcorr.core.__name__, qcorr.bell.__name__, getattr(qcorr, "correlation", None),
                  getattr(qcorr, "cli", None), set(qcorr.__all__) <= set(dir(qcorr))]))
"""
    assert _fresh(code) == ["qcorr.core", "qcorr.bell", None, None, True]
    with pytest.raises(AttributeError, match="no attribute 'bogus'"):
        qcorr.bogus


_ENV = "import json, os; print(json.dumps([os.environ.get(var) for var in %r]))" % (BLAS_VARS,)


@pytest.mark.parametrize(
    "first, env, expected",
    [
        ("import qcorr.cli", {}, ["1", "1", "1"]),
        ("import qcorr.cli", {"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"]),
        ("import numpy, qcorr.cli", {}, [None, None, None]),
        ("import numpy, qcorr.cli", {"OPENBLAS_NUM_THREADS": "2"}, ["2", None, None]),
    ],
    ids=["unset", "user-set", "numpy-first", "numpy-first-user-set"],
)
def test_command_defaults_to_one_blas_thread_before_numpy_loads(first, env, expected):
    assert _fresh(f"{first}; {_ENV}", **env) == expected
