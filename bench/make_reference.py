"""Capture bench/reference.json: the outputs the benchmark's checks compare against.

    python3 bench/make_reference.py

Run it only at a commit whose outputs are known good; the file records, for
each `pipelines` command, its JSON report at --seed 1234 less the `versions`
and `seed` fields, and for each `seesaw` subject the biseparable maximum.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs src/ on the path)
from qcorr import correlators, witnesses  # noqa: E402

SEED = 1234


def main() -> None:
    pipelines = {}
    for command, argv in workloads.COMMANDS.items():
        result = workloads.run_forked(argv + ["--format", "json", "--seed", str(SEED)])
        if result.get("code") != 0:
            raise SystemExit(f"{command} failed: {result}")
        pipelines[command] = workloads.comparable(json.loads(result["stdout"]))
    seesaw = {
        name: witnesses.biseparable_max(build(), restarts=workloads.RESTARTS, seed=SEED).value
        for name, build in (
            ("phi", correlators.build_C_phi),
            ("psi", correlators.build_C_psi),
            ("ghz4x3", correlators.build_C_ghz4x3),
        )
    }
    reference = {"pipelines": pipelines, "seesaw": seesaw}
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
