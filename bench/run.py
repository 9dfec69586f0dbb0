"""qcorr benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (pipelines, signs, bell, seesaw; see DESIGN.md) from the root
of a source checkout, against the `qcorr` package under `src/`.  It measures
whole passes over the workload's op list until S seconds have passed, checks
every op's output, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones, from spans recorded around calls into each qcorr module.  The
line before it carries the workload's named metrics and the environment, and
the full record goes to .bench_out/.
"""

import time

T0 = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: One BLAS thread: load comes from one process, and forking stays safe.
BLAS_THREADS = 1
#: Extra fresh-interpreter set-ups per run; setup_s is the median of these and
#: the run's own set-up.
SETUP_PROBES = 4
#: The raw op tail is the latency with at least this many ops above it.
TAIL_OPS = 10
#: Each op's median latency is taken over at least this many passes.
MIN_PASSES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "cheapest_class_ms": "ms",
    "costliest_class_ms": "ms",
}


def per_layer_unit(name: str) -> str:
    for suffix, unit in (
        ("_per_alternation", "us"),
        ("_ms", "ms"),
        ("_us", "us"),
        ("_per_s", "1/s"),
        ("_s", "s"),
        ("_mb_computed", "MB"),
        ("_bytes_computed", "bytes"),
        ("_frac", "frac"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_library():
    """Import qcorr from this checkout's src/ and nowhere else."""
    if not (SRC / "qcorr" / "__init__.py").is_file():
        raise ImportError(f"no qcorr package under {SRC}")
    sys.path.insert(0, str(SRC))
    import qcorr

    if Path(qcorr.__file__).resolve().parent != SRC / "qcorr":
        raise ImportError(f"qcorr imported from {qcorr.__file__}, not from {SRC}")
    return qcorr


class Sample(NamedTuple):
    cls: str
    key: str
    latency: float
    error: str | None


def run_pass(ops, cpus=(), turn: int = 0) -> tuple[float, list[Sample]]:
    """Run ops in order; returns the pass time and one sample per op.  With
    `cpus`, op i is pinned to cpus[(turn + i) % len(cpus)]."""
    results = []
    t_pass = time.perf_counter()
    for i, op in enumerate(ops):
        if cpus:
            os.sched_setaffinity(0, {cpus[(turn + i) % len(cpus)]})
        t0 = time.perf_counter()
        error = None
        try:
            latency = op.fn()
        except Exception as exc:
            latency = None
            error = f"{op.cls}: {type(exc).__name__}: {exc}"
        if latency is None:
            latency = time.perf_counter() - t0
        results.append(Sample(op.cls, op.key, latency, error))
    return time.perf_counter() - t_pass, results


def probe_setup(args, index: int, cpu: int) -> dict:
    """One set-up in a fresh interpreter pinned to `cpu`, with its own seed."""
    seed = (args.seed * 1_000_003 + index + 1) % 2**31
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(seed),
        "--seconds", "0",
        "--setup-probe",
    ]
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})  # the child inherits it
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    finally:
        os.sched_setaffinity(0, cpus)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def cache_sizes() -> dict:
    """L1d/L2/L3 sizes in bytes from glibc's sysconf (cpuid on x86)."""
    import ctypes

    names = {"l1d_bytes": 188, "l2_bytes": 191, "llc_bytes": 194}  # _SC_LEVEL*_CACHE_SIZE
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.restype = ctypes.c_long
        return {k: int(libc.sysconf(v)) for k, v in names.items()}
    except (OSError, AttributeError):
        return {k: None for k in names}


def environment(args, workload) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except Exception:
        blas = {"name": None, "version": None}
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        **cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "pinning": "op i of pass k on cpu_affinity[(k + i) % len]",
        "git_commit": git_commit(),
        "seed": args.seed,
        "sizes": workload.sizes(),
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least TAIL_OPS ops above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_OPS:
        return ordered[-1], 100.0
    return ordered[n - TAIL_OPS - 1], 100.0 * (n - TAIL_OPS) / n


def key_latencies(passes) -> dict[str, tuple[str, float]]:
    """Per op key: (class, median latency over every sample in the passes).
    Ops with one key do the same work on fresh inputs."""
    samples: dict[str, tuple[str, list[float]]] = {}
    for _, _, run in passes:
        for s in run:
            samples.setdefault(s.key, (s.cls, []))[1].append(s.latency)
    return {key: (cls, statistics.median(lats)) for key, (cls, lats) in samples.items()}


def class_times(typical, workload) -> dict[str, float]:
    """Per op class, the sum of its keys' median latencies: one of each of its ops."""
    return {cls: sum(lat for c, lat in typical.values() if c == cls) for cls in workload.classes}


def measure(workload, seconds: float, tracer) -> tuple[list, list]:
    """Whole passes until `seconds` have passed and MIN_PASSES untraced passes
    are done.  With a tracer, passes alternate untraced / traced; returns
    (untraced, traced) passes as (index, pass time, samples).

    Each op is pinned to the next CPU of the run's affinity set in turn, and
    one op of the list lands on a different CPU in consecutive passes.  On a
    shared host each CPU has slow phases of seconds to tens of seconds, seldom
    on all CPUs at once, so an op's median latency over the run stays steady."""
    cpus = sorted(os.sched_getaffinity(0))
    untraced, traced = [], []
    start = time.perf_counter()
    index = 0
    while True:
        ops = workload.ops()
        if tracer is not None and index % 2 == 1:
            tracer.phase = index
            tracer.install()
            try:
                traced.append((index,) + run_pass(ops, cpus, index))
            finally:
                tracer.uninstall()
        else:
            untraced.append((index,) + run_pass(ops, cpus, index))
        index += 1
        done = time.perf_counter() - start >= seconds and len(untraced) >= MIN_PASSES
        if done and (tracer is None or len(traced) >= MIN_PASSES):
            os.sched_setaffinity(0, cpus)
            return untraced, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    try:
        import_library()
    except ImportError as exc:
        print(f"cannot import qcorr: {exc}", file=sys.stderr)
        return 2
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = spans.Tracer() if args.trace else None
    workload = workloads.WORKLOADS[args.workload](args.seed, tracer)

    errors: list[str] = []
    attempted = 0
    if tracer is not None:
        tracer.install()
    try:
        workload.setup()
        one_of_each = {op.key: op for op in workload.ops()}
        _, warm = run_pass(one_of_each.values())
    finally:
        if tracer is not None:
            tracer.uninstall()
    own_setup = time.perf_counter() - T0
    attempted += len(warm)
    errors += [s.error for s in warm if s.error]
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup, "attempted": attempted, "failed": len(errors)}))
        return 0

    untraced, traced = measure(workload, args.seconds, tracer)
    for _, _, samples in untraced + traced:
        attempted += len(samples)
        errors += [s.error for s in samples if s.error]

    record = {"workload": args.workload, "trace": args.trace, "env": environment(args, workload)}
    if tracer is None:
        setups = [own_setup]
        cpus = sorted(os.sched_getaffinity(0))
        for i in range(SETUP_PROBES):
            try:
                probe = probe_setup(args, i, cpus[i % len(cpus)])
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
                attempted += 1
                errors.append(f"setup probe: {exc}")
                continue
            setups.append(probe["setup_s"])
            attempted += probe["attempted"]
            errors += ["setup probe: a warm-up op failed"] * probe["failed"]
        typical = key_latencies(untraced)
        classes = class_times(typical, workload)
        values = {
            "setup_s": statistics.median(setups),
            "pass_s": sum(lat for _, lat in typical.values()),
            "op_p50_ms": 1e3 * statistics.median(typical[s.key][1] for s in untraced[0][2]),
            "peak_rss_mb": peak_rss_mb(),
            "cheapest_class_ms": 1e3 * min(classes.values()),
            "costliest_class_ms": 1e3 * max(classes.values()),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        named = {
            name: {"value": classes[cls] * (1e3 if unit == "ms" else 1.0), "unit": unit}
            for cls, (name, unit) in workload.classes.items()
        }
        latencies = [s.latency for _, _, samples in untraced for s in samples]
        tail_s, tail_pct = tail(latencies)
        record["summary"] = {
            **named,
            "fail_frac": len(errors) / attempted,
            "raw_pass_median_s": statistics.median(t for _, t, _ in untraced),
            "raw_op_p50_ms": 1e3 * statistics.median(latencies),
            "raw_op_tail_ms": 1e3 * tail_s,
            "raw_op_tail_pct": tail_pct,
            "op_count": len(latencies),
            "passes": len(untraced),
            "setup_samples_s": setups,
        }
    else:
        values = tracer.metrics([index for index, _, _ in traced])
        untraced_s = sum(lat for _, lat in key_latencies(untraced).values())
        traced_s = sum(lat for _, lat in key_latencies(traced).values())
        values["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
        record["summary"] = {
            "untraced_passes": len(untraced),
            "traced_passes": len(traced),
            "spans": len(tracer.start),
        }
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": metrics,
    }
    record.update(result, errors=errors[:20])
    record["passes"] = [
        {"index": i, "pass_s": t, "ops": [[s.key, s.latency] for s in samples]}
        for i, t, samples in untraced
    ]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.save(OUT / f"{args.workload}-spans.npz")
    print(json.dumps({"summary": record["summary"], "env": record["env"], "errors": errors[:5]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
