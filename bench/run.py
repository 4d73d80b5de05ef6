"""radial-gabor benchmark: runs one workload and prints its metrics.

    python3 bench/run.py --workload frame-gauss-d2 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nowhere else.  The seed (default 0; 7919 is
the held-out seed) generates every input.  With ``--trace 0`` the last
stdout line carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced run, in which blocks of traced
and untraced operations alternate so that the tracing overhead can be
reported.  The line before it is a JSON record of the machine,
configuration, sizes, sample counts and gate results.  See NOTES.md.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPS = 3
DEFAULT_SEED = 0
# the reference kernel's time that defines one calibrated second (about
# its median time on the machine the bounds were set on; see NOTES.md)
REF_NOMINAL_S = 0.0012
CAL_INTERVAL_S = 0.2
_REF_X = np.linspace(0.0, 10.0, 1 << 14)
_REF_M = np.linspace(-1.0, 1.0, 96 * 96).reshape(96, 96)
THREAD_ENV = ("RADIAL_GABOR_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
              "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

# per-layer time metric -> (span name, which time); seconds of wall time
# per traced op
SPAN_TIMES = {
    "stft.kernel_self_s": ("stft.kernel", "self"),
    "stft.kernel_wall_s": ("stft.kernel", "wall"),
    "stft.ring_samples_s": ("stft.ring_samples", "busy"),
    "stft.ring_samples_wall_s": ("stft.ring_samples", "wall"),
    "bessel.sph_values_s": ("bessel.sph_values", "busy"),
    "profiles.evaluate_s": ("profiles.evaluate", "busy"),
    "frames.build_s": ("frames.build", "busy"),
    "frames.build_self_s": ("frames.build", "self"),
    "frames.reconstruct_s": ("frames.reconstruct", "busy"),
    "approximation.nterm_s": ("approximation.nterm", "busy"),
    "approximation.linear_s": ("approximation.linear", "busy"),
    "approximation.baseline_s": ("approximation.baseline", "busy"),
    "embeddings.h_sequence_s": ("embeddings.h_sequence", "busy"),
    "lattice.covered_2d_s": ("lattice.covered_2d", "busy"),
    "lattice.table_s": ("lattice.table", "busy"),
    "cli.write_s": ("cli.write", "busy"),
}

# counters the wrappers record, averaged per op over the workload's first
# count_ops traced ops, so they repeat exactly for a fixed seed
COUNTS = (
    "stft.atoms_integrated",
    "stft.phi_grid_points",
    "bessel.sph_values_points",
    "profiles.evaluate_points",
    "frames.atom_matrix_mb",
    "frames.reconstruct_calls",
    "frames.cg_iterations",
    "lattice.angle_count_calls",
    "lattice.covered_fraction",
    "cli.output_bytes",
)

PER_LAYER = {
    **dict.fromkeys(SPAN_TIMES, "s"),
    **dict.fromkeys(COUNTS, "count"),
    "approximation.reconstructs_per_query": "count",
    "frames.pool_threads": "count",
    "trace.op_s_p50": "s",
    "trace.untraced_op_s_p50": "s",
    "trace.overhead_s": "s",
    "trace.spans_per_op": "count",
}


def reference_kernel_s() -> float:
    """Shortest of three runs of a fixed mix of interpreter loop, numpy
    transcendentals and a small matrix product; it never calls the library."""
    best = math.inf
    for _ in range(3):
        t = time.perf_counter()
        acc = 0
        for k in range(6000):
            acc += k * k % 7
        acc += float(np.sum(np.cos(_REF_X) * np.sin(_REF_X)))
        acc += float(np.trace(_REF_M @ _REF_M))
        best = min(best, time.perf_counter() - t)
    return best


class Calibration:
    """Machine-speed samples taken between ops.

    This machine's per-core speed drifts by up to 2x over tens of seconds
    (a fixed loop measured 0.32-0.69 s), which no run length averages out.
    Op times of workloads whose ops run on the load thread are therefore
    scaled by REF_NOMINAL_S over the reference kernel's time interpolated
    at the op's midpoint, i.e. reported in seconds of a machine on which
    the kernel takes REF_NOMINAL_S.  The raw wall times stay in the record.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.ref: list[float] = []

    def sample(self) -> None:
        self.at.append(time.perf_counter())
        self.ref.append(reference_kernel_s())

    def scale(self, at) -> np.ndarray:
        return REF_NOMINAL_S / np.interp(at, self.at, self.ref)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine_info() -> dict:
    import scipy
    from radial_gabor.frames import worker_count

    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": None,
        "worker_count": worker_count(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None
            )
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        info["caches"][f"L{level} {kind}"] = size
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    return info


def end_to_end(durations, works, setup_s) -> dict:
    return {
        "setup_s": setup_s,
        "op_s_p50": float(np.median(durations)),
        "op_s_p90": float(np.percentile(durations, 90)),
        "work_per_s": sum(works) / float(np.sum(durations)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, wl, traced, untraced) -> dict:
    ops = sorted(traced)
    counted = set(ops[: wl.count_ops])
    times = tracing.layer_times(tracer.spans)
    metrics = {
        name: times.get(span, {}).get(kind, 0.0) / len(ops) for name, (span, kind) in SPAN_TIMES.items()
    }
    totals = defaultdict(float)
    for op, name, value in tracer.counts:
        if op in counted:
            totals[name] += value
    for name in COUNTS:
        metrics[name] = totals[name] / len(counted)
    metrics["approximation.reconstructs_per_query"] = metrics["frames.reconstruct_calls"]
    threads = tracing.ring_threads(tracer.spans, "frames.build", "stft.")
    metrics["frames.pool_threads"] = max((threads.get(op, 0) for op in counted), default=0)
    traced_p50 = statistics.median(traced.values())
    untraced_p50 = statistics.median(untraced.values())
    metrics["trace.op_s_p50"] = traced_p50
    metrics["trace.untraced_op_s_p50"] = untraced_p50
    metrics["trace.overhead_s"] = traced_p50 - untraced_p50
    metrics["trace.spans_per_op"] = len(tracer.spans) / len(ops)
    return metrics


def run(args, cls, workdir: Path, import_s: float) -> tuple[dict, dict]:
    setup_times = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        wl = cls(args.seed, workdir)
        setup_times.append(time.perf_counter() - t)
    t = time.perf_counter()
    wl.op(0)  # one untimed warm-up op
    warm_up_s = time.perf_counter() - t
    # wall time: imports and cached frame builds are not what the kernel tracks
    setup_s = import_s + statistics.median(setup_times) + warm_up_s
    setup_results = wl.setup_checks()

    cal = Calibration()

    tracer = tracing.Tracer() if args.trace else None
    min_ops = 2 * wl.count_ops if tracer else 1
    traced, untraced, starts, records, works, errors = {}, {}, {}, {}, {}, {}
    start = next_cal = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < args.seconds:
        if time.perf_counter() >= next_cal:
            cal.sample()
            next_cal = time.perf_counter() + CAL_INTERVAL_S
        is_traced = tracer is not None and (i // wl.trace_block) % 2 == 0
        if is_traced:
            tracer.op = i
            tracing.wrap_layers(tracer)
        t = starts[i] = time.perf_counter()
        try:
            if is_traced:
                with tracer.span("op"):
                    raw = wl.op(i)
            else:
                raw = wl.op(i)
        except Exception:  # an op that raises is a failed op, not a crash
            raw = None
            errors[i] = traceback.format_exc()
        dt = time.perf_counter() - t
        if is_traced:
            tracer.unwrap()
            tracer.op = None
        (traced if is_traced else untraced)[i] = dt
        if raw is not None:
            records[i] = wl.capture(i, raw)
            works[i] = wl.work(records[i])
        i += 1
    cal.sample()

    # end-to-end numbers come from untraced ops only
    wall = np.array(list(untraced.values()))
    scaled = wall * cal.scale(np.array([starts[op] for op in untraced]) + 0.5 * wall) if wl.calibrate else wall
    op_work = [works.get(op, 0) for op in untraced]
    e2e = end_to_end(scaled, op_work, setup_s)
    e2e_wall = end_to_end(wall, op_work, setup_s)

    checked, failures = wl.check(records)
    failures.update({op: "raised: " + tb.strip().splitlines()[-1] for op, tb in errors.items()})
    for tb in errors.values():
        print(tb, file=sys.stderr)
    messages = [f"op {op}: {msg}" for op, msg in sorted(failures.items())]
    messages += [f"setup: {msg}" for msg in setup_results if msg]
    attempted = i + len(setup_results)
    failed = len(messages)

    record = {
        "workload": args.workload,
        "work_unit": wl.work_unit,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "sizes": wl.sizes(),
        "samples": {"ops": i, "untraced_ops": len(untraced), "traced_ops": len(traced),
                    "setup_reps": SETUP_REPS, "import_s": import_s, "setup_rep_s": setup_times,
                    "warm_up_s": warm_up_s},
        "gates": {"ops_checked": checked, "setup_items": len(setup_results), "failures": messages[:20]},
        "error_rate": failed / attempted,
        "end_to_end": e2e,
        "end_to_end_wall": e2e_wall,
        "calibration": {"applied": wl.calibrate, "ref_nominal_s": REF_NOMINAL_S, "samples": len(cal.ref),
                        "ref_s_median": statistics.median(cal.ref),
                        "ref_s_min": min(cal.ref), "ref_s_max": max(cal.ref)},
    }
    if tracer:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-seed{args.seed}.csv"
        tracer.write(path)
        record["trace_file"] = str(path.relative_to(ROOT))
        metrics = per_layer(tracer, wl, traced, untraced)
        units = PER_LAYER
    else:
        metrics, units = e2e, END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return record, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "radial_gabor" / "__init__.py").is_file():
        print(f"bench: no library sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import radial_gabor
    from workloads import WORKLOADS

    if not Path(radial_gabor.__file__).resolve().is_relative_to(SRC):
        print(f"bench: radial_gabor was imported from {radial_gabor.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        record, result = run(args, WORKLOADS[args.workload], workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only once no other run uses it
        except OSError:
            pass
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
