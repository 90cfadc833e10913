"""Benchmark: time to a verified result on four chernforms workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 (end-to-end metrics): whole units run until their timed
seconds reach S, with a speed probe sampling the machine during each
unit, and set-up is timed in fresh child processes started between
units, spread in proportion to the timed seconds. Every unit is checked against its closed form at the gate
pinned in tests/test_acceptance.py; a unit whose check fails counts as
failed.

--trace 1 (per-layer metrics): a fixed number of units, sized from S, run
once untraced and once with spans on the package's public functions. The
two passes must agree bit for bit; their time difference is the tracing
overhead. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 11
SETUP_TIMEOUT_S = 60
# An exact result has err 0; its margin is read as 16 decades, not infinity.
RATIO_FLOOR = 1e-16


def _load_package():
    """Import chernforms from this checkout's src/, never from elsewhere."""
    if not (SRC / "chernforms" / "__init__.py").is_file():
        raise SystemExit(f"error: no chernforms sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import chernforms

    if Path(chernforms.__file__).resolve().parent != SRC / "chernforms":
        raise SystemExit(f"error: imported chernforms from {chernforms.__file__}")


def setup():
    """Imports, set-up objects and warm caches; returns (workloads module, world)."""
    _load_package()
    import workloads

    world = workloads.build_world()
    workloads.warm_caches()
    return workloads, world


def setup_sample() -> float:
    """Set-up seconds of one fresh process, measured from its own start."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


class SpeedProbe:
    """Times a small fixed computation every PERIOD_S seconds while active.

    The computation uses no chernforms code. It runs from a SIGALRM
    handler, so it executes on the same thread and core as the unit it
    interrupts, and its timings follow how fast the machine is running
    the unit. ``mix`` = (Python loop iterations, (64, 8, 8) complex
    matmuls, (5, 64, 64) complex matmuls) gives it about the workload's
    own split between interpreter work, small batched products and BLAS,
    because contention slows those by different amounts. The time spent
    in it is subtracted from the unit times.
    """

    PERIOD_S = 0.25

    def __init__(self, mix: tuple[int, int, int]):
        import numpy as np

        rng = np.random.default_rng(0)
        self._mix = mix
        self._matmul = np.matmul
        self._small = (rng.normal(size=(64, 8, 8)) + 1j * rng.normal(size=(64, 8, 8))) / 8
        self._large = (rng.normal(size=(5, 64, 64)) + 1j * rng.normal(size=(5, 64, 64))) / 64
        self.samples: list[float] = []
        self._previous = None

    def sample(self, *_signal_args) -> None:
        python_iters, small_products, large_products = self._mix
        start = time.perf_counter()
        acc: dict = {}
        for i in range(python_iters):
            key = (i % 7, i % 13)
            acc[key] = acc.get(key, 0j) + complex(i, 1) * 0.5
        for _ in range(small_products):
            self._matmul(self._small, self._small)
        for _ in range(large_products):
            self._matmul(self._large, self._large)
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def run_unit(workloads, world, name, item):
    """One unit; an exception fails the unit's checks instead of the run."""
    try:
        return workloads.WORKLOADS[name].unit(world, item)
    except Exception:  # noqa: BLE001 - the benchmark loop must keep running
        traceback.print_exc()
        return None


def _tally(results) -> tuple[int, int, float, list[float]]:
    """Checks attempted and failed, the largest err/tol over gated checks,
    and each completed unit's margin in decades below its gate."""
    attempted = failed = 0
    worst = 0.0
    margins = []
    for res in results:
        if res is None:
            attempted += 1
            failed += 1
            continue
        ratios = [c.err / c.tol for c in res.checks if c.tol > 0.0]
        attempted += len(res.checks)
        failed += sum(not c.passed for c in res.checks)
        worst = max([worst, *ratios])
        margins.append(-math.log10(max(max(ratios), RATIO_FLOOR)))
    return attempted, failed, worst, margins


def untraced_run(workloads, world, name, seed, seconds):
    inputs = workloads.unit_inputs(name, seed)
    probe = SpeedProbe(workloads.WORKLOADS[name].probe_mix)
    probe.sample()  # warms the probe's code paths; taken outside any unit
    warmup_s = probe.samples.pop()
    results, times, samples = [], [], [setup_sample()]
    while sum(times) < seconds:
        item = next(inputs)
        probed = sum(probe.samples)
        t0 = time.perf_counter()
        with probe:
            results.append(run_unit(workloads, world, name, item))
        times.append(time.perf_counter() - t0 - (sum(probe.samples) - probed))
        # Set-up samples spread over the run see the machine at different
        # moments; back to back they share one slow or fast spell.
        due = min(SETUP_SAMPLES, math.ceil(SETUP_SAMPLES * sum(times) / seconds))
        samples += [setup_sample() for _ in range(due - len(samples))]
    samples += [setup_sample() for _ in range(SETUP_SAMPLES - len(samples))]
    # Units shorter than the probe period would leave no in-unit sample.
    probe_s = statistics.fmean(probe.samples or [warmup_s])
    attempted, failed, worst, margins = _tally(results)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(
        f"# {name} seed={seed}: {len(times)} units, unit s {[round(t, 4) for t in times]}; "
        f"probe: {len(probe.samples)} samples, mean {probe_s:.6f} s; "
        f"setup samples {[round(t, 4) for t in samples]}; "
        f"max_err_ratio {worst:.4g}; check_fail_frac {failed / attempted:.4g}"
    )
    metrics = {
        "unit_time_ref": (statistics.fmean(times) / probe_s, "ref"),
        "setup_s": (statistics.median(samples), "s"),
        "margin_decades": (statistics.fmean(margins) if margins else 0.0, "decades"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return attempted, failed, True, metrics


def _bits(res) -> tuple:
    if res is None:
        return ()
    return tuple((v.real.hex(), v.imag.hex()) for v in res.values)


def traced_run(workloads, world, name, seed, seconds):
    import tracing

    unit_cost = workloads.WORKLOADS[name].unit_cost_s
    n_units = max(1, math.floor(seconds / (2.0 * unit_cost)))
    inputs = workloads.unit_inputs(name, seed)
    items = [next(inputs) for _ in range(n_units)]

    t0 = time.perf_counter()
    plain = [run_unit(workloads, world, name, item) for item in items]
    plain_s = time.perf_counter() - t0

    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with tracing.traced() as tracer:
        traced = [run_unit(workloads, world, name, item) for item in items]
    traced_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0

    attempted, failed, worst, _ = _tally(traced)
    layer = tracer.metrics()
    problems = []
    if [_bits(r) for r in plain] != [_bits(r) for r in traced]:
        problems.append("traced outputs differ from untraced outputs")
    exp_calls = layer["superlinalg.graded_exp.calls"][0]
    if (exp_calls == 0) != (name == "thom_fiber"):
        problems.append(f"graded_exp.calls is {exp_calls} on {name}")
    if name == "box_integral":
        want = n_units * workloads.BOX_ORDER**2
        nodes = layer["relative.integrate_compact.nodes"][0]
        if nodes != want:
            problems.append(f"integrate_compact.nodes {nodes} != {want}")
    for problem in problems:
        print(f"# trace check failed: {problem}", file=sys.stderr)

    metrics = dict(layer)
    metrics["bench.units"] = (n_units, "count")
    metrics["checks.max_err_ratio"] = (worst, "ratio")
    metrics["checks.fail_frac"] = (failed / attempted, "ratio")
    metrics["process.wall_s"] = (traced_s, "s")
    metrics["process.cpu_s"] = (cpu_s, "s")
    metrics["process.trace_overhead_s"] = (traced_s - plain_s, "s")
    print(f"# {name} seed={seed}: {n_units} units, untraced {plain_s:.3f} s, traced {traced_s:.3f} s")
    return attempted, failed, not problems, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # One BLAS thread: lower spread than two threads on two cores, and the
    # numbers then measure the package rather than the thread pool. Both
    # settings must be in place before numpy is first imported, in setup().
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # The verification CLI reads this override; units pass their orders explicitly.
    os.environ.pop("CHERNFORMS_QUAD_ORDER", None)
    workloads, world = setup()
    if args.setup_only:
        print(time.perf_counter() - START)
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    run = traced_run if args.trace else untraced_run
    attempted, failed, consistent, metrics = run(
        workloads, world, args.workload, args.seed, args.seconds
    )
    print(json.dumps({
        "correct": bool(consistent and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
