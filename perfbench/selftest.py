"""Self-test of the traced run.

    python3 perfbench/selftest.py

For each workload, runs ``run.py --trace 1`` twice with seed 0 and
checks that

* both runs report ``correct``: every unit passed its gate, the traced
  outputs are bit-identical to the untraced ones, ``graded_exp.calls`` is
  0 on thom_fiber and positive elsewhere, and on box_integral
  ``integrate_compact.nodes`` is 80^2 per box integral (run.py checks
  these inside every traced run);
* every per-layer metric named in BENCHMARK.json is reported;
* every count (each metric not measured in seconds) repeats exactly.

Takes about two minutes on a 2-core x86 machine. Exits 1 on any failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SEED = 0


def traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    layer_names = [m["name"] for m in BENCHMARK["per_layer"]]

    failures = []
    for workload in WORKLOADS:
        first, second = traced(workload), traced(workload)
        for label, run in (("first", first), ("second", second)):
            if not run["correct"]:
                failures.append(f"{workload}: {label} traced run not correct")
        missing = [n for n in layer_names if n not in first["metrics"]]
        if missing:
            failures.append(f"{workload}: missing per-layer metrics {missing}")
        for name, metric in first["metrics"].items():
            if metric["unit"] == "s":
                continue
            again = second["metrics"][name]["value"]
            if metric["value"] != again:
                failures.append(f"{workload}: {name} {metric['value']} then {again}")
        print(f"{workload}: checked {len(first['metrics'])} metrics", flush=True)

    for failure in failures:
        print(f"FAIL {failure}")
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
