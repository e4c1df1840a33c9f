"""Regenerate ``bench/baseline.json``: the benchmark's results over several seeds.

Usage, from the repository root::

    python3 bench/baseline.py --seeds 10 --first-seed 1

For every workload in ``BENCHMARK.json`` this runs the benchmark command once
per seed with ``--trace 0`` and once with ``--trace 1``, then records for each
end-to-end metric the median, the quartiles (``statistics.quantiles(n=4)``)
and their distance as a share of the median, next to the metric's bound, and
the per-layer metrics of the traced run.  The Python version, ``nproc`` and the
machine are recorded with them.  Exits 1 if any run fails its output checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "baseline.json"


def run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
    if proc.returncode != 0 or not line.get("correct"):
        raise SystemExit(f"error: {' '.join(argv)} failed:\n{proc.stdout}{proc.stderr}")
    return line


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    result = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": f"{platform.machine()} {cpu_model()}".strip(),
        "platform": platform.platform(),
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    for w in spec["workloads"]:
        name = w["name"]
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in seeds:
            line = run(spec, name, seed, 0)
            for metric in values:
                values[metric].append(line["metrics"][metric]["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        e2e = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            e2e[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / med, "bound": m["bound"], "values": v}
            print(f"{name} {m['name']}: median {med:.6g} {m['unit']}, "
                  f"spread {(q3 - q1) / med:.3f} (bound {m['bound']})", flush=True)
        traced = run(spec, name, seeds[0], 1)
        result["workloads"][name] = {
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    OUT.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
