#!/usr/bin/env python3
"""Builds and runs one hcm_e2e workload; prints one JSON result line.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository. The first call
configures and builds bench/e2e in Release under $CARGO_TARGET_DIR (default
.bench_build, relative to the repository root); later calls only re-check
the build. hcm_e2e's own report goes to stderr. The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1), each as {"value": ..., "unit": ...}. Exits
non-zero without a result line when the build or the run itself breaks;
a run whose checks fail still prints its result, with "correct": false.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds hcm_e2e; returns its path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B",
                     str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(build_dir), "--parallel", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed:", " ".join(cmd))
            return None
    binary = build_dir / "hcm_e2e"
    return binary if binary.exists() else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "e2e"
    binary = build(build_dir)
    if binary is None:
        return 1

    work = build_dir / "work"
    work.mkdir(parents=True, exist_ok=True)
    result_path = work / f"{args.workload}-{args.seed}-{args.trace}.json"
    result_path.unlink(missing_ok=True)
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--workdir={work}",
           f"--json={result_path}"]
    if args.trace:
        cmd.append(f"--trace={work / (args.workload + '-spans.jsonl')}")
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("hcm_e2e timed out")
        return 1
    if proc.returncode not in (0, 1) or not result_path.exists():
        log(f"hcm_e2e exited with {proc.returncode} and no result")
        return 1

    data = json.loads(result_path.read_text())
    metrics = {}
    for m in wanted:
        got = data["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"hcm_e2e did not report {m['name']} in {m['unit']}")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({
        "correct": proc.returncode == 0 and data["failed"] == 0,
        "attempted": data["attempted"],
        "failed": data["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
