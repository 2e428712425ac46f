"""kdvlab benchmark: three CLI workloads, measured end to end or layer by layer.

    python3 perfbench/run.py --workload demo-run --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

Run it from anywhere; it measures the package in ``src/`` next to this
directory and works in ``.perfbench-work/`` there.  For each workload it
times set-up in fresh interpreters, then starts one worker process that
runs the workload's CLI calls in a closed loop with one caller and BLAS
pinned to one thread.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics from a separate traced phase.

Standard output is a table (median, quartiles, sample count), the
environment, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every workload was measured, whether or not its gates passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import workloads
from worker import BLAS_VARS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_PROBES = 11       # plus one discarded probe that warms the bytecode cache
PROBE_TIMEOUT_S = 30
WORKER_SLACK_S = 90     # warm-up, gates and self-checks on top of --seconds


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # time imports with the bytecode cache in use
    env.update({var: "1" for var in BLAS_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def _setup_samples(name: str, seed: int, env) -> List[float]:
    samples = []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), name, str(seed)],
            env=env, cwd=WORK, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        if i:
            samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def _run_worker(name: str, args, env) -> dict:
    result_path = WORK / f"result-{name}.json"
    result_path.unlink(missing_ok=True)
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--src", str(SRC),
         "--workdir", str(WORK / name),
         "--spans", str(WORK / f"spans-{name}.csv"), "--result", str(result_path)],
        env=env, cwd=WORK, timeout=args.seconds + WORKER_SLACK_S, check=True,
    )
    return json.loads(result_path.read_text(encoding="utf-8"))


def _measure(name: str, args, env) -> dict:
    # set-up first: its discarded warm-up probe writes kdvlab's bytecode cache
    setup = _setup_samples(name, args.seed, env) if args.trace == 0 else None
    result = _run_worker(name, args, env)
    result["setup"] = setup
    return result


def _end_to_end(result: dict) -> Dict[str, Tuple[List[float], str]]:
    return {
        "setup_s": (result["setup"], "s"),
        "wall_s": (result["walls"], "s"),
        "peak_rss_mb": ([result["peak_rss_mb"]], "MB"),
    }


def _report(name: str, result: dict, trace: int) -> Dict[str, dict]:
    """Print one workload's rows; return its metrics for the JSON line."""
    metrics: Dict[str, dict] = {}
    if trace == 0:
        for metric, (values, unit) in _end_to_end(result).items():
            median, q1, q3 = _quartiles(values)
            print(f"{name:17s} {metric:34s} {unit:6s} n={len(values):<4d} "
                  f"median={median:.6g} q1={q1:.6g} q3={q3:.6g}")
            metrics[metric] = {"value": median, "unit": unit}
    else:
        for metric, (value, unit) in result["layers"].items():
            print(f"{name:17s} {metric:34s} {unit:6s} {value:.6g}")
            metrics[metric] = {"value": value, "unit": unit}
        if result["missing"]:
            print(f"{name:17s} missing (not traced): {', '.join(result['missing'])}")
    rate = result["failed"] / result["attempted"]
    print(f"{name:17s} {'error_rate':34s} {'ratio':6s} n={result['attempted']:<4d} "
          f"value={rate:.6g} ({result['failed']} failed)")
    for failure in result["failures"]:
        print(f"{name:17s} failure: {failure}")
    for check, ok in result["checks"].items():
        print(f"{name:17s} check {check}: {'pass' if ok else 'FAIL'}")
    print(f"{name:17s} params {json.dumps(result['params'])}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kdvlab benchmark")
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "kdvlab" / "__init__.py").is_file():
        print(f"perfbench: no kdvlab package at {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    env = _child_env()
    names = workloads.NAMES if args.workload == "all" else (args.workload,)

    results = {}
    try:
        for name in names:
            results[name] = _measure(name, args, env)
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: measuring {name} failed: {exc}", file=sys.stderr)
        return 1

    print(f"kdvlab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    metrics: Dict[str, dict] = {}
    for name, result in results.items():
        for metric, value in _report(name, result, args.trace).items():
            metrics[metric if len(names) == 1 else f"{name}.{metric}"] = value
    env_block = dict(next(iter(results.values()))["env"], seed=args.seed)
    print("env " + json.dumps(env_block, sort_keys=True))
    (WORK / f"summary-trace{args.trace}.json").write_text(
        json.dumps({"env": env_block, "results": results}, indent=1), encoding="utf-8")

    print(json.dumps({
        "correct": all(r["failed"] == 0 and all(r["checks"].values()) for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
