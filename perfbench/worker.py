"""Run one workload in this process and write its measurements as JSON.

``run.py`` starts one worker per workload, so each workload's peak
resident memory is its own.  The worker calls ``kdvlab.cli.main(argv)``
in-process, one call after another (a closed loop with one caller):

1. one warm-up execution, untraced;
2. untraced executions until ``--seconds`` have passed (``--trace 0``),
   or for half of them followed by traced executions (``--trace 1``);
3. its own checks: every gate rejects a corrupted copy of the outputs,
   and the tracer restored every binding it replaced.

Every execution is gated and compared byte for byte with the warm-up,
so traced and untraced outputs must agree.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from typing import List, Optional

import workloads
from tracer import Tracer, layer_metrics
from workloads import Outcome

MAX_TRACED_EXECUTIONS = 5  # spans of one spectral-probes execution number about 40,000


def _capture_stdout(path: Path, fn):
    """Run ``fn`` with file descriptor 1 sent to ``path``; returns (result, text).

    ``kdvlab eigen`` writes to the ``sys.stdout`` object it saw at import,
    so only a redirect below that object captures it.
    """
    sys.stdout.flush()
    saved = os.dup(1)
    with open(path, "wb") as f:
        os.dup2(f.fileno(), 1)
    try:
        result = fn()
    finally:
        sys.stdout.flush()
        os.dup2(saved, 1)
        os.close(saved)
    return result, path.read_text(encoding="utf-8")


class Runner:
    """Executes a workload's calls and checks what they produced."""

    def __init__(self, workload: workloads.Workload, main, workdir: Path):
        self.workload = workload
        self.main = main
        self.workdir = workdir
        self.reference: Optional[str] = None
        self.outcomes: List[Outcome] = []
        self.tracer: Optional[Tracer] = None
        self.attempted = 0
        self.mismatches = 0
        self.failures: List[str] = []

    def execute(self) -> Optional[float]:
        """One execution of every call; returns its wall time, or None if it failed."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.execution = self.attempted
        for call in self.workload.calls:
            if call.output_dir:
                shutil.rmtree(self.workdir / call.output_dir, ignore_errors=True)
        wall = 0.0
        outcomes = []
        try:
            for i, call in enumerate(self.workload.calls):
                argv = call.argv
                start = time.perf_counter()
                code, text = _capture_stdout(self.workdir / f"stdout{i}.txt",
                                             lambda: self.main(argv))
                wall += time.perf_counter() - start
                outcomes.append(Outcome(code, text))
        except Exception:  # the loop must go on; the failure is counted and shown
            traceback.print_exc()
            return self._fail("exception: " + traceback.format_exc().splitlines()[-1])
        fails = self.workload.gate(self.workload, self.workdir, outcomes)
        digest = workloads.digest(self.workdir, self.workload.calls, outcomes)
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            self.mismatches += 1
            fails.append("outputs differ from the first execution's bytes")
        if fails:
            return self._fail("; ".join(fails))
        self.outcomes = outcomes
        return wall

    def _fail(self, message: str) -> None:
        print(f"perfbench: {self.workload.name} execution {self.attempted} failed: {message}",
              file=sys.stderr)
        self.failures.append(message)
        return None

    def loop(self, seconds: float, limit: Optional[int] = None) -> List[float]:
        """Executions until ``seconds`` pass (at least one); their wall times."""
        walls: List[float] = []
        deadline = time.perf_counter() + seconds
        while True:
            wall = self.execute()
            if wall is not None:
                walls.append(wall)
            if time.perf_counter() >= deadline or (limit and len(walls) >= limit):
                return walls

    def gate_self_test(self) -> List[str]:
        """Names of corruptions the gates failed to reject (empty when sound)."""
        if not self.outcomes:
            return ["no passing execution to corrupt"]
        missed = []
        copy = self.workdir / "corrupted"
        for name, corrupt in self.workload.corruptions:
            shutil.rmtree(copy, ignore_errors=True)
            copy.mkdir()
            for call in self.workload.calls:
                if call.output_dir:
                    shutil.copytree(self.workdir / call.output_dir, copy / call.output_dir)
            outs = corrupt(copy, list(self.outcomes))
            if not self.workload.gate(self.workload, copy, outs):
                missed.append(name)
        # the byte-identity gate: one flipped byte must change the digest
        target = next(p for p in sorted(copy.rglob("*")) if p.is_file())
        data = bytearray(target.read_bytes())
        data[-2] ^= 1
        target.write_bytes(bytes(data))
        if workloads.digest(copy, self.workload.calls, self.outcomes) == self.reference:
            missed.append("flipped byte")
        shutil.rmtree(copy, ignore_errors=True)
        return missed


def _environment(kdvlab) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    banded = sys.modules.get("kdvlab.banded")
    backend = getattr(banded, "HAS_NUMBA", "absent")
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba_imports": numba_imports,
        "solve_backend": f"HAS_NUMBA={backend}" if backend != "absent" else "absent",
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        "kdvlab": str(Path(kdvlab.__file__).parent),
    }


BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def run(args) -> dict:
    src = Path(args.src).resolve()
    import kdvlab
    import kdvlab.cli

    if Path(kdvlab.__file__).resolve().parent != src / "kdvlab":
        raise SystemExit(f"perfbench: imported kdvlab from {kdvlab.__file__}, not {src}")
    workdir = Path(args.workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    runner = Runner(workloads.build(args.workload, args.seed), kdvlab.cli.main, workdir)

    runner.execute()  # warm-up: lazy set-up and caches, and the reference bytes
    result = {"checks": {}}
    if args.trace == 0:
        walls = runner.loop(args.seconds)
        result["walls"] = walls
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        untraced = runner.loop(args.seconds / 2.0)
        runner.tracer = tracer = Tracer()
        tracer.install()
        try:
            traced = runner.loop(args.seconds / 2.0, limit=MAX_TRACED_EXECUTIONS)
        finally:
            tracer.uninstall()
            runner.tracer = None
        result["walls"] = untraced
        result["traced_walls"] = traced
        result["layers"] = layer_metrics(tracer, traced, untraced)
        result["missing"] = tracer.missing
        result["checks"]["wrappers restored"] = not tracer.unrestored()
        tracer.write_spans(Path(args.spans))
    result["checks"]["traced and untraced outputs identical" if args.trace
                     else "outputs identical across executions"] = runner.mismatches == 0
    missed = runner.gate_self_test()
    result["checks"]["gates reject corrupted copies"] = not missed
    if missed:
        print(f"perfbench: gates accepted corrupted outputs: {missed}", file=sys.stderr)
    result.update(
        attempted=runner.attempted,
        failed=len(runner.failures),
        failures=runner.failures[:10],
        params=runner.workload.params,
        env=_environment(kdvlab),
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    finally:
        os.chdir(Path(args.workdir).parent)
        shutil.rmtree(args.workdir, ignore_errors=True)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
