"""nlsqueeze benchmark: one workload, one seed, one result line.

    python3 benchmarks/run.py --workload quick_sweep --seed 1234 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ./src; each
workload's configs are generated from the seed under .bench_work/.

Set-up (importing nlsqueeze, loading the config, one make_state) is
timed from process start in SETUP_PROBES fresh processes (after one
untimed warm-up that fills the file cache; half of them before the
measuring process and half after it) and in the measuring process;
setup_s is their median.  The measuring process then drives
runner.main(argv) in a closed loop for --seconds and checks every output
(see workloads.py).  With --trace 0 the result carries the end-to-end
metrics; with --trace 1 it carries the per-layer ones, from a run whose
untraced and traced rounds alternate (see spans.py).

The last stdout line is the JSON result; the line before it records the
environment, exact counts, per-round times and output digests.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 8  # timed set-up processes, after one untimed warm-up
TIME_LIMIT_S = 170.0  # a run must end within 180 s
DEFAULT_SEED = 1234   # the presets' ensemble.base_seed
# One BLAS thread per process (ensemble threads x BLAS threads <= nproc on
# every workload).  With two, OpenBLAS threads spin-wait on each other, and
# one competing process on a 2-core host made exact_states 1.7x slower;
# with one it cost under 10%.
BLAS_THREADS = 1

END_TO_END = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "hilbert.marginal_density.calls": "count",
    "hilbert.marginal_density.s": "s",
    "hilbert.build_basis.hits": "count",
    "hilbert.build_basis.misses": "count",
    "states.make_state.s": "s",
    "hilbert.quadrature_moment.calls": "count",
    "hilbert.quadrature_moment.s": "s",
    "hilbert.displace.s": "s",
    "nlsq.exact_moment_set.s": "s",
    "readout.sample_homodyne.self_s": "s",
    "readout.ns_per_used_sample": "ns",
    "readout.samples_drawn": "count",
    "readout.samples_used": "count",
    "readout.draw_efficiency": "frac",
    "estimate.empirical_moments.s": "s",
    "estimate.empirical_moments.ns_per_sample": "ns",
    "estimate.invert_hierarchy.s": "s",
    "estimate.mixed_moment_recovery.s": "s",
    "nlsq.assemble_curve.s": "s",
    "estimate.run_reconstruction.p50_s": "s",
    "estimate.run_reconstruction.p90_s": "s",
    "estimate.run_reconstruction.n": "count",
    "estimate.ensemble_run.self_s": "s",
    "estimate.parallel_eff": "frac",
    "runner.load_config.s": "s",
    "runner.write_sweep_outputs.s": "s",
    "runner.bytes_written": "bytes",
    "runner.main.self_s": "s",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over all CPUs
    since boot; 0 where the kernel does not report it."""
    try:
        with open("/proc/stat", encoding="utf-8") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("time limit reached")
        return left


def spawn(args: list, env: dict, deadline: Deadline) -> tuple[float, str]:
    """Run the worker; return (seconds from start to its "ready" line,
    its last stdout line).  The process is always reaped."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=env)
    try:
        if not select.select([proc.stdout], [], [], deadline.left())[0]:
            raise BenchError("worker set-up timed out")
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if ready.strip() != "ready":
            raise BenchError(f"worker failed during set-up: {ready!r}")
        rest, _ = proc.communicate(timeout=deadline.left())
        if proc.returncode != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = rest.strip().splitlines()
    return setup_s, lines[-1] if lines else ""


def tally(ops: int, rounds: list, reference: dict | None) -> tuple[int, int]:
    """(attempted, failed) operations.  Besides its own failed checks, a
    round fails whole when its output differs from the first round's (same
    seed) or from the multi-threaded reference run of the same inputs."""
    expected = rounds[0]["digest"]
    attempted = ops * len(rounds)
    failed = sum(ops if r["digest"] != expected else r["failed"] for r in rounds)
    if reference is not None:
        attempted += ops
        failed += ops if reference["digest"] != expected else reference["failed"]
    return attempted, failed


def run(workload: str, seed: int, seconds: float, trace: bool,
        root: Path | None = None, tiny: bool = False) -> tuple[dict, dict]:
    """Measure one workload; return (result, info)."""
    root = Path.cwd() if root is None else root
    if not (root / "src" / "nlsqueeze" / "runner.py").is_file():
        raise BenchError(f"no nlsqueeze sources under {root / 'src'}; run from the repository root")
    deadline = Deadline(TIME_LIMIT_S)
    work_root = root / ".bench_work"
    work = work_root / f"{workload}-{seed}-{os.getpid()}"
    try:
        plan = workloads.plan(workload, seed, work, tiny=tiny)
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        env = child_env(root)
        load_before, steal_before = os.getloadavg(), steal_s()

        def probes(n):
            return [spawn([str(plan_path), "--setup-only"], env, deadline)[0] for _ in range(n)]

        # Half the set-up probes run before the measuring process and half
        # after it, so their median sees the same host as the rounds do.
        setups = probes(SETUP_PROBES // 2 + 1)[1:]
        spans_path = work_root / f"spans-{workload}-{seed}.json"
        worker_setup, line = spawn([str(plan_path), str(seconds), str(int(trace)),
                                    str(spans_path)], env, deadline)
        setups += [worker_setup] + probes(SETUP_PROBES - SETUP_PROBES // 2)
        try:
            measured = json.loads(line)
        except ValueError:
            raise BenchError(f"unreadable worker result: {line[:200]!r}") from None
        load_after, steal = os.getloadavg(), steal_s() - steal_before
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = measured["rounds"] + measured.get("traced_rounds", [])
    attempted, failed = tally(plan["ops_per_round"], rounds, measured.get("reference"))
    if trace and not (measured["restored"] and not measured["nesting_errors"]):
        raise BenchError(f"tracer left wrappers installed or broke nesting: "
                         f"{measured['nesting_errors']}")

    walls = [r["wall_s"] for r in measured["rounds"]]
    wall_s = statistics.median(walls)
    if trace:
        layers = dict(measured["layers"])
        traced_wall = statistics.median(r["wall_s"] for r in measured["traced_rounds"])
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - wall_s
        layers["runner.bytes_written"] = statistics.median(
            r["bytes_written"] for r in measured["traced_rounds"])
        values, units = layers, PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall_s,
            "items_per_s": plan["items_per_round"] / wall_s,
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": {**measured["versions"], "nproc": nproc(), "cpu": cpu_model(),
                        "ensemble_threads": plan["threads"], "blas_threads": BLAS_THREADS,
                        "reference_threads": workloads.REFERENCE_THREADS if plan["reference"] else None,
                        "loadavg_before": load_before, "loadavg_after": load_after,
                        "steal_s": steal},
        "rounds": len(measured["rounds"]),
        "round_wall_s": walls,
        "setup_samples_s": setups,
        "items_per_round": plan["items_per_round"],
        "ops_per_round": plan["ops_per_round"],
        "failed_frac": failed / attempted,
        "bytes_written_per_round": sorted({r["bytes_written"] for r in rounds}),
        "build_basis_hits_per_round": sorted({r["basis_hits"] for r in rounds}),
        "build_basis_misses_per_round": sorted({r["basis_misses"] for r in rounds}),
        "digests": sorted({r["digest"] for r in rounds}),
        "reference_digest": (measured.get("reference") or {}).get("digest"),
        "reference_wall_s": (measured.get("reference") or {}).get("wall_s"),
        "missing_bindings": measured.get("missing_bindings", []),
    }
    return result, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
