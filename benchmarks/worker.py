"""One benchmark process: set up nlsqueeze, then drive runner.main(argv)
in a closed loop.

    python3 worker.py PLAN_JSON SECONDS TRACE SPANS_JSON   measure, print result
    python3 worker.py PLAN_JSON --setup-only               set up and exit

Set-up is importing nlsqueeze, loading the workload's config and one
make_state; the process prints "ready" when it is done, so the parent
can time it from process start.  The last stdout line is a JSON result.
With TRACE=1 untraced and traced rounds alternate, and the traced spans
are written to SPANS_JSON at the end.  A workload's reference calls (the
multi-threaded certify of full_point) run once, untimed, after the
rounds; with TRACE=1 they are traced too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import traceback
from dataclasses import asdict
from time import perf_counter

import spans
import workloads

MIN_ROUNDS = 2  # enough to compare digests within a run


def setup(plan: dict):
    from nlsqueeze import runner

    cfg = runner.load_config(plan["setup_config"])
    runner.make_state(cfg.state_spec, grid=cfg.grid)
    return runner


def _basis_cache():
    from nlsqueeze import hilbert

    info = getattr(hilbert.build_basis, "cache_info", None)
    return info() if info else None


def call_main(runner, call: dict, tracer=None) -> tuple[float, dict]:
    """Time one main(argv) call and check what it produced."""
    workloads.clear_outputs(call)
    out = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            if tracer is None:
                rc = runner.main(call["argv"])
            else:
                with tracer.span("runner.main"):
                    rc = runner.main(call["argv"])
    except SystemExit as exc:  # argparse rejects the argv
        rc = exc.code
    except Exception:  # a crash is a failed operation, not a dead benchmark
        traceback.print_exc()
        rc = "exception"
    wall = perf_counter() - t0
    return wall, workloads.check(call, rc, out.getvalue())


def run_round(runner, plan: dict, tracer=None) -> dict:
    before = _basis_cache()
    wall, failed, digests, written = 0.0, 0, [], 0
    for call in plan["calls"]:
        dt, outcome = call_main(runner, call, tracer)
        wall += dt
        failed += outcome["failed"]
        written += outcome["bytes"]
        digests.append(outcome["digest"])
    after = _basis_cache()
    return {
        "wall_s": wall,
        "failed": failed,
        "digest": hashlib.sha256("\n".join(digests).encode()).hexdigest(),
        "bytes_written": written,
        "basis_hits": after.hits - before.hits if after else 0,
        "basis_misses": after.misses - before.misses if after else 0,
    }


def keep_going(done: int, started: float, seconds: float) -> bool:
    """Start another round only if, at the pace so far, it ends within the
    measuring window, so a run takes about the same time on every commit."""
    if done < MIN_ROUNDS:
        return True
    elapsed = perf_counter() - started
    return elapsed * (done + 1) / done <= seconds


def run_rounds(runner, plan: dict, seconds: float) -> list:
    rounds = []
    t0 = perf_counter()
    while keep_going(len(rounds), t0, seconds):
        rounds.append(run_round(runner, plan))
    return rounds


def versions() -> dict:
    import numpy
    import scipy

    out = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out["blas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        out["blas"] = "unknown"
    return out


def run_reference(runner, plan: dict, tracer=None) -> dict:
    """The untimed multi-threaded calls whose output must equal the rounds'."""
    walls, outcomes = [], []
    for call in plan["reference"]:
        if tracer is None:
            wall, outcome = call_main(runner, call)
        else:
            with tracer.installed():
                wall, outcome = call_main(runner, call, tracer)
        walls.append(wall)
        outcomes.append(outcome)
    return {
        "wall_s": sum(walls),
        "failed": sum(o["failed"] for o in outcomes),
        "digest": hashlib.sha256("\n".join(o["digest"] for o in outcomes).encode()).hexdigest(),
    }


def measure(plan: dict, seconds: float, trace: bool, spans_path: str) -> dict:
    runner = setup(plan)
    print("ready", flush=True)
    result = {}
    readout = sys.modules["nlsqueeze.readout"]
    block = getattr(readout, "SAMPLE_BLOCK", None)
    if not trace:
        result["rounds"] = run_rounds(runner, plan, seconds)
    else:
        # Untraced and traced rounds alternate, so a drift in machine speed
        # does not show up as tracing overhead.
        tracer = spans.Tracer()
        untraced, traced, restored = [], [], True
        t0 = perf_counter()
        while keep_going(len(traced), t0, seconds):
            untraced.append(run_round(runner, plan))
            tracer.round = len(traced)
            with tracer.installed():
                traced.append(run_round(runner, plan, tracer))
            restored = restored and tracer.restored
        result["rounds"] = untraced
        result["traced_rounds"] = traced
        result["restored"] = restored
        result["missing_bindings"] = tracer.missing
        result["nesting_errors"] = spans.nesting_errors(tracer.spans)[:10]
        layers = spans.layer_metrics(tracer.spans, plan["threads"], block)
        layers["hilbert.build_basis.hits"] = statistics.median(r["basis_hits"] for r in traced)
        layers["hilbert.build_basis.misses"] = statistics.median(r["basis_misses"] for r in traced)
        result["layers"] = layers
    # Peak memory of the timed rounds, before any multi-threaded reference.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference_spans = []
    if plan["reference"]:
        ref_tracer = spans.Tracer() if trace else None
        result["reference"] = run_reference(runner, plan, ref_tracer)
        if trace:
            reference_spans = ref_tracer.spans
            result["restored"] = result["restored"] and ref_tracer.restored
            result["nesting_errors"] += spans.nesting_errors(reference_spans)[:10]
            # The thread pool runs only in the reference, so its efficiency
            # is measured there.
            result["layers"]["estimate.parallel_eff"] = spans.round_metrics(
                reference_spans, workloads.REFERENCE_THREADS, block)["estimate.parallel_eff"]
    if trace:
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump({"rounds": [asdict(s) for s in tracer.spans],
                       "reference": [asdict(s) for s in reference_spans]}, f)
    result["versions"] = versions()
    return result


def main(argv) -> int:
    with open(argv[0], encoding="utf-8") as f:
        plan = json.load(f)
    if argv[1:] == ["--setup-only"]:
        setup(plan)
        print("ready", flush=True)
        return 0
    seconds, trace = float(argv[1]), argv[2] == "1"
    print(json.dumps(measure(plan, seconds, trace, argv[3])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
