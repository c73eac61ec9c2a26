"""Smoke tests of the benchmark at a tiny size (about a minute in all).

    python3 -m pytest -q benchmarks/tests
"""

import contextlib
import importlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from nlsqueeze import runner  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_and_checks_pass(workload):
    result, info = run.run(workload, seed=3, seconds=0.1, trace=False, root=ROOT, tiny=True)
    assert result["correct"] and result["failed"] == 0, info
    assert result["attempted"] >= 2 * info["ops_per_round"]
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(info["digests"]) == 1  # every round at one seed gave the same output


def test_traced_run_reports_every_layer():
    result, info = run.run("quick_sweep", seed=5, seconds=0.1, trace=True, root=ROOT, tiny=True)
    assert result["correct"], info
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert set(m) == set(run.PER_LAYER)
    points = len(workloads.TINY["rates"])
    assert m["hilbert.marginal_density.calls"] == points * workloads.QUICK_R * 4
    assert m["readout.draw_efficiency"] == workloads.TINY["quick_count"] / 65536
    assert m["trace.self_sum_s"] == pytest.approx(m["trace.wall_s"], rel=0.05)


def test_spans_nest_across_threads_and_self_times_are_nonnegative(tmp_path):
    plan = workloads.plan("full_point", 3, tmp_path, tiny=True)
    tracer = spans.Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()), \
            tracer.span("runner.main"):
        rc = runner.main(plan["reference"][0]["argv"])
    assert rc == 0
    assert spans.nesting_errors(tracer.spans) == []
    assert min(spans.self_times(tracer.spans).values()) >= 0.0
    ensemble = [s for s in tracer.spans if s.name == "estimate.ensemble_run"]
    recon = [s for s in tracer.spans if s.name == "estimate.run_reconstruction"]
    assert len(ensemble) == 1 and len(recon) == workloads.FULL_R
    assert all(s.parent == ensemble[0].id for s in recon)
    assert len({s.thread for s in recon}) == workloads.REFERENCE_THREADS


def test_traced_reference_gives_thread_pool_efficiency():
    result, info = run.run("full_point", seed=4, seconds=0.1, trace=True, root=ROOT, tiny=True)
    assert result["correct"], info
    assert info["environment"]["reference_threads"] == workloads.REFERENCE_THREADS
    assert info["reference_digest"] == info["digests"][0]
    assert 0.0 < result["metrics"]["estimate.parallel_eff"]["value"] <= 1.0


def test_restore_removes_every_wrapper():
    def bound():
        return [getattr(importlib.import_module(f"nlsqueeze.{mod}"), attr)
                for mod, attr, _ in spans.BINDINGS]

    originals = bound()
    tracer = spans.Tracer()
    with tracer.installed():
        assert all(w is not o for w, o in zip(bound(), originals))
    assert all(w is o for w, o in zip(bound(), originals))
    assert tracer.restored


def test_self_time_subtracts_the_union_of_overlapping_children():
    s = [spans.Span(0, "parent", 0.0, 10.0, None, 1, 0),
         spans.Span(1, "a", 1.0, 4.0, 0, 2, 0),
         spans.Span(2, "b", 3.0, 6.0, 0, 3, 0),
         spans.Span(3, "c", 8.0, 9.0, 0, 2, 0)]
    assert spans.self_times(s) == {0: 4.0, 1: 3.0, 2: 3.0, 3: 1.0}


def test_fails_without_the_package_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "quick_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_rounds_that_disagree_count_as_failed():
    same = [{"digest": "a", "failed": 0}, {"digest": "a", "failed": 1}]
    assert run.tally(7, same, None) == (14, 1)
    assert run.tally(7, same + [{"digest": "b", "failed": 0}], None) == (21, 8)
    assert run.tally(1, same, {"digest": "b", "failed": 0}) == (3, 2)


def test_metric_lists_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
