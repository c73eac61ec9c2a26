"""In-memory span tracer for the benchmark's traced runs.

The tracer replaces the functions that nlsqueeze modules bind with
wrappers that record one span per call: name, start, end, parent span,
thread, and the number of samples the call handled where it has one.
Wrapping the *caller's* binding (``estimate.sample_homodyne``, not
``readout.sample_homodyne``) is what makes the calls visible, because
each module looks its callees up in its own namespace.  Leaving
``installed()`` puts every original back, so untraced rounds measure
unmodified code.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# (module that binds the name, bound name, span name).  Span names are
# <defining module>.<function>, the layer that does the work.
BINDINGS = (
    ("runner", "load_config", "runner.load_config"),
    ("runner", "run_sweep", "runner.run_sweep"),
    ("runner", "certify", "runner.certify"),
    ("runner", "state_info", "runner.state_info"),
    ("runner", "write_sweep_outputs", "runner.write_sweep_outputs"),
    ("runner", "make_state", "states.make_state"),
    ("runner", "ensemble_run", "estimate.ensemble_run"),
    ("runner", "exact_moment_set", "nlsq.exact_moment_set"),
    ("runner", "assemble_curve", "nlsq.assemble_curve"),
    ("states", "displace", "hilbert.displace"),
    ("nlsq", "quadrature_moment", "hilbert.quadrature_moment"),
    ("estimate", "run_reconstruction", "estimate.run_reconstruction"),
    ("estimate", "sample_homodyne", "readout.sample_homodyne"),
    ("estimate", "empirical_moments", "estimate.empirical_moments"),
    ("estimate", "invert_hierarchy", "estimate.invert_hierarchy"),
    ("estimate", "mixed_moment_recovery", "estimate.mixed_moment_recovery"),
    ("estimate", "assemble_curve", "nlsq.assemble_curve"),
    ("readout", "marginal_density", "hilbert.marginal_density"),
)


def _count_arg(args, kwargs):
    return int(kwargs["count"] if "count" in kwargs else args[2])


def _sample_len(args, kwargs):
    return len(kwargs["samples"] if "samples" in kwargs else args[0])


# span name -> number of samples the call handles, read from its arguments
SIZES = {
    "readout.sample_homodyne": _count_arg,
    "estimate.empirical_moments": _sample_len,
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    round: int
    size: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.round = 0
        self.missing: list[str] = []
        self.restored = True
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._root_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, size: int = 0):
        stack = self._stack()
        # A pool thread starts with an empty stack; its work was caused by
        # the span open in the thread that installed the tracer.
        source = stack or self._root_stack
        parent = source[-1] if source else None
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent,
                                       threading.get_ident(), self.round, size))

    def _wrap(self, original, name: str):
        size_of = SIZES.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name, size_of(args, kwargs) if size_of else 0):
                return original(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every binding in BINDINGS that exists while the block runs,
        then put the originals back and record whether that succeeded."""
        self._root_stack = self._stack()
        self.missing = []
        patches = []
        for mod_name, attr, name in BINDINGS:
            module = importlib.import_module(f"nlsqueeze.{mod_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name))
            patches.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)
            self.restored = all(getattr(module, attr) is original
                                for module, attr, original in patches)


def self_times(spans) -> dict:
    """Span id -> duration minus the time its child spans cover.

    Children of one span may overlap when they run on different threads,
    so the covered time is the length of the union of their intervals.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def nesting_errors(spans, slack: float = 1e-9) -> list[str]:
    """Spans whose parent is unknown or does not enclose them in time."""
    by_id = {s.id: s for s in spans}
    errors = []
    for s in spans:
        if s.end < s.start:
            errors.append(f"span {s.id} {s.name} ends before it starts")
        if s.parent is None:
            continue
        p = by_id.get(s.parent)
        if p is None:
            errors.append(f"span {s.id} {s.name} has unknown parent {s.parent}")
        elif s.start < p.start - slack or s.end > p.end + slack:
            errors.append(f"span {s.id} {s.name} lies outside parent {p.id} {p.name}")
    return errors


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile; 0 for an empty list."""
    if not values:
        return 0.0
    v = sorted(values)
    return v[min(len(v) - 1, max(0, int(round(q * len(v))) - 1))]


def round_metrics(spans, threads: int, sample_block: int | None) -> dict:
    """Per-layer metrics of one traced round."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    own = self_times(spans)

    def total(name):
        return sum(s.duration for s in by_name[name])

    def self_total(name):
        return sum(own[s.id] for s in by_name[name])

    def ratio(num, den):
        return num / den if den else 0.0

    used = sum(s.size for s in by_name["readout.sample_homodyne"])
    if sample_block:
        drawn = sum(-(-s.size // sample_block) * sample_block
                    for s in by_name["readout.sample_homodyne"])
    else:
        drawn = used
    moments_n = sum(s.size for s in by_name["estimate.empirical_moments"])
    recon = total("estimate.run_reconstruction")
    ensemble = total("estimate.ensemble_run")
    return {
        "hilbert.marginal_density.calls": len(by_name["hilbert.marginal_density"]),
        "hilbert.marginal_density.s": total("hilbert.marginal_density"),
        "states.make_state.s": total("states.make_state"),
        "hilbert.quadrature_moment.calls": len(by_name["hilbert.quadrature_moment"]),
        "hilbert.quadrature_moment.s": total("hilbert.quadrature_moment"),
        "hilbert.displace.s": total("hilbert.displace"),
        "nlsq.exact_moment_set.s": total("nlsq.exact_moment_set"),
        "readout.sample_homodyne.self_s": self_total("readout.sample_homodyne"),
        "readout.ns_per_used_sample": 1e9 * ratio(self_total("readout.sample_homodyne"), used),
        "readout.samples_drawn": drawn,
        "readout.samples_used": used,
        "readout.draw_efficiency": ratio(used, drawn),
        "estimate.empirical_moments.s": total("estimate.empirical_moments"),
        "estimate.empirical_moments.ns_per_sample":
            1e9 * ratio(total("estimate.empirical_moments"), moments_n),
        "estimate.invert_hierarchy.s": total("estimate.invert_hierarchy"),
        "estimate.mixed_moment_recovery.s": total("estimate.mixed_moment_recovery"),
        "nlsq.assemble_curve.s": total("nlsq.assemble_curve"),
        "estimate.ensemble_run.self_s": self_total("estimate.ensemble_run"),
        "estimate.parallel_eff": ratio(recon, threads * ensemble),
        "runner.load_config.s": total("runner.load_config"),
        "runner.write_sweep_outputs.s": total("runner.write_sweep_outputs"),
        "runner.main.self_s": self_total("runner.main"),
        "trace.self_sum_s": sum(own.values()),
    }


def layer_metrics(spans, threads: int, sample_block: int | None) -> dict:
    """Median over traced rounds of each per-round metric, plus the
    reconstruction-time percentiles pooled over all rounds."""
    rounds = defaultdict(list)
    for s in spans:
        rounds[s.round].append(s)
    per_round = [round_metrics(r, threads, sample_block) for _, r in sorted(rounds.items())]
    out = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    recon = [s.duration for s in spans if s.name == "estimate.run_reconstruction"]
    out["estimate.run_reconstruction.p50_s"] = _quantile(recon, 0.5)
    out["estimate.run_reconstruction.p90_s"] = _quantile(recon, 0.9)
    out["estimate.run_reconstruction.n"] = len(recon)
    return out
