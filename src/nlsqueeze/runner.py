"""Experiment driver: config files, parameter sweeps, reports, CLI.

Configuration is a flat key = value file with dotted section prefixes
('#' starts a comment, blank lines ignored).  The state.* keys are the
StateSpec fields in STATE_KEYS (state.inner.* holds the inner spec of a
displaced state, and a key of KIND_KEYS is rejected on any kind but its
own), the channel.* keys are the ChannelParams fields (channel.G and
channel.tau required, Gamma_m and n_bar default to 0), and CONFIG_KEYS
lists every other key with its ExperimentConfig field and converter.
Defaults live in those three dataclasses; the config also owns the
grid, default_grid(state dimension) unless grid.* is given.

Sweep axes move one channel parameter to hit the requested value in
kappa units: thermalisation_rate sets Gamma_m = value*kappa/n_bar at
fixed n_bar, interaction_time sets tau = value/kappa, and cooperativity
sets G = sqrt(value * n_bar * Gamma_m * kappa).
Every real-valued entry must be a finite number.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, replace
from functools import cache
from pathlib import Path
from time import perf_counter

import numpy as np

from .errors import ConfigError, GridError, NumericsError
from .estimate import (CQ_FLOOR, MIN_REPLICATES, MIN_SAMPLES, EnsembleReport, derive_seed,
                       ensemble_run)
from .hilbert import PositionGrid, default_grid, projection_basis
from .nlsq import (MARGIN_TOL, MINUS, P, PHASE_ORDERS, PLUS, Q, assemble_curve,
                   classical_threshold, exact_moment_set, resource_condition)
from .readout import ChannelCoefficients, ChannelParams, channel_coefficients, sampling_tables
from .states import StateSpec, make_state

AXES = ("thermalisation_rate", "interaction_time", "cooperativity")
MODES = ("full", "quick")
QUICK_COUNT_CAP = 100_000
QUICK_R_CAP = 5

PLOT_HEADER = "sweep_value,lambda,v_mean,v_std,v_lo,v_hi,v_analytic,threshold"
SWEEP_HEADER = "sweep_value,lambda,v_mean,v_std,v_analytic,threshold"


# ---------------------------------------------------------------- config

def _finite(text) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _positive(text) -> float:
    value = _finite(text)
    if value <= 0:
        raise ValueError("must be > 0")
    return value


def _whole(text) -> int:
    try:
        return int(text)  # exact, so a 64-bit seed keeps every digit
    except ValueError:
        value = _finite(text)  # a whole number in float form, as 1e6
    if not value.is_integer():
        raise ValueError("not a whole number")
    return int(value)


def _at_least(low: int):
    def check(text) -> int:
        value = _whole(text)
        if value < low:
            raise ValueError(f"must be >= {low}")
        return value
    return check


def _one_of(choices: tuple):
    def check(text: str) -> str:
        if text not in choices:
            raise ValueError(f"expected one of {choices}")
        return text
    return check


def _complex(text: str) -> complex:
    return complex(text.replace(" ", "").replace("(", "").replace(")", ""))


def _sweep_values(text: str) -> tuple:
    values = tuple(_finite(part) for part in text.split(",")) if text else ()
    if any(v <= 0 for v in values):
        raise ValueError("must be positive")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("must be strictly increasing")
    return values


STATE_KEYS = {"kind": str, "beta": _complex, "n_bar": _finite, "gamma": _finite,
              "alpha": _complex, "N": _whole}
# the one kind each kind-specific state key applies to; N applies to all
KIND_KEYS = {"beta": "coherent", "n_bar": "thermal", "gamma": "cubic_phase",
             "alpha": "displaced"}
CHANNEL_KEYS = dict.fromkeys(("G", "Gamma_m", "n_bar", "tau", "kappa"), _finite)

# Every config key outside state.* and channel.*: the ExperimentConfig
# field it sets and the converter that reads its value.  echo() writes
# the sections in this order.
CONFIG_KEYS = {
    "sweep.axis": ("sweep_axis", _one_of(AXES)),
    "sweep.values": ("sweep_values", _sweep_values),
    "ensemble.R": ("R", _at_least(MIN_REPLICATES)),
    "ensemble.count": ("count", _at_least(MIN_SAMPLES)),
    "ensemble.base_seed": ("base_seed", _at_least(0)),
    "lambda.min": ("lambda_min", _finite),
    "lambda.max": ("lambda_max", _finite),
    "lambda.points": ("lambda_points", _at_least(1)),
    "certify.lambda_star": ("lambda_star", _finite),
    "certify.gamma_G": ("gamma_G", _positive),
    "certify.k_sigma": ("k_sigma", _positive),
    "grid.extent": ("grid_extent", _finite),
    "grid.points": ("grid_points", _whole),
    "output.dir": ("out_dir", str),
    "mode": ("mode", _one_of(MODES)),
}


@dataclass
class ExperimentConfig:
    state_spec: StateSpec
    channel: ChannelParams | None = None
    sweep_axis: str | None = None
    sweep_values: tuple = ()
    R: int = 5
    count: int = QUICK_COUNT_CAP        # samples per schedule phase
    base_seed: int = 0
    lambda_min: float = -0.2
    lambda_max: float = 0.4
    lambda_points: int = 101
    lambda_star: float | None = None    # None: gamma for cubic states, else 0
    gamma_G: float | None = None        # gate nonlinearity of the resource verdict
    k_sigma: float = 3.0
    grid_extent: float | None = None    # both or neither; the grid must cover
    grid_points: int | None = None      # the state's dimension, StateSpec.dim
    out_dir: str = "."
    mode: str = "full"                  # quick caps count and R
    grid: PositionGrid = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.grid_extent is None) != (self.grid_points is None):
            raise ValueError("grid.extent and grid.points must be given together")
        if self.grid_extent is None:
            self.grid = default_grid(self.state_spec.dim)
        else:
            try:
                self.grid = PositionGrid(self.grid_extent, self.grid_points)
                projection_basis(self.state_spec.dim, self.grid)  # extent and orthonormality
            except GridError as exc:
                raise ValueError(f"invalid grid.extent / grid.points: {exc}") from None
        spec = self.state_spec
        if self.gamma_G is not None and spec.kind == "cubic_phase" and spec.gamma <= 0:
            raise ValueError("certify.gamma_G needs state.gamma > 0 for a cubic_phase "
                             f"state, got {spec.gamma:g}")
        if self.mode == "quick":
            self.count = min(self.count, QUICK_COUNT_CAP)
            self.R = min(self.R, QUICK_R_CAP)

    def lambda_grid(self) -> np.ndarray:
        return np.linspace(self.lambda_min, self.lambda_max, self.lambda_points)

    def echo(self) -> dict:
        out = {"state": _spec_echo(self.state_spec),
               "channel": _channel_echo(self.channel) if self.channel else None}
        for key, (name, _) in CONFIG_KEYS.items():
            section, _, entry = key.rpartition(".")
            if section:
                out.setdefault(section, {})[entry] = getattr(self, name)
            else:
                out[key] = getattr(self, name)
        if self.grid_extent is None:
            out["grid"] = None
        return out


def _spec_echo(spec: StateSpec) -> dict:
    d = {"kind": spec.kind, "N": spec.N}
    for key, kind in KIND_KEYS.items():
        if spec.kind == kind:
            value = getattr(spec, key)
            d[key] = str(value) if STATE_KEYS[key] is _complex else value
    if spec.inner is not None:
        d["inner"] = _spec_echo(spec.inner)
    return d


def _channel_echo(ch: ChannelParams) -> dict:
    coop = ch.cooperativity
    return {**asdict(ch), "cooperativity": coop if math.isfinite(coop) else None}


def _parse_lines(text: str) -> dict:
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, sep, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _convert(key: str, value, convert):
    try:
        return convert(value)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {key}: {value!r} ({exc})") from None


def _pop_fields(raw: dict, prefix: str, converters: dict) -> dict:
    """Converted values of the prefix + name keys present in raw, by name."""
    return {name: _convert(prefix + name, raw.pop(prefix + name), convert)
            for name, convert in converters.items() if prefix + name in raw}


def _pop_state(raw: dict, prefix: str) -> StateSpec:
    kwargs = _pop_fields(raw, prefix, STATE_KEYS)
    if "kind" not in kwargs:
        raise ConfigError(f"missing {prefix}kind")
    if any(k.startswith(prefix + "inner.") for k in raw):
        if kwargs["kind"] != "displaced":
            raise ConfigError(f"{prefix}inner.* only applies to kind=displaced")
        kwargs["inner"] = _pop_state(raw, prefix + "inner.")
    for key, kind in KIND_KEYS.items():
        if key in kwargs and kwargs["kind"] != kind:
            raise ConfigError(f"{prefix}{key} only applies to kind={kind}, "
                              f"not kind={kwargs['kind']}")
    try:
        return StateSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid state spec: {exc}") from None


def _pop_channel(raw: dict) -> ChannelParams | None:
    if not any(k.startswith("channel.") for k in raw):
        return None
    kwargs = _pop_fields(raw, "channel.", CHANNEL_KEYS)
    if "G" not in kwargs or "tau" not in kwargs:
        raise ConfigError("channel section needs at least channel.G and channel.tau")
    try:
        return ChannelParams(**{"Gamma_m": 0.0, "n_bar": 0.0, **kwargs})
    except ValueError as exc:
        raise ConfigError(f"invalid channel parameters: {exc}") from None


def parse_config(text: str, **overrides) -> ExperimentConfig:
    """Parse config text; unknown or duplicate keys are errors.  The
    overrides (ExperimentConfig field -> value) replace the file's values
    before the config is built."""
    raw = _parse_lines(text)
    spec = _pop_state(raw, "state.")
    channel = _pop_channel(raw)
    fields = {name: _convert(key, raw.pop(key), convert)
              for key, (name, convert) in CONFIG_KEYS.items() if key in raw}
    if raw:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(raw))}")
    try:
        return ExperimentConfig(state_spec=spec, channel=channel, **(fields | overrides))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path, out_dir=None, base_seed=None, mode=None) -> ExperimentConfig:
    """Read a config file with the CLI overrides applied, so the quick-mode
    caps apply once, to the final mode."""
    overrides = {}
    if out_dir is not None:
        overrides["out_dir"] = str(out_dir)
    if base_seed is not None:
        overrides["base_seed"] = _convert("--seed", base_seed, _at_least(0))
    if mode is not None:
        overrides["mode"] = _convert("--mode", mode, _one_of(MODES))
    return parse_config(Path(path).read_text(encoding="utf-8-sig"), **overrides)  # -sig drops a BOM


def apply_axis(channel: ChannelParams, axis: str, value: float) -> ChannelParams:
    """Channel for one sweep point, value in kappa units."""
    if axis == "thermalisation_rate":
        if channel.n_bar <= 0:
            raise ConfigError("thermalisation_rate sweep needs channel.n_bar > 0")
        return replace(channel, Gamma_m=value * channel.kappa / channel.n_bar)
    if axis == "interaction_time":
        return replace(channel, tau=value / channel.kappa)
    if axis == "cooperativity":
        product = channel.n_bar * channel.Gamma_m * channel.kappa
        if product <= 0:
            raise ConfigError("cooperativity sweep needs n_bar and Gamma_m > 0")
        return replace(channel, G=math.sqrt(value * product))
    raise ConfigError(f"unknown sweep axis {axis!r}")


# ---------------------------------------------------------------- sweeps

@dataclass
class SweepPoint:
    """One channel setting: built and checked by _point, run by _run_points."""
    sweep_value: float
    channel: ChannelParams
    coeffs: ChannelCoefficients
    seed: int
    report: EnsembleReport | None = None
    wall_clock_s: float = 0.0


@dataclass
class SweepReport:
    config: ExperimentConfig
    lambdas: np.ndarray
    v_analytic: np.ndarray | None   # None for certify, which never emits it
    threshold: np.ndarray
    points: list                    # SweepPoint records, in sweep order
    wall_clock_s: float = 0.0


def analytic_overlay(spec: StateSpec, state, lambdas: np.ndarray) -> np.ndarray:
    """Closed-form curve for cubic states, exact truncated-state curve
    otherwise."""
    if spec.kind == "cubic_phase":
        return classical_threshold(spec.gamma - lambdas)
    return assemble_curve(exact_moment_set(state))(lambdas)


def _point(config: ExperimentConfig, where: str, sweep_value: float,
           channel: ChannelParams, seed: int) -> SweepPoint:
    """The record of one channel setting, checked before any state is built:
    |c_Q| >= CQ_FLOOR keeps the moment hierarchy invertible, and
    |c_Q| dx <= sigma_W / 2 (sigma_W the noise deviation) keeps the lattice
    ripple of the grid nodes in the density of Y_out below about e^{-79}
    (Poisson summation).  A failed check's message starts with where."""
    co = channel_coefficients(channel)
    if abs(co.c_Q) < CQ_FLOOR:
        raise ConfigError(f"{where}: |c_Q| = {abs(co.c_Q):.2e} below "
                          f"{CQ_FLOOR:g}; channel too weak to invert")
    sigma_w, dx = math.sqrt(co.noise_var), config.grid.spacing
    if abs(co.c_Q) * dx > 0.5 * sigma_w:
        raise ConfigError(
            f"{where}: |c_Q| dx = {abs(co.c_Q) * dx:.3g} exceeds half "
            f"the noise deviation {sigma_w:.3g}; raise grid.points")
    return SweepPoint(sweep_value, channel, co, seed)


def _template_point(config: ExperimentConfig, what: str) -> SweepPoint:
    """The one point of reconstruct and certify: the template channel, seed
    base_seed, sweep value 0.0; a failed check names what."""
    if config.channel is None:
        raise ConfigError(f"{what} needs a channel section")
    return _point(config, what, 0.0, config.channel, config.base_seed)


def _run_points(config: ExperimentConfig, points: list, threads: int = 1,
                overlay: bool = True) -> SweepReport:
    """Build the state, its sampling tables and the lambda grid once and run
    one ensemble per point; overlay=False leaves v_analytic None."""
    t0 = perf_counter()
    state = make_state(config.state_spec, grid=config.grid)
    tables = sampling_tables(state, config.grid)
    lam = config.lambda_grid()
    report = SweepReport(
        config=config,
        lambdas=lam,
        v_analytic=analytic_overlay(config.state_spec, state, lam) if overlay else None,
        threshold=np.asarray(classical_threshold(lam)),
        points=points,
    )
    for pt in points:
        t1 = perf_counter()
        pt.report = ensemble_run(tables, pt.coeffs, config.count, config.R, pt.seed, threads)
        pt.wall_clock_s = perf_counter() - t1
    report.wall_clock_s = perf_counter() - t0
    return report


def run_sweep(config: ExperimentConfig, threads: int = 1) -> SweepReport:
    """Ensemble per sweep value; seeds derive from (base_seed, point index).
    Every point is built, and its axis checked, before the state is built."""
    if config.channel is None:
        raise ConfigError("sweep needs a channel section")
    if config.sweep_axis is None:
        raise ConfigError("sweep needs sweep.axis")
    if not config.sweep_values:
        raise ConfigError("sweep needs sweep.values")
    return _run_points(config, [
        _point(config, f"sweep value {sv:g}", sv,
               apply_axis(config.channel, config.sweep_axis, sv), derive_seed(config.base_seed, i))
        for i, sv in enumerate(config.sweep_values)], threads)


def single_run_report(config: ExperimentConfig, threads: int = 1) -> SweepReport:
    """One ensemble at the template channel, packaged as a single-point
    sweep with sweep_value 0.0 so the emitters apply unchanged."""
    return _run_points(config, [_template_point(config, "reconstruction")], threads)


# ---------------------------------------------------------------- emission

def _fmt(x) -> str:
    return format(float(x), ".17g")


def _plot_rows(report: SweepReport):
    """One tuple of plot.csv columns per (sweep point, lambda)."""
    for pt in report.points:
        v_mean, v_std = pt.report.v_stats(report.lambdas)
        for j, lam in enumerate(report.lambdas):
            mean, std = v_mean[j], v_std[j]
            yield (pt.sweep_value, lam, mean, std, mean - std, mean + std,
                   report.v_analytic[j], report.threshold[j])


def _csv(header: str, rows) -> str:
    return "\n".join([header, *(",".join(_fmt(v) for v in row) for row in rows)]) + "\n"


def sweep_csv(report: SweepReport) -> str:
    """plot.csv without the v_lo/v_hi band columns."""
    return _csv(SWEEP_HEADER, (row[:4] + row[6:] for row in _plot_rows(report)))


def emit_plot_data(report: SweepReport) -> str:
    """Plot-ready CSV with the 1-sigma band columns; formatting is fixed
    (17 significant digits, '\\n' endings) so reruns are byte-identical."""
    return _csv(PLOT_HEADER, _plot_rows(report))


def _mean_std(values: np.ndarray) -> dict:
    """Mean and sample deviation over the replicates."""
    return {"mean": float(values.mean()), "std": float(values.std(ddof=1))}


def _point_dict(pt: SweepPoint) -> dict:
    rep = pt.report
    return {
        "sweep_value": pt.sweep_value,
        "channel": _channel_echo(pt.channel),
        "point_seed": pt.seed,
        "replicate_seeds": list(rep.seeds),
        "coefficients": {
            name: {**_mean_std(values), "values": [float(v) for v in values]}
            for name, values in rep.coeff_values.items()
        },
        "mixed_moment": _mean_std(rep.mixed_values),
        "wall_clock_s": pt.wall_clock_s,
    }


def report_dict(report: SweepReport) -> dict:
    return {
        "config": report.config.echo(),
        "lambda": [float(v) for v in report.lambdas],
        "v_analytic": [float(v) for v in report.v_analytic],
        "threshold": [float(v) for v in report.threshold],
        "points": [_point_dict(pt) for pt in report.points],
        "wall_clock_s": report.wall_clock_s,
    }


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="")
    return path


def _write_json(path: Path, data: dict) -> Path:
    return _write(path, json.dumps(data, indent=2) + "\n")


def write_sweep_outputs(report: SweepReport, json_name: str = "report.json") -> dict:
    """Write sweep.csv, plot.csv and the JSON sidecar; returns the paths."""
    out = Path(report.config.out_dir)
    return {"sweep_csv": _write(out / "sweep.csv", sweep_csv(report)),
            "plot_csv": _write(out / "plot.csv", emit_plot_data(report)),
            "report_json": _write_json(out / json_name, report_dict(report))}


# ---------------------------------------------------------------- certify

def certify(config: ExperimentConfig, threads: int = 1) -> dict:
    """Run one ensemble and judge nonclassicality at lambda_star.

    The margin is threshold - V per replicate; the verdict requires the
    mean margin to clear k_sigma ensemble deviations.  For cubic states
    with a configured gamma_G the resource verdict (gamma below 2
    gamma_G) is attached as well.
    """
    point = _template_point(config, "certify")
    spec = config.state_spec
    lam_star = config.lambda_star
    if lam_star is None:
        lam_star = spec.gamma if spec.kind == "cubic_phase" else 0.0
    report = _run_points(config, [point], threads, overlay=False)
    rep = point.report
    v_values = rep.v_at(lam_star)
    v_star = _mean_std(v_values)
    margin = _mean_std(classical_threshold(lam_star) - v_values)
    v_mean, v_std = rep.v_stats(report.lambdas)
    nonclassical_anywhere = bool(np.any(report.threshold - v_mean > config.k_sigma * v_std))
    resource = None
    if spec.kind == "cubic_phase" and config.gamma_G is not None:
        resource = {"gamma": spec.gamma, "gamma_G": config.gamma_G,
                    "satisfied": resource_condition(spec.gamma, config.gamma_G)}
    return {
        "lambda_star": lam_star,
        "v_mean": v_star["mean"],
        "v_std": v_star["std"],
        "threshold": float(classical_threshold(lam_star)),
        "margin_mean": margin["mean"],
        "margin_std": margin["std"],
        "k_sigma": config.k_sigma,
        "nonclassical": bool(margin["mean"] > config.k_sigma * margin["std"]),
        "nonclassical_anywhere": nonclassical_anywhere,
        "resource": resource,
        "replicate_seeds": list(rep.seeds),
        "config": config.echo(),
        "wall_clock_s": report.wall_clock_s,
    }


def state_info(config: ExperimentConfig) -> dict:
    """Exact moments and curve of the configured state, no sampling.  A best
    margin threshold - V within nlsq.MARGIN_TOL of zero is noise: it names
    no lambda, and nonclassical needs a margin above MARGIN_TOL."""
    state = make_state(config.state_spec, grid=config.grid)
    m = exact_moment_set(state)
    curve = assemble_curve(m)
    lam = config.lambda_grid()
    v = curve(lam)
    margins = np.asarray(classical_threshold(lam)) - v
    best = int(np.argmax(margins))
    margin = float(margins[best])
    return {
        "state": _spec_echo(config.state_spec),
        "leakage": state.leakage,
        "moments": {f"phi={PHASE_ORDERS[k][0]:g},n={n}": m.values[k, n]
                    for k in (MINUS, Q, PLUS, P)  # ascending phase
                    for n in range(1, PHASE_ORDERS[k][1] + 1)},
        "mixed_moment": m.mixed,
        "curve": {"a0": curve.a0, "a1": curve.a1, "a2": curve.a2},
        "v_min": float(np.min(v)),
        "lambda_at_v_min": float(lam[int(np.argmin(v))]),
        "best_margin": margin,
        "lambda_at_best_margin": float(lam[best]) if abs(margin) > MARGIN_TOL else None,
        "nonclassical": margin > MARGIN_TOL,
    }


# ---------------------------------------------------------------- CLI

@cache  # a parser keeps no state between parse_args calls, so main reuses one
def build_parser() -> argparse.ArgumentParser:
    commands = {
        "sweep": "run the configured parameter sweep and write CSV/JSON reports",
        "certify": "run one ensemble and emit a nonclassicality certificate",
        "reconstruct": "run one ensemble and write the reconstruction report",
        "state-info": "print exact moments and curve for the configured state",
    }
    ap = argparse.ArgumentParser(
        prog="nlsqueeze",
        description="Simulate and estimate cubic nonlinear squeezing of a mechanical\n"
                    "oscillator read out through a QND optical channel.",
        epilog="commands:\n" + "\n".join(f"  {name:<13}{text}" for name, text in commands.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    # every command takes the same options, so one parser reads them all
    ap.add_argument("command", choices=commands, help="what to run (see commands below)")
    ap.add_argument("--config", required=True, metavar="PATH", help="experiment config file")
    ap.add_argument("--out", default=None, metavar="DIR",
                    help="output directory (overrides output.dir)")
    ap.add_argument("--seed", type=_whole, default=None, metavar="U64",
                    help="override ensemble.base_seed")
    ap.add_argument("--mode", choices=MODES, default=None, help="override mode")
    ap.add_argument("--threads", type=_whole, default=1, metavar="N",
                    help="replicate worker threads, >= 1 (default 1)")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        config = load_config(args.config, out_dir=args.out,
                             base_seed=args.seed, mode=args.mode)
        if args.command in ("sweep", "reconstruct"):
            sweep = args.command == "sweep"
            report = (run_sweep if sweep else single_run_report)(config, threads=args.threads)
            paths = write_sweep_outputs(report, "report.json" if sweep else "reconstruction.json")
            for pt in report.points:  # a sweep prints a0 per point, reconstruct every coefficient
                stats = {name: _mean_std(v) for name, v in pt.report.coeff_values.items()}
                text = "  ".join(f"{name}={s['mean']:.6g}±{s['std']:.2g}"
                                 for name, s in stats.items() if not sweep or name == "a0")
                print(f"sweep_value={pt.sweep_value:g}  {text}  [{pt.wall_clock_s:.2f} s]"
                      if sweep else text)
            print(f"wrote {', '.join(map(str, paths.values()))} "
                  f"in {report.wall_clock_s:.2f} s")
        elif args.command == "certify":
            cert = certify(config, threads=args.threads)
            path = _write_json(Path(config.out_dir) / "certificate.json", cert)
            verdict = "nonclassical" if cert["nonclassical"] else "not certified"
            print(f"V({cert['lambda_star']:g}) = {cert['v_mean']:.6g} "
                  f"± {cert['v_std']:.2g} vs threshold {cert['threshold']:.6g}: "
                  f"{verdict} at {cert['k_sigma']:g} sigma")
            if cert["resource"] is not None:
                state_txt = "sufficient" if cert["resource"]["satisfied"] else "insufficient"
                print(f"resource versus gamma_G={cert['resource']['gamma_G']:g}: {state_txt}")
            print(f"wrote {path}")
        else:
            print(json.dumps(state_info(config), indent=2))
        sys.stdout.flush()  # a closed stdout raises here, not at exit
    except BrokenPipeError:  # the reader left (`| head`): devnull quiets the final flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    return 0
