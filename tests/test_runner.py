import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nlsqueeze import readout, runner
from nlsqueeze.errors import ConfigError
from nlsqueeze.estimate import derive_seed
from nlsqueeze.hilbert import default_grid
from nlsqueeze.runner import (
    PLOT_HEADER,
    SWEEP_HEADER,
    apply_axis,
    analytic_overlay,
    build_parser,
    certify,
    emit_plot_data,
    load_config,
    main,
    parse_config,
    run_sweep,
    single_run_report,
    state_info,
    sweep_csv,
    write_sweep_outputs,
)
from nlsqueeze.nlsq import PHASE_ORDERS
from nlsqueeze.readout import ChannelParams
from nlsqueeze.states import StateSpec, make_state

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

FULL_TEXT = """
# exercise every section
state.kind = cubic_phase
state.gamma = 0.1
state.N = 64

channel.G = 0.1
channel.kappa = 1.0
channel.n_bar = 1.0e4
channel.Gamma_m = 1.0e-9
channel.tau = 1.0e3

sweep.axis = thermalisation_rate
sweep.values = 1e-7, 1e-5

ensemble.R = 3
ensemble.count = 4000
ensemble.base_seed = 99

lambda.min = -0.1
lambda.max = 0.3
lambda.points = 9

certify.gamma_G = 0.1
certify.k_sigma = 3

output.dir = unused
mode = full
"""


# ------------------------------------------------------------- parsing

def test_parse_full_config():
    cfg = parse_config(FULL_TEXT)
    assert cfg.state_spec.kind == "cubic_phase"
    assert cfg.state_spec.gamma == 0.1
    assert cfg.channel.n_bar == 1e4
    assert cfg.sweep_axis == "thermalisation_rate"
    assert cfg.sweep_values == (1e-7, 1e-5)
    assert cfg.R == 3 and cfg.count == 4000 and cfg.base_seed == 99
    assert cfg.lambda_points == 9
    assert cfg.gamma_G == 0.1
    assert cfg.mode == "full"


def test_parse_defaults():
    cfg = parse_config("state.kind = vacuum\n")
    assert cfg.channel is None
    assert cfg.sweep_axis is None
    assert cfg.R == 5 and cfg.count == 100_000
    assert cfg.lambda_min == -0.2 and cfg.lambda_max == 0.4
    assert cfg.k_sigma == 3.0


ECHO_DISPLACED = (
    '{"state": {"kind": "displaced", "N": 64, "alpha": "(0.1+0.2j)", "inner": '
    '{"kind": "cubic_phase", "N": 64, "gamma": 0.1}}, "channel": {"G": 0.1, '
    '"Gamma_m": 1e-09, "n_bar": 10000.0, "tau": 1000.0, "kappa": 1.0, '
    '"cooperativity": 1000.0000000000001}, "sweep": {"axis": "thermalisation_rate", '
    '"values": [1e-07, 1e-05]}, "ensemble": {"R": 3, "count": 4000, "base_seed": 99}, '
    '"lambda": {"min": -0.1, "max": 0.3, "points": 9}, "certify": {"lambda_star": 0.15, '
    '"gamma_G": 0.1, "k_sigma": 3.0}, "grid": {"extent": 20.0, "points": 2048}, '
    '"output": {"dir": "unused"}, "mode": "full"}')

ECHO_VACUUM = (
    '{"state": {"kind": "vacuum", "N": 128}, "channel": null, "sweep": {"axis": null, '
    '"values": []}, "ensemble": {"R": 5, "count": 100000, "base_seed": 0}, "lambda": '
    '{"min": -0.2, "max": 0.4, "points": 101}, "certify": {"lambda_star": null, '
    '"gamma_G": null, "k_sigma": 3.0}, "grid": null, "output": {"dir": "."}, '
    '"mode": "full"}')


def test_config_echo_is_pinned():
    # no preset sets grid.* or certify.lambda_star, so the report digests
    # do not cover these echo entries
    text = FULL_TEXT.replace(
        "state.kind = cubic_phase\nstate.gamma = 0.1\nstate.N = 64",
        "state.kind = displaced\nstate.alpha = 0.1+0.2j\nstate.N = 64\n"
        "state.inner.kind = cubic_phase\nstate.inner.gamma = 0.1\nstate.inner.N = 64")
    text += "grid.extent = 20\ngrid.points = 2048\ncertify.lambda_star = 0.15\n"
    assert json.dumps(parse_config(text).echo()) == ECHO_DISPLACED
    assert json.dumps(parse_config("state.kind = vacuum\n").echo()) == ECHO_VACUUM


def test_parse_complex_amplitudes():
    cfg = parse_config("state.kind = coherent\nstate.beta = 0.5+0.25j\n")
    assert cfg.state_spec.beta == 0.5 + 0.25j
    cfg = parse_config("state.kind = coherent\nstate.beta = 0.106j\n")
    assert cfg.state_spec.beta == 0.106j


def test_parse_inner_state():
    text = ("state.kind = displaced\nstate.alpha = 0.3j\n"
            "state.inner.kind = cubic_phase\nstate.inner.gamma = 0.1\n"
            "state.inner.N = 64\n")
    cfg = parse_config(text)
    assert cfg.state_spec.inner.kind == "cubic_phase"
    assert cfg.state_spec.inner.gamma == 0.1


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config("state.kind = vacuum\nstate.gama = 0.1\n")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError):
        parse_config("state.kind = vacuum\nstate.kind = thermal\n")


def test_parse_rejects_bad_lines():
    with pytest.raises(ConfigError):
        parse_config("state.kind vacuum\n")


# key -> (other lines it needs, the field it sets, accepted text -> value,
# rejected texts: fractional, non-finite and below the key's minimum)
WHOLE_KEYS = {
    "state.N": ("", lambda c: c.state_spec.N, {"12": 12, "1.2e1": 12, "1.28e2": 128},
                ["12.5", "inf", "0"]),
    "grid.points": ("state.N = 8\ngrid.extent = 12\n", lambda c: c.grid_points,
                    {"401": 401, "4.01e2": 401, "1e4": 10_000}, ["400.5", "nan", "1"]),
    "lambda.points": ("", lambda c: c.lambda_points, {"9": 9, "1e2": 100},
                      ["9.5", "inf", "0"]),
    "ensemble.R": ("", lambda c: c.R, {"3": 3, "2e1": 20}, ["3.5", "nan", "1"]),
    "ensemble.count": ("", lambda c: c.count,
                       {"9007199254740993": 2 ** 53 + 1, "1e6": 1_000_000, "4000.0": 4000},
                       ["2500.7", "inf", "99", "1e1"]),
    "ensemble.base_seed": ("", lambda c: c.base_seed,
                           {"18446744073709551615": 2 ** 64 - 1, "1e3": 1000, "0": 0},
                           ["0.5", "-inf", "-1"]),
}


@pytest.mark.parametrize("key", WHOLE_KEYS)
def test_whole_number_keys_read_exactly_and_alike(key):
    # digits read as an int, so a count or seed past 2^53 keeps every digit;
    # a whole number in float form reads as that number
    extra, field, accepted, rejected = WHOLE_KEYS[key]
    for text, value in accepted.items():
        got = field(parse_config(f"state.kind = vacuum\n{extra}{key} = {text}\n"))
        assert type(got) is int and got == value
    for text in rejected:
        with pytest.raises(ConfigError, match=re.escape(key.rpartition(".")[0])):
            parse_config(f"state.kind = vacuum\n{extra}{key} = {text}\n")


def test_parse_rejects_bad_sweep_values():
    with pytest.raises(ConfigError):
        parse_config("state.kind = vacuum\nsweep.values = 2, 1\n")
    with pytest.raises(ConfigError):
        parse_config("state.kind = vacuum\nsweep.values = -1, 2\n")
    with pytest.raises(ConfigError):
        parse_config("state.kind = vacuum\nsweep.values = 1, 1\n")


def test_parse_rejects_bad_axis_and_mode():
    with pytest.raises(ConfigError):
        parse_config("state.kind = vacuum\nsweep.axis = detuning\n")
    with pytest.raises(ConfigError):
        parse_config("state.kind = vacuum\nmode = fast\n")


def test_parse_grid_needs_both_entries():
    for grid in ("grid.extent = 20\n", "grid.extent = 20\ngrid.points = 1\n",
                 "grid.extent = -1\ngrid.points = 2048\n"):
        with pytest.raises(ConfigError):
            parse_config("state.kind = vacuum\n" + grid)


def test_parse_grid_is_checked_at_the_inner_dimension():
    # the grid covers inner N = 192 but not the unused outer N = 256
    cfg = parse_config("state.kind = displaced\nstate.alpha = 0.1\nstate.N = 256\n"
                       "state.inner.kind = cubic_phase\nstate.inner.gamma = 0.1\n"
                       "state.inner.N = 192\ngrid.extent = 22\ngrid.points = 2503\n")
    assert cfg.grid == default_grid(192)


def test_config_owns_the_default_grid():
    # without grid.* the config holds the shared default grid of the built
    # state's dimension, which for a displaced state is its inner N
    cubic = parse_config("state.kind = cubic_phase\nstate.gamma = 0.1\nstate.N = 96\n")
    displaced = parse_config("state.kind = displaced\nstate.alpha = 0.1\nstate.N = 256\n"
                             "state.inner.kind = cubic_phase\nstate.inner.gamma = 0.1\n"
                             "state.inner.N = 192\n")
    for cfg, dim in ((cubic, 96), (displaced, 192)):
        assert cfg.state_spec.dim == dim
        assert cfg.grid is default_grid(cfg.state_spec.dim)
        assert cfg.echo()["grid"] is None
    assert displaced.grid != default_grid(256)
    given = parse_config("state.kind = vacuum\ngrid.extent = 20\ngrid.points = 2048\n")
    assert (given.grid.extent, given.grid.n_points) == (20.0, 2048)
    assert given.echo()["grid"] == {"extent": 20.0, "points": 2048}


@pytest.mark.parametrize("key, value, kind", [
    ("beta", "1.5", "coherent"), ("n_bar", "0.5", "thermal"),
    ("gamma", "0.1", "cubic_phase"), ("alpha", "0.3j", "displaced")])
def test_parse_rejects_a_key_of_another_kind(tmp_path, key, value, kind):
    # a vacuum owns none of the four keys
    inner = "state.kind = displaced\nstate.alpha = 0.1\nstate.inner.kind = vacuum\n"
    for text, prefix in (("state.kind = vacuum\n", "state."), (inner, "state.inner.")):
        message = re.escape(f"{prefix}{key} only applies to kind={kind}, not kind=vacuum")
        with pytest.raises(ConfigError, match=message):
            parse_config(text + f"{prefix}{key} = {value}\n")
    cfg = write_cfg(tmp_path, f"state.kind = vacuum\nstate.{key} = {value}\n")
    assert main(["state-info", "--config", cfg]) == 2


def test_parse_rejects_invalid_state():
    with pytest.raises(ConfigError):
        parse_config("state.kind = cubic_phase\nstate.gamma = 0.9\n")


def test_quick_mode_caps():
    text = "state.kind = vacuum\nensemble.R = 50\nensemble.count = 9e9\nmode = quick\n"
    cfg = parse_config(text)
    assert cfg.R == 5
    assert cfg.count == 100_000


def test_load_config_overrides(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text(FULL_TEXT.replace("ensemble.R = 3", "ensemble.R = 20")
                    .replace("ensemble.count = 4000", "ensemble.count = 1e6"))
    cfg = load_config(path, out_dir=tmp_path / "o", base_seed=7, mode="quick")
    assert cfg.base_seed == 7
    assert cfg.mode == "quick"
    assert cfg.out_dir == str(tmp_path / "o")
    assert (cfg.R, cfg.count) == (5, 100_000)  # a full file run quick is capped


def test_full_mode_override_lifts_the_quick_caps(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("state.kind = vacuum\nensemble.R = 20\nensemble.count = 1e6\n"
                    "mode = quick\n")
    cfg = load_config(path, mode="full")
    assert (cfg.mode, cfg.R, cfg.count) == ("full", 20, 1_000_000)


# ------------------------------------------------------------- axes

def test_axis_thermalisation_rate():
    ch = ChannelParams(G=0.1, Gamma_m=1e-9, n_bar=1e4, tau=1e3)
    out = apply_axis(ch, "thermalisation_rate", 1e-3)
    assert out.Gamma_m == pytest.approx(1e-7, rel=1e-12)
    assert out.n_bar == 1e4 and out.G == 0.1


def test_axis_interaction_time():
    ch = ChannelParams(G=0.1, Gamma_m=1e-9, n_bar=1e4, tau=1e3, kappa=2.0)
    out = apply_axis(ch, "interaction_time", 500.0)
    assert out.tau == pytest.approx(250.0)


def test_axis_cooperativity():
    ch = ChannelParams(G=0.1, Gamma_m=1e-8, n_bar=1e4, tau=1e3)
    out = apply_axis(ch, "cooperativity", 10.0)
    assert out.G == pytest.approx(math.sqrt(10.0 * 1e4 * 1e-8), rel=1e-12)


def test_sweep_checks_axis_before_building_the_state(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("state built before the sweep axis was checked")

    monkeypatch.setattr(runner, "make_state", fail)
    for axis, old, new in (("thermalisation_rate", "channel.n_bar = 1.0e4", "channel.n_bar = 0"),
                           ("cooperativity", "channel.Gamma_m = 1.0e-9", "channel.Gamma_m = 0")):
        text = FULL_TEXT.replace("sweep.axis = thermalisation_rate", f"sweep.axis = {axis}")
        text = text.replace(old, new)
        with pytest.raises(ConfigError, match=axis):
            run_sweep(parse_config(text))


def test_axis_requires_positive_inputs():
    ch = ChannelParams(G=0.1, Gamma_m=0.0, n_bar=0.0, tau=1e3)
    with pytest.raises(ConfigError):
        apply_axis(ch, "thermalisation_rate", 1e-3)
    with pytest.raises(ConfigError):
        apply_axis(ch, "cooperativity", 1.0)


# ------------------------------------------------------------- overlay

def test_cubic_overlay_is_closed_form():
    spec = StateSpec(kind="cubic_phase", gamma=0.1, N=64)
    lam = np.linspace(-0.2, 0.4, 31)
    v = analytic_overlay(spec, make_state(spec), lam)
    np.testing.assert_allclose(v, 0.5 * (1.0 + 9.0 * (0.1 - lam) ** 2),
                               atol=1e-12)


def test_vacuum_overlay_matches_threshold():
    spec = StateSpec(kind="vacuum", N=32)
    lam = np.linspace(-0.2, 0.4, 31)
    v = analytic_overlay(spec, make_state(spec), lam)
    np.testing.assert_allclose(v, 0.5 * (1.0 + 9.0 * lam ** 2), atol=1e-10)


# ------------------------------------------------------------- sweep outputs

def small_config(tmp_path, extra=""):
    text = FULL_TEXT.replace("output.dir = unused",
                             f"output.dir = {tmp_path / 'out'}") + extra
    return parse_config(text)


def test_sweep_outputs(tmp_path):
    cfg = small_config(tmp_path)
    report = run_sweep(cfg)
    paths = write_sweep_outputs(report)
    csv_text = paths["plot_csv"].read_text()
    lines = csv_text.strip().split("\n")
    assert lines[0] == PLOT_HEADER
    assert len(lines) == 1 + 2 * 9  # two sweep points, nine lambdas
    row = lines[1].split(",")
    assert len(row) == 8
    # band columns really are mean -/+ std
    mean, std, lo, hi = (float(row[i]) for i in (2, 3, 4, 5))
    assert lo == pytest.approx(mean - std, rel=1e-15)
    assert hi == pytest.approx(mean + std, rel=1e-15)

    sweep_text = paths["sweep_csv"].read_text()
    assert sweep_text.split("\n")[0] == SWEEP_HEADER

    data = json.loads(paths["report_json"].read_text())
    assert data["config"]["state"]["gamma"] == 0.1
    assert len(data["points"]) == 2
    pt = data["points"][0]
    assert len(pt["replicate_seeds"]) == 3
    assert len(pt["coefficients"]["a0"]["values"]) == 3
    assert pt["channel"]["Gamma_m"] == pytest.approx(1e-11, rel=1e-12)
    assert "wall_clock_s" in data


def test_sweep_csv_is_plot_csv_without_band(tmp_path):
    report = run_sweep(small_config(tmp_path))
    plot = [line.split(",") for line in emit_plot_data(report).splitlines()]
    sweep = [line.split(",") for line in sweep_csv(report).splitlines()]
    assert len(sweep) == len(plot) == 1 + 2 * 9
    for sweep_row, plot_row in zip(sweep, plot):
        assert sweep_row == plot_row[:4] + plot_row[6:]


def test_sweep_points_carry_their_channel_coefficients(tmp_path):
    report = run_sweep(small_config(tmp_path))
    assert [pt.sweep_value for pt in report.points] == [1e-7, 1e-5]
    for i, pt in enumerate(report.points):
        assert pt.coeffs == readout.channel_coefficients(pt.channel)
        assert pt.seed == derive_seed(99, i)


def test_sweep_cooperativity_derives_G(tmp_path):
    text = FULL_TEXT.replace("sweep.axis = thermalisation_rate",
                             "sweep.axis = cooperativity")
    text = text.replace("channel.Gamma_m = 1.0e-9", "channel.Gamma_m = 1.0e-8")
    text = text.replace("sweep.values = 1e-7, 1e-5", "sweep.values = 0.1, 10")
    cfg = parse_config(text)
    cfg.out_dir = str(tmp_path)
    report = run_sweep(cfg)
    paths = write_sweep_outputs(report)
    data = json.loads(paths["report_json"].read_text())
    for pt, C in zip(data["points"], (0.1, 10.0)):
        assert pt["channel"]["G"] == pytest.approx(
            math.sqrt(C * 1e4 * 1e-8 * 1.0), rel=1e-12)
        assert pt["channel"]["cooperativity"] == pytest.approx(C, rel=1e-9)


def test_sweep_builds_each_sampling_table_once(monkeypatch):
    calls = []
    original = readout.marginal_density

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(readout, "marginal_density", counted)
    text = FULL_TEXT.replace("sweep.values = 1e-7, 1e-5",
                             "sweep.values = 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1")
    text = text.replace("ensemble.count = 4000", "ensemble.count = 1000")
    report = run_sweep(parse_config(text))
    assert len(report.points) == 7
    assert calls == [phi for phi, _ in PHASE_ORDERS]  # one table per schedule phase


def test_csv_determinism(tmp_path):
    cfg = small_config(tmp_path)
    a = emit_plot_data(run_sweep(cfg))
    b = emit_plot_data(run_sweep(cfg))
    assert a == b
    c = emit_plot_data(run_sweep(cfg, threads=3))
    assert a == c


def test_csv_17_digit_round_trip(tmp_path):
    cfg = small_config(tmp_path)
    report = run_sweep(cfg)
    lines = emit_plot_data(report).strip().split("\n")[1:]
    j = 4
    parsed = float(lines[j].split(",")[2])
    assert parsed == report.points[0].report.v_stats(report.lambdas)[0][j]


def test_empty_sweep_is_rejected_before_building_the_state(monkeypatch):
    # a sweep of no points would write header-only CSVs and exit 0
    def fail(*args, **kwargs):
        raise AssertionError("state built for a sweep of no points")

    monkeypatch.setattr(runner, "make_state", fail)
    for old, new in (("sweep.values = 1e-7, 1e-5", "sweep.values ="),
                     ("sweep.values = 1e-7, 1e-5\n", "")):
        with pytest.raises(ConfigError, match="sweep needs sweep.values"):
            run_sweep(parse_config(FULL_TEXT.replace(old, new)))


def test_single_run_report_uses_zero_sweep_value(tmp_path):
    cfg = small_config(tmp_path)
    report = single_run_report(cfg)
    assert len(report.points) == 1
    assert report.points[0].sweep_value == 0.0
    pt = report.points[0]
    assert pt.channel == cfg.channel and pt.seed == cfg.base_seed == 99
    assert pt.coeffs == readout.channel_coefficients(cfg.channel)
    first_row = emit_plot_data(report).split("\n")[1]
    assert first_row.startswith("0,")


# ------------------------------------------------------------- certify

def certify_config(state_lines, count=50_000, R=4, extra=""):
    text = (state_lines
            + "\nchannel.G = 0.1\nchannel.n_bar = 1.0e4\n"
            + "channel.Gamma_m = 1.0e-9\nchannel.tau = 1.0e3\n"
            + f"ensemble.R = {R}\nensemble.count = {count}\n"
            + "ensemble.base_seed = 5\n" + extra)
    return parse_config(text)


def test_certify_cubic_clean():
    cfg = certify_config("state.kind = cubic_phase\nstate.gamma = 0.1\nstate.N = 96",
                         extra="certify.gamma_G = 0.1\n")
    cert = certify(cfg)
    assert cert["lambda_star"] == 0.1
    assert cert["threshold"] == pytest.approx(0.545)
    assert cert["margin_mean"] == pytest.approx(0.045, abs=0.02)
    assert cert["nonclassical"] is True
    assert cert["resource"]["satisfied"] is True


def test_certify_thermal_never_fires():
    cfg = certify_config("state.kind = thermal\nstate.n_bar = 1.0\nstate.N = 96")
    cert = certify(cfg)
    assert cert["lambda_star"] == 0.0
    assert cert["nonclassical"] is False
    assert cert["nonclassical_anywhere"] is False
    assert cert["resource"] is None


def test_certify_resource_insufficient():
    cfg = certify_config("state.kind = cubic_phase\nstate.gamma = 0.25\nstate.N = 96",
                         extra="certify.gamma_G = 0.1\n")
    cert = certify(cfg)
    assert cert["resource"]["satisfied"] is False


def test_certify_honours_lambda_star():
    cfg = certify_config("state.kind = cubic_phase\nstate.gamma = 0.1\nstate.N = 96",
                         extra="certify.lambda_star = 0.2\n")
    cert = certify(cfg)
    assert cert["lambda_star"] == 0.2
    assert cert["threshold"] == pytest.approx(0.5 * (1.0 + 9.0 * 0.04))


def test_certify_skips_analytic_overlay(monkeypatch):
    # the overlay of a non-cubic state needs exact moments, whose Fock-tail
    # guard may fail where the certificate itself is well defined
    def fail(*args):
        raise AssertionError("certify computed the analytic overlay")

    monkeypatch.setattr(runner, "analytic_overlay", fail)
    cfg = certify_config("state.kind = thermal\nstate.n_bar = 1.0\nstate.N = 64",
                         count=2000, R=2)
    assert certify(cfg)["nonclassical"] is False


# ------------------------------------------------------------- state info

def test_state_info_vacuum():
    info = state_info(parse_config("state.kind = vacuum\nstate.N = 32\n"))
    assert info["curve"]["a0"] == pytest.approx(0.5, abs=1e-10)
    assert info["curve"]["a1"] == pytest.approx(0.0, abs=1e-10)
    assert info["nonclassical"] is False


def test_state_info_cubic():
    info = state_info(parse_config(
        "state.kind = cubic_phase\nstate.gamma = 0.1\nstate.N = 96\n"))
    assert info["nonclassical"] is True
    assert list(info["moments"]) == [
        "phi=-0.785398,n=1", "phi=-0.785398,n=2", "phi=-0.785398,n=3",
        "phi=0,n=1", "phi=0,n=2", "phi=0,n=3", "phi=0,n=4",
        "phi=0.785398,n=1", "phi=0.785398,n=2", "phi=0.785398,n=3",
        "phi=1.5708,n=1", "phi=1.5708,n=2", "phi=1.5708,n=3"]
    assert info["moments"]["phi=1.5708,n=2"] == pytest.approx(0.5675, abs=1e-6)
    assert info["mixed_moment"] == pytest.approx(0.45, abs=1e-6)


ON_THRESHOLD = [
    *((f"vacuum-N{N}", {"kind": "vacuum", "N": N}) for N in (32, 64, 128, 192)),
    *((f"coherent-{beta}-N{N}", {"kind": "coherent", "beta": beta, "N": N})
      for beta in ("1j", "2j", "-1.3j", "-3.3j", "5j") for N in (64, 128)),
    # the largest margins of a scan of beta = iy, y in 0..9 step 0.25, N in 16..192
    *((f"coherent-{beta}-N{N}", {"kind": "coherent", "beta": beta, "N": N})
      for beta, N in (("2.75j", 32), ("4j", 48), ("6.75j", 96), ("8.25j", 128))),
    ("displaced-vacuum-4j-N48", {"kind": "displaced", "alpha": "4j", "N": 48,
                                 "inner.kind": "vacuum", "inner.N": 48}),
]
NONCLASSICAL = [
    *((f"cubic-{gamma}", {"kind": "cubic_phase", "gamma": gamma, "N": 128}, 0.4)
      for gamma in (0.02, 0.1, 0.25)),
    ("displaced-cubic", {"kind": "displaced", "alpha": "0.3+0.4j", "N": 128,
                         "inner.kind": "cubic_phase", "inner.gamma": 0.1, "inner.N": 128}, 0.136),
]


@pytest.mark.parametrize("keys, lam", [
    *(pytest.param(keys, None, id=name) for name, keys in ON_THRESHOLD),
    *(pytest.param(keys, lam, id=name) for name, keys, lam in NONCLASSICAL),
])
def test_state_info_verdict_clears_the_margin_tolerance(keys, lam):
    # on the threshold every margin is rounding or truncation noise (up to
    # 1.5e-7 here, well inside MARGIN_TOL), so no lambda is named and the
    # state reads classical
    info = state_info(parse_config("".join(f"state.{k} = {v}\n" for k, v in keys.items())))
    assert info["nonclassical"] is (lam is not None)
    if lam is None:
        assert info["lambda_at_best_margin"] is None
        assert abs(info["best_margin"]) <= 2e-7
    else:
        assert info["lambda_at_best_margin"] == pytest.approx(lam, abs=1e-12)
        assert info["best_margin"] > 1e-2


# ------------------------------------------------------------- CLI

def write_cfg(tmp_path, text):
    p = tmp_path / "c.cfg"
    p.write_text(text)
    return str(p)


def test_cli_state_info(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "state.kind = cubic_phase\nstate.gamma = 0.1\nstate.N = 64\n")
    rc = main(["state-info", "--config", cfg])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["curve"]["a2"] == pytest.approx(4.5, abs=1e-4)


def test_cli_state_info_of_a_displaced_state_needs_no_outer_N(tmp_path, capsys):
    # inner N = 192 outgrows the extent-18 grid of the default outer N = 128
    cfg = write_cfg(tmp_path, "state.kind = displaced\nstate.alpha = 0.3+0.4j\n"
                    "state.inner.kind = cubic_phase\nstate.inner.gamma = 0.1\n"
                    "state.inner.N = 192\n")
    rc = main(["state-info", "--config", cfg])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["state"]["N"] == 128


def test_cli_state_info_rejects_a_displacement_past_the_kept_block(tmp_path, capsys):
    # the displaced vacuum sits near level 400, wholly above inner N = 64
    cfg = write_cfg(tmp_path, "state.kind = displaced\nstate.alpha = 20\n"
                    "state.inner.kind = vacuum\nstate.inner.N = 64\n")
    rc = main(["state-info", "--config", cfg])
    assert rc == 3
    assert "leaks 1.00e+00" in capsys.readouterr().err


COMMANDS = ("sweep", "certify", "reconstruct", "state-info")
ALL_OPTIONS = ["--config", "c.cfg", "--out", "o", "--seed", "7", "--mode", "quick",
               "--threads", "2"]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("options, expected", [
    (["--config", "c.cfg"], {"config": "c.cfg", "out": None, "seed": None, "mode": None,
                             "threads": 1}),
    (ALL_OPTIONS, {"config": "c.cfg", "out": "o", "seed": 7, "mode": "quick", "threads": 2}),
    # whole numbers in float form, read as ensemble.base_seed reads them
    (["--config", "c.cfg", "--seed", "1e3", "--threads", "2e0"],
     {"config": "c.cfg", "out": None, "seed": 1000, "mode": None, "threads": 2}),
], ids=["defaults", "all-options", "float-form"])
def test_cli_grammar(command, options, expected):
    assert vars(build_parser().parse_args([command, *options])) == {"command": command,
                                                                     **expected}


def test_cli_builds_its_parser_once(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path, "state.kind = vacuum\nstate.N = 8\n")
    assert main(["state-info", "--config", cfg]) == 0
    built, init = [], argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(2):
        assert main(["state-info", "--config", cfg]) == 0
    assert built == [] and build_parser() is build_parser()


def test_cli_options_may_precede_the_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "state.kind = coherent\nstate.beta = 0.5j\nstate.N = 32\n")
    outputs = []
    for argv in (["state-info", "--config", cfg, "--seed", "3"],
                 ["--config", cfg, "--seed", "3", "state-info"]):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and json.loads(outputs[0])["state"]["kind"] == "coherent"


@pytest.mark.parametrize("argv", [
    ["plot", "--config", "c.cfg"],
    ["state-info"],
    ["sweep", "--config", "c.cfg", "--threads", "two"],
    ["certify", "--config", "c.cfg", "--mode", "medium"],
    ["certify", "--config", "c.cfg", "--seed", "2500.7"],
], ids=["unknown-command", "no-config", "threads-not-int", "unknown-mode", "seed-not-whole"])
def test_cli_rejects_bad_arguments(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for command in COMMANDS:
        assert re.search(rf"^  {command} +\w+", out, re.MULTILINE), command
    for option in ALL_OPTIONS[::2]:
        assert option in out


def test_cli_accepts_a_config_with_a_byte_order_mark(tmp_path, capsys):
    # Notepad starts a UTF-8 file with U+FEFF, which must not join the first key
    text = "state.kind = cubic_phase\nstate.gamma = 0.1\nstate.N = 64\n"
    outputs = []
    for name, data in (("plain.cfg", text.encode()), ("bom.cfg", b"\xef\xbb\xbf" + text.encode())):
        (tmp_path / name).write_bytes(data)
        assert main(["state-info", "--config", str(tmp_path / name)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_cli_missing_config_file(tmp_path):
    rc = main(["sweep", "--config", str(tmp_path / "none.cfg")])
    assert rc == 2


def test_cli_bad_config(tmp_path):
    cfg = write_cfg(tmp_path, "state.kind = nonsense\n")
    rc = main(["state-info", "--config", cfg])
    assert rc == 2


@pytest.mark.parametrize("command, edits, argv, key", [
    ("sweep", {"channel.G = 0.1": "channel.G = nan"}, [], "channel.G"),
    ("sweep", {"channel.tau = 1.0e3": "channel.tau = inf"}, [], "channel.tau"),
    ("sweep", {"sweep.values = 1e-7, 1e-5": "sweep.values = 1e-7, inf"}, [], "sweep.values"),
    ("sweep", {"ensemble.count = 4000": "ensemble.count = inf"}, [], "ensemble.count"),
    ("certify", {"certify.k_sigma = 3": "certify.k_sigma = nan"}, [], "certify.k_sigma"),
    ("certify", {"state.kind = cubic_phase\nstate.gamma = 0.1": "state.kind = vacuum",
                 "certify.k_sigma = 3": "certify.k_sigma = -3"}, [], "certify.k_sigma"),
    ("sweep", {}, ["--threads", "0"], "--threads"),
    ("sweep", {}, ["--threads", "-2"], "--threads"),
    ("sweep", {}, ["--seed", "-1"], "--seed"),
    ("sweep", {"ensemble.base_seed = 99": "ensemble.base_seed = -1"}, [],
     "ensemble.base_seed"),
    ("certify", {"ensemble.R = 3": "ensemble.R = 1"}, [], "ensemble.R"),
    ("certify", {"ensemble.count = 4000": "ensemble.count = 50"}, [], "ensemble.count"),
    ("sweep", {"ensemble.count = 4000": "ensemble.count = 2500.7"}, [], "ensemble.count"),
    ("certify", {"mode = full": "mode = full\ngrid.extent = 6\ngrid.points = 400"}, [],
     "grid.extent"),
    ("certify", {"state.kind = cubic_phase\nstate.gamma = 0.1\nstate.N = 64":
                 "state.kind = displaced\nstate.alpha = 0.1\nstate.N = 16\n"
                 "state.inner.kind = cubic_phase\nstate.inner.gamma = 0.1\n"
                 "state.inner.N = 64",
                 "mode = full": "mode = full\ngrid.extent = 8\ngrid.points = 400"}, [],
     "grid.extent"),
    # the extent covers N = 128, but 150 points fail the orthonormality check
    ("state-info", {"state.N = 64": "state.N = 128",
                    "mode = full": "mode = full\ngrid.extent = 18\ngrid.points = 150"}, [],
     "add grid points"),
    ("certify", {"certify.gamma_G = 0.1": "certify.gamma_G = 0"}, [], "certify.gamma_G"),
    ("certify", {"state.gamma = 0.1": "state.gamma = -0.1"}, [], "certify.gamma_G"),
], ids=["G-nan", "tau-inf", "sweep-inf", "count-inf", "k_sigma-nan", "k_sigma-negative",
        "threads-zero", "threads-negative", "seed-negative", "base_seed-negative",
        "R-one", "count-below-100", "count-fractional", "grid-too-small",
        "grid-too-small-for-inner", "grid-too-coarse", "gamma_G-zero",
        "gamma_G-with-negative-gamma"])
def test_cli_rejects_bad_numbers(tmp_path, capsys, command, edits, argv, key):
    text = FULL_TEXT
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    out = tmp_path / "out"
    rc = main([command, "--config", write_cfg(tmp_path, text), "--out", str(out), *argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert not out.exists()  # rejected before any sampling or output


NO_CHANNEL = {"channel.G = 0.1\nchannel.kappa = 1.0\nchannel.n_bar = 1.0e4\n"
              "channel.Gamma_m = 1.0e-9\nchannel.tau = 1.0e3\n": ""}


@pytest.mark.parametrize("command, edits, message", [
    ("state-info", {"state.kind = cubic_phase\n": ""}, "missing state.kind"),
    ("state-info", {"state.N = 64": "state.N = 64\nstate.inner.kind = vacuum"},
     "state.inner.* only applies to kind=displaced"),
    ("sweep", {"channel.tau = 1.0e3\n": ""},
     "channel section needs at least channel.G and channel.tau"),
    ("sweep", {"channel.tau = 1.0e3": "channel.tau = 0"},
     "invalid channel parameters: tau must be > 0, got 0.0"),
    ("sweep", NO_CHANNEL, "sweep needs a channel section"),
    ("sweep", {"sweep.axis = thermalisation_rate\n": ""}, "sweep needs sweep.axis"),
    ("sweep", {"sweep.values = 1e-7, 1e-5": "sweep.values ="}, "sweep needs sweep.values"),
    ("sweep", {"sweep.values = 1e-7, 1e-5\n": ""}, "sweep needs sweep.values"),
    ("reconstruct", NO_CHANNEL, "reconstruction needs a channel section"),
    ("certify", NO_CHANNEL, "certify needs a channel section"),
], ids=["missing-kind", "inner-on-cubic", "channel-without-tau", "channel-tau-zero",
        "sweep-without-channel", "sweep-without-axis", "sweep-with-empty-values",
        "sweep-without-values", "reconstruct-without-channel",
        "certify-without-channel"])
def test_cli_rejects_incomplete_sections(tmp_path, capsys, command, edits, message):
    text = FULL_TEXT
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    out = tmp_path / "out"
    rc = main([command, "--config", write_cfg(tmp_path, text), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("gamma_G, verdict", [("0.1", "sufficient"), ("0.04", "insufficient")])
def test_cli_certify_prints_the_resource_verdict(tmp_path, capsys, gamma_G, verdict):
    # state.gamma = 0.1 is a resource against gamma_G exactly when 0.1 < 2 gamma_G
    text = FULL_TEXT.replace("certify.gamma_G = 0.1", f"certify.gamma_G = {gamma_G}")
    rc = main(["certify", "--config", write_cfg(tmp_path, text), "--out", str(tmp_path / "c")])
    assert rc == 0
    assert f"resource versus gamma_G={gamma_G}: {verdict}\n" in capsys.readouterr().out
    cert = json.loads((tmp_path / "c" / "certificate.json").read_text())
    assert cert["resource"]["satisfied"] == (verdict == "sufficient")


@pytest.mark.parametrize("command, value", [("sweep", "1e-07"), ("reconstruct", "0"),
                                            ("certify", "0")])
def test_cli_rejects_a_coarse_lattice_before_building_the_state(tmp_path, capsys,
                                                                monkeypatch, command, value):
    # |c_Q| dx = 8.94 * 36/256 = 1.26 > sigma_W / 2 = 0.35 at every point
    calls = []
    monkeypatch.setattr(runner, "make_state", lambda *a, **k: calls.append(a))
    text = FULL_TEXT.replace("mode = full", "mode = full\ngrid.extent = 18\ngrid.points = 257")
    out = tmp_path / "out"
    rc = main([command, "--config", write_cfg(tmp_path, text), "--out", str(out)])
    assert rc == 2 and calls == []
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "grid.points" in err
    # only a sweep names its sweep value; reconstruct and certify run none
    assert (f"sweep value {value}:" in err) == (command == "sweep")
    assert not out.exists()


@pytest.mark.parametrize("points, rejected", [(900, True), (920, False)])
def test_lattice_guard_sits_at_half_the_noise_deviation(monkeypatch, points, rejected):
    # at sweep value 1e-7, |c_Q| dx / sigma_W is 0.505 with 900 points and
    # 0.494 with 920; the other point stays near 0.4
    class Built(Exception):
        pass

    def built(*args, **kwargs):
        raise Built

    monkeypatch.setattr(runner, "make_state", built)
    config = parse_config(FULL_TEXT.replace(
        "mode = full", f"mode = full\ngrid.extent = 18\ngrid.points = {points}"))
    with pytest.raises(ConfigError if rejected else Built, match="1e-07" if rejected else None):
        run_sweep(config)


@pytest.mark.parametrize("command, value", [("sweep", "1e-07"), ("reconstruct", "0"),
                                            ("certify", "0")])
def test_cli_rejects_a_weak_channel_before_building_the_state(tmp_path, capsys,
                                                              monkeypatch, command, value):
    # G = 0 gives c_Q = 0 at every point, so the hierarchy cannot be inverted
    calls = []
    monkeypatch.setattr(runner, "make_state", lambda *a, **k: calls.append(a))
    text = FULL_TEXT.replace("channel.G = 0.1", "channel.G = 0")
    out = tmp_path / "out"
    rc = main([command, "--config", write_cfg(tmp_path, text), "--out", str(out)])
    assert rc == 2 and calls == []
    where = {"sweep": f"sweep value {value}", "reconstruct": "reconstruction",
             "certify": "certify"}[command]
    assert capsys.readouterr().err == (f"config error: {where}: |c_Q| = 0.00e+00 "
                                       "below 1e-06; channel too weak to invert\n")
    assert not out.exists()


@pytest.mark.parametrize("command, where", [("reconstruct", "reconstruction"),
                                            ("certify", "certify")])
@pytest.mark.parametrize("edits, message", [
    ({"channel.G = 0.1": "channel.G = 1e-9"},
     "|c_Q| = 8.94e-08 below 1e-06; channel too weak to invert"),
    ({"mode = full": "mode = full\ngrid.extent = 18\ngrid.points = 257"},
     "|c_Q| dx = 1.26 exceeds half the noise deviation 0.876; raise grid.points"),
], ids=["weak", "coarse"])
def test_cli_names_the_command_of_a_template_point(tmp_path, capsys, command, where,
                                                   edits, message):
    # reconstruct and certify run the template channel alone, no sweep value
    text = FULL_TEXT
    for old, new in edits.items():
        text = text.replace(old, new)
    out = tmp_path / "out"
    rc = main([command, "--config", write_cfg(tmp_path, text), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: {where}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("G, rejected", [("1.1e-8", True), ("1.12e-8", False)])
def test_weak_channel_guard_sits_at_the_cq_floor(monkeypatch, G, rejected):
    # |c_Q| is 9.84e-7 at G = 1.1e-8 and 1.0018e-6 at G = 1.12e-8 at both points
    class Built(Exception):
        pass

    def built(*args, **kwargs):
        raise Built

    monkeypatch.setattr(runner, "make_state", built)
    config = parse_config(FULL_TEXT.replace("channel.G = 0.1", f"channel.G = {G}"))
    with pytest.raises(ConfigError if rejected else Built,
                       match="1e-07: [|]c_Q[|] = 9.84e-07" if rejected else None):
        run_sweep(config)


def test_cli_numerical_error_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, "state.kind = cubic_phase\nstate.gamma = 0.35\nstate.N = 24\n")
    rc = main(["state-info", "--config", cfg])
    assert rc == 3


def test_cli_out_of_range_record_is_a_numerical_error(tmp_path, capsys):
    # a finite coupling so strong that the fourth output moment is no float
    text = FULL_TEXT.replace("channel.G = 0.1", "channel.G = 1e80")
    with pytest.warns(UserWarning, match="adiabatic"):
        rc = main(["certify", "--config", write_cfg(tmp_path, text),
                   "--out", str(tmp_path / "out")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("numerical error:")


def test_cli_sweep_and_reconstruct(tmp_path, capsys):
    text = FULL_TEXT.replace("ensemble.count = 4000", "ensemble.count = 1000")
    cfg = write_cfg(tmp_path, text)
    rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")])
    assert rc == 0
    assert (tmp_path / "s" / "sweep.csv").exists()
    assert (tmp_path / "s" / "plot.csv").exists()
    assert (tmp_path / "s" / "report.json").exists()
    capsys.readouterr()
    rc = main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "r"),
               "--seed", "11"])
    assert rc == 0
    data = json.loads((tmp_path / "r" / "reconstruction.json").read_text())
    assert data["config"]["ensemble"]["base_seed"] == 11


def test_cli_certify_writes_certificate(tmp_path, capsys):
    text = ("state.kind = cubic_phase\nstate.gamma = 0.1\nstate.N = 64\n"
            "channel.G = 0.1\nchannel.n_bar = 1.0e4\n"
            "channel.Gamma_m = 1.0e-9\nchannel.tau = 1.0e3\n"
            "ensemble.R = 3\nensemble.count = 20000\nensemble.base_seed = 2\n")
    cfg = write_cfg(tmp_path, text)
    rc = main(["certify", "--config", cfg, "--out", str(tmp_path / "cert")])
    assert rc == 0
    cert = json.loads((tmp_path / "cert" / "certificate.json").read_text())
    assert cert["lambda_star"] == 0.1
    assert "nonclassical" in cert


def child_env():
    """Environment in which a child imports the same package as this
    process, installed or not."""
    src = str(Path(runner.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_module_entry_point(tmp_path):
    cfg = write_cfg(tmp_path, "state.kind = vacuum\nstate.N = 16\n")
    proc = subprocess.run([sys.executable, "-m", "nlsqueeze", "state-info",
                           "--config", cfg], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["curve"]["a0"] == pytest.approx(0.5, abs=1e-10)


def test_cli_closed_stdout_exits_1_quietly(tmp_path):
    # `state-info | head -1`: a pipe whose read end is already closed makes
    # the first write fail with EPIPE, deterministically
    cfg = write_cfg(tmp_path, "state.kind = vacuum\nstate.N = 16\n")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "nlsqueeze", "state-info",
                               "--config", cfg], stdout=write_end, stderr=subprocess.PIPE,
                              text=True, env=child_env())
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""  # no config error, and the final flush stays quiet


def test_runtime_imports_no_scipy():
    # scipy is a test-only dependency; the package itself needs only numpy
    code = ("import sys, nlsqueeze.runner; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_state_info_imports_no_thread_pool(tmp_path):
    # only ensemble_run with threads > 1 needs concurrent.futures
    cfg = write_cfg(tmp_path, "state.kind = vacuum\nstate.N = 16\n")
    code = ("import sys; from nlsqueeze.runner import main; "
            f"rc = main(['state-info', '--config', {cfg!r}]); "
            "print(rc, 'concurrent.futures' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


# ------------------------------------------------------------- presets

@pytest.mark.parametrize("name", ["thermalisation.cfg", "interaction_time.cfg",
                                  "cooperativity.cfg"])
def test_presets_parse(name):
    cfg = parse_config((CONFIGS / name).read_text())
    assert cfg.sweep_axis in ("thermalisation_rate", "interaction_time",
                              "cooperativity")
    assert cfg.R == 20 and cfg.count == 1_000_000
    assert len(cfg.sweep_values) >= 4
