"""Workloads: inputs generated from the seed, the runner.main calls of one
round, and the checks applied to every output.

Each workload is a closed loop, one process and one caller; a round is
the sequence of main(argv) calls below.

- quick_sweep: the thermalisation preset in quick mode (7 points x R=5 x
  4 phases x 1e5 samples).  Short records, so fixed per-call costs such
  as the marginal/CDF table (140 builds per round) dominate.
- full_point: certify at the preset's clean point (n_bar Gamma_m tau =
  1e-4), R=6 x 4 phases x 1e6 samples on one thread.  Draw, lookup and
  moment accumulation dominate; table builds barely register.  After the
  timed rounds the same certify runs once, untimed, on two ensemble
  threads (the only call that uses the thread pool); its certificate must
  equal the one-thread certificate.  It is not timed because two threads
  on a shared two-core host measure the neighbours more than the code.
- exact_states: state-info over a seeded family (vacuum, coherent,
  thermal, three cubic, one displaced cubic) at N=128 and N=192.  No
  sampling; exercises build_basis, displace and the exact moments.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
from pathlib import Path

WORKLOADS = ("quick_sweep", "full_point", "exact_states")
REFERENCE_THREADS = 2  # full_point's schedule-independence check

# thermalisation preset: channel template and swept n_bar*Gamma_m (kappa units)
GAMMA = 0.1
CHANNEL = {"G": 0.1, "kappa": 1.0, "n_bar": 1.0e4, "tau": 1.0e3}
THERMAL_RATES = (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1)
QUICK_R = 5          # quick mode caps R at 5 and the count at 1e5
QUICK_COUNT = 100_000
LAMBDA_POINTS = 101  # runner default grid, -0.2 .. 0.4
# R = 6 keeps the margin check at 4.6 replicate sigmas (R = 4 would need
# 14, see sigma_multiple) and splits evenly over two threads.
FULL_R = 6
FULL_COUNT = 1_000_000
FAMILY_N = (128, 192)
# Not drawn from the seed: the cost of displace (a matrix exponential)
# grows with |alpha|, and every seed must do the same work.
DISPLACEMENT = 0.3 + 0.4j
# Share of correct runs that a statistical check may fail by chance.
FALSE_ALARM = 1e-4
GAUSSIAN_TOL = 1e-9  # Gaussian-state curves are exact up to rounding
CUBIC_TOL = 1e-4     # truncated cubic approximant vs closed form (criterion 02)

TINY = {"rates": THERMAL_RATES[:2], "quick_count": 20_000,
        "full_count": 100_000, "family_n": FAMILY_N[:1]}


def sigma_multiple(R: int) -> float:
    """k such that |ensemble mean - truth| <= k * (replicate std) fails
    with probability FALSE_ALARM for a correct program (Student t, R-1 dof)."""
    from scipy.special import stdtrit  # Student t quantile

    return float(stdtrit(R - 1, 1.0 - FALSE_ALARM / 2.0) / math.sqrt(R))


def _write_config(path: Path, keys: dict) -> str:
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8")
    return str(path)


def _channel_keys(rate: float) -> dict:
    keys = {f"channel.{k}": repr(v) for k, v in CHANNEL.items()}
    # same map as the thermalisation_rate sweep axis
    keys["channel.Gamma_m"] = repr(rate * CHANNEL["kappa"] / CHANNEL["n_bar"])
    return keys


def _cubic_keys(N: int = 128, gamma: float = GAMMA, prefix: str = "state.") -> dict:
    return {prefix + "kind": "cubic_phase", prefix + "gamma": repr(gamma), prefix + "N": N}


def _quick_sweep(seed: int, work: Path, tiny: bool) -> dict:
    rates = TINY["rates"] if tiny else THERMAL_RATES
    count = TINY["quick_count"] if tiny else QUICK_COUNT
    out = work / "out"
    cfg = _write_config(work / "quick_sweep.cfg", {
        **_cubic_keys(), **_channel_keys(rates[0]),
        "sweep.axis": "thermalisation_rate",
        "sweep.values": ", ".join(repr(r) for r in rates),
        "ensemble.R": 20, "ensemble.count": count if tiny else 10 ** 6,
        "ensemble.base_seed": seed, "output.dir": out, "mode": "full",
    })
    argv = ["sweep", "--config", cfg, "--mode", "quick", "--seed", str(seed),
            "--threads", "1", "--out", str(out)]
    call = {"argv": argv, "kind": "sweep", "out": str(out), "ops": len(rates),
            "expect": {"points": len(rates), "lambda_points": LAMBDA_POINTS,
                       "gamma": GAMMA, "k": sigma_multiple(QUICK_R)}}
    return {"threads": 1, "setup_config": cfg, "calls": [call], "reference": None,
            "items_per_round": len(rates) * QUICK_R * 4 * count}


def _full_point(seed: int, work: Path, tiny: bool) -> dict:
    count = TINY["full_count"] if tiny else FULL_COUNT
    cfg = _write_config(work / "full_point.cfg", {
        **_cubic_keys(), **_channel_keys(THERMAL_RATES[0]),
        "ensemble.R": FULL_R, "ensemble.count": count,
        "ensemble.base_seed": seed, "output.dir": work / "out", "mode": "full",
    })
    expect = {"gamma": GAMMA, "k": sigma_multiple(FULL_R)}

    def call(n_threads, out):
        return {"argv": ["certify", "--config", cfg, "--seed", str(seed),
                         "--threads", str(n_threads), "--out", str(out)],
                "kind": "certify", "out": str(out), "ops": 1, "expect": expect}

    # the multi-threaded certificate must equal the one-thread certificate
    return {"threads": 1, "setup_config": cfg,
            "calls": [call(1, work / "out")],
            "reference": [call(REFERENCE_THREADS, work / "ref")],
            "items_per_round": FULL_R * 4 * count}


def closed_form(kind: str, gamma=0.0, beta=0j, n_bar=0.0, alpha=0j):
    """(a0, a1, a2) of V(lambda) = a0 + a1 lambda + a2 lambda^2.

    A shift x = sqrt(2) Re(.) of q adds 18 x^2 to a2 (Var(q) = 1/2, and
    <q^3> and Cov(p, q) vanish for these states); shifts of p change
    nothing.  Cubic: V = (1 + 9 (gamma - lambda)^2) / 2.
    """
    if kind == "thermal":
        v = n_bar + 0.5
        return v, 0.0, 18.0 * v * v
    x = math.sqrt(2.0) * (beta.real + alpha.real)
    return 0.5 + 4.5 * gamma * gamma, -9.0 * gamma, 4.5 + 18.0 * x * x


def _exact_states(seed: int, work: Path, tiny: bool) -> dict:
    rng = random.Random(seed)
    gammas = [rng.uniform(0.02, 0.25) for _ in range(3)]
    beta = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    n_bar = rng.uniform(0.1, 2.0)
    gamma_d = rng.uniform(0.02, 0.25)
    alpha = DISPLACEMENT
    calls = []
    setup_config = None
    for N in (TINY["family_n"] if tiny else FAMILY_N):
        family = [
            ("vacuum", {"state.kind": "vacuum", "state.N": N}, closed_form("vacuum"), GAUSSIAN_TOL),
            ("coherent", {"state.kind": "coherent", "state.beta": repr(beta), "state.N": N},
             closed_form("coherent", beta=beta), GAUSSIAN_TOL),
            ("thermal", {"state.kind": "thermal", "state.n_bar": repr(n_bar), "state.N": N},
             closed_form("thermal", n_bar=n_bar), GAUSSIAN_TOL),
        ]
        family += [(f"cubic{i}", _cubic_keys(N, g), closed_form("cubic", gamma=g), CUBIC_TOL)
                    for i, g in enumerate(gammas)]
        family.append(("displaced", {"state.kind": "displaced", "state.alpha": repr(alpha),
                                     "state.N": N, **_cubic_keys(N, gamma_d, "state.inner.")},
                       closed_form("displaced", gamma=gamma_d, alpha=alpha), CUBIC_TOL))
        for label, keys, ref, tol in family:
            cfg = _write_config(work / f"{label}_N{N}.cfg", keys)
            if setup_config is None and label.startswith("cubic"):
                setup_config = cfg
            calls.append({"argv": ["state-info", "--config", cfg], "kind": "state",
                          "out": None, "ops": 1,
                          "expect": {"curve": list(ref), "tol": tol}})
    return {"threads": 1, "setup_config": setup_config, "calls": calls,
            "reference": None, "items_per_round": len(calls)}


def plan(name: str, seed: int, work: Path, tiny: bool = False) -> dict:
    """Write the workload's inputs under work and describe its rounds."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    work.mkdir(parents=True, exist_ok=True)
    if name == "quick_sweep":
        p = _quick_sweep(seed, work, tiny)
    elif name == "exact_states":
        p = _exact_states(seed, work, tiny)
    else:
        p = _full_point(seed, work, tiny)
    p["workload"] = name
    p["ops_per_round"] = sum(c["ops"] for c in p["calls"])
    return p


# ---------------------------------------------------------------- checks

def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _check_sweep(call: dict) -> tuple[int, bytes]:
    """Failed sweep points and the plot.csv bytes."""
    exp = call["expect"]
    data = (Path(call["out"]) / "plot.csv").read_bytes()
    lines = data.decode("utf-8").splitlines()
    col = {name: i for i, name in enumerate(lines[0].split(","))}
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    n_lam = exp["lambda_points"]
    if len(rows) != exp["points"] * n_lam:
        return exp["points"], data
    lam, thr = col["lambda"], col["threshold"]
    mean, std = col["v_mean"], col["v_std"]
    gamma, k = exp["gamma"], exp["k"]
    failed = 0
    for p in range(exp["points"]):
        block = rows[p * n_lam:(p + 1) * n_lam]
        ok = all(_finite(*r) for r in block)
        ok = ok and all(abs(r[thr] - 0.5 * (1.0 + 9.0 * r[lam] ** 2)) <= 1e-12 * r[thr]
                        for r in block)
        if ok and p == 0:  # clean point: V(gamma) against the cubic closed form
            r = min(block, key=lambda r: abs(r[lam] - gamma))
            ok = abs(r[mean] - 0.5 * (1.0 + 9.0 * (gamma - r[lam]) ** 2)) <= k * r[std]
        failed += not ok
    return failed, data


def _check_certificate(call: dict) -> tuple[int, bytes]:
    exp = call["expect"]
    cert = json.loads((Path(call["out"]) / "certificate.json").read_text(encoding="utf-8"))
    cert.pop("wall_clock_s")
    cert["config"].pop("output")  # where it was written is not part of the result
    margin = 4.5 * exp["gamma"] ** 2  # threshold(gamma) - V(gamma) for a cubic state
    ok = (_finite(cert["margin_mean"], cert["margin_std"], cert["v_mean"], cert["v_std"])
          and cert["nonclassical"] is True
          and abs(cert["margin_mean"] - margin) <= exp["k"] * cert["margin_std"])
    return int(not ok), json.dumps(cert, sort_keys=True).encode()


def _check_state(call: dict, stdout: str) -> tuple[int, bytes]:
    exp = call["expect"]
    info = json.loads(stdout)
    got = [info["curve"][k] for k in ("a0", "a1", "a2")]
    ok = _finite(*got, info["v_min"], info["best_margin"], info["leakage"]) and all(
        abs(g - r) <= exp["tol"] * max(1.0, abs(r)) for g, r in zip(got, exp["curve"]))
    return int(not ok), stdout.encode()


def clear_outputs(call: dict):
    """Remove a call's previous outputs so a check never reads stale files."""
    if call["out"]:
        shutil.rmtree(call["out"], ignore_errors=True)


def check(call: dict, rc, stdout: str) -> dict:
    """Failed operations, output digest and bytes written by one call."""
    written = len(stdout.encode())
    if call["out"] and Path(call["out"]).is_dir():
        written += sum(f.stat().st_size for f in Path(call["out"]).iterdir())
    if rc != 0:
        return {"failed": call["ops"], "digest": f"exit {rc}", "bytes": written}
    try:
        if call["kind"] == "sweep":
            failed, payload = _check_sweep(call)
        elif call["kind"] == "certify":
            failed, payload = _check_certificate(call)
        else:
            failed, payload = _check_state(call, stdout)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return {"failed": call["ops"], "digest": f"unreadable: {exc}", "bytes": written}
    return {"failed": failed, "digest": hashlib.sha256(payload).hexdigest(), "bytes": written}
