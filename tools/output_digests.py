"""Print one sha256 per output file of the preset runs, for byte checks.

    python3 tools/output_digests.py [--repo DIR]

Runs every preset in configs/ in quick mode through sweep, reconstruct
and certify, with seed 31 and once each at --threads 1, 2 and 4.  The
presets all sample a pure cubic state, so one more config, written to
the temporary directory, samples a full-rank state: the thermalisation
preset's channel, sweep and ensemble lines with the state set to the
thermal state displaced by 0.3+0.4j at N = 128, run through the same
three commands at --threads 1 and 2.  It covers the exact-moment
overlay, certify's default lambda_star = 0 and the dense marginal.
The script also runs state-info on a fixed state family (vacuum,
coherent at 1.2-0.8j, at 3-2j and on the threshold at 5j, thermal,
cubic at gamma 0.1 and 0.2, cubic displaced by 0.3+0.4j and by
2-1.5j, and thermal displaced by 0.3+0.4j, each at N = 64, 128, 192
and 256).  The package is imported from DIR/src (default: the checkout
this script sits in).
Every file a run writes and its stdout are hashed after masking what
legitimately differs between runs: the value of each "wall_clock_s"
key, the timings printed to stdout, and the output directory.  The
lines read "<sha256>  <preset>/<command>/t<threads>/<file>" (the
full-rank config's preset name is displaced_thermal128) and
"<sha256>  state-info/<state>/stdout", so two checkouts are compared
with diff:

    python3 tools/output_digests.py --repo A > a.txt
    python3 tools/output_digests.py --repo B > b.txt
    diff a.txt b.txt

Uses the standard library only.  A run that exits non-zero stops the
script with its stderr and exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = 31
THREAD_COUNTS = (1, 2, 4)
# (command, threads) of every run per preset
RUNS = [(command, threads) for command in ("sweep", "reconstruct", "certify")
        for threads in THREAD_COUNTS]
# The presets all build one cubic state, so state-info runs on its own
# family; it samples nothing, so one thread count is enough.
CUBIC = {"kind": "cubic_phase", "gamma": "0.1"}
STATES = {
    "vacuum": {"kind": "vacuum"},
    "coherent": {"kind": "coherent", "beta": "1.2-0.8j"},
    # a larger amplitude, whose Fock amplitudes span more decades
    "coherent_far": {"kind": "coherent", "beta": "3-2j"},
    # on the classical threshold (Re beta = 0): its margins are truncation
    # noise at N = 64 and rounding noise at N = 128, 192 and 256, inside
    # nlsq.MARGIN_TOL, so it must read classical with no lambda
    "coherent_threshold": {"kind": "coherent", "beta": "5j"},
    "thermal": {"kind": "thermal", "n_bar": "0.7"},
    "cubic": CUBIC,
    # a phase gamma x^3 that winds many times over the support; at N = 64
    # it leaks 3.9e-9, under LEAK_TOL
    "cubic_strong": {"kind": "cubic_phase", "gamma": "0.2"},
    "displaced": {"kind": "displaced", "alpha": "0.3+0.4j",
                  **{f"inner.{k}": v for k, v in CUBIC.items()}},
    # a larger displacement, so more of the displacement block enters the output
    "displaced_far": {"kind": "displaced", "alpha": "2-1.5j",
                      **{f"inner.{k}": v for k, v in CUBIC.items()}},
    # a full-rank factor through the displacement
    "displaced_thermal": {"kind": "displaced", "alpha": "0.3+0.4j",
                          "inner.kind": "thermal", "inner.n_bar": "0.7"},
}
# 192 is the first N whose default grid grows past extent 18; 256's grid
# (extent 25, 2,844 points) puts the smallest share of its nodes x >= 0
# in the cubic projection's support (544 of 1,422)
STATE_N = (64, 128, 192, 256)
# The sampled full-rank state (state, N); its config takes the lines of
# these sections from the thermalisation preset.
FULL_RANK = ("displaced_thermal", 128)
FULL_RANK_SECTIONS = ("channel.", "sweep.", "ensemble.")
FULL_RANK_RUNS = [(command, threads) for command, threads in RUNS if threads <= 2]
WALL_CLOCK = re.compile(rb'("wall_clock_s": )[-+0-9.eE]+')
PRINTED_SECONDS = re.compile(rb"(\[| in )\d+\.\d+ s")


def masked(data: bytes, out_dir: str) -> bytes:
    data = data.replace(out_dir.encode(), b"<out>")
    data = WALL_CLOCK.sub(rb"\1<masked>", data)
    return PRINTED_SECONDS.sub(rb"\1<seconds>", data)


def state_config(path: Path, keys: dict, N: int, extra: str = "") -> Path:
    keys = dict(keys, N=N, **({"inner.N": N} if "inner.kind" in keys else {}))
    text = "".join(f"state.{k} = {v}\n" for k, v in keys.items())
    path.write_text(text + extra, encoding="utf-8")
    return path


def run(repo: Path, config: Path, command: str, threads: int, out_dir: Path) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    argv = [sys.executable, "-m", "nlsqueeze", command, "--config", str(config),
            "--out", str(out_dir), "--seed", str(SEED), "--mode", "quick",
            "--threads", str(threads)]
    proc = subprocess.run(argv, env=env, capture_output=True, cwd=repo)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        sys.exit(proc.returncode)
    return proc.stdout


def hash_runs(repo: Path, config: Path, name: str, runs: list, tmp: str):
    """Print the digest of every file and stdout of each (command, threads) run."""
    for command, threads in runs:
        out_dir = Path(tmp) / f"{name}-{command}-t{threads}"
        label = f"{name}/{command}/t{threads}"
        files = {"stdout": run(repo, config, command, threads, out_dir)}
        files.update((p.name, p.read_bytes()) for p in sorted(out_dir.glob("*")))
        for file_name, data in files.items():
            digest = hashlib.sha256(masked(data, str(out_dir))).hexdigest()
            print(f"{digest}  {label}/{file_name}", flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="checkout whose src/ and configs/ are run")
    args = ap.parse_args(argv)
    repo = args.repo.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        for preset in sorted((repo / "configs").glob("*.cfg")):
            hash_runs(repo, preset, preset.stem, RUNS, tmp)
        state, N = FULL_RANK
        preset = (repo / "configs" / "thermalisation.cfg").read_text(encoding="utf-8")
        sampled = "".join(f"{line}\n" for line in preset.splitlines()
                          if line.startswith(FULL_RANK_SECTIONS))
        config = state_config(Path(tmp) / f"{state}{N}-sampled.cfg", STATES[state], N, sampled)
        hash_runs(repo, config, f"{state}{N}", FULL_RANK_RUNS, tmp)
        for N in STATE_N:
            for state, keys in STATES.items():
                label = f"{state}{N}"
                config = state_config(Path(tmp) / f"{label}.cfg", keys, N)
                out_dir = Path(tmp) / f"state-info-{label}"  # never written
                stdout = run(repo, config, "state-info", 1, out_dir)
                digest = hashlib.sha256(masked(stdout, str(out_dir))).hexdigest()
                print(f"{digest}  state-info/{label}/stdout", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
