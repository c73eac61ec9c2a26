"""Print one sha256 per output file of the preset runs, for byte checks.

    python3 tools/output_digests.py [--repo DIR]

Runs every preset in configs/ in quick mode through sweep, reconstruct
and certify, with seed 31 and once each at --threads 1, 2 and 4, and
through state-info once, with the package imported from DIR/src
(default: the checkout this script sits in).  Every file a run
writes and its stdout are hashed after masking what legitimately
differs between runs: the value of each "wall_clock_s" key, the
timings printed to stdout, and the output directory.  The lines read
"<sha256>  <preset>/<command>/t<threads>/<file>", so two checkouts are
compared with diff:

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
# (command, threads) of every run per preset; state-info samples nothing
RUNS = [(command, threads) for command in ("sweep", "reconstruct", "certify")
        for threads in THREAD_COUNTS] + [("state-info", 1)]
WALL_CLOCK = re.compile(rb'("wall_clock_s": )[-+0-9.eE]+')
PRINTED_SECONDS = re.compile(rb"(\[| in )\d+\.\d+ s")


def masked(data: bytes, out_dir: str) -> bytes:
    data = data.replace(out_dir.encode(), b"<out>")
    data = WALL_CLOCK.sub(rb"\1<masked>", data)
    return PRINTED_SECONDS.sub(rb"\1<seconds>", data)


def run(repo: Path, preset: Path, command: str, threads: int, out_dir: Path) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    argv = [sys.executable, "-m", "nlsqueeze", command, "--config", str(preset),
            "--out", str(out_dir), "--seed", str(SEED), "--mode", "quick",
            "--threads", str(threads)]
    proc = subprocess.run(argv, env=env, capture_output=True, cwd=repo)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        sys.exit(proc.returncode)
    return proc.stdout


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="checkout whose src/ and configs/ are run")
    args = ap.parse_args(argv)
    repo = args.repo.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        for preset in sorted((repo / "configs").glob("*.cfg")):
            for command, threads in RUNS:
                out_dir = Path(tmp) / f"{preset.stem}-{command}-t{threads}"
                label = f"{preset.stem}/{command}/t{threads}"
                files = {"stdout": run(repo, preset, command, threads, out_dir)}
                # state-info writes no files, so its out_dir never exists
                files.update((p.name, p.read_bytes()) for p in sorted(out_dir.glob("*")))
                for name, data in files.items():
                    digest = hashlib.sha256(masked(data, str(out_dir))).hexdigest()
                    print(f"{digest}  {label}/{name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
