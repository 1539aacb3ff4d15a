#!/usr/bin/env python3
"""Criterion 1's last-bit band: how far one-ulp noise moves its figures.

Criterion 1 (and criterion 5, which repeats its test_rd) averages the
final test_rd and test_acc of AgnosticFair over census seeds 0-19 at the
defaults. This reruns each of those 20 runs 14 times more, each time
with the broadcast ``w_avg`` moved one ulp (``np.nextafter``) up or down:
once after each of rounds 1, 100 and 200 in the same run, in each
direction, and once after a single round, for each of rounds 1, 50,
100, 150, 200 and 250 and each direction. It does so by wrapping
``protocol.server_round`` in each worker, so the program gains no option.

It prints each seed's range of moves in test_rd and test_acc, and the
band of the 20-seed means over the 15 runs of each seed. A change that
alters floating-point results can then say whether its criterion-1 move
lies inside this band (rounding noise the loop amplifies) or outside it.
The record names the checkout it ran on (``git describe``).

Run from the root of a checkout (two worker processes, one BLAS thread
each; about three minutes on two cores):

    python3 scripts/ulp_band.py --out BAND_criterion1.json
"""

import os

# one BLAS thread, as tier-1 and the benchmark run: set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from fedfair import engine, protocol  # noqa: E402

SEEDS = range(20)
DIRECTIONS = {"up": np.inf, "down": -np.inf}
#: each seed's runs: name -> (rounds after which w_avg moves, direction);
#: "base" is unperturbed, "up" and "down" move after all three of rounds
#: 1, 100 and 200, and "up@r" and "down@r" after round r alone
NUDGES = {
    "base": ((), 0.0),
    **{d: ((1, 100, 200), towards) for d, towards in DIRECTIONS.items()},
    **{f"{d}@{r}": ((r,), towards)
       for r in (1, 50, 100, 150, 200, 250) for d, towards in DIRECTIONS.items()},
}
FIGURES = ("test_rd", "test_acc")
#: worker processes: two keeps the run near three minutes and its memory small
WORKERS = 2


def nudging(server_round, rounds, towards: float):
    """server_round, with the broadcast w_avg moved one ulp *towards*
    after each round in *rounds*."""

    def wrapped(state, bundles, cfg):
        bc = server_round(state, bundles, cfg)
        if bc.round not in rounds:
            return bc
        state.bc = dataclasses.replace(bc, w_avg=np.nextafter(bc.w_avg, towards))
        return state.bc

    return wrapped


def final_figures(seed: int, nudge: str) -> dict:
    """Criterion 1's run at *seed*, nudged as NUDGES[*nudge*]: its figures."""
    train, test, shards = engine.prepare_census(seed=seed)
    spec = engine.AlgorithmSpec(
        kind="AgnosticFair", hyper=dataclasses.replace(engine.HyperParams(), seed=seed)
    )
    original = protocol.server_round
    rounds, towards = NUDGES[nudge]
    if rounds:
        protocol.server_round = nudging(original, rounds, towards)
    try:
        final = engine.run(spec, train, test, shards).final
    finally:
        protocol.server_round = original
    return {f: final[f] for f in FIGURES}


def checkout() -> str:
    """``git describe --always --dirty`` of the checkout this runs from,
    or "unknown" outside a git checkout (an exported copy, say)."""
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the band and every seed's figures here")
    args = ap.parse_args(argv)
    tree = checkout()  # before the runs, which take minutes

    jobs = [(seed, nudge) for seed in SEEDS for nudge in NUDGES]
    with ProcessPoolExecutor(WORKERS, mp_context=get_context("spawn")) as pool:
        results = dict(zip(jobs, pool.map(final_figures, *zip(*jobs))))

    per_seed = []
    for seed in SEEDS:
        row = {"seed": seed}
        for f in FIGURES:
            base = results[seed, "base"][f]
            row[f] = {nudge: results[seed, nudge][f] for nudge in NUDGES}
            moves = [v - base for v in row[f].values()]
            print(f"seed {seed:2d} {f} {base:.4f}: moves {min(moves):+.4f}..{max(moves):+.4f}")
        per_seed.append(row)
    band = {}
    for f in FIGURES:
        means = {nudge: float(np.mean([results[s, nudge][f] for s in SEEDS]))
                 for nudge in NUDGES}
        band[f] = {"means": means, "low": min(means.values()), "high": max(means.values())}
        print(f"20-seed mean {f}: base {means['base']:.5f}, band "
              f"{band[f]['low']:.5f}..{band[f]['high']:.5f}")
    if args.out:
        record = {
            "command": "python3 scripts/ulp_band.py --out " + args.out,
            "tree": tree,
            "criterion": 1,
            "algorithm": "AgnosticFair",
            "seeds": list(SEEDS),
            "nudges": {nudge: {"rounds": list(rounds), "towards": "+inf" if t > 0 else "-inf"}
                       for nudge, (rounds, t) in NUDGES.items() if rounds},
            "band": band,
            "per_seed": per_seed,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
