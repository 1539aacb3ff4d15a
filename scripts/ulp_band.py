#!/usr/bin/env python3
"""Criterion 1's last-bit band: how far one-ulp noise moves its figures.

Criterion 1 (and criterion 5, which repeats its test_rd) averages the
final test_rd and test_acc of AgnosticFair over census seeds 0-19 at the
defaults. This reruns those 20 runs twice more: once with the broadcast
``w_avg`` moved one ulp up (``np.nextafter`` towards +inf) after rounds
1, 100 and 200, and once moved one ulp down. It does so by wrapping
``protocol.server_round`` in each worker, so the program gains no option.

It prints each seed's move in test_rd and test_acc, and the band of the
20-seed means over the three runs of each seed. A change that alters
floating-point results can then say whether its criterion-1 move lies
inside this band (rounding noise the loop amplifies) or outside it.

Run from the root of a checkout (two worker processes, one BLAS thread
each; about a minute on two cores):

    python3 scripts/ulp_band.py --out BAND_criterion1.json
"""

import os

# one BLAS thread, as tier-1 and the benchmark run: set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from fedfair import engine, protocol  # noqa: E402

SEEDS = range(20)
NUDGE_ROUNDS = (1, 100, 200)
#: the three runs of each seed: unperturbed, nudged up, nudged down
DIRECTIONS = {"base": 0.0, "up": np.inf, "down": -np.inf}
FIGURES = ("test_rd", "test_acc")
#: worker processes: two keeps the run near a minute and its memory small
WORKERS = 2


def nudging(server_round, towards: float):
    """server_round, with the broadcast w_avg moved one ulp *towards*
    after each round in NUDGE_ROUNDS."""

    def wrapped(state, bundles, cfg):
        bc = server_round(state, bundles, cfg)
        if bc.round not in NUDGE_ROUNDS:
            return bc
        state.w_avg = np.nextafter(bc.w_avg, towards)
        return dataclasses.replace(bc, w_avg=state.w_avg)

    return wrapped


def final_figures(seed: int, direction: str) -> dict:
    """Criterion 1's run at *seed*, nudged in *direction*: its figures."""
    train, test, shards = engine.prepare_census(seed=seed)
    spec = engine.AlgorithmSpec(
        kind="AgnosticFair", hyper=dataclasses.replace(engine.HyperParams(), seed=seed)
    )
    original = protocol.server_round
    if DIRECTIONS[direction]:
        protocol.server_round = nudging(original, DIRECTIONS[direction])
    try:
        final = engine.run(spec, train, test, shards).final
    finally:
        protocol.server_round = original
    return {f: final[f] for f in FIGURES}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the band and every seed's figures here")
    args = ap.parse_args(argv)

    jobs = [(seed, d) for seed in SEEDS for d in DIRECTIONS]
    with ProcessPoolExecutor(WORKERS, mp_context=get_context("spawn")) as pool:
        results = dict(zip(jobs, pool.map(final_figures, *zip(*jobs))))

    per_seed = []
    for seed in SEEDS:
        row = {"seed": seed}
        for f in FIGURES:
            base = results[seed, "base"][f]
            row[f] = {d: results[seed, d][f] for d in DIRECTIONS}
            moves = " ".join(
                f"{d} {results[seed, d][f] - base:+.4f}" for d in DIRECTIONS if d != "base"
            )
            print(f"seed {seed:2d} {f} {base:.4f}: {moves}")
        per_seed.append(row)
    band = {}
    for f in FIGURES:
        means = {d: float(np.mean([results[s, d][f] for s in SEEDS])) for d in DIRECTIONS}
        band[f] = {"means": means, "low": min(means.values()), "high": max(means.values())}
        print(f"20-seed mean {f}: base {means['base']:.5f}, band "
              f"{band[f]['low']:.5f}..{band[f]['high']:.5f}")
    if args.out:
        record = {
            "command": "python3 scripts/ulp_band.py --out " + args.out,
            "criterion": 1,
            "algorithm": "AgnosticFair",
            "seeds": list(SEEDS),
            "nudge_rounds": list(NUDGE_ROUNDS),
            "band": band,
            "per_seed": per_seed,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
