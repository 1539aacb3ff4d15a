"""fedfair benchmark: training-loop throughput, set-up, memory and outcome.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload shift_flagship --seed 0 --seconds 25 --trace 0

The workload's inputs are generated from ``--seed``. With ``--trace 0`` the
run reports the end-to-end metrics; with ``--trace 1`` it reports the
per-layer metrics of traced runs. Either way it checks the program's
outputs and prints, as the last line of standard output, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``attempted`` and ``failed`` count training rounds. See README.md beside
this file for the workloads, the metrics and reference figures.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads. Under OpenBLAS's default
# pool the Gaussian-basis workloads burn about twice the CPU for no gain in
# wall time, and the spin-waiting threads make timings depend on whatever
# else runs on the machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# the program is imported from this checkout's sources, never from an
# installed copy; without them the benchmark stops before any result
sys.path.insert(0, str(SRC))
try:
    from fedfair import engine
except ImportError as exc:
    sys.exit(f"cannot import fedfair from {SRC}: {exc}")
if Path(engine.__file__).resolve().parent != SRC / "fedfair":
    sys.exit(f"imported fedfair from {engine.__file__}, not from {SRC}")

import checks  # noqa: E402  (both import fedfair)
from tracing import RunObserver, Tracer, patched  # noqa: E402


@dataclass(frozen=True)
class Workload:
    algorithm: str
    n: int
    split: dict
    rounds: int
    #: census draws of one pass, trained one after another; the rate and
    #: the outcome metrics cover them all, so they do not hang on one draw
    datasets: int
    #: set-ups timed before each training run; setup_s is the least of
    #: them all
    setups_per_run: int


WORKLOADS = {
    # the paper's default config: the LP with its fairness row and
    # fit_local share the round time
    "shift_flagship": Workload("AgnosticFair", 6000, {}, 300, 4, 2),
    # no LP and a one-column basis: per-call overhead of fit_local on
    # ~190-row shards dominates
    "even20_localfair": Workload(
        "LocalFair", 6000, {"client_assignment": "even", "num_clients": 20}, 300, 3, 3
    ),
    # a kernel matrix far beyond cache: coefficient extraction and set-up
    # weigh most, and the LP takes its one-row path
    "shift60k_ablation": Workload("AgnosticFair-a", 60000, {}, 30, 3, 1),
}

#: training runs of each draw in a pass; they do the same work round for
#: round, and each block of rounds is timed by its faster run
RUNS_PER_DRAW = 2
#: blocks of rounds a training run is cut into for timing
BLOCKS_PER_RUN = 30


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Bench:
    """One workload at one seed: its datasets, runs, checks and tallies."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def data_seed(self, j: int) -> int:
        """Seed of the j-th census draw of this run."""
        return int(np.random.SeedSequence([self.seed, j]).generate_state(1)[0])

    def spec(self, j: int, rounds: int):
        hyper = replace(engine.HyperParams(), rounds=rounds, seed=self.data_seed(j))
        return engine.AlgorithmSpec(kind=self.workload.algorithm, hyper=hyper)

    def prepare(self, j: int, hooks=()):
        with patched(list(hooks)):
            return engine.prepare_census(
                seed=self.data_seed(j), n=self.workload.n,
                split_kwargs=self.workload.split,
            )

    def setup(self, j: int):
        """One whole set-up of draw j; returns (seconds, data).

        It generates, encodes and splits the census, then ``engine.run``
        with zero rounds builds the basis and calls
        ``protocol.init_protocol``; the clock stops when that returns.
        """
        obs = RunObserver()
        start = time.perf_counter()
        data = self.prepare(j)
        prepared = time.perf_counter()
        with patched(obs.hooks()):
            engine.run(self.spec(j, 0), *data)
        return (prepared - start) + (obs.setup_end - prepared), data

    def run(self, j: int, data, hooks=(), rounds=None):
        """One ``engine.run`` on draw j; returns (result, observer).

        It trains the workload's rounds unless *rounds* is given. The
        result is None when the run raised; its rounds count failed.
        """
        obs = RunObserver()
        rounds = rounds or self.workload.rounds
        self.attempted += rounds
        gc.collect()
        try:
            with patched(obs.hooks() + list(hooks)):
                return engine.run(self.spec(j, rounds), *data), obs
        except Exception as exc:  # noqa: BLE001 - a raising run is counted failed
            self.failed += rounds
            self.notes.append(f"engine.run raised {type(exc).__name__}: {exc}")
            return None, obs

    def check(self, result, obs, data) -> None:
        """Every output check of one run, made after it returned."""
        try:
            errors = checks.check_run(
                obs, result, data[0], data[1],
                select_round=self.workload.algorithm == "LocalFair",
            )
        except Exception as exc:  # noqa: BLE001 - an uncheckable run is failed
            self.failed += self.workload.rounds
            self.notes.append(f"checks raised {type(exc).__name__}: {exc}")
            return
        self.failed += sum(1 for messages in errors.values() if messages)
        self.notes += [f"round {r}: {m}" for r, ms in sorted(errors.items()) for m in ms]

    def same(self, result, reference) -> None:
        """A rerun of a draw must reproduce its result exactly."""
        if not (
            np.array_equal(result.w_final, reference.w_final)
            and result.final == reference.final
        ):
            self.failed += len(result.per_round)
            self.notes.append("a rerun's result differs from the checked run")


def measure(bench: Bench, seconds: float) -> dict:
    """End-to-end metrics: passes of set-ups and training runs.

    A pass trains each of the workload's ``datasets`` census draws
    ``RUNS_PER_DRAW`` times, the draws in turn, so the runs of one draw lie
    apart in time; each run follows ``setups_per_run`` timed set-ups of
    its draw. The runs of one draw do the same work round for round,
    since training is deterministic. Each run is cut into blocks of
    rounds, each block is timed by its fastest run, and the pass's rate
    is its rounds over the sum of those times. The machine is shared:
    other load only ever adds time, and comes in spells of seconds to
    minutes, so the least time of the same work is the steadiest figure
    of the program's own cost. ``setup_s`` is the least of all timed
    set-ups, for the same reason.

    The process makes one pass, then further whole passes over the same
    draws while the last pass would still fit in *seconds* and nothing
    has failed; ``rounds_per_s`` is the median of the passes' rates. The
    first run of each draw is checked after it returns, outside its
    timed span, and every later run of the draw must reproduce its result
    exactly. The outcome metrics are those of the final model, the last
    round's ``w_avg``, averaged over the draws.
    """
    w = bench.workload
    block = max(1, w.rounds // BLOCKS_PER_RUN)
    # warm-up: first-touch allocation, lazy imports, a first short training
    bench.run(0, bench.setup(0)[1], rounds=block)

    setups, rates, references = [], [], {}
    elapsed, last, peak = 0.0, 0.0, None
    while not rates or (elapsed + last <= seconds and not bench.failed):
        began = time.perf_counter()
        blocks = {}
        for _ in range(RUNS_PER_DRAW):
            for j in range(w.datasets):
                for _ in range(w.setups_per_run):
                    took, data = bench.setup(j)
                    setups.append(took)
                result, obs = bench.run(j, data)
                if peak is None:  # before the checks load scipy
                    peak = _peak_rss_mb()
                if result is None:
                    continue
                blocks.setdefault(j, []).append(obs.block_seconds(block))
                if j in references:
                    bench.same(result, references[j])
                else:
                    references[j] = result
                    bench.check(result, obs, data)
        best = sum(float(np.min(times, axis=0).sum()) for times in blocks.values())
        rates.append(len(blocks) * w.rounds / best if best else 0.0)
        last = time.perf_counter() - began
        elapsed += last

    finals = [result.per_round[-1] for result in references.values()]
    print(
        f"{len(rates)} passes, rounds/s {[round(r, 2) for r in rates]}, "
        f"setup_s {min(setups):.4f}..{max(setups):.4f}",
        file=sys.stderr,
    )
    return {
        "rounds_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (min(setups), "s"),
        "peak_rss_mb": (peak, "MB"),
        "test_acc": (statistics.fmean(f["test_acc"] for f in finals) if finals else 0.0,
                     "ratio"),
        "test_parity": (
            statistics.fmean(1.0 - f["test_rd"] for f in finals) if finals else 0.0,
            "ratio",
        ),
    }


#: untraced/traced pairs of short runs, a tenth of the workload's rounds
#: each, behind trace.overhead_pct
OVERHEAD_PAIRS = 12


def trace(bench: Bench, seconds: float) -> dict:
    """Per-layer metrics, all on the first census draw.

    An untraced run is checked; traced runs, at least two and more while
    *seconds* lasts, must reproduce its result. Times are medians over
    the traced runs; a count must be the same in all of them.
    ``trace.overhead_pct`` is the median over short untraced/traced pairs
    of untraced ÷ traced rounds/s − 1. Which run of a pair goes first
    alternates, so a drift of the machine's speed does not favour one.
    """
    w = bench.workload
    bench.setup(0)
    setup_layers = []
    for j in range(w.setups_per_run * w.datasets):
        tracer = Tracer()
        bench.prepare(j % w.datasets, tracer.hooks())
        setup_layers.append(tracer.setup_metrics())

    data = bench.prepare(0)
    metrics = {}
    reference, obs = bench.run(0, data)
    if reference is None:
        return metrics
    bench.check(reference, obs, data)

    layers, timed, last = [], 0.0, 0.0
    while len(layers) < 2 or timed + last <= seconds:
        tracer = Tracer()
        began = time.perf_counter()
        result, obs = bench.run(0, data, tracer.hooks())
        last = time.perf_counter() - began
        timed += last
        if result is None:
            return metrics
        bench.same(result, reference)
        layers.append(tracer.run_metrics(obs.training_seconds()))

    for runs in (setup_layers, layers):
        for name, (_, unit) in runs[0].items():
            values = [run[name][0] for run in runs]
            if unit != "count":
                metrics[name] = (statistics.median(values), unit)
                continue
            metrics[name] = (values[0], unit)
            if len(set(values)) != 1:
                bench.notes.append(f"{name} differs between traced runs: {values}")

    short = max(1, w.rounds // 10)
    ratios = []
    for i in range(OVERHEAD_PAIRS):
        pair = {}
        for with_tracer in ((False, True) if i % 2 == 0 else (True, False)):
            hooks = Tracer().hooks() if with_tracer else ()
            pair[with_tracer] = bench.run(0, data, hooks, rounds=short)
        (plain, plain_obs), (traced, traced_obs) = pair[False], pair[True]
        if plain is None or traced is None:
            return metrics
        bench.same(traced, plain)
        ratios.append(plain_obs.rate() / traced_obs.rate())
    print(f"untraced/traced rates {[round(r, 3) for r in ratios]}", file=sys.stderr)
    metrics["trace.overhead_pct"] = (100.0 * (statistics.median(ratios) - 1.0), "%")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    bench = Bench(WORKLOADS[args.workload], args.seed)
    if args.trace:
        metrics = trace(bench, args.seconds)
    else:
        metrics = measure(bench, args.seconds)

    for note in bench.notes[:20]:
        print(note, file=sys.stderr)
    out = {
        "correct": bench.failed == 0 and not bench.notes,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
