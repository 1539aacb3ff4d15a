"""Command-line entry point: run one experiment or a grid of them.

Exit codes: 0 success, 1 runtime failure, 2 usage/config error.
Progress goes to stderr; machine-readable results go to files/stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import pathlib
import sys
import time

import yaml

from fedfair import __version__, engine
from fedfair.errors import ConfigError, RowParseError, SchemaError

log = logging.getLogger("fedfair")

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def check_output(out: str) -> None:
    """ConfigError unless *out* names a directory that is there or can be
    made: neither it nor a directory above it is a file."""
    if not out:
        raise ConfigError("--output must name a directory")
    path = pathlib.Path(out).absolute()
    if file := next((p for p in (path, *path.parents) if p.is_file()), None):
        raise ConfigError(f"--output {out}: {file} is a file, not a directory")


def cmd_run(args) -> int:
    cfg = engine.read_config(args.config, engine.RUN_KEYS) if args.config else {}
    hyper = engine.hyper_from_config(cfg, rounds=args.rounds, seed=args.seed)

    algorithm = args.algorithm or cfg.get("algorithm", "AgnosticFair")
    spec = engine.AlgorithmSpec(kind=algorithm, hyper=hyper)  # ConfigError if unknown
    train, test, shards = engine.data_from_config(
        cfg.get("dataset") or {}, cfg.get("split") or {"name": "shift"}, hyper.seed
    )
    start = time.perf_counter()
    result = engine.run(spec, train, test, shards)
    wall_s = time.perf_counter() - start
    out = args.output  # made once there are results: a failed run leaves none
    os.makedirs(out, exist_ok=True)
    engine.write_round_csv(os.path.join(out, "rounds.csv"), result)
    record = {
        "algorithm": algorithm,
        "hyper": dataclasses.asdict(hyper),
        "seed": hyper.seed,
        "version": __version__,
        "wall_s": wall_s,
        "final": result.final,
    }
    with open(os.path.join(out, "result.yaml"), "w") as fh:
        yaml.safe_dump(record, fh, sort_keys=False)
    print(
        f"{algorithm}: test_acc={result.final['test_acc']:.4f} "
        f"test_rd={result.final['test_rd']:.4f}"
    )
    return EXIT_OK


def cmd_grid(args) -> int:
    cfg = engine.read_config(args.config, engine.GRID_KEYS)
    summary = engine.experiment_grid(cfg, output_dir=args.output)
    for row in summary:
        acc = row.get("test_acc")
        rd = row.get("test_rd")
        print(
            f"{row['algorithm']:>16s} {row['split']:>8s} "
            f"test_acc={acc:.4f} test_rd={rd:.4f}"
            if acc is not None
            else f"{row['algorithm']:>16s} {row['split']:>8s} FAILED"
        )
    failed = any(r["repetitions_ok"] == 0 for r in summary)
    return EXIT_RUNTIME if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedfair",
        description="Fairness-aware agnostic federated learning simulator",
    )
    parser.add_argument("--log-level", default="INFO", type=str.upper,
                        choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"))
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("run", help="run one training experiment")
    p.add_argument("--config", default=None)
    p.add_argument("--algorithm", default=None)
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", default="fedfair-out")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("grid", help="run an experiment grid from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--output", default="fedfair-out")
    p.set_defaults(func=cmd_grid)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=args.log_level,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    log.setLevel(args.log_level)  # basicConfig does nothing once the root has a handler
    try:
        check_output(args.output)  # before any data is built
        return args.func(args)
    except (ConfigError, SchemaError, RowParseError, FileNotFoundError,
            IsADirectoryError) as exc:
        log.error("%s", exc)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - ProtocolError, bugs
        log.error("runtime failure: %s", exc)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
