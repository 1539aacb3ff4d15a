#!/usr/bin/env python3
"""Generate the census-like CSV plus a schema file for the CLI.

The public survey dataset the experiments were originally calibrated on
cannot be redistributed here, so this writes the built-in synthetic
substitute instead (stated substitution, not silent). The schema file's
split section names the census's shift column and its group-A values
(``engine.CENSUS_SHIFT``); how the rows are split, and at what seed, is
set by the config that reads the CSV, as for the census itself.

Usage: python3 scripts/make_dataset.py --out data/ --n 6000 --seed 0
"""

import argparse
import dataclasses
import os

import yaml

from fedfair import engine


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="data")
    ap.add_argument("--n", type=int, default=engine.CENSUS_N)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.n < 1:
        ap.error(f"--n must be at least 1, not {args.n}")

    os.makedirs(args.out, exist_ok=True)
    table = engine.generate_census_like(args.n, args.seed)
    csv_path = os.path.join(args.out, "census.csv")
    engine.write_census_csv(csv_path, table)

    column, group_a = engine.CENSUS_SHIFT
    schema = {
        "columns": [dataclasses.asdict(c) for c in engine.CENSUS_SCHEMA.columns],
        "split": {"split_column": column, "group_a_values": sorted(group_a)},
    }
    schema_path = os.path.join(args.out, "schema.yaml")
    with open(schema_path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(schema, fh, sort_keys=False)
    print(f"wrote {csv_path} ({args.n} rows) and {schema_path}")


if __name__ == "__main__":
    main()
