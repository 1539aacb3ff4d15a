#!/usr/bin/env python3
"""Digest every variant's run of a source tree, or compare two digests.

``run`` trains all seven variants at the defaults (census seed 0, 300
rounds) on the by-group split and on even 20- and 7-shard splits, with the
fedfair package of the tree given, and writes each run's ``w_final``,
``alpha_final``, ``per_round`` and ``final`` to a JSON file. Floats are
written with ``repr``, so they read back bit for bit.

``compare`` reads two digests and prints, for each run, the largest
absolute and relative difference of its floats, the largest
``|Δw_final|``, and whether its integer and text fields (round numbers,
LP status, alpha counts) are equal. It exits 1 when the runs or the
integer and text fields differ, or when ``|Δw_final|`` exceeds
``W_TOL``.

Run from anywhere (one process, one BLAS thread; about 30 s on one core):

    python3 scripts/run_digest.py run --tree /path/to/parent --out parent.json
    python3 scripts/run_digest.py run --out change.json
    python3 scripts/run_digest.py compare parent.json change.json
"""

import os

# one BLAS thread, as tier-1 and the benchmark run: set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

#: largest |Δw_final| that compare passes: last-bit moves, not new results
W_TOL = 1e-12

SPLITS = {
    "by_group": None,
    "even20": {"client_assignment": "even", "num_clients": 20},
    # 544 rows for the first client, 543 for the other six: two runs of
    # equal-sized clients, one of them a single client
    "even7": {"client_assignment": "even", "num_clients": 7},
}


def plain(value):
    """*value* as JSON-ready Python: arrays become lists, numpy scalars
    Python numbers."""
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [plain(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def digest(tree: Path) -> dict:
    sys.path.insert(0, str(tree / "src"))
    try:
        from fedfair import engine
    except ImportError as exc:
        sys.exit(f"cannot import fedfair from {tree / 'src'}: {exc}")
    if not Path(engine.__file__).resolve().is_relative_to(tree):
        sys.exit(f"imported fedfair from {engine.__file__}, not from {tree / 'src'}")
    runs = {}
    for split, split_kwargs in SPLITS.items():
        data = engine.prepare_census(seed=0, split_kwargs=split_kwargs)
        for kind in engine.ALGORITHMS:
            result = engine.run(engine.AlgorithmSpec(kind=kind), *data)
            runs[f"{kind}/{split}"] = plain({
                "w_final": result.w_final,
                "alpha_final": result.alpha_final,
                "per_round": result.per_round,
                "final": result.final,
            })
            print(f"{kind}/{split}: test_rd {result.final['test_rd']:.4f}", file=sys.stderr)
    return {"tree": str(tree), "engine": engine.__file__, "runs": runs}


def leaves(value, path=""):
    """Every (path, leaf) of a nested dict or list."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from leaves(v, f"{path}/{k}")
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from leaves(v, f"{path}[{i}]")
    else:
        yield path, value


def compare_run(a: dict, b: dict) -> dict:
    """Largest float differences and the mismatched exact fields of one run."""
    out = {"abs": 0.0, "rel": 0.0, "w_abs": 0.0, "exact_mismatches": []}
    la, lb = dict(leaves(a)), dict(leaves(b))
    if la.keys() != lb.keys():
        out["exact_mismatches"].append("the two runs hold different fields")
        return out
    for path, x in la.items():
        y = lb[path]
        if not (isinstance(x, float) and isinstance(y, float)):
            if type(x) is not type(y) or x != y:
                out["exact_mismatches"].append(f"{path}: {x!r} vs {y!r}")
            continue
        if math.isnan(x) or math.isnan(y):
            if not (math.isnan(x) and math.isnan(y)):
                out["exact_mismatches"].append(f"{path}: {x!r} vs {y!r}")
            continue
        d = abs(x - y)
        out["abs"] = max(out["abs"], d)
        if d:
            out["rel"] = max(out["rel"], d / max(abs(x), abs(y)))
        if path.startswith("/w_final"):
            out["w_abs"] = max(out["w_abs"], d)
    return out


def compare(path_a: Path, path_b: Path) -> int:
    a = json.loads(path_a.read_text())["runs"]
    b = json.loads(path_b.read_text())["runs"]
    if a.keys() != b.keys():
        print(f"different runs: {sorted(a)} vs {sorted(b)}")
        return 1
    ok, worst = True, 0.0
    for name in a:
        c = compare_run(a[name], b[name])
        worst = max(worst, c["w_abs"])
        exact = "equal" if not c["exact_mismatches"] else "DIFFER"
        print(f"{name:24s} max abs {c['abs']:.3g}  max rel {c['rel']:.3g}  "
              f"max |dw_final| {c['w_abs']:.3g}  integer/text fields {exact}")
        for m in c["exact_mismatches"][:5]:
            print(f"    {m}")
        ok = ok and not c["exact_mismatches"] and c["w_abs"] <= W_TOL
    print(f"max |dw_final| over all runs {worst:.3g} (tolerance {W_TOL:g}): "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="digest a source tree's runs")
    run.add_argument("--tree", type=Path, default=Path(__file__).resolve().parent.parent,
                     help="root of the checkout whose src/ is run (default: this one)")
    run.add_argument("--out", type=Path, required=True)
    cmp = sub.add_parser("compare", help="compare two digests")
    cmp.add_argument("a", type=Path)
    cmp.add_argument("b", type=Path)
    args = ap.parse_args(argv)
    if args.command == "compare":
        return compare(args.a, args.b)
    args.out.write_text(json.dumps(digest(args.tree.resolve())) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
