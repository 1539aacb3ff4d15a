"""Command-line entry point: run experiments, verify math.

Exit codes: 0 success, 1 runtime failure, 2 usage/config error.
Progress goes to stderr; machine-readable results go to files/stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
import time

import numpy as np
import yaml

from fedfair import __version__, data, engine, fairness, kernels, logistic, lp, protocol
from fedfair.errors import ConfigError, RowParseError, SchemaError

log = logging.getLogger("fedfair")

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


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


# ---------------------------------------------------------------------------
# verify: embedded oracle suite
# ---------------------------------------------------------------------------


def check_lp_oracle(seed: int) -> tuple[float, list[str]]:
    """Compare lp.solve with the vertex-enumeration oracle on 100 random LPs.

    Every fourth LP has no fairness row, and every fourth (offset by one) a
    row large enough to force relaxation; a row "binds" when it lowers the
    oracle's optimum. Returns the worst objective or slack gap and the
    failures, among them each solver branch that no LP reached.
    """
    rng = np.random.default_rng(seed)
    worst, failures, reached = 0.0, [], set()
    for i in range(100):
        m = int(rng.integers(1, 5))
        scale = (None, 5.0, 0.5, 0.5)[i % 4]
        problem = lp.AlphaLP(
            objective=rng.normal(size=m),
            equality=np.abs(rng.normal(size=m)) + 0.05,
            fairness_row=None if scale is None else rng.normal(size=m) * scale,
            tau=0.01 if scale == 5.0 else float(rng.uniform(0.01, 0.5)),
            box_upper=5.0,
        )
        got, ref = lp.solve(problem), lp.brute_force_oracle(problem)
        if got.status != ref.status:
            failures.append(f"LP {i}: status {got.status}, oracle {ref.status}")
        if got.status != ref.status or got.status == lp.STATUS_ERROR:
            continue
        f, a, tol = problem.fairness_row, got.alpha, 1e-8
        if f is None or got.status == lp.STATUS_RELAXED:
            reached.add("no row" if f is None else "relaxed")
        else:
            free = lp.brute_force_oracle(dataclasses.replace(problem, fairness_row=None))
            binds = free.objective_value > ref.objective_value + 1e-9
            reached.add("row binding" if binds else "first fill")
        excess = 0.0 if f is None else abs(f @ a) - problem.tau - got.slack_used
        if abs(problem.equality @ a - 1.0) > tol or max(
            -a.min(), a.max() - problem.box_upper, excess
        ) > tol:
            failures.append(f"LP {i}: alpha is infeasible")
        gap = max(abs(got.objective_value - ref.objective_value),
                  abs(got.slack_used - ref.slack_used))
        worst = max(worst, gap)
        if gap > 1e-6:
            failures.append(f"LP {i}: gap {gap:.2e} to the oracle")
    branches = ("no row", "first fill", "row binding", "relaxed")
    failures += [f"no LP took the {b} branch" for b in branches if b not in reached]
    return worst, failures


def check_gradient_oracle(seed: int, cases: int, n: int) -> float:
    """Worst relative gap between central finite differences of the local
    objective and both gradients the fits use: loss_gradient on each of
    *cases* random n-row shards, and lockstep_gradient on all of them
    stacked as one run, each client at its own weights and penalty vector;
    for each of lambda = 0, 2 and 100."""
    rng = np.random.default_rng(seed)
    worst, d, h = 0.0, 3, 1e-6
    for lam in (0.0, 2.0, 100.0):
        shards = [
            data.ClientShard(
                client_id=k,
                features=np.hstack([rng.normal(size=(n, d)), np.ones((n, 1))]),
                labels=rng.integers(0, 2, size=n),
                sensitive=rng.integers(0, 2, size=n),
            )
            for k in range(cases)
        ]
        ws = rng.normal(size=(cases, d + 1))
        ths = rng.uniform(0.1, 2.0, size=(cases, n))
        run_pen = logistic.PenaltySpec(lam=lam, tau=0.05, phi_c=rng.normal(size=(cases, d + 1)))
        sxts = np.stack([logistic.signed_xt(s) for s in shards])
        stacked = logistic.lockstep_gradient(ws, [sxts], ths.ravel(), run_pen)
        for shard, sxt, w, th, phi, got in zip(shards, sxts, ws, ths, run_pen.phi_c, stacked):
            pen = dataclasses.replace(run_pen, phi_c=phi)
            fd = np.array([
                logistic.local_objective(w + e, shard, th, pen)
                - logistic.local_objective(w - e, shard, th, pen)
                for e in h * np.eye(d + 1)
            ]) / (2 * h)
            for grad in (got, logistic.loss_gradient(w, sxt, th, pen)):
                gap = np.linalg.norm(grad - fd)
                worst = max(worst, gap / max(np.linalg.norm(fd), 1e-12))
    return worst


def check_aggregation_oracle(n: int, seeds: tuple[int, int]) -> float:
    """Largest gap between the server's sums of one round's bundles and a
    pooled recomputation of psi_L, psi_theta, psi_C and phi_C, on an
    *n*-row census draw split evenly over 3 clients (so they fit in
    lockstep) with 6 Gaussian bases; *seeds* draw the split data and the
    basis."""
    data_seed, basis_seed = seeds
    _, _, shards = engine.prepare_census(
        seed=data_seed, n=n, split_kwargs={"client_assignment": "even", "num_clients": 3}
    )
    basis = kernels.select_basis(shards, 6, seed=basis_seed)
    cfg = protocol.ProtocolConfig(
        penalty_mode=protocol.PENALTY_GLOBAL, lam=2.0, opt=logistic.OptimizerSpec(epochs=5)
    )
    server, clients, bc = protocol.init_protocol(shards, basis, cfg)
    bundles = protocol.clients_round(clients, bc, cfg)

    stats = server.stats
    pooled = dict.fromkeys(("psi_L", "psi_theta", "psi_C", "phi_C"), 0.0)
    for client, bundle in zip(clients, bundles):
        shard, w = client.shard, bundle.w_local
        km = kernels.kernel_matrix(shard, basis)
        losses = logistic.per_sample_logloss(w, shard.features, shard.labels)
        pooled["psi_L"] += km.T @ losses / stats.n_total
        pooled["psi_theta"] += km.sum(axis=0) / stats.n_total
        pooled["psi_C"] += fairness.covariance_coeff_alpha(shard, km, w, stats)
        pooled["phi_C"] += fairness.covariance_coeff_w(shard, kernels.theta(km, bc.alpha), stats)
    return max(
        float(np.max(np.abs(np.sum([getattr(b, k) for b in bundles], axis=0) - v)))
        for k, v in pooled.items()
    )


#: each check of ``fedfair verify``: True when it passes
CHECKS = {
    "lp": lambda: not check_lp_oracle(7)[1],
    "gradient": lambda: check_gradient_oracle(11, 10, 5) <= 1e-4,
    "aggregation": lambda: check_aggregation_oracle(60, (3, 9)) <= 1e-10,
}


def cmd_verify(args) -> int:
    names = [args.only] if args.only else list(CHECKS)
    for name in names:
        if name not in CHECKS:
            log.error("unknown check %r; valid: %s", name, ", ".join(CHECKS))
            return EXIT_USAGE
    failed = False
    for name in names:
        ok = CHECKS[name]()
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
        failed = failed or not ok
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

    p = sub.add_parser("verify", help="run the embedded oracle checks")
    p.add_argument("--only", default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=args.log_level,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ConfigError, SchemaError, RowParseError, FileNotFoundError,
            IsADirectoryError) as exc:
        log.error("%s", exc)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - ProtocolError, MetricUndefinedError, bugs
        log.error("runtime failure: %s", exc)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
