"""Reference implementations that only tests call, and the checks of
criteria 7-9 that hold the LP solver, the local gradients and the
server's sums against them.

Each reference is written directly from its definition and shares no
code with the production path it checks.
"""

import dataclasses
import itertools

import numpy as np

from fedfair import engine, fairness, kernels, logistic, lp, protocol
from fedfair.data import ClientShard, RawTable
from fedfair.errors import ConfigError
from fedfair.lp import STATUS_ERROR, STATUS_OPTIMAL, STATUS_RELAXED, AlphaLP, LPSolution


def run_fedavg_reference(
    shards: list[ClientShard], rounds: int, opt: logistic.OptimizerSpec
) -> list[np.ndarray]:
    """Plain federated averaging, written directly (reduction oracle).

    Each round every client minimizes its unweighted mean log-loss from
    the averaged weights; the server averages. Returns the w-bar sequence.
    """
    dim = shards[0].features.shape[1]
    w_avg = np.zeros(dim)
    penalty = logistic.PenaltySpec(0.0, 0.0, np.zeros(dim))
    history = []
    for _ in range(rounds):
        locals_ = [
            logistic.fit_local(w_avg, logistic.signed_xt(s), np.ones(s.n), penalty, opt)
            for s in shards
        ]
        w_avg = np.mean(locals_, axis=0)
        history.append(w_avg.copy())
    return history


def reweighted_risk_difference(
    predictions: np.ndarray, sensitive: np.ndarray, theta: np.ndarray
) -> float:
    """Risk difference under sample weights theta; reduces to the plain
    metric when theta is uniform. NaN when a group has zero total weight."""
    predictions = np.asarray(predictions)
    sensitive = np.asarray(sensitive)
    theta = np.asarray(theta, dtype=float)
    rates = {}
    for g in (0, 1):
        mask = sensitive == g
        denom = float(theta[mask].sum())
        if denom <= 0.0:
            return np.nan
        rates[g] = float(theta[mask & (predictions == 1)].sum()) / denom
    return abs(rates[1] - rates[0])


def risk_difference_reference(predictions: np.ndarray, sensitive: np.ndarray) -> float:
    """|P(yhat=1 | s=1) - P(yhat=1 | s=0)|, each rate the mean prediction
    over its group's mask; NaN when a group is empty."""
    predictions = np.asarray(predictions)
    sensitive = np.asarray(sensitive)
    rates = {}
    for g in (0, 1):
        mask = sensitive == g
        if not mask.any():
            return np.nan
        rates[g] = float(predictions[mask].mean())
    return abs(rates[1] - rates[0])


def encode_reference(raw: RawTable):
    """The encoding by its definition, each column's sorted levels found by
    np.unique: (features, labels, sensitive, feature names). Numeric
    columns are min-max scaled (a constant one becomes 0.0), categorical
    ones one-hot expanded over their sorted levels, and a bias column of
    ones comes last. Label and sensitive map their most frequent value to
    1, a tie going to the larger str(value)."""

    def majority(values):
        levels, codes, counts = np.unique(values, return_inverse=True, return_counts=True)
        top = max(range(levels.size), key=lambda j: (counts[j], str(levels[j])))
        return (codes == top).astype(int)

    blocks, names = [], []
    for col in raw.schema.columns:
        vals = raw.columns[col.name]
        if col.kind == "numeric":
            lo, hi = vals.min(), vals.max()
            scaled = np.zeros(raw.n) if lo == hi else (vals - lo) / (hi - lo)
            blocks.append(scaled[:, None])
            names.append(col.name)
        elif col.kind == "categorical":
            levels, codes = np.unique(vals, return_inverse=True)
            blocks.append((codes[:, None] == np.arange(levels.size)).astype(float))
            names.extend(f"{col.name}={v}" for v in levels)
    blocks.append(np.ones((raw.n, 1)))
    names.append("__bias__")
    return (
        np.hstack(blocks),
        majority(raw.columns[raw.schema.label_column]),
        majority(raw.columns[raw.schema.sensitive_column]),
        names,
    )


def _enumerate_vertices(planes, check_feasible, dim):
    """Yield feasible intersection points of every dim-subset of planes."""
    for combo in itertools.combinations(range(len(planes)), dim):
        A = np.array([planes[i][0] for i in combo])
        rhs = np.array([planes[i][1] for i in combo])
        if abs(np.linalg.det(A)) < 1e-12:
            continue
        x = np.linalg.solve(A, rhs)
        if check_feasible(x):
            yield x


def brute_force_oracle(lp: AlphaLP) -> LPSolution:
    """Enumerate basic feasible points; test oracle only, refuses M > 6."""
    m = len(lp.objective)
    if m > 6:
        raise ConfigError("vertex-enumeration oracle limited to M <= 6")
    if np.all(np.abs(lp.equality) < 1e-10):
        return LPSolution(
            alpha=np.zeros(m), objective_value=float("nan"), status=STATUS_ERROR
        )
    tol = 1e-9
    eq = np.asarray(lp.equality, dtype=float)
    f = None if lp.fairness_row is None else np.asarray(lp.fairness_row, dtype=float)

    planes = [(eq, 1.0)]
    if f is not None:
        planes += [(f, lp.tau), (-f, lp.tau)]
    for j in range(m):
        e = np.zeros(m)
        e[j] = 1.0
        planes += [(e, 0.0), (e, lp.box_upper)]

    def feasible(x):
        if abs(eq @ x - 1.0) > tol:
            return False
        if np.any(x < -tol) or np.any(x > lp.box_upper + tol):
            return False
        if f is not None and abs(f @ x) > lp.tau + tol:
            return False
        return True

    best, best_val = None, -np.inf
    for x in _enumerate_vertices(planes, feasible, m):
        val = float(lp.objective @ x)
        if val > best_val + 1e-12:
            best, best_val = x, val
    if best is not None:
        return LPSolution(alpha=best, objective_value=best_val, status=STATUS_OPTIMAL)

    if f is None:
        return LPSolution(
            alpha=np.zeros(m), objective_value=float("nan"), status=STATUS_ERROR
        )

    # relaxed enumeration over (alpha, s) with |f.alpha| <= tau + s
    ext_planes = [(np.concatenate([eq, [0.0]]), 1.0)]
    ext_planes += [
        (np.concatenate([f, [-1.0]]), lp.tau),
        (np.concatenate([-f, [-1.0]]), lp.tau),
    ]
    for j in range(m):
        e = np.zeros(m + 1)
        e[j] = 1.0
        ext_planes += [(e, 0.0), (e, lp.box_upper)]
    e_s = np.zeros(m + 1)
    e_s[m] = 1.0
    ext_planes.append((e_s, 0.0))

    def ext_feasible(z):
        x, s = z[:m], z[m]
        if s < -tol or abs(eq @ x - 1.0) > tol:
            return False
        if np.any(x < -tol) or np.any(x > lp.box_upper + tol):
            return False
        return abs(f @ x) <= lp.tau + s + tol

    candidates = list(_enumerate_vertices(ext_planes, ext_feasible, m + 1))
    if not candidates:
        return LPSolution(
            alpha=np.zeros(m), objective_value=float("nan"), status=STATUS_ERROR
        )
    s_min = min(z[m] for z in candidates)
    best = max(
        (z for z in candidates if z[m] <= s_min + tol),
        key=lambda z: float(lp.objective @ z[:m]),
    )
    return LPSolution(
        alpha=best[:m],
        objective_value=float(lp.objective @ best[:m]),
        status=STATUS_RELAXED,
        slack_used=float(s_min),
    )


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
        got, ref = lp.solve(problem), brute_force_oracle(problem)
        if got.status != ref.status:
            failures.append(f"LP {i}: status {got.status}, oracle {ref.status}")
        if got.status != ref.status or got.status == lp.STATUS_ERROR:
            continue
        f, a, tol = problem.fairness_row, got.alpha, 1e-8
        if f is None or got.status == lp.STATUS_RELAXED:
            reached.add("no row" if f is None else "relaxed")
        else:
            free = brute_force_oracle(dataclasses.replace(problem, fairness_row=None))
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
            ClientShard(
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
    basis = kernels.select_basis(shards, 6, seed=basis_seed, sigma=1.0, bound=5.0)
    cfg = protocol.ProtocolConfig(
        penalty_mode=protocol.PENALTY_GLOBAL, lam=2.0, tau=0.05,
        opt=logistic.OptimizerSpec(learning_rate=0.1, epochs=5),
    )
    server, clients, bc = protocol.init_protocol(shards, basis, cfg)
    bundles = protocol.clients_round(clients, bc, cfg)

    stats = clients[0].stats
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
