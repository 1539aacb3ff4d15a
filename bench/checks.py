"""Output checks, made outside the timed region.

Every expected value here is computed by the benchmark's own code from the
program's inputs and outputs; nothing calls fedfair's numerical functions.
The LP oracle is scipy's HiGHS (``scipy.optimize.linprog``), the local
objective uses ``logaddexp``, and kernels, coefficient vectors, predictions
and risk differences are written out directly.

``check_run`` checks one ``engine.run`` from what a ``tracing.RunObserver``
kept of it, after the run has returned.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from fedfair import lp

#: relative tolerance of every floating-point comparison
RTOL = 1e-9
#: HiGHS's tightest feasibility tolerances; at its defaults (1e-7) its
#: dual simplex can stop at a vertex a few 1e-9 short of the optimum
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10}
#: per-client risk-difference bound of LocalFair's round-selection rule,
#: as stated in the paper's protocol
LOCAL_FAIR_RD_MAX = 0.05


def _close(actual, expected, rtol=RTOL) -> bool:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        return False
    scale = max(1.0, float(np.max(np.abs(expected), initial=0.0)))
    return bool(np.max(np.abs(actual - expected), initial=0.0) <= rtol * scale)


# ---------------------------------------------------------------------------
# local fit
# ---------------------------------------------------------------------------


def local_objective(w, features, labels, theta, lam, tau, phi) -> float:
    """(1/n_k) sum_i theta_i logloss_i(w) + lam (w . phi - tau)^2, exactly."""
    z = features @ w
    loss = float(theta @ (np.logaddexp(0.0, z) - labels * z)) / len(labels)
    gap = float(w @ phi) - tau
    return loss + lam * gap * gap


def check_descent(before: float, after: float) -> list[str]:
    if not np.isfinite(after) or after > before + RTOL * max(1.0, abs(before)):
        return [f"local fit raised the objective from {before!r} to {after!r}"]
    return []


# ---------------------------------------------------------------------------
# server LP
# ---------------------------------------------------------------------------


def _linprog(c, eq, fair, tau, upper):
    from scipy.optimize import linprog

    a_ub = b_ub = None
    if fair is not None:
        a_ub = np.vstack([fair, -fair])
        b_ub = np.array([tau, tau])
    return linprog(
        -c, A_ub=a_ub, b_ub=b_ub, A_eq=eq[None, :], b_eq=[1.0],
        bounds=(0.0, upper), method="highs", options=HIGHS_OPTIONS,
    )


def _min_slack(eq, fair, tau, upper):
    """Smallest s >= 0 with |fair . alpha| <= tau + s, per HiGHS."""
    from scipy.optimize import linprog

    m = len(eq)
    c = np.zeros(m + 1)
    c[m] = 1.0
    a_ub = np.vstack([np.append(fair, -1.0), np.append(-fair, -1.0)])
    res = linprog(
        c, A_ub=a_ub, b_ub=[tau, tau], A_eq=np.append(eq, 0.0)[None, :],
        b_eq=[1.0], bounds=[(0.0, upper)] * m + [(0.0, None)], method="highs",
        options=HIGHS_OPTIONS,
    )
    return float(res.x[m]) if res.status == 0 else None


def check_lp(problem, solution) -> list[str]:
    """Feasibility of the answer and optimality against HiGHS."""
    c = np.asarray(problem.objective, dtype=float)
    eq = np.asarray(problem.equality, dtype=float)
    fair = problem.fairness_row
    fair = None if fair is None else np.asarray(fair, dtype=float)
    alpha = np.asarray(solution.alpha, dtype=float)
    upper, tau, slack = problem.box_upper, problem.tau, solution.slack_used
    errors = []
    if solution.status not in (lp.STATUS_OPTIMAL, lp.STATUS_RELAXED):
        return [f"LP status {solution.status}"]
    if np.any(alpha < -RTOL * upper) or np.any(alpha > upper * (1 + RTOL)):
        errors.append("alpha outside [0, B]")
    if abs(float(eq @ alpha) - 1.0) > RTOL:
        errors.append(f"psi_theta . alpha = {float(eq @ alpha)!r}, not 1")
    if fair is not None and abs(float(fair @ alpha)) > (tau + slack) + RTOL:
        errors.append(f"|psi_C . alpha| = {abs(float(fair @ alpha))!r} > tau + slack")
    value = float(c @ alpha)
    if not _close(solution.objective_value, value):
        errors.append("reported objective differs from psi_L . alpha")
    if solution.status == lp.STATUS_RELAXED:
        if fair is None:
            return errors + ["relaxed status without a fairness row"]
        if _linprog(c, eq, fair, tau, upper).status != 2:
            errors.append("LP reported relaxed, but HiGHS finds it feasible")
        least = _min_slack(eq, fair, tau, upper)
        if least is None or abs(least - slack) > RTOL * max(1.0, tau):
            errors.append(f"slack {slack!r} is not the least, {least!r}")
    res = _linprog(c, eq, fair, tau + slack, upper)
    if res.status != 0:
        errors.append(f"HiGHS finds no optimum (status {res.status})")
    elif not _close(value, -res.fun):
        errors.append(f"objective {value!r} differs from HiGHS {-res.fun!r}")
    return errors


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def check_average(w_locals, w_avg) -> list[str]:
    total = np.zeros_like(np.asarray(w_locals[0], dtype=float))
    for w in w_locals:
        total = total + w
    if not _close(w_avg, total / len(w_locals), rtol=1e-12):
        return ["w_avg is not the mean of the clients' w_local"]
    return []


def gaussian_kernel(features, centers, sigma, chunk=512):
    """exp(-||x - b||^2 / (2 sigma^2)) from explicit differences."""
    out = np.empty((features.shape[0], centers.shape[0]))
    for start in range(0, features.shape[0], chunk):
        diff = features[start : start + chunk, None, :] - centers[None, :, :]
        out[start : start + chunk] = np.exp(
            -np.einsum("ijk,ijk->ij", diff, diff) / (2.0 * sigma**2)
        )
    return out


class Pooled:
    """The whole training set in one place, for recomputing aggregates."""

    def __init__(self, shards, basis):
        self.features = np.vstack([s.features for s in shards])
        self.labels = np.concatenate([s.labels for s in shards]).astype(float)
        self.sensitive = np.concatenate([s.sensitive for s in shards]).astype(float)
        self.owner = np.concatenate(
            [np.full(s.n, k) for k, s in enumerate(shards)]
        )
        bounds = np.cumsum([0] + [s.n for s in shards])
        self.rows = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        n = len(self.labels)
        if basis.kind == "constant":
            self.kernel = np.ones((n, 1))
        else:  # the workloads use no indicator basis
            self.kernel = gaussian_kernel(self.features, basis.centers, basis.sigma)

    def coefficients(self, w_locals, alpha, kernel_weighted_phi: bool) -> dict:
        """psi_L, psi_theta, psi_C and phi_C pooled over every sample.

        Sample i of client k is scored with client k's w_local; phi_C
        weighs samples by theta = K alpha, or uniformly when the variant's
        covariance is unweighted.
        """
        n = len(self.labels)
        k, x, s = self.kernel, self.features, self.sensitive
        z = np.einsum("ij,ij->i", x, np.asarray(w_locals)[self.owner])
        centred = s - s.mean()
        losses = np.logaddexp(0.0, z) - self.labels * z
        theta = k @ alpha if kernel_weighted_phi else np.ones(n)
        return {
            "psi_L": k.T @ losses / n,
            "psi_theta": k.sum(axis=0) / n,
            "psi_C": k.T @ (centred * z) / n,
            "phi_C": x.T @ (centred * theta) / n,
        }

    def client_objective(self, k, w, alpha, lam, tau, phi) -> float:
        rows = self.rows[k]
        return local_objective(
            w, self.features[rows], self.labels[rows], self.kernel[rows] @ alpha,
            lam, tau, phi,
        )

    def local_phi(self, k):
        """(1/n_k) sum_{i in k} (s_i - s_bar_k) x_i, with client k's own mean."""
        rows = self.rows[k]
        s = self.sensitive[rows]
        return self.features[rows].T @ (s - s.mean()) / len(s)


def check_pooled(aggregated: dict, pooled: dict) -> list[str]:
    return [
        f"aggregated {name} differs from the pooled recomputation"
        for name, value in aggregated.items()
        if not _close(value, pooled[name])
    ]


# ---------------------------------------------------------------------------
# final metrics
# ---------------------------------------------------------------------------


def _rd(pred, sensitive) -> float:
    return abs(pred[sensitive == 1].mean() - pred[sensitive == 0].mean())


def model_metrics(w, train, test, shards) -> dict:
    """Accuracy and risk difference of w, with the label taken as x . w >= 0."""
    out = {}
    for name, ds in (("train", train), ("test", test)):
        pred = (ds.features @ w >= 0.0).astype(float)
        out[f"{name}_acc"] = float((pred == ds.labels).mean())
        out[f"{name}_rd"] = float(_rd(pred, ds.sensitive))
    out["per_client_rd"] = [
        float(_rd((s.features @ w >= 0.0).astype(float), s.sensitive)) for s in shards
    ]
    return out


def select_local_fair(rows: list[dict]) -> dict:
    """Best round by train accuracy among those fair on every client, else
    the round whose worst client is least unfair (first on ties)."""
    fair = [r for r in rows if max(r["per_client_rd"]) <= LOCAL_FAIR_RD_MAX]
    if not fair:
        worst = [max(r["per_client_rd"]) for r in rows]
        fair = [rows[worst.index(min(worst))]]
    best = max(r["train_acc"] for r in fair)
    return next(r for r in fair if r["train_acc"] == best)


def check_final(final: dict, expected: dict, what: str = "final") -> list[str]:
    return [
        f"{what} {key} {final.get(key)!r} differs from recomputed {value!r}"
        for key, value in expected.items()
        if key not in final or not _close(final[key], value, rtol=1e-12)
    ]


# ---------------------------------------------------------------------------
# one checked run
# ---------------------------------------------------------------------------


def _penalty(mode, lam, tau, phi_global, local_phi):
    """(lam, tau, phi) of a client's local objective in each penalty mode."""
    if mode == "none" or lam == 0.0:
        return 0.0, 0.0, np.zeros_like(phi_global)
    if mode == "local":  # exact parity on the client's own samples
        return lam, 0.0, local_phi
    return lam, tau, phi_global


def check_run(obs, result, train, test, select_round: bool) -> dict:
    """Every check of one run; maps a round (from 1) to its failures.

    *obs* is the ``tracing.RunObserver`` of the run. Local fits, averages
    and LP answers are checked in every round, the pooled aggregates in
    the first and the last round, the final metrics once. With
    *select_round* (LocalFair) the reported round is chosen again from
    every round's recomputed metrics.
    """
    errors = defaultdict(list)
    rounds = len(obs.w_locals)
    if rounds == 0:
        errors[0].append("run made no rounds")
        return errors
    cfg = obs.cfg
    pooled = Pooled(obs.shards, obs.basis)
    phi_by_kernel = cfg.penalty_mode in ("global", "none")
    local_phis = [pooled.local_phi(k) for k in range(len(obs.shards))]

    for t, (problem, solution) in enumerate(obs.lps, start=1):
        errors[t] += check_lp(problem, solution)
    for t in range(1, rounds + 1):
        before, after = obs.broadcasts[t - 1], obs.broadcasts[t]
        errors[t] += check_average(obs.w_locals[t - 1], after.w_avg)
        for k, w in enumerate(obs.w_locals[t - 1]):
            penalty = _penalty(cfg.penalty_mode, cfg.lam, cfg.tau,
                               before.phi_C_global, local_phis[k])
            errors[t] += check_descent(
                pooled.client_objective(k, before.w_avg, before.alpha, *penalty),
                pooled.client_objective(k, w, before.alpha, *penalty),
            )

    for t, bundles in ((1, obs.first_bundles), (rounds, obs.last_bundles)):
        expected = pooled.coefficients(
            [b.w_local for b in bundles], obs.broadcasts[t - 1].alpha, phi_by_kernel
        )
        summed = {
            name: np.sum([getattr(b, name) for b in bundles], axis=0)
            for name in ("psi_L", "psi_theta", "psi_C")
        }
        summed["phi_C"] = obs.broadcasts[t].phi_C_global
        errors[t] += check_pooled(summed, expected)
        if obs.lps:
            problem = obs.lps[t - 1][0]
            rows = {"psi_L": problem.objective, "psi_theta": problem.equality}
            if problem.fairness_row is not None:
                rows["psi_C"] = problem.fairness_row
            errors[t] += check_pooled(rows, expected)

    history = [bc.w_avg for bc in obs.broadcasts[1:]]
    if not np.array_equal(result.w_final, history[-1]):
        errors[rounds].append("w_final is not the last round's w_avg")
    last = model_metrics(result.w_final, train, test, obs.shards)
    errors[rounds] += check_final(result.per_round[-1], last, "last round's")
    if select_round:
        rows = [model_metrics(w, train, test, obs.shards) for w in history]
        errors[rounds] += check_final(result.final, select_local_fair(rows))
    else:
        errors[rounds] += check_final(result.final, last)
    return errors
