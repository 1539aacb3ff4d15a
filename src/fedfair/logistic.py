"""Logistic model: prediction, weighted log-loss, gradients, local fit.

The local training objective for client k is

    (1/n_k) sum_i theta_i * logloss_i(w)  +  lambda * (w . phi_C - tau)^2

where phi_C is the (global) covariance coefficient vector of w in the
decision-boundary fairness constraint. The first term is normalized by
the local n_k while phi_C already carries the global 1/n.

The log-loss at the margin z = x . w is the exact softplus(z) - y z, with
softplus(z) = max(z, 0) + log1p(exp(-|z|)). It is finite for every logit,
and its gradient sigmoid(z) - y is built from the same exp(-|z|), so the
objective and its gradient agree even where the sigmoid saturates.

fit_local fits one client; fit_lockstep fits every client of a round at
once, reading each client's features from its own shard and stacking
only the per-row vectors, with each client's result as if fit_local had
fitted it alone. The two share no code: fit_local is the oracle the
tests hold fit_lockstep to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fedfair.data import ClientShard
from fedfair.errors import ProtocolError

#: logit saturation bound that keeps predict_proba strictly inside (0, 1)
LOGIT_CLAMP = 30.0


@dataclass(frozen=True)
class PenaltySpec:
    """Fairness penalty lambda * (w . phi_c - tau)^2."""

    lam: float
    tau: float
    phi_c: np.ndarray  # (d+1,)

    @staticmethod
    def disabled(dim: int) -> "PenaltySpec":
        return PenaltySpec(lam=0.0, tau=0.0, phi_c=np.zeros(dim))


@dataclass(frozen=True)
class OptimizerSpec:
    learning_rate: float = 0.1
    epochs: int = 200
    max_halvings: int = 20


def _softplus(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """softplus(z) and e = exp(-|z|), which _gradient turns into sigmoid(z)."""
    e = np.exp(-np.abs(z))
    return np.maximum(z, 0.0) + np.log1p(e), e


def _gradient(features, labels, theta, z, e, gap, penalty) -> np.ndarray:
    p = np.where(z >= 0.0, 1.0, e) / (1.0 + e)  # sigmoid(z), exact at every z
    grad = features.T @ (theta * (p - labels)) / len(labels)
    return grad + 2.0 * penalty.lam * gap * penalty.phi_c


def predict_proba(w: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Sigmoid of the clamped logit; strictly inside (0, 1)."""
    z = np.clip(features @ w, -LOGIT_CLAMP, LOGIT_CLAMP)
    return 1.0 / (1.0 + np.exp(-z))


def predict_label(w: np.ndarray, features: np.ndarray) -> np.ndarray:
    """1 where the margin x . w is nonnegative (sigmoid >= 0.5), else 0."""
    return (features @ w >= 0.0).astype(int)


def per_sample_logloss(w: np.ndarray, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    z = features @ w
    return _softplus(z)[0] - labels * z


def local_objective(
    w: np.ndarray, shard: ClientShard, theta: np.ndarray, penalty: PenaltySpec
) -> float:
    loss = float(theta @ per_sample_logloss(w, shard.features, shard.labels)) / shard.n
    gap = float(w @ penalty.phi_c) - penalty.tau
    return loss + penalty.lam * gap * gap


def loss_gradient(
    w: np.ndarray, shard: ClientShard, theta: np.ndarray, penalty: PenaltySpec
) -> np.ndarray:
    """Analytic gradient of the local objective with respect to w."""
    z = shard.features @ w
    gap = float(w @ penalty.phi_c) - penalty.tau
    return _gradient(shard.features, shard.labels, theta, z, _softplus(z)[1], gap, penalty)


def fit_local(
    w_init: np.ndarray,
    shard: ClientShard,
    theta: np.ndarray,
    penalty: PenaltySpec,
    opt: OptimizerSpec,
) -> np.ndarray:
    """Full-batch gradient descent with per-step backtracking.

    Each step starts from the configured learning rate and halves it
    (up to max_halvings) until the objective does not increase, so the
    objective is non-increasing across accepted steps. A step that still
    increases the objective after all halvings is rejected and descent
    stops. Stateless per step: running r rounds of e epochs equals one
    run of r*e epochs.

    The search runs on margins: with z = X w kept and dz = X g formed once
    per step, the candidate w - t g has margins z - t dz and penalty gap
    gap - t g . phi_C, so trying it takes no matrix product.
    """
    x, y, lam = shard.features, shard.labels, penalty.lam
    c = theta / shard.n
    cy = c * y
    w = np.array(w_init, dtype=float)
    z = x @ w
    gap = float(w @ penalty.phi_c) - penalty.tau
    sp, e = _softplus(z)
    obj = float(c @ sp) - float(cy @ z) + lam * gap * gap
    if not np.isfinite(obj):
        raise ProtocolError(f"non-finite objective at start of fit: {obj}")
    for _ in range(opt.epochs):
        grad = _gradient(x, y, theta, z, e, gap, penalty)
        dz = x @ grad
        cyz, cydz, gphi = float(cy @ z), float(cy @ dz), float(grad @ penalty.phi_c)
        rate = opt.learning_rate
        for _ in range(opt.max_halvings + 1):
            cand_z, cand_gap = z - rate * dz, gap - rate * gphi
            sp, cand_e = _softplus(cand_z)
            cand_obj = float(c @ sp) - (cyz - rate * cydz) + lam * cand_gap * cand_gap
            if np.isfinite(cand_obj) and cand_obj <= obj:
                # the accepted margins' exp(-|z|) feeds the next gradient
                w, z, gap, e, obj = w - rate * grad, cand_z, cand_gap, cand_e, cand_obj
                break
            rate *= 0.5
        else:
            break  # no halving lowered the objective: reject and stop
    if not np.all(np.isfinite(w)):
        raise ProtocolError("non-finite weights after local fit")
    return w


def _stacked_softplus(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """softplus(z) and exp(-|z|), as _softplus forms them, kept apart so
    that fit_lockstep shares no code with its oracle fit_local."""
    e = np.exp(-np.abs(z))
    return np.maximum(z, 0.0) + np.log1p(e), e


def _layout(shards: list[ClientShard]):
    """The clients' labels stacked in client order, and each client's row
    count, first row and slice in that stacking."""
    counts = np.array([s.n for s in shards])
    starts = np.cumsum(counts) - counts
    rows = [slice(a, a + n) for a, n in zip(starts.tolist(), counts.tolist())]
    return np.concatenate([s.labels for s in shards]), counts, starts, rows


def _stacked_gradient(
    shards, rows, labels, counts, theta, z, e, gap, lam, phi, clients, raw
) -> np.ndarray:
    """Every client's gradient, one row each, from the margins z and
    e = exp(-|z|) of every row and each client's penalty gap, weight lam
    and vector phi. Only the clients in *clients* get a fresh X_k^T r_k,
    kept in raw[k]; the other rows are stale."""
    sig = np.where(z >= 0.0, 1.0, e) / (1.0 + e)
    r = theta * (sig - labels)
    for k in clients:
        np.dot(shards[k].features.T, r[rows[k]], out=raw[k])
    return raw / counts[:, None] + (2.0 * lam * gap)[:, None] * phi


def _penalty_arrays(penalties: list[PenaltySpec]):
    lam = np.array([pen.lam for pen in penalties])
    tau = np.array([pen.tau for pen in penalties])
    return lam, tau, np.array([pen.phi_c for pen in penalties])


def _margins(shards, w, phi, tau):
    """Every row's margin under its client's weights w[k], and each
    client's penalty gap w[k] . phi[k] - tau[k]."""
    z = np.concatenate([s.features @ w[k] for k, s in enumerate(shards)])
    return z, np.array([float(w[k] @ phi[k]) for k in range(len(shards))]) - tau


def lockstep_gradient(
    w: np.ndarray, shards: list[ClientShard], theta: np.ndarray, penalties: list[PenaltySpec]
) -> np.ndarray:
    """Every client's local-objective gradient, row k at w[k], as
    fit_lockstep forms it; theta covers every shard's rows in client order."""
    labels, counts, _, rows = _layout(shards)
    lam, tau, phi = _penalty_arrays(penalties)
    z, gap = _margins(shards, w, phi, tau)
    e = _stacked_softplus(z)[1]
    return _stacked_gradient(
        shards, rows, labels, counts, theta, z, e, gap, lam, phi, range(len(rows)),
        np.empty(w.shape),
    )


def fit_lockstep(
    w_init: np.ndarray,
    shards: list[ClientShard],
    theta: np.ndarray,
    penalties: list[PenaltySpec],
    opt: OptimizerSpec,
) -> np.ndarray:
    """fit_local for every client of *shards* at once, all from w_init.

    Row k of the result is client k's weights; theta covers every shard's
    rows in client order, and penalties[k] is client k's. Each epoch the
    sigmoid, the softplus and the first candidate, at the configured
    learning rate, run once over every row, and the per-client sums are
    np.add.reduceat segments; only the products X_k^T r_k and X_k g_k are
    made client by client, on the shard's own features. A client that
    rejects the first candidate halves on its own rows, and one that
    rejects every halving stops while the others go on, so each client
    keeps fit_local's accept test, halving limit and stop. The sums run
    in another order than fit_local's dot products, so an objective tie
    at rounding level can decide an accept differently; the weights are
    otherwise the same.
    """
    labels, counts, starts, rows = _layout(shards)
    p = len(rows)
    lam, tau, phi = _penalty_arrays(penalties)
    c = theta / np.repeat(counts, counts)
    cy = c * labels
    w = np.tile(np.asarray(w_init, dtype=float), (p, 1))
    z, gap = _margins(shards, w, phi, tau)
    sp, e = _stacked_softplus(z)
    obj = np.add.reduceat(c * sp, starts) - np.add.reduceat(cy * z, starts) + lam * gap * gap
    if not np.all(np.isfinite(obj)):
        raise ProtocolError(f"non-finite objective at start of fit: {obj}")
    live = np.ones(p, dtype=bool)  # clients still descending
    clients = list(range(p))
    raw, dz, gphi = np.zeros_like(w), np.zeros_like(z), np.zeros(p)
    for _ in range(opt.epochs):
        grad = _stacked_gradient(
            shards, rows, labels, counts, theta, z, e, gap, lam, phi, clients, raw
        )
        for k in clients:
            np.dot(shards[k].features, grad[k], out=dz[rows[k]])
            gphi[k] = grad[k] @ phi[k]
        cyz, cydz = np.add.reduceat(cy * z, starts), np.add.reduceat(cy * dz, starts)
        rate = opt.learning_rate
        cand_z, cand_gap = z - rate * dz, gap - rate * gphi
        sp, cand_e = _stacked_softplus(cand_z)
        cand_obj = (
            np.add.reduceat(c * sp, starts) - (cyz - rate * cydz) + lam * cand_gap * cand_gap
        )
        accept = live & np.isfinite(cand_obj) & (cand_obj <= obj)
        if accept.all():
            w -= rate * grad
            z, e, gap, obj = cand_z, cand_e, cand_gap, cand_obj
            continue
        taken = np.repeat(accept, counts)
        z, e = np.where(taken, cand_z, z), np.where(taken, cand_e, e)
        w[accept] -= rate * grad[accept]
        gap, obj = np.where(accept, cand_gap, gap), np.where(accept, cand_obj, obj)
        for k in [k for k in clients if not accept[k]]:
            # halve on this client's rows only, from the rejected first step
            rk, rate = rows[k], opt.learning_rate
            for _ in range(opt.max_halvings):
                rate *= 0.5
                cz, cg = z[rk] - rate * dz[rk], gap[k] - rate * gphi[k]
                sp, ce = _stacked_softplus(cz)
                co = float(c[rk] @ sp) - (cyz[k] - rate * cydz[k]) + lam[k] * cg * cg
                if np.isfinite(co) and co <= obj[k]:
                    w[k] -= rate * grad[k]
                    z[rk], e[rk], gap[k], obj[k] = cz, ce, cg, co
                    break
            else:
                live[k] = False  # no halving lowered the objective: stop
        clients = np.flatnonzero(live).tolist()
        if not clients:
            break
    if not np.all(np.isfinite(w)):
        raise ProtocolError("non-finite weights after local fit")
    return w
