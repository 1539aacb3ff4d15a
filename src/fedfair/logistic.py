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
