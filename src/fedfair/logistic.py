"""Logistic model: prediction, weighted log-loss, gradients, local fit.

The local training objective for client k is

    (1/n_k) sum_i theta_i * logloss_i(w)  +  lambda * (w . phi_C - tau)^2

where phi_C is the (global) covariance coefficient vector of w in the
decision-boundary fairness constraint. The first term is normalized by
the local n_k while phi_C already carries the global 1/n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fedfair.data import ClientShard
from fedfair.errors import ProtocolError

#: logit saturation bound applied before exp()
LOGIT_CLAMP = 30.0
#: probability clamp applied before log()
CLAMP_EPS = 1e-12


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


def predict_proba(w: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Sigmoid of the clamped logit; strictly inside (0, 1)."""
    z = np.clip(features @ w, -LOGIT_CLAMP, LOGIT_CLAMP)
    return 1.0 / (1.0 + np.exp(-z))


def predict_label(w: np.ndarray, features: np.ndarray) -> np.ndarray:
    return (predict_proba(w, features) >= 0.5).astype(int)


def per_sample_logloss(w: np.ndarray, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    p = np.clip(predict_proba(w, features), CLAMP_EPS, 1.0 - CLAMP_EPS)
    return -(labels * np.log(p) + (1 - labels) * np.log(1.0 - p))


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
    p = predict_proba(w, shard.features)
    grad = shard.features.T @ (theta * (p - shard.labels)) / shard.n
    gap = float(w @ penalty.phi_c) - penalty.tau
    return grad + 2.0 * penalty.lam * gap * penalty.phi_c


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
    """
    w = np.array(w_init, dtype=float)
    obj = local_objective(w, shard, theta, penalty)
    if not np.isfinite(obj):
        raise ProtocolError(f"non-finite objective at start of fit: {obj}")
    for _ in range(opt.epochs):
        grad = loss_gradient(w, shard, theta, penalty)
        rate = opt.learning_rate
        accepted = False
        for _ in range(opt.max_halvings + 1):
            cand = w - rate * grad
            cand_obj = local_objective(cand, shard, theta, penalty)
            if np.isfinite(cand_obj) and cand_obj <= obj:
                w, obj = cand, cand_obj
                accepted = True
                break
            rate *= 0.5
        if not accepted:
            break
    if not np.all(np.isfinite(w)):
        raise ProtocolError("non-finite weights after local fit")
    return w
