"""Reference implementations that only tests call.

Each is written directly from its definition and shares no code with the
production path it checks.
"""

import numpy as np

from fedfair import logistic
from fedfair.data import ClientShard
from fedfair.errors import MetricUndefinedError


def run_fedavg_reference(
    shards: list[ClientShard], rounds: int, opt: logistic.OptimizerSpec
) -> list[np.ndarray]:
    """Plain federated averaging, written directly (reduction oracle).

    Each round every client minimizes its unweighted mean log-loss from
    the averaged weights; the server averages. Returns the w-bar sequence.
    """
    dim = shards[0].features.shape[1]
    w_avg = np.zeros(dim)
    penalty = logistic.PenaltySpec.disabled(dim)
    history = []
    for _ in range(rounds):
        locals_ = [
            logistic.fit_local(w_avg, s, np.ones(s.n), penalty, opt) for s in shards
        ]
        w_avg = np.mean(locals_, axis=0)
        history.append(w_avg.copy())
    return history


def reweighted_risk_difference(
    predictions: np.ndarray, sensitive: np.ndarray, theta: np.ndarray
) -> float:
    """Risk difference under sample weights theta; reduces to the plain
    metric when theta is uniform."""
    predictions = np.asarray(predictions)
    sensitive = np.asarray(sensitive)
    theta = np.asarray(theta, dtype=float)
    rates = {}
    for g in (0, 1):
        mask = sensitive == g
        denom = float(theta[mask].sum())
        if denom <= 0.0:
            raise MetricUndefinedError(f"group {g} has zero total weight")
        rates[g] = float(theta[mask & (predictions == 1)].sum()) / denom
    return abs(rates[1] - rates[0])
