"""Reference implementations that only tests call.

Each is written directly from its definition and shares no code with the
production path it checks.
"""

import numpy as np

from fedfair import logistic
from fedfair.data import ClientShard, RawTable
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


def risk_difference_reference(predictions: np.ndarray, sensitive: np.ndarray) -> float:
    """|P(yhat=1 | s=1) - P(yhat=1 | s=0)|, each rate the mean prediction
    over its group's mask."""
    predictions = np.asarray(predictions)
    sensitive = np.asarray(sensitive)
    rates = {}
    for g in (0, 1):
        mask = sensitive == g
        if not mask.any():
            raise MetricUndefinedError(f"sensitive group {g} is empty")
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
