"""Fairness metrics and covariance-constraint coefficient algebra.

Risk difference is evaluation-only; training uses the decision-boundary
covariance surrogate, which is linear separately in the model weights w
and in the mixture coefficients alpha:

    cov = (1/n) sum_i (s_i - s_bar) * theta_i * (w . x_i)
        = w . phi_C            with phi_C  = (1/n) sum_i (s_i - s_bar) theta_i x_i
        = alpha . psi_C        with psi_C,m = (1/n) sum_i (s_i - s_bar) K_m(x_i) (w . x_i)

With theta = K alpha it is the bilinear form

    cov = alpha . C w          with C = K^T diag(s - s_bar) X / n,

an M x (d+1) matrix fixed by the data: psi_C = C w and phi_C = C^T alpha.
Each client builds its own C once (covariance_form) and keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fedfair.data import ClientShard


@dataclass(frozen=True)
class FairnessStats:
    s_bar: float
    n_total: int


def compute_stats(shards: list[ClientShard]) -> FairnessStats:
    """Pool per-client (n_k, sum s) into the global sensitive mean."""
    n = sum(int(s.n) for s in shards)
    s_bar = sum(int(s.sensitive.sum()) for s in shards) / n
    return FairnessStats(s_bar=s_bar, n_total=n)


def risk_difference(predictions: np.ndarray, sensitive: np.ndarray) -> float:
    """|P(yhat=1 | s=1) - P(yhat=1 | s=0)| over the given samples: the
    one-segment count of risk_counts, and NaN, as risk_differences gives,
    when a sensitive group is empty."""
    if not len(sensitive):
        return np.nan
    return float(risk_differences(risk_counts(predictions, sensitive, [0]))[0])


def risk_counts(predictions: np.ndarray, sensitive: np.ndarray, starts) -> np.ndarray:
    """The integer counts of each segment of rows, the segments starting
    at *starts*: (4, p), its rows, its rows of sensitive group 1, its
    positive predictions and those of group 1. Summed over segments, they
    are the counts of the segments' union."""
    starts = np.asarray(starts)
    sensitive = np.asarray(sensitive)
    return np.array([
        np.diff(np.append(starts, len(sensitive))),
        np.add.reduceat(sensitive, starts),
        np.add.reduceat(predictions, starts),
        np.add.reduceat(predictions * sensitive, starts),
    ])


def risk_differences(counts: np.ndarray) -> np.ndarray:
    """The risk difference of each segment that *counts* (risk_counts)
    describe; NaN for a segment of one sensitive group, where the metric
    is undefined."""
    size, ones, pos, pos_ones = counts
    defined = (ones > 0) & (ones < size)
    with np.errstate(divide="ignore", invalid="ignore"):
        rd = np.abs(pos_ones / ones - (pos - pos_ones) / (size - ones))
    return np.where(defined, rd, np.nan)


def covariance_coeff_w(
    shard: ClientShard, theta: np.ndarray, stats: FairnessStats
) -> np.ndarray:
    """phi_C,k = (1/n) sum_{i in k} (s_i - s_bar) theta_i x_i."""
    weights = (shard.sensitive - stats.s_bar) * theta
    return shard.features.T @ weights / stats.n_total


def covariance_coeff_alpha(
    shard: ClientShard, km: np.ndarray, w: np.ndarray, stats: FairnessStats
) -> np.ndarray:
    """psi_C,k with entry m = (1/n) sum_{i in k} (s_i - s_bar) K_m(x_i) (w . x_i)."""
    margins = shard.features @ w
    weights = (shard.sensitive - stats.s_bar) * margins
    return km.T @ weights / stats.n_total


def covariance_form(shard: ClientShard, km: np.ndarray, stats: FairnessStats) -> np.ndarray:
    """psi_theta,k = (1/n) K^T 1 in column 0 and C_k = (1/n) K^T
    diag(s - s_bar) X in the rest of one (M, d+2) array, from one product
    over the shard's kernel matrix *km*. The product is taken as left^T K,
    faster than K^T left and equal to it bit for bit, and its transpose is
    returned C-contiguous: on a transposed layout the psi_C and phi_C
    products over the run stacks take another BLAS path, with other bits."""
    left = np.empty((shard.n, shard.features.shape[1] + 1))
    left[:, 0] = 1.0
    np.multiply(
        shard.features, (shard.sensitive - stats.s_bar)[:, None], out=left[:, 1:]
    )
    return np.divide((left.T @ km).T, stats.n_total, order="C")
