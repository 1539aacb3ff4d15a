"""Kernel bases and the linearly parametrized sample-reweighing function.

Sample weights are mixtures theta_i = sum_m alpha_m * K_m(x_i) with
nonnegative, box-bounded mixture coefficients alpha. Three basis kinds
are supported:

* ``gaussian``  -- K_m(x) = exp(-||b_m - x||^2 / (2 sigma^2)) with centers
  b_m sampled from the training data,
* ``constant``  -- K == 1 with M = 1, making plain federated averaging an
  exact special case of the same machinery,
* ``indicator`` -- M = p with K_k(x) = 1 iff x belongs to client k,
  realizing client-level mixture weighting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fedfair.data import ClientShard
from fedfair.errors import ConfigError

GAUSSIAN = "gaussian"
CONSTANT = "constant"
INDICATOR = "indicator"

#: rows of the Gaussian kernel matrix built per step, through one
#: (rows + 1, M) buffer a call; at M = 200 the buffer and the block it
#: finishes (400 KB each) stay in L2
KERNEL_BLOCK_ROWS = 256

#: theta sums alpha's support column by column up to M / SPARSE_THETA_RATIO
#: nonzeros; at n = 34.5k, M = 200 the two ways cost the same near 18
SPARSE_THETA_RATIO = 10


@dataclass(frozen=True)
class KernelBasis:
    kind: str
    centers: np.ndarray  # (M, d+1); unused for constant/indicator kinds
    sigma: float
    bound: float  # upper box bound B on each mixture coefficient

    def __post_init__(self):
        if self.kind not in (GAUSSIAN, CONSTANT, INDICATOR):
            raise ConfigError(f"unknown basis kind {self.kind!r}")
        if self.num_bases < 1:
            raise ConfigError("basis needs at least one component")
        if self.sigma <= 0:
            raise ConfigError("sigma must be positive")
        if self.bound <= 0:
            raise ConfigError("coefficient bound must be positive")

    @property
    def num_bases(self) -> int:
        return self.centers.shape[0]


def proportional_quotas(sizes: list[int], total: int) -> list[int]:
    """Split *total* across shards proportionally to their sizes.

    Floors the exact quotas, then hands the remainder to the largest
    shards (ties broken by lower index). No quota exceeds its shard's
    size when *total* <= sum(sizes): below the sum every exact quota lies
    below its size, so its floor plus one does not exceed it; at the sum
    the quotas are the sizes.
    """
    n = sum(sizes)
    exact = [total * s / n for s in sizes]
    quotas = [int(q) for q in exact]
    remainder = total - sum(quotas)
    order = sorted(range(len(sizes)), key=lambda k: (-sizes[k], k))
    for k in order[:remainder]:
        quotas[k] += 1
    return quotas


def select_basis(
    shards: list[ClientShard],
    num_bases: int,
    seed: int,
    sigma: float,
    bound: float,
) -> KernelBasis:
    """Sample Gaussian centers from client data, proportionally per shard.

    Each client nominates local rows (without replacement); the per-shard
    quota is proportional to its sample count. Note the centers are raw
    rows, so this leaks M samples to the server by construction.
    """
    sizes = [s.n for s in shards]
    if num_bases > sum(sizes):
        raise ConfigError(
            f"cannot select {num_bases} centers from {sum(sizes)} samples"
        )
    quotas = proportional_quotas(sizes, num_bases)
    rng = np.random.default_rng(seed)
    picked = []
    for shard, quota in zip(shards, quotas):
        idx = rng.choice(shard.n, size=quota, replace=False)
        picked.append(shard.features[np.sort(idx)])
    centers = np.vstack(picked)
    return KernelBasis(kind=GAUSSIAN, centers=centers, sigma=sigma, bound=bound)


def constant_basis(dim: int) -> KernelBasis:
    """Single constant basis K == 1; theta is uniform alpha_1, unboxed: no LP moves it."""
    return KernelBasis(
        kind=CONSTANT, centers=np.zeros((1, dim)), sigma=1.0, bound=np.inf
    )


def client_weight_basis(shards: list[ClientShard]) -> KernelBasis:
    """Indicator basis with one component per client (M = p).

    The bound is n / min_k n_k rather than the Gaussian-mixture default:
    the client-level adversary ranges over every mixture of client
    distributions, and committing all mass to the smallest client needs
    a per-sample weight of n / n_k, which a small fixed box would clip.
    """
    if not shards:
        raise ConfigError("client_weight_basis needs at least one shard")
    dim = shards[0].features.shape[1]
    total = sum(s.n for s in shards)
    bound = total / min(s.n for s in shards)
    return KernelBasis(
        kind=INDICATOR, centers=np.zeros((len(shards), dim)), sigma=1.0, bound=bound
    )


def kernel_matrix(shard: ClientShard, basis: KernelBasis) -> np.ndarray:
    """Evaluate every basis function on every shard sample: (n_k, M); a
    constant or indicator basis's is zeros but for one column of ones."""
    if basis.kind != GAUSSIAN:
        km = np.zeros((shard.n, basis.num_bases))
        km[:, 0 if basis.kind == CONSTANT else shard.client_id] = 1.0
        return km
    if shard.features.shape[1] != basis.centers.shape[1]:
        raise ConfigError(
            f"feature dim {shard.features.shape[1]} != basis dim "
            f"{basis.centers.shape[1]}"
        )
    # squared distances via the (x - b)^2 expansion, block by block: each
    # block's cross products go into its rows of the result and are
    # finished there while they are in L2. Every entry takes the steps of
    # exp(-max(x2 + b2 - 2 cross, 0) / (2 sigma^2)) in that order, so the
    # block height cannot change a bit of it (doubling is exact, and
    # dividing by -(2 sigma^2) negates the quotient exactly). A block of one
    # row would be a gemv, whose sums differ from the gemm's, so a one-row
    # tail joins the block before it.
    x2 = np.sum(shard.features**2, axis=1)[:, None]
    b2 = np.sum(basis.centers**2, axis=1)[None, :]
    out = np.empty((shard.n, basis.num_bases))
    buf = np.empty((min(shard.n, KERNEL_BLOCK_ROWS + 1), basis.num_bases))
    # block edges: no block starts at row n - 1, which folds a one-row tail
    edges = [*range(0, max(shard.n - 1, 1), KERNEL_BLOCK_ROWS), shard.n]
    # a quotient that overflows to -inf has the right kernel value, exp(-inf) = 0
    with np.errstate(over="ignore"):
        for lo, hi in zip(edges, edges[1:]):
            blk = np.matmul(shard.features[lo:hi], basis.centers.T, out=out[lo:hi])
            sq = np.add(x2[lo:hi], b2, out=buf[: hi - lo])
            blk *= 2.0
            sq -= blk
            np.maximum(sq, 0.0, out=sq)
            sq /= -(2.0 * basis.sigma**2)
            np.exp(sq, out=blk)
    return out


def theta(km: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Per-sample weights theta_i = sum_m alpha_m K_m(x_i), of one kernel
    matrix (n, M) or of a run's stack of them (g, n, M), one row each.

    The LP answers with a vertex, so alpha has a handful of nonzeros:
    their columns are summed one at a time from K's (g n, M) row view,
    with no copy of a C-contiguous K nor of its n x |support| columns.
    Reading one column of the row-major K still costs a cache line a
    row, so an alpha with more than M / SPARSE_THETA_RATIO nonzeros (the
    uniform round-0 alpha) takes one pass over the whole matrix: one
    gemv per item of a stack, so each item's bits are its own.
    """
    alpha = np.asarray(alpha, dtype=float)
    if km.shape[-1] != alpha.shape[0]:
        raise ConfigError(
            f"kernel matrix has {km.shape[-1]} bases, alpha has {alpha.shape[0]}"
        )
    support = np.flatnonzero(alpha)
    if SPARSE_THETA_RATIO * len(support) > len(alpha):
        return km @ alpha
    # one product buffer a call: a fresh temporary per column raised
    # peak RSS at n = 60000 by 2 MB
    rows = km.reshape(-1, km.shape[-1])
    out = np.zeros(len(rows))
    term = np.empty_like(out)
    for m in support:
        np.multiply(rows[:, m], alpha[m], out=term)
        out += term
    return out.reshape(km.shape[:-1])

