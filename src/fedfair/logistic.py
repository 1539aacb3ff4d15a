"""Logistic model: prediction, weighted log-loss, gradients, local fit.

The local training objective for client k is

    (1/n_k) sum_i theta_i * logloss_i(w)  +  lambda * (w . phi_C - tau)^2

where phi_C is the (global) covariance coefficient vector of w in the
decision-boundary fairness constraint. The first term is normalized by
the local n_k while phi_C already carries the global 1/n.

With y in {0, 1} and the sign s = 1 - 2y, the log-loss at the margin
z = x . w is softplus(m) of the signed margin m = s z, where
softplus(m) = max(m, 0) + log1p(exp(-|m|)). Every term is nonnegative
and finite for every logit, so a sum of losses never cancels; the
gradient S (theta sigmoid(m)) / n is built from the same exp(-|m|),
so the objective and its gradient agree even where the sigmoid saturates.

Both fits run on each shard's signed, transposed design matrix
S = ((1 - 2y)[:, None] * X).T (ClientShard.signed_xt, (d+1) x n and
C-contiguous): the signed margins are S^T w, the gradient's product is
S (theta sigmoid(m)) and a step's margin change is S^T g. Each product
is d+1 dots or axpys the length of the shard, with no sign pass; the
row-major features would make them n short (d+1)-wide ones.
per_sample_logloss and local_objective stay on the row-major features,
as the oracles of those products.

fit_local fits one client; fit_lockstep fits every client of a round at
once, reading each client's S from its own shard and stacking only the
per-row vectors, with each client's result as if fit_local had fitted
it alone. The two share no code: fit_local is the oracle the tests hold
fit_lockstep to.
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


def _softplus(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """softplus(m) and e = exp(-|m|), which _gradient turns into sigmoid(m)."""
    e = np.exp(-np.abs(m))
    return np.maximum(m, 0.0) + np.log1p(e), e


def _gradient(signed_xt, theta, m, e, gap, penalty) -> np.ndarray:
    p = np.where(m >= 0.0, 1.0, e) / (1.0 + e)  # sigmoid(m), exact at every m
    grad = signed_xt @ (theta * p) / len(m)
    return grad + 2.0 * penalty.lam * gap * penalty.phi_c


def predict_proba(w: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Sigmoid of the clamped logit; strictly inside (0, 1)."""
    z = np.clip(features @ w, -LOGIT_CLAMP, LOGIT_CLAMP)
    return 1.0 / (1.0 + np.exp(-z))


def predict_label(w: np.ndarray, features: np.ndarray) -> np.ndarray:
    """1 where the margin x . w is nonnegative (sigmoid >= 0.5), else 0."""
    return (features @ w >= 0.0).astype(int)


def per_sample_logloss(w: np.ndarray, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    return _softplus((1.0 - 2.0 * labels) * (features @ w))[0]


def shard_logloss(w: np.ndarray, shard: ClientShard) -> np.ndarray:
    """Every row's log-loss at w, from the shard's signed_xt as the fit
    forms it; per_sample_logloss is its row-major oracle."""
    return _softplus(shard.signed_xt.T @ w)[0]


def local_objective(
    w: np.ndarray, shard: ClientShard, theta: np.ndarray, penalty: PenaltySpec
) -> float:
    loss = float(theta @ per_sample_logloss(w, shard.features, shard.labels)) / shard.n
    gap = float(w @ penalty.phi_c) - penalty.tau
    return loss + penalty.lam * gap * gap


def loss_gradient(
    w: np.ndarray, shard: ClientShard, theta: np.ndarray, penalty: PenaltySpec
) -> np.ndarray:
    """Analytic gradient of the local objective with respect to w, by
    the formula fit_local runs."""
    m = shard.signed_xt.T @ w
    gap = float(w @ penalty.phi_c) - penalty.tau
    return _gradient(shard.signed_xt, theta, m, _softplus(m)[1], gap, penalty)


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

    The search runs on signed margins: with m = S^T w kept and
    dm = S^T g formed once per step (S the shard's signed_xt), the
    candidate w - t g has signed margins m - t dm and penalty gap
    gap - t g . phi_C, so trying it takes no matrix product.
    """
    st, lam = shard.signed_xt, penalty.lam
    c = theta / shard.n
    w = np.array(w_init, dtype=float)
    m = st.T @ w
    gap = float(w @ penalty.phi_c) - penalty.tau
    sp, e = _softplus(m)
    obj = float(c @ sp) + lam * gap * gap
    if not np.isfinite(obj):
        raise ProtocolError(f"non-finite objective at start of fit: {obj}")
    for _ in range(opt.epochs):
        grad = _gradient(st, theta, m, e, gap, penalty)
        dm = st.T @ grad
        gphi = float(grad @ penalty.phi_c)
        rate = opt.learning_rate
        for _ in range(opt.max_halvings + 1):
            cand_m, cand_gap = m - rate * dm, gap - rate * gphi
            sp, cand_e = _softplus(cand_m)
            cand_obj = float(c @ sp) + lam * cand_gap * cand_gap
            if np.isfinite(cand_obj) and cand_obj <= obj:
                # the accepted margins' exp(-|m|) feeds the next gradient
                w, m, gap, e, obj = w - rate * grad, cand_m, cand_gap, cand_e, cand_obj
                break
            rate *= 0.5
        else:
            break  # no halving lowered the objective: reject and stop
    if not np.all(np.isfinite(w)):
        raise ProtocolError("non-finite weights after local fit")
    return w


def _stacked_softplus(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """softplus(m) and exp(-|m|), as _softplus forms them, kept apart so
    that fit_lockstep shares no code with its oracle fit_local."""
    e = np.exp(-np.abs(m))
    return np.maximum(m, 0.0) + np.log1p(e), e


def _layout(shards: list[ClientShard]):
    """Each client's row count, first row and slice in the stacking of
    the clients' rows in client order."""
    counts = np.array([s.n for s in shards])
    starts = np.cumsum(counts) - counts
    rows = [slice(a, a + n) for a, n in zip(starts.tolist(), counts.tolist())]
    return counts, starts, rows


def _stacked_gradient(shards, rows, counts, theta, m, e, gap, lam, phi, clients, raw):
    """Every client's gradient, one row each, from the signed margins m
    and e = exp(-|m|) of every row and each client's penalty gap, weight
    lam and vector phi. Only the clients in *clients* get a fresh
    S_k r_k, kept in raw[k]; the other rows are stale."""
    r = theta * (np.where(m >= 0.0, 1.0, e) / (1.0 + e))
    for k in clients:
        np.dot(shards[k].signed_xt, r[rows[k]], out=raw[k])
    return raw / counts[:, None] + (2.0 * lam * gap)[:, None] * phi


def _penalty_arrays(penalties: list[PenaltySpec]):
    lam = np.array([pen.lam for pen in penalties])
    tau = np.array([pen.tau for pen in penalties])
    return lam, tau, np.array([pen.phi_c for pen in penalties])


def _margins(shards, w, phi, tau):
    """Every row's signed margin S_k^T w[k] under its client's weights,
    and each client's penalty gap w[k] . phi[k] - tau[k]."""
    m = np.concatenate([s.signed_xt.T @ w[k] for k, s in enumerate(shards)])
    return m, np.array([float(w[k] @ phi[k]) for k in range(len(shards))]) - tau


def lockstep_gradient(
    w: np.ndarray, shards: list[ClientShard], theta: np.ndarray, penalties: list[PenaltySpec]
) -> np.ndarray:
    """Every client's local-objective gradient, row k at w[k], as
    fit_lockstep forms it; theta covers every shard's rows in client order."""
    counts, _, rows = _layout(shards)
    lam, tau, phi = _penalty_arrays(penalties)
    m, gap = _margins(shards, w, phi, tau)
    e = _stacked_softplus(m)[1]
    return _stacked_gradient(
        shards, rows, counts, theta, m, e, gap, lam, phi, range(len(rows)),
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
    sigmoid, the softplus and the first candidate run once over every
    row; only S_k r_k and S_k^T g_k are made per client. A client that
    rejects the first candidate halves on its own rows, and one that
    rejects every halving stops while the others go on. Client sums are
    np.add.reduceat segments, not fit_local's dot products, so a one-ulp
    tie could split the two in principle (0 of 141,068 fits measured).
    """
    counts, starts, rows = _layout(shards)
    p = len(rows)
    lam, tau, phi = _penalty_arrays(penalties)
    c = theta / np.repeat(counts, counts)
    w = np.tile(np.asarray(w_init, dtype=float), (p, 1))
    m, gap = _margins(shards, w, phi, tau)
    sp, e = _stacked_softplus(m)
    obj = np.add.reduceat(c * sp, starts) + lam * gap * gap
    if not np.all(np.isfinite(obj)):
        raise ProtocolError(f"non-finite objective at start of fit: {obj}")
    live = np.ones(p, dtype=bool)  # clients still descending
    clients = list(range(p))
    raw, dm, gphi = np.zeros_like(w), np.zeros_like(m), np.zeros(p)
    for _ in range(opt.epochs):
        grad = _stacked_gradient(shards, rows, counts, theta, m, e, gap, lam, phi, clients, raw)
        for k in clients:
            np.dot(shards[k].signed_xt.T, grad[k], out=dm[rows[k]])
            gphi[k] = grad[k] @ phi[k]
        rate = opt.learning_rate
        cand_m, cand_gap = m - rate * dm, gap - rate * gphi
        sp, cand_e = _stacked_softplus(cand_m)
        cand_obj = np.add.reduceat(c * sp, starts) + lam * cand_gap * cand_gap
        accept = live & np.isfinite(cand_obj) & (cand_obj <= obj)
        if accept.all():
            w -= rate * grad
            m, e, gap, obj = cand_m, cand_e, cand_gap, cand_obj
            continue
        taken = np.repeat(accept, counts)
        m, e = np.where(taken, cand_m, m), np.where(taken, cand_e, e)
        w[accept] -= rate * grad[accept]
        gap, obj = np.where(accept, cand_gap, gap), np.where(accept, cand_obj, obj)
        for k in [k for k in clients if not accept[k]]:
            # halve on this client's rows only, from the rejected first step
            rk, rate = rows[k], opt.learning_rate
            for _ in range(opt.max_halvings):
                rate *= 0.5
                cm, cg = m[rk] - rate * dm[rk], gap[k] - rate * gphi[k]
                sp, ce = _stacked_softplus(cm)
                co = float(c[rk] @ sp) + lam[k] * cg * cg
                if np.isfinite(co) and co <= obj[k]:
                    w[k] -= rate * grad[k]
                    m[rk], e[rk], gap[k], obj[k] = cm, ce, cg, co
                    break
            else:
                live[k] = False  # no halving lowered the objective: stop
        clients = np.flatnonzero(live).tolist()
        if not clients:
            break
    if not np.all(np.isfinite(w)):
        raise ProtocolError("non-finite weights after local fit")
    return w
