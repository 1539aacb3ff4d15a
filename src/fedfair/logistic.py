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

Both fits run on a shard's signed, transposed design matrix
S = ((1 - 2y)[:, None] * X).T (signed_xt, (d+1) x n and C-contiguous):
the signed margins are S^T w, the gradient's product is S (theta
sigmoid(m)) and a step's margin change is S^T g. Each product is d+1
dots or axpys the length of the shard, with no sign pass; the row-major
features would make them n short (d+1)-wide ones. per_sample_logloss
and local_objective stay on the row-major features, as the oracles of
those products.

fit_local fits one client; fit_lockstep fits every client of a round at
once, with each client's result as if fit_local had fitted it alone. It
takes each run of equal-sized clients' S stacked (g, d+1, n), as
protocol.init_protocol builds them. Each of its products and sums is
one np.matmul per run whose every item is the BLAS call (gemv or dot,
same shape and strides) that fit_local makes, so the two fits' weights
are equal by construction. The two fits share no code: fit_local is
the oracle the tests hold fit_lockstep to.
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
    phi_c: np.ndarray  # (d+1,); for fit_lockstep (p, d+1), row k client k's


@dataclass(frozen=True)
class OptimizerSpec:
    learning_rate: float
    epochs: int
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


@np.errstate(over="ignore")  # a margin past the largest float is +-inf, of the right sign
def predict_label(w: np.ndarray, features: np.ndarray) -> np.ndarray:
    """1 where the margin x . w is nonnegative (sigmoid >= 0.5), else 0."""
    return (features @ w >= 0.0).astype(int)


def per_sample_logloss(w: np.ndarray, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    return _softplus((1.0 - 2.0 * labels) * (features @ w))[0]


def signed_xt(shard: ClientShard) -> np.ndarray:
    """The fits' signed, transposed design matrix ((1 - 2y)[:, None] * X).T
    of *shard*, C-contiguous (d+1, n)."""
    return np.multiply(shard.features.T, 1.0 - 2.0 * shard.labels, order="C")


def run_logloss(w: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Every row's log-loss, (g, n), of a run of equal-sized clients whose
    signed_xt *stack* holds (g, d+1, n), row k at w[k]: one matmul, each
    item the product fit_local forms; per_sample_logloss is its row-major
    oracle."""
    return _softplus(np.matmul(stack.transpose(0, 2, 1), w[:, :, None])[:, :, 0])[0]


def local_objective(
    w: np.ndarray, shard: ClientShard, theta: np.ndarray, penalty: PenaltySpec
) -> float:
    loss = float(theta @ per_sample_logloss(w, shard.features, shard.labels)) / shard.n
    gap = float(w @ penalty.phi_c) - penalty.tau
    return loss + penalty.lam * gap * gap


def loss_gradient(
    w: np.ndarray, st: np.ndarray, theta: np.ndarray, penalty: PenaltySpec
) -> np.ndarray:
    """Analytic gradient of the local objective with respect to w, by
    the formula fit_local runs on the shard's signed_xt *st*."""
    m = st.T @ w
    gap = float(w @ penalty.phi_c) - penalty.tau
    return _gradient(st, theta, m, _softplus(m)[1], gap, penalty)


@np.errstate(over="ignore", invalid="ignore")  # each candidate's finiteness is tested
def fit_local(
    w_init: np.ndarray,
    st: np.ndarray,
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
    dm = S^T g formed once per step (S = st, the shard's signed_xt), the
    candidate w - t g has signed margins m - t dm and penalty gap
    gap - t g . phi_C, so trying it takes no matrix product.
    """
    lam = penalty.lam
    c = theta / st.shape[1]
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
    """_softplus's twin, kept apart: fit_lockstep shares no code with fit_local."""
    e = np.exp(-np.abs(m))
    return np.maximum(m, 0.0) + np.log1p(e), e


def _layout(stacks: list[np.ndarray]):
    """Each client's row count and slice of the rows stacked in client
    order, and each run's slices of the clients and rows, with its stack."""
    counts = np.repeat([st.shape[2] for st in stacks], [len(st) for st in stacks])
    rows = [slice(b - n, b) for b, n in zip(np.cumsum(counts).tolist(), counts.tolist())]
    cuts = np.cumsum([0] + [len(st) for st in stacks]).tolist()
    runs = [(slice(a, b), slice(rows[a].start, rows[b - 1].stop), st)
            for a, b, st in zip(cuts, cuts[1:], stacks)]
    return counts, rows, runs


def _row_products(runs, v: np.ndarray) -> np.ndarray:
    """S_k^T v[k] for every client k, concatenated in client order: the
    signed margins when v holds weights, a step's margin change when it
    holds gradients. One matmul per run."""
    return np.concatenate([
        np.matmul(st.transpose(0, 2, 1), v[run, :, None]).ravel() for run, _, st in runs
    ])


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[k] . b[k] for every row k, one matmul of p dot products."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _client_sums(sums, v: np.ndarray) -> np.ndarray:
    """c_k . v_k for every client k, from each run's slices of the clients
    and rows and its c viewed (g, 1, n) in *sums*: one matmul per run,
    each item the dot fit_local's c @ sp makes."""
    out = np.empty(sums[-1][0].stop)
    for run, rows, cv in sums:
        np.matmul(cv, v[rows].reshape(len(cv), -1, 1), out=out[run, None, None])
    return out


def _stacked_gradient(runs, counts, theta, m, e, gap, penalty):
    """Every client's gradient, one row each, from every row's signed
    margins m and e = exp(-|m|) and each client's penalty gap."""
    r = theta * (np.where(m >= 0.0, 1.0, e) / (1.0 + e))
    raw = np.empty(penalty.phi_c.shape)
    for run, rows, st in runs:
        raw[run] = np.matmul(st, r[rows].reshape(st.shape[0], -1, 1))[:, :, 0]
    return raw / counts[:, None] + (2.0 * penalty.lam * gap)[:, None] * penalty.phi_c


def lockstep_gradient(
    w: np.ndarray, stacks: list[np.ndarray], theta: np.ndarray, penalty: PenaltySpec
) -> np.ndarray:
    """Every client's local-objective gradient, row k at w[k], as
    fit_lockstep forms it on *stacks*; theta covers every client's rows
    in client order, and penalty.phi_c is (p, d+1), row k client k's."""
    counts, _, runs = _layout(stacks)
    m = _row_products(runs, w)
    gap = _row_dots(w, penalty.phi_c) - penalty.tau
    return _stacked_gradient(runs, counts, theta, m, _stacked_softplus(m)[1], gap, penalty)


@np.errstate(over="ignore", invalid="ignore")  # each candidate's finiteness is tested
def fit_lockstep(
    w_init: np.ndarray,
    stacks: list[np.ndarray],
    theta: np.ndarray,
    penalty: PenaltySpec,
    opt: OptimizerSpec,
) -> np.ndarray:
    """fit_local for every client of *stacks*, each run's signed_xt
    stacked (g, d+1, n), at once, all from w_init.

    Row k of the result is client k's weights; theta covers every
    client's rows in client order, and row k of penalty.phi_c, (p, d+1),
    is client k's. Each epoch the sigmoid, the softplus and the first
    candidate run once over every row, and S_k r_k, S_k^T g_k,
    g_k . phi_k and c_k . softplus are one matmul per run, every client's
    recomputed each epoch: a stopped client's margins and gap no longer
    change, so neither do its products, and no later step reads them. A
    client that rejects the first candidate halves on its own rows, and
    one that rejects every halving stops while the others go on. Each
    matmul item is the BLAS call fit_local makes, so every client's
    weights equal fit_local's by construction.
    """
    counts, rows, runs = _layout(stacks)
    lam, phi = penalty.lam, penalty.phi_c
    c = theta / np.repeat(counts, counts)
    sums = [(run, rs, c[rs].reshape(len(st), 1, -1)) for run, rs, st in runs]
    w = np.tile(np.asarray(w_init, dtype=float), (len(rows), 1))
    m, gap = _row_products(runs, w), _row_dots(w, phi) - penalty.tau
    sp, e = _stacked_softplus(m)
    obj = _client_sums(sums, sp) + lam * gap * gap
    if not np.all(np.isfinite(obj)):
        raise ProtocolError(f"non-finite objective at start of fit: {obj}")
    live = np.ones(len(rows), dtype=bool)  # clients still descending
    for _ in range(opt.epochs):
        grad = _stacked_gradient(runs, counts, theta, m, e, gap, penalty)
        dm, gphi = _row_products(runs, grad), _row_dots(grad, phi)
        rate = opt.learning_rate
        cand_m, cand_gap = m - rate * dm, gap - rate * gphi
        sp, cand_e = _stacked_softplus(cand_m)
        cand_obj = _client_sums(sums, sp) + lam * cand_gap * cand_gap
        accept = live & np.isfinite(cand_obj) & (cand_obj <= obj)
        if accept.all():
            w -= rate * grad
            m, e, gap, obj = cand_m, cand_e, cand_gap, cand_obj
            continue
        taken = np.repeat(accept, counts)
        m, e = np.where(taken, cand_m, m), np.where(taken, cand_e, e)
        w[accept] -= rate * grad[accept]
        gap, obj = np.where(accept, cand_gap, gap), np.where(accept, cand_obj, obj)
        for k in np.flatnonzero(live & ~accept).tolist():
            # halve on this client's rows only, from the rejected first step
            rk, rate = rows[k], opt.learning_rate
            for _ in range(opt.max_halvings):
                rate *= 0.5
                cm, cg = m[rk] - rate * dm[rk], gap[k] - rate * gphi[k]
                sp, ce = _stacked_softplus(cm)
                co = float(c[rk] @ sp) + lam * cg * cg
                if np.isfinite(co) and co <= obj[k]:
                    w[k] -= rate * grad[k]
                    m[rk], e[rk], gap[k], obj[k] = cm, ce, cg, co
                    break
            else:
                live[k] = False  # no halving lowered the objective: stop
        if not live.any():
            break
    if not np.all(np.isfinite(w)):
        raise ProtocolError("non-finite weights after local fit")
    return w
