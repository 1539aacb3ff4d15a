"""Client and server state machines with typed round messages.

One synchronous round: every client receives the broadcast (averaged
weights, mixture coefficients, global covariance vector), fits its local
weights, and replies with a coefficient bundle; the server aggregates
the bundles, refreshes the mixture coefficients by LP, averages the
weights and emits the next broadcast. Messages carry only length-M and
length-(d+1) vectors plus scalars -- never raw samples. clients_round
runs every client's half; each client reads only its own shard, also
when more than two fit in lockstep.

A client reads its whole kernel matrix once a round, for psi_L; psi_C
and the kernel-weighted phi_C come from its covariance form C_k
(fairness.covariance_form), which stays on the client. init_protocol
alone groups the clients into runs of consecutive equal-sized shards
and stacks each run's fixed arrays (RunStack); a lockstep round takes
theta, fits and extracts a whole run at once. Each product is one
np.matmul over the run, whose every item makes the BLAS call that a lone
client's product makes, with the same strides. So a client's bundle is
the same bits whether it runs alone (client_round) or in a run
(clients_round).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from fedfair import fairness, kernels, logistic, lp
from fedfair.data import ClientShard
from fedfair.errors import ConfigError, ProtocolError

#: penalty modes for the local fairness term
PENALTY_GLOBAL = "global"  # weighted global covariance (flagship algorithm)
PENALTY_UNWEIGHTED = "unweighted"  # theta == 1 inside the covariance
PENALTY_LOCAL = "local"  # per-client covariance with local sensitive mean
PENALTY_NONE = "none"


@dataclass(frozen=True)
class ProtocolConfig:
    lam: float = 2.0
    tau: float = 0.05
    penalty_mode: str = PENALTY_NONE
    opt: logistic.OptimizerSpec = field(default_factory=logistic.OptimizerSpec)

    def __post_init__(self):
        modes = (PENALTY_GLOBAL, PENALTY_UNWEIGHTED, PENALTY_LOCAL, PENALTY_NONE)
        if self.penalty_mode not in modes:
            raise ConfigError(f"unknown penalty mode {self.penalty_mode!r}")


@dataclass(frozen=True)
class CoefficientBundle:
    client_id: int
    psi_L: np.ndarray  # (M,)
    psi_theta: np.ndarray  # (M,)
    psi_C: np.ndarray  # (M,)
    phi_C: np.ndarray  # (d+1,)
    w_local: np.ndarray  # (d+1,)


@dataclass(frozen=True)
class ServerBroadcast:
    round: int
    w_avg: np.ndarray
    alpha: np.ndarray
    phi_C_global: np.ndarray


@dataclass(eq=False)
class RunStack:
    """The kernel matrices, covariance forms, signed design matrices and
    fixed covariance and penalty vectors of one run of equal-sized
    clients, stacked: one client's are [None] views, with no copy."""

    kernels: np.ndarray  # (g, n, M)
    forms: np.ndarray  # (g, M, d+2): psi_theta, then C_k (fairness.covariance_form)
    signed_xt: np.ndarray  # (g, d+1, n): logistic.signed_xt
    fixed_phi_C: np.ndarray | None  # (g, d+1): phi_C when its weights ignore alpha
    local_phi: np.ndarray | None  # (g, d+1): LocalFair's penalty vectors


@dataclass
class ClientState:
    shard: ClientShard
    run: RunStack  # the stack of this client's run; its arrays are views
    slot: int  # this client's place in its run
    stats: fairness.FairnessStats
    expected_round: int = 0


@dataclass
class ServerState:
    bc: ServerBroadcast  # the last broadcast sent; the round and alpha are its
    basis: kernels.KernelBasis
    num_clients: int
    last_lp: lp.LPSolution | None = None


def _stack_run(g: int, arrays) -> np.ndarray:
    """The g arrays of a run that *arrays* yields, stacked (g, ...) as
    they come, so that no more than one is held twice; a lone array
    becomes a [None] view, with no copy."""
    arrays = iter(arrays)
    first = next(arrays)
    if g == 1:
        return first[None]
    out = np.empty((g, *first.shape), dtype=first.dtype)
    out[0] = first
    del first
    for k in range(1, g):
        out[k] = next(arrays)
    return out


def _penalty(runs: list[RunStack], bc: ServerBroadcast, cfg: ProtocolConfig):
    """The round's penalty for the clients of *runs*, in order: one lam
    and tau, and phi_c (p, d+1), row k client k's."""
    p = sum(len(run.kernels) for run in runs)
    if cfg.penalty_mode == PENALTY_NONE or cfg.lam == 0.0:
        return logistic.PenaltySpec(lam=0.0, tau=0.0, phi_c=np.zeros((p, len(bc.w_avg))))
    if cfg.penalty_mode == PENALTY_LOCAL:
        # covariance over each shard only, with its local sensitive mean;
        # the target is exact local parity (zero covariance), not the
        # relaxed tau used by the agnostic constraint
        phi = np.concatenate([run.local_phi for run in runs])
        return logistic.PenaltySpec(lam=cfg.lam, tau=0.0, phi_c=phi)
    return logistic.PenaltySpec(lam=cfg.lam, tau=cfg.tau, phi_c=np.tile(bc.phi_C_global, (p, 1)))


def _check_round(state: ClientState, bc: ServerBroadcast) -> None:
    if bc.round != state.expected_round:
        raise ProtocolError(
            f"client {state.shard.client_id} expected round "
            f"{state.expected_round}, got {bc.round}"
        )


def _phi_C(run: RunStack, alpha: np.ndarray) -> np.ndarray:
    """The covariance vectors of a run's clients, (g, d+1): their fixed
    ones when the variant's weights ignore alpha, else weighted by
    theta = K alpha."""
    if run.fixed_phi_C is not None:
        return run.fixed_phi_C
    return np.matmul(run.forms[:, :, 1:].transpose(0, 2, 1), alpha)


@np.errstate(over="ignore", invalid="ignore")  # every sent value's finiteness is tested
def _extract(
    states: list[ClientState], run: RunStack, alpha: np.ndarray, w_new: np.ndarray
) -> list[CoefficientBundle]:
    """Coefficient extraction for one run of equal-sized clients, whose
    arrays *run* stacks, at their new weights w_new (g, d+1) and the
    round's alpha."""
    losses = logistic.run_logloss(w_new, run.signed_xt)[:, :, None]
    sent = {
        "psi_L": np.matmul(run.kernels.transpose(0, 2, 1), losses)[:, :, 0]
        / states[0].stats.n_total,
        "psi_theta": run.forms[:, :, 0],
        "psi_C": np.matmul(run.forms[:, :, 1:], w_new[:, :, None])[:, :, 0],
        "phi_C": _phi_C(run, alpha),
        "w_local": w_new,
    }
    if not all(np.isfinite(v).all() for v in sent.values()):
        k, name = next((k, f) for k in range(len(states)) for f, v in sent.items()
                       if not np.isfinite(v[k]).all())
        raise ProtocolError(f"client {states[k].shard.client_id}: non-finite {name} in bundle")
    for c in states:
        c.expected_round += 1
    return [
        CoefficientBundle(client_id=c.shard.client_id, **{f: v[k] for f, v in sent.items()})
        for k, c in enumerate(states)
    ]


def client_round(
    state: ClientState, bc: ServerBroadcast, cfg: ProtocolConfig
) -> CoefficientBundle:
    """Local weight fit followed by coefficient extraction at the new w."""
    _check_round(state, bc)
    k = slice(state.slot, state.slot + 1)
    alone = RunStack(**{f: a if a is None else a[k] for f, a in vars(state.run).items()})
    th = kernels.theta(alone.kernels[0], bc.alpha)
    pen = _penalty([alone], bc, cfg)
    penalty = logistic.PenaltySpec(lam=pen.lam, tau=pen.tau, phi_c=pen.phi_c[0])
    w_new = logistic.fit_local(bc.w_avg, alone.signed_xt[0], th, penalty, cfg.opt)
    return _extract([state], alone, bc.alpha, w_new[None])[0]


def clients_round(
    clients: list[ClientState], bc: ServerBroadcast, cfg: ProtocolConfig
) -> list[CoefficientBundle]:
    """Every client's half of a round; the bundles come in client order.

    More than two clients fit in lockstep (logistic.fit_lockstep) on their
    runs' stacks; each run of equal-sized clients takes theta in one call
    and is extracted at once. Fewer each run client_round. *clients* are
    init_protocol's, in its order.
    """
    # Lockstep pays off only with more than two clients: two leave little
    # per-call overhead to share, and its masking and per-run calls then
    # cost more than they save.
    if len(clients) <= 2:
        return [client_round(c, bc, cfg) for c in clients]
    for c in clients:
        _check_round(c, bc)
    # init_protocol's clients, in its order, fill each run's slots in turn
    runs = [
        (slice(k, k + len(c.run.kernels)), c.run) for k, c in enumerate(clients) if c.slot == 0
    ]
    slots = [(run, j) for _, run in runs for j in range(len(run.kernels))]
    if [(c.run, c.slot) for c in clients] != slots:
        raise ProtocolError("a lockstep round takes init_protocol's clients, in order")
    theta = np.concatenate([kernels.theta(run.kernels, bc.alpha).ravel() for _, run in runs])
    penalty = _penalty([run for _, run in runs], bc, cfg)
    stacks = [run.signed_xt for _, run in runs]
    w_new = logistic.fit_lockstep(bc.w_avg, stacks, theta, penalty, cfg.opt)
    return [b for k, run in runs for b in _extract(clients[k], run, bc.alpha, w_new[k])]


def server_round(
    state: ServerState, bundles: list[CoefficientBundle], cfg: ProtocolConfig
) -> ServerBroadcast:
    """Aggregate bundles, refresh alpha by LP, average weights, broadcast."""
    if len(bundles) != state.num_clients:
        raise ProtocolError(
            f"round {state.bc.round}: got {len(bundles)} bundles, "
            f"expected {state.num_clients}"
        )
    psi_L = np.sum([b.psi_L for b in bundles], axis=0)
    psi_theta = np.sum([b.psi_theta for b in bundles], axis=0)
    psi_C = np.sum([b.psi_C for b in bundles], axis=0)
    phi_C = np.sum([b.phi_C for b in bundles], axis=0)
    with np.errstate(over="ignore"):  # a non-finite average is a named failure
        w_avg = np.mean([b.w_local for b in bundles], axis=0)
    if not np.isfinite(w_avg).all():
        raise ProtocolError(f"round {state.bc.round}: non-finite average weights w_avg")

    alpha = state.bc.alpha
    # A constant basis runs no LP: the sum-to-one row fixes its one weight at
    # alpha0. Only the global penalty's covariance is theta-weighted, so only
    # it has an alpha side, psi_C, for the fairness row to bound (unweighted
    # takes theta == 1, local each client's own mean, none no covariance).
    if state.basis.kind != kernels.CONSTANT:
        problem = lp.AlphaLP(
            objective=psi_L,
            equality=psi_theta,
            fairness_row=psi_C if cfg.penalty_mode == PENALTY_GLOBAL else None,
            tau=cfg.tau,
            box_upper=state.basis.bound,
        )
        solution = lp.solve(problem)
        if solution.status == lp.STATUS_ERROR:
            raise ProtocolError(f"round {state.bc.round}: alpha LP unsolvable")
        state.last_lp = solution
        alpha = solution.alpha

    state.bc = ServerBroadcast(
        round=state.bc.round + 1, w_avg=w_avg, alpha=alpha, phi_C_global=phi_C
    )
    return state.bc


def init_protocol(
    shards: list[ClientShard],
    basis: kernels.KernelBasis,
    cfg: ProtocolConfig,
) -> tuple[ServerState, list[ClientState], ServerBroadcast]:
    """Stats round plus kernel precomputation; returns the round-0
    broadcast, which is also the server's bc.

    Consecutive shards with equal row counts form a run. Each client
    builds its kernel matrix and, from it, psi_theta and its covariance
    form and its logistic.signed_xt; a run's are stacked as they are
    built (RunStack). Initial weights are zero; initial alpha is the
    uniform vector solving the sum-to-one row, alpha_m = 1 / sum_m
    psi_theta_m. Raises ProtocolError when the basis is not constant (the
    LP runs) and its box bound lets no alpha meet that row.
    """
    if not shards:
        raise ConfigError("init_protocol needs at least one shard")
    stats = fairness.compute_stats(shards)
    local = cfg.penalty_mode == PENALTY_LOCAL
    unweighted = cfg.penalty_mode in (PENALTY_UNWEIGHTED, PENALTY_LOCAL)
    clients, runs = [], []
    for _, group in itertools.groupby(shards, key=lambda s: s.n):
        group = list(group)
        kms = _stack_run(len(group), (kernels.kernel_matrix(s, basis) for s in group))
        forms = _stack_run(
            len(group), (fairness.covariance_form(s, km, stats) for s, km in zip(group, kms))
        )
        sxt = _stack_run(len(group), (logistic.signed_xt(s) for s in group))
        phis = (fairness.covariance_coeff_w(s, np.ones(s.n), stats) for s in group)
        fixed = _stack_run(len(group), phis) if unweighted else None
        locals_ = (fairness.covariance_coeff_w(s, np.ones(s.n), fairness.FairnessStats(
            s_bar=float(s.sensitive.mean()), n_total=s.n)) for s in group)
        local_phi = _stack_run(len(group), locals_) if local else None
        stack = RunStack(kms, forms, sxt, fixed_phi_C=fixed, local_phi=local_phi)
        clients += [ClientState(s, run=stack, slot=k, stats=stats) for k, s in enumerate(group)]
        runs.append(stack)
    total = float(np.concatenate([run.forms[:, :, 0] for run in runs]).sum(axis=0).sum())
    if total <= 0.0:
        raise ConfigError("all-zero equality row; cannot initialize alpha")
    if basis.kind != kernels.CONSTANT and basis.bound * total < 1.0:
        raise ProtocolError(f"no alpha meets the sum-to-one row psi_theta . alpha = 1 within "
                            f"the box bound {basis.bound!r}: bound * sum(psi_theta) < 1")
    alpha0 = np.full(basis.num_bases, 1.0 / total)
    dim = shards[0].features.shape[1]
    # phi_C does not depend on w, so the stats round can already ship the
    # covariance vector every later round ships, at alpha0; otherwise the
    # first local fit would run with a zero (disabled) penalty.
    phi0 = np.concatenate([_phi_C(run, alpha0) for run in runs]).sum(axis=0)
    bc0 = ServerBroadcast(round=0, w_avg=np.zeros(dim), alpha=alpha0, phi_C_global=phi0)
    return ServerState(bc=bc0, basis=basis, num_clients=len(shards)), clients, bc0
