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
(fairness.covariance_form), which stays on the client.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

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
    optimize_alpha: bool = True
    fairness_row_in_lp: bool = False
    opt: logistic.OptimizerSpec = field(default_factory=logistic.OptimizerSpec)

    def __post_init__(self):
        if self.penalty_mode not in (
            PENALTY_GLOBAL,
            PENALTY_UNWEIGHTED,
            PENALTY_LOCAL,
            PENALTY_NONE,
        ):
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


@dataclass
class ClientState:
    shard: ClientShard
    kernel_matrix: np.ndarray
    stats: fairness.FairnessStats
    psi_theta: np.ndarray  # the kernel matrix's column sums over n, fixed
    cov_form: np.ndarray  # C_k, (M, d+1): psi_C = C_k w, phi_C = C_k^T alpha
    local_phi: np.ndarray | None  # LocalFair's penalty vector, fixed
    fixed_phi_C: np.ndarray | None  # phi_C when its weights ignore alpha
    expected_round: int = 0


@dataclass
class ServerState:
    round: int
    alpha: np.ndarray
    w_avg: np.ndarray
    stats: fairness.FairnessStats
    basis: kernels.KernelBasis
    num_clients: int
    last_lp: lp.LPSolution | None = None


def _penalty_for(state: ClientState, bc: ServerBroadcast, cfg: ProtocolConfig):
    dim = state.shard.features.shape[1]
    if cfg.penalty_mode == PENALTY_NONE or cfg.lam == 0.0:
        return logistic.PenaltySpec.disabled(dim)
    if cfg.penalty_mode == PENALTY_LOCAL:
        # covariance over this shard only, with the local sensitive mean;
        # the target is exact local parity (zero covariance), not the
        # relaxed tau used by the agnostic constraint
        return logistic.PenaltySpec(lam=cfg.lam, tau=0.0, phi_c=state.local_phi)
    return logistic.PenaltySpec(lam=cfg.lam, tau=cfg.tau, phi_c=bc.phi_C_global)


def _check_round(state: ClientState, bc: ServerBroadcast) -> None:
    if bc.round != state.expected_round:
        raise ProtocolError(
            f"client {state.shard.client_id} expected round "
            f"{state.expected_round}, got {bc.round}"
        )


def _phi_C(state: ClientState, alpha: np.ndarray) -> np.ndarray:
    """The client's covariance vector: its fixed one when the variant's
    weights ignore alpha, else weighted by theta = K alpha."""
    if state.fixed_phi_C is not None:
        return state.fixed_phi_C
    return state.cov_form.T @ alpha


def _bundle(state: ClientState, alpha: np.ndarray, w_new: np.ndarray) -> CoefficientBundle:
    """Coefficient extraction at the client's new weights and the
    round's alpha."""
    losses = logistic.shard_logloss(w_new, state.shard)
    bundle = CoefficientBundle(
        client_id=state.shard.client_id,
        psi_L=state.kernel_matrix.T @ losses / state.stats.n_total,
        psi_theta=state.psi_theta,
        psi_C=state.cov_form @ w_new,
        phi_C=_phi_C(state, alpha),
        w_local=w_new,
    )
    for f in fields(bundle):
        if f.name != "client_id" and not np.isfinite(getattr(bundle, f.name)).all():
            raise ProtocolError(
                f"client {state.shard.client_id}: non-finite {f.name} in bundle"
            )
    state.expected_round += 1
    return bundle


def client_round(
    state: ClientState, bc: ServerBroadcast, cfg: ProtocolConfig
) -> CoefficientBundle:
    """Local weight fit followed by coefficient extraction at the new w."""
    _check_round(state, bc)
    th = kernels.theta(state.kernel_matrix, bc.alpha)
    penalty = _penalty_for(state, bc, cfg)
    w_new = logistic.fit_local(bc.w_avg, state.shard, th, penalty, cfg.opt)
    return _bundle(state, bc.alpha, w_new)


def clients_round(
    clients: list[ClientState], bc: ServerBroadcast, cfg: ProtocolConfig
) -> list[CoefficientBundle]:
    """Every client's half of a round; the bundles come in client order.

    More than two clients fit in lockstep (logistic.fit_lockstep); fewer
    each run client_round. Extraction is per client either way.
    """
    # Lockstep pays off only with more than two clients: two leave little
    # per-call overhead to share, and its masking and segment sums then
    # cost more than they save.
    if len(clients) <= 2:
        return [client_round(c, bc, cfg) for c in clients]
    for c in clients:
        _check_round(c, bc)
    ths = [kernels.theta(c.kernel_matrix, bc.alpha) for c in clients]
    penalties = [_penalty_for(c, bc, cfg) for c in clients]
    w_new = logistic.fit_lockstep(
        bc.w_avg, [c.shard for c in clients], np.concatenate(ths), penalties, cfg.opt
    )
    return [_bundle(c, bc.alpha, w) for c, w in zip(clients, w_new)]


def server_round(
    state: ServerState, bundles: list[CoefficientBundle], cfg: ProtocolConfig
) -> ServerBroadcast:
    """Aggregate bundles, refresh alpha by LP, average weights, broadcast."""
    if len(bundles) != state.num_clients:
        raise ProtocolError(
            f"round {state.round}: got {len(bundles)} bundles, "
            f"expected {state.num_clients}"
        )
    psi_L = np.sum([b.psi_L for b in bundles], axis=0)
    psi_theta = np.sum([b.psi_theta for b in bundles], axis=0)
    psi_C = np.sum([b.psi_C for b in bundles], axis=0)
    phi_C = np.sum([b.phi_C for b in bundles], axis=0)
    w_avg = np.mean([b.w_local for b in bundles], axis=0)

    if cfg.optimize_alpha:
        problem = lp.AlphaLP(
            objective=psi_L,
            equality=psi_theta,
            fairness_row=psi_C if cfg.fairness_row_in_lp else None,
            tau=cfg.tau,
            box_upper=state.basis.bound,
        )
        solution = lp.solve(problem)
        if solution.status == lp.STATUS_ERROR:
            raise ProtocolError(f"round {state.round}: alpha LP unsolvable")
        state.last_lp = solution
        state.alpha = solution.alpha

    state.w_avg = w_avg
    state.round += 1
    return ServerBroadcast(
        round=state.round,
        w_avg=w_avg,
        alpha=state.alpha.copy(),
        phi_C_global=phi_C,
    )


def init_protocol(
    shards: list[ClientShard],
    basis: kernels.KernelBasis,
    cfg: ProtocolConfig,
) -> tuple[ServerState, list[ClientState], ServerBroadcast]:
    """Stats round plus kernel precomputation; returns round-0 broadcast.

    Each client builds its kernel matrix and, from it, psi_theta and its
    covariance form (fairness.covariance_form). Initial weights are zero;
    initial alpha is the uniform vector solving the sum-to-one row,
    alpha_m = 1 / sum_m psi_theta_m.
    """
    if not shards:
        raise ConfigError("init_protocol needs at least one shard")
    stats = fairness.compute_stats(shards)
    kms = [kernels.kernel_matrix(s, basis) for s in shards]
    forms = [fairness.covariance_form(s, km, stats) for s, km in zip(shards, kms)]
    total = float(np.sum([psi_theta for psi_theta, _ in forms], axis=0).sum())
    if total <= 0.0:
        raise ConfigError("all-zero equality row; cannot initialize alpha")
    alpha0 = np.full(basis.num_bases, 1.0 / total)
    dim = shards[0].features.shape[1]
    w0 = np.zeros(dim)

    local = cfg.penalty_mode == PENALTY_LOCAL
    unweighted = cfg.penalty_mode in (PENALTY_UNWEIGHTED, PENALTY_LOCAL)
    clients = [
        ClientState(
            shard=s,
            kernel_matrix=km,
            stats=stats,
            psi_theta=psi_theta,
            cov_form=form,
            local_phi=s.features.T @ (s.sensitive - float(s.sensitive.mean())) / s.n
            if local
            else None,
            fixed_phi_C=fairness.covariance_coeff_w(s, np.ones(s.n), stats)
            if unweighted
            else None,
        )
        for s, km, (psi_theta, form) in zip(shards, kms, forms)
    ]
    # phi_C does not depend on w, so the stats round can already ship the
    # covariance vector every later round ships, at alpha0; otherwise the
    # first local fit would run with a zero (disabled) penalty.
    phi0 = np.sum([_phi_C(c, alpha0) for c in clients], axis=0)
    server = ServerState(
        round=0,
        alpha=alpha0,
        w_avg=w0,
        stats=stats,
        basis=basis,
        num_clients=len(shards),
    )
    bc0 = ServerBroadcast(
        round=0, w_avg=w0, alpha=alpha0.copy(), phi_C_global=phi0
    )
    return server, clients, bc0
