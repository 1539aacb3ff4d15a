import dataclasses

import numpy as np
import pytest

from fedfair import engine, fairness, kernels, logistic, lp, protocol
from fedfair.data import cut_shards, encode
from fedfair.errors import ConfigError, ProtocolError

from conftest import make_shard, random_shard


def fast_cfg(**kw):
    defaults = dict(
        lam=2.0,
        tau=0.05,
        penalty_mode=protocol.PENALTY_NONE,
        opt=logistic.OptimizerSpec(learning_rate=0.5, epochs=5),
    )
    defaults.update(kw)
    return protocol.ProtocolConfig(**defaults)


def setup_run(shards, basis, cfg):
    server, clients, bc = protocol.init_protocol(shards, basis, cfg)
    return server, clients, bc


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def test_config_rejects_unknown_penalty():
    with pytest.raises(ConfigError):
        fast_cfg(penalty_mode="bogus")


def test_init_constant_basis_alpha_is_one(rng):
    shards = [random_shard(rng, 8, 2, 0), random_shard(rng, 6, 2, 1)]
    basis = kernels.constant_basis(3)
    server, clients, bc = setup_run(shards, basis, fast_cfg())
    # constant kernel: psi_theta = n_total / n_total = 1 -> alpha0 = (1,)
    assert np.allclose(server.bc.alpha, [1.0])
    assert np.allclose(bc.w_avg, 0.0)
    assert bc.round == 0


def test_init_alpha_satisfies_equality_row(rng):
    shards = [random_shard(rng, 10, 3, 0), random_shard(rng, 7, 3, 1)]
    basis = kernels.select_basis(shards, 4, seed=1, sigma=1.0, bound=5.0)
    server, clients, bc = setup_run(shards, basis, fast_cfg())
    psi_theta = np.sum(
        [kernels.kernel_matrix(s, basis).sum(axis=0) for s in shards], axis=0
    ) / sum(s.n for s in shards)
    assert psi_theta @ server.bc.alpha == pytest.approx(1.0, abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_box_too_small_for_the_sum_to_one_row_names_its_cause(rng):
    # psi_theta sums to 1 under the indicator and the constant basis: a box
    # below 1 leaves no alpha on the sum-to-one row, which only matters
    # when the LP runs, so not for a constant basis
    shards = [random_shard(rng, 8, 2, 0), random_shard(rng, 6, 2, 1)]
    indicator = kernels.client_weight_basis(shards)
    with pytest.raises(ProtocolError, match="sum-to-one row.*box bound 1e-300"):
        protocol.init_protocol(shards, dataclasses.replace(indicator, bound=1e-300), fast_cfg())
    tiny = dataclasses.replace(kernels.constant_basis(3), bound=1e-300)
    run_rounds(shards, tiny, fast_cfg(), 1)
    run_rounds(shards, dataclasses.replace(indicator, bound=1.0), fast_cfg(), 1)


def test_init_refuses_an_all_zero_equality_row(rng):
    # a center far from every row: each kernel value underflows to 0, so
    # psi_theta is 0 and no alpha meets the sum-to-one row
    shards = [make_shard(rng.random((5, 2)), [0, 1, 0, 1, 1], [1, 0, 1, 0, 1], k)
              for k in range(2)]
    far = kernels.KernelBasis(
        kind=kernels.GAUSSIAN, centers=np.full((1, 3), 1e3), sigma=1.0, bound=5.0
    )
    with pytest.raises(ConfigError, match="all-zero equality row"):
        protocol.init_protocol(shards, far, fast_cfg())


def test_init_requires_shards():
    with pytest.raises(ConfigError):
        protocol.init_protocol([], kernels.constant_basis(2), fast_cfg())


def test_round0_broadcast_carries_alpha0_covariance(rng):
    shards = [random_shard(rng, 8, 2, 0)]
    basis = kernels.select_basis(shards, 3, seed=0, sigma=1.0, bound=5.0)
    server, clients, bc = setup_run(shards, basis, fast_cfg())
    stats = fairness.compute_stats(shards)
    km = kernels.kernel_matrix(shards[0], basis)
    expected = fairness.covariance_coeff_w(
        shards[0], kernels.theta(km, server.bc.alpha), stats
    )
    assert np.allclose(bc.phi_C_global, expected)


@pytest.mark.parametrize("mode", [protocol.PENALTY_GLOBAL, protocol.PENALTY_UNWEIGHTED])
def test_round0_broadcast_ships_the_covariance_of_later_rounds(mode, rng):
    # the unweighted variant's first fit must penalize the fixed theta == 1
    # covariance it gets in every later round, not the alpha0-weighted one
    shards = [random_shard(rng, 9, 2, 0), random_shard(rng, 7, 2, 1)]
    basis = kernels.select_basis(shards, 4, seed=2, sigma=1.0, bound=5.0)
    cfg = fast_cfg(penalty_mode=mode, lam=2.0)
    server, clients, bc0 = setup_run(shards, basis, cfg)
    stats = fairness.compute_stats(shards)
    weighted = np.sum([
        fairness.covariance_coeff_w(
            s, kernels.theta(kernels.kernel_matrix(s, basis), server.bc.alpha), stats
        )
        for s in shards
    ], axis=0)
    bc1 = protocol.server_round(server, protocol.clients_round(clients, bc0, cfg), cfg)
    if mode == protocol.PENALTY_UNWEIGHTED:
        assert np.array_equal(bc0.phi_C_global, bc1.phi_C_global)
        assert not np.allclose(bc0.phi_C_global, weighted)
    else:
        assert np.allclose(bc0.phi_C_global, weighted)


# ---------------------------------------------------------------------------
# client round
# ---------------------------------------------------------------------------


def test_zero_epoch_client_returns_broadcast_weights(rng):
    shards = [random_shard(rng, 8, 2, 0)]
    basis = kernels.constant_basis(3)
    cfg = fast_cfg(opt=logistic.OptimizerSpec(learning_rate=0.1, epochs=0))
    server, clients, bc = setup_run(shards, basis, cfg)
    bundle = protocol.client_round(clients[0], bc, cfg)
    assert np.array_equal(bundle.w_local, bc.w_avg)


def test_identical_clients_send_identical_bundles(rng):
    x = rng.normal(size=(6, 2))
    y = rng.integers(0, 2, 6)
    s = np.array([0, 1, 0, 1, 0, 1])
    shards = [make_shard(x, y, s, 0), make_shard(x, y, s, 1)]
    basis = kernels.select_basis(shards, 3, seed=2, sigma=1.0, bound=5.0)
    cfg = fast_cfg()
    server, clients, bc = setup_run(shards, basis, cfg)
    b0 = protocol.client_round(clients[0], bc, cfg)
    b1 = protocol.client_round(clients[1], bc, cfg)
    for name in ("psi_L", "psi_theta", "psi_C", "phi_C", "w_local"):
        assert np.allclose(getattr(b0, name), getattr(b1, name), atol=1e-12)


def test_round_mismatch_raises(rng):
    shards = [random_shard(rng, 6, 2, 0)]
    basis = kernels.constant_basis(3)
    cfg = fast_cfg()
    server, clients, bc = setup_run(shards, basis, cfg)
    bad = protocol.ServerBroadcast(
        round=3, w_avg=bc.w_avg, alpha=bc.alpha, phi_C_global=bc.phi_C_global
    )
    with pytest.raises(ProtocolError):
        protocol.client_round(clients[0], bad, cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_shard_raises_protocol_error(rng):
    shard = random_shard(rng, 6, 2, 0)
    shard.features[0, 0] = np.inf
    basis = kernels.constant_basis(3)
    cfg = fast_cfg(opt=logistic.OptimizerSpec(learning_rate=0.1, epochs=0))
    server, clients, bc = setup_run([shard], basis, cfg)
    with pytest.raises(ProtocolError):
        protocol.client_round(clients[0], bc, cfg)


# ---------------------------------------------------------------------------
# server round
# ---------------------------------------------------------------------------


def run_rounds(shards, basis, cfg, rounds):
    server, clients, bc = setup_run(shards, basis, cfg)
    history = []
    for _ in range(rounds):
        bundles = [protocol.client_round(c, bc, cfg) for c in clients]
        alpha_old = server.bc.alpha.copy()
        bc = protocol.server_round(server, bundles, cfg)
        history.append((bundles, alpha_old, server.bc.alpha.copy(), bc))
    return server, clients, history


def test_server_state_is_its_last_broadcast(rng):
    # the server holds no round, alpha or w_avg of its own: init_protocol's
    # round-0 broadcast and each server_round's are its state, in turn
    shards = [random_shard(rng, 8, 2, 0), random_shard(rng, 6, 2, 1)]
    basis = kernels.select_basis(shards, 4, seed=1, sigma=1.0, bound=5.0)
    cfg = fast_cfg(penalty_mode=protocol.PENALTY_GLOBAL)
    server, clients, bc = setup_run(shards, basis, cfg)
    assert bc is server.bc
    for _ in range(3):
        before = server.bc
        bc = protocol.server_round(server, protocol.clients_round(clients, bc, cfg), cfg)
        assert bc is server.bc
        assert bc.round == before.round + 1


def test_server_rejects_wrong_bundle_count(rng):
    shards = [random_shard(rng, 6, 2, 0), random_shard(rng, 6, 2, 1)]
    basis = kernels.constant_basis(3)
    cfg = fast_cfg()
    server, clients, bc = setup_run(shards, basis, cfg)
    bundles = [protocol.client_round(clients[0], bc, cfg)]
    with pytest.raises(ProtocolError):
        protocol.server_round(server, bundles, cfg)


def test_unsolvable_alpha_lp_leaves_the_server_as_it_was(rng, monkeypatch):
    shards = [random_shard(rng, 8, 2, 0), random_shard(rng, 6, 2, 1)]
    basis = kernels.select_basis(shards, 4, seed=1, sigma=1.0, bound=5.0)
    cfg = fast_cfg(penalty_mode=protocol.PENALTY_GLOBAL)
    server, clients, bc = setup_run(shards, basis, cfg)
    bundles = protocol.clients_round(clients, bc, cfg)
    last_lp = server.last_lp
    failed = lp.LPSolution(np.zeros(basis.num_bases), float("nan"), lp.STATUS_ERROR)
    monkeypatch.setattr(lp, "solve", lambda problem: failed)
    with pytest.raises(ProtocolError, match="round 0: alpha LP unsolvable"):
        protocol.server_round(server, bundles, cfg)
    assert server.bc is bc and server.last_lp is last_lp


def test_aggregation_identity_against_pooled_recomputation(rng):
    """Server-side sums equal coefficients recomputed from pooled raw data."""
    shards = [random_shard(rng, 9, 3, 0), random_shard(rng, 11, 3, 1)]
    basis = kernels.select_basis(shards, 4, seed=3, sigma=1.0, bound=5.0)
    # zero local epochs: every client stays at w_avg, so the pooled
    # recomputation can use the broadcast weights directly
    cfg = fast_cfg(opt=logistic.OptimizerSpec(learning_rate=0.1, epochs=0))
    server, clients, history = run_rounds(shards, basis, cfg, 2)
    from fedfair import fairness

    stats = fairness.compute_stats(shards)
    bundles, alpha_old, _, bc = history[-1]
    w = bc.w_avg
    psi_L = np.sum([b.psi_L for b in bundles], axis=0)
    psi_theta = np.sum([b.psi_theta for b in bundles], axis=0)
    psi_C = np.sum([b.psi_C for b in bundles], axis=0)

    pooled_L = np.zeros(basis.num_bases)
    pooled_T = np.zeros(basis.num_bases)
    pooled_C = np.zeros(basis.num_bases)
    for s in shards:
        km = kernels.kernel_matrix(s, basis)
        losses = logistic.per_sample_logloss(w, s.features, s.labels)
        pooled_L += km.T @ losses / stats.n_total
        pooled_T += km.sum(axis=0) / stats.n_total
        pooled_C += fairness.covariance_coeff_alpha(s, km, w, stats)
    assert np.allclose(psi_L, pooled_L, atol=1e-10)
    assert np.allclose(psi_theta, pooled_T, atol=1e-10)
    assert np.allclose(psi_C, pooled_C, atol=1e-10)


def test_bundle_psi_L_matches_row_major_logloss(rng):
    # extraction takes the losses from the shard's signed_xt;
    # per_sample_logloss, on the row-major features, is their oracle
    shards = [random_shard(rng, n, 5, k) for k, n in enumerate((300, 41))]
    basis = kernels.select_basis(shards, 8, seed=4, sigma=1.0, bound=5.0)
    server, clients, bc = setup_run(shards, basis, fast_cfg())
    for c in clients:
        for scale in (0.1, 1.0, 10.0):
            w = rng.normal(size=6) * scale
            got = protocol._extract([c], c.run, bc.alpha, w[None])[0].psi_L
            losses = logistic.per_sample_logloss(w, c.shard.features, c.shard.labels)
            expected = c.run.kernels[c.slot].T @ losses / c.stats.n_total
            assert np.all(np.abs(got - expected) <= 1e-14 * np.abs(expected))


def test_weight_average_is_unweighted_mean(rng):
    shards = [random_shard(rng, 6, 2, 0), random_shard(rng, 12, 2, 1)]
    basis = kernels.constant_basis(3)
    cfg = fast_cfg()
    server, clients, bc = setup_run(shards, basis, cfg)
    bundles = [protocol.client_round(c, bc, cfg) for c in clients]
    bc = protocol.server_round(server, bundles, cfg)
    assert np.allclose(
        bc.w_avg, (bundles[0].w_local + bundles[1].w_local) / 2.0, atol=1e-12
    )


def test_alpha_sums_to_one_every_round(rng):
    shards = [random_shard(rng, 10, 2, 0), random_shard(rng, 8, 2, 1)]
    basis = kernels.select_basis(shards, 4, seed=5, sigma=1.0, bound=5.0)
    cfg = fast_cfg()
    psi_theta = np.sum(
        [kernels.kernel_matrix(s, basis).sum(axis=0) for s in shards], axis=0
    ) / sum(s.n for s in shards)
    server, clients, history = run_rounds(shards, basis, cfg, 5)
    for _, _, alpha_new, _ in history:
        assert psi_theta @ alpha_new == pytest.approx(1.0, abs=1e-8)


def test_adversary_ascent_without_fairness_row(rng):
    """The LP maximizes the reweighed loss; since the equality row is
    round-invariant the previous alpha stays feasible, so the objective
    cannot decrease."""
    shards = [random_shard(rng, 10, 2, 0), random_shard(rng, 8, 2, 1)]
    basis = kernels.select_basis(shards, 4, seed=6, sigma=1.0, bound=5.0)
    cfg = fast_cfg()
    server, clients, history = run_rounds(shards, basis, cfg, 5)
    for bundles, alpha_old, alpha_new, _ in history:
        psi_L = np.sum([b.psi_L for b in bundles], axis=0)
        assert psi_L @ alpha_new >= psi_L @ alpha_old - 1e-8


def test_frozen_alpha_never_changes(rng):
    shards = [random_shard(rng, 8, 2, 0)]
    basis = kernels.constant_basis(3)
    cfg = fast_cfg()
    server, clients, history = run_rounds(shards, basis, cfg, 3)
    for _, alpha_old, alpha_new, _ in history:
        assert np.array_equal(alpha_old, alpha_new)


# ---------------------------------------------------------------------------
# privacy: message shapes never reveal shard sizes
# ---------------------------------------------------------------------------


def test_message_array_lengths_never_match_shard_sizes(rng):
    # shard sizes chosen distinct from M and d+1
    shards = [random_shard(rng, 9, 2, 0), random_shard(rng, 11, 2, 1)]
    shard_sizes = {s.n for s in shards}
    basis = kernels.select_basis(shards, 4, seed=7, sigma=1.0, bound=5.0)
    cfg = fast_cfg(penalty_mode=protocol.PENALTY_GLOBAL, lam=2.0)
    server, clients, bc = setup_run(shards, basis, cfg)
    messages = [bc]
    for _ in range(3):
        bundles = [protocol.client_round(c, bc, cfg) for c in clients]
        messages.extend(bundles)
        bc = protocol.server_round(server, bundles, cfg)
        messages.append(bc)

    for msg in messages:
        for f in dataclasses.fields(msg):
            value = getattr(msg, f.name)
            if isinstance(value, np.ndarray):
                assert len(value) not in shard_sizes


# ---------------------------------------------------------------------------
# penalty modes
# ---------------------------------------------------------------------------


def test_local_penalty_uses_local_mean(rng):
    shard = random_shard(rng, 8, 2, 0)
    basis = kernels.constant_basis(3)
    cfg = fast_cfg(penalty_mode=protocol.PENALTY_LOCAL, lam=2.0)
    server, clients, bc = setup_run([shard], basis, cfg)
    spec = protocol._penalty([clients[0].run], bc, cfg)
    expected = shard.features.T @ (
        shard.sensitive - shard.sensitive.mean()
    ) / shard.n
    assert np.allclose(spec.phi_c, expected[None])
    assert spec.tau == 0.0


def test_lambda_zero_disables_penalty(rng):
    shard = random_shard(rng, 8, 2, 0)
    basis = kernels.constant_basis(3)
    cfg = fast_cfg(penalty_mode=protocol.PENALTY_GLOBAL, lam=0.0)
    server, clients, bc = setup_run([shard], basis, cfg)
    spec = protocol._penalty([clients[0].run], bc, cfg)
    assert spec.lam == 0.0
    assert spec.phi_c.shape == (1, 3) and np.all(spec.phi_c == 0.0)


# ---------------------------------------------------------------------------
# lockstep clients
# ---------------------------------------------------------------------------


def test_only_rounds_of_more_than_two_clients_fit_in_lockstep(rng, monkeypatch):
    calls = []

    def fit_lockstep(*args):
        calls.append(sum(len(st) for st in args[1]))  # the clients its stacks hold
        return real_fit_lockstep(*args)

    real_fit_lockstep = logistic.fit_lockstep
    monkeypatch.setattr(logistic, "fit_lockstep", fit_lockstep)
    basis = kernels.constant_basis(3)
    for p, lockstep in ((1, False), (2, False), (3, True)):
        calls.clear()
        shards = [random_shard(rng, 5, 2, k) for k in range(p)]
        _, clients, bc = setup_run(shards, basis, fast_cfg())
        assert len(protocol.clients_round(clients, bc, fast_cfg())) == p
        assert calls == ([p] if lockstep else [])


@pytest.mark.parametrize("mode", [
    protocol.PENALTY_NONE, protocol.PENALTY_GLOBAL,
    protocol.PENALTY_UNWEIGHTED, protocol.PENALTY_LOCAL,
])
def test_lockstep_round_matches_client_rounds(mode, rng):
    # uneven shards, one of a single row, then runs of equal-sized shards
    # that fit and extract as one, over three rounds of the LP loop; both
    # paths make the same BLAS calls, so every bit agrees
    for sizes in ((1, 7, 12, 30), (1, 1, 7, 7, 7, 12)):
        shards = [random_shard(rng, n, 3, k) for k, n in enumerate(sizes)]
        basis = kernels.select_basis(shards, 5, seed=1, sigma=1.0, bound=5.0)
        cfg = fast_cfg(penalty_mode=mode,
                       opt=logistic.OptimizerSpec(learning_rate=2.0, epochs=10))
        server, clients, bc = setup_run(shards, basis, cfg)
        _, oracle_clients, _ = setup_run(shards, basis, cfg)
        for _ in range(3):
            bundles = protocol.clients_round(clients, bc, cfg)
            expected = [protocol.client_round(c, bc, cfg) for c in oracle_clients]
            for got, want in zip(bundles, expected):
                assert got.client_id == want.client_id
                for name in ("psi_L", "psi_theta", "psi_C", "phi_C", "w_local"):
                    assert np.array_equal(getattr(got, name), getattr(want, name))
            bc = protocol.server_round(server, bundles, cfg)


def test_lockstep_rounds_read_the_signed_xt_stacked_at_init(rng, monkeypatch):
    # every round hands the fit and the extraction init_protocol's own
    # stacks, not new ones
    fits, losses = [], []
    real_fit, real_loss = logistic.fit_lockstep, logistic.run_logloss

    def fit_lockstep(w, stacks, *args):
        fits.append(list(stacks))
        return real_fit(w, stacks, *args)

    def run_logloss(w, stack):
        losses.append(stack)
        return real_loss(w, stack)

    monkeypatch.setattr(logistic, "fit_lockstep", fit_lockstep)
    monkeypatch.setattr(logistic, "run_logloss", run_logloss)
    shards = [random_shard(rng, n, 3, k) for k, n in enumerate((5, 6, 6, 6, 4))]
    cfg = fast_cfg(penalty_mode=protocol.PENALTY_GLOBAL, lam=2.0)
    basis = kernels.select_basis(shards, 4, seed=1, sigma=1.0, bound=5.0)
    server, clients, bc = setup_run(shards, basis, cfg)
    for _ in range(3):
        bc = protocol.server_round(server, protocol.clients_round(clients, bc, cfg), cfg)
    built = [clients[k].run.signed_xt for k in (0, 1, 4)]
    assert len(fits) == 3 and all(len(f) == 3 for f in fits)
    assert all(a is b for f in fits for a, b in zip(f, built))
    assert len(losses) == 9 and all(a is b for a, b in zip(losses, built * 3))


def test_lockstep_round_takes_theta_once_per_run(rng, monkeypatch):
    shards = [random_shard(rng, n, 3, k) for k, n in enumerate((5, 6, 6, 6, 4))]
    basis = kernels.select_basis(shards, 4, seed=1, sigma=1.0, bound=5.0)
    _, clients, bc = setup_run(shards, basis, fast_cfg())
    calls, real_theta = [], kernels.theta

    def theta(km, alpha):
        calls.append(km)
        return real_theta(km, alpha)

    monkeypatch.setattr(kernels, "theta", theta)
    protocol.clients_round(clients, bc, fast_cfg())
    assert len(calls) == 3
    assert all(km is clients[k].run.kernels for km, k in zip(calls, (0, 1, 4)))


def test_runs_share_one_stack_of_kernel_matrices_and_forms(rng):
    shards = [random_shard(rng, n, 3, k) for k, n in enumerate((5, 6, 6, 6, 4))]
    basis = kernels.select_basis(shards, 4, seed=1, sigma=1.0, bound=5.0)
    _, clients, _ = setup_run(shards, basis, fast_cfg())
    assert [c.run.kernels.shape[0] for c in clients] == [1, 3, 3, 3, 1]
    assert [c.slot for c in clients] == [0, 0, 1, 2, 0]
    for c in clients:
        km = kernels.kernel_matrix(c.shard, basis)
        assert np.array_equal(c.run.kernels[c.slot], km)
        form = fairness.covariance_form(c.shard, km, c.stats)
        assert np.array_equal(c.run.forms[c.slot], form)
    assert clients[1].run is clients[3].run


@pytest.mark.parametrize("lockstep", [False, True])
def test_non_finite_extraction_names_the_client_and_field(lockstep, rng):
    # client 2 sits in the middle of the run of 6-row shards
    shards = [random_shard(rng, n, 3, k) for k, n in enumerate((5, 6, 6, 6, 4))]
    cfg = fast_cfg(penalty_mode=protocol.PENALTY_NONE)
    basis = kernels.select_basis(shards, 4, seed=1, sigma=1.0, bound=5.0)
    _, clients, bc = setup_run(shards, basis, cfg)
    clients[2].run.forms[clients[2].slot, 0, 1] = np.nan  # C_2's first entry
    with pytest.raises(ProtocolError, match="client 2: non-finite psi_C"):
        if lockstep:
            protocol.clients_round(clients, bc, cfg)
        else:
            protocol.client_round(clients[2], bc, cfg)


def test_lockstep_round_takes_clients_in_init_order(rng):
    shards = [random_shard(rng, 6, 2, k) for k in range(3)]
    cfg = fast_cfg()
    _, clients, bc = setup_run(shards, kernels.constant_basis(3), cfg)
    with pytest.raises(ProtocolError, match="in order"):
        protocol.clients_round(clients[::-1], bc, cfg)


def test_lockstep_round_mismatch_raises(rng):
    shards = [random_shard(rng, 6, 2, k) for k in range(3)]
    cfg = fast_cfg()
    server, clients, bc = setup_run(shards, kernels.constant_basis(3), cfg)
    protocol.clients_round(clients, bc, cfg)
    with pytest.raises(ProtocolError):
        protocol.clients_round(clients, bc, cfg)


# ---------------------------------------------------------------------------
# the covariance form: psi_C, phi_C and psi_theta against the direct formulas
# ---------------------------------------------------------------------------


def form_splits():
    """Census shards of a by-group split (two clients, fit one by one) and
    of four even shards, the first holding one sensitive group (fit in
    lockstep)."""
    _, _, by_group = engine.prepare_census(seed=0, n=600)
    ds = encode(engine.generate_census_like(600, 1))
    ones = np.flatnonzero(ds.sensitive == 1)[:40]
    rest = np.setdiff1d(np.arange(ds.n), ones)
    _, even = cut_shards(ds, [ones, *np.array_split(rest, 3)])
    return {"by_group": by_group, "even_one_group": even}


FORM_SPLITS = form_splits()


def assert_close(got, expected):
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("split", list(FORM_SPLITS))
@pytest.mark.parametrize("kind", engine.ALGORITHMS)
def test_bundles_match_direct_covariance_formulas(kind, split):
    # every variant's penalty mode and basis kind; round 1 runs at the
    # uniform alpha0, later rounds at the LP's sparse vertices
    shards = FORM_SPLITS[split]
    spec = engine.AlgorithmSpec(
        kind=kind, hyper=engine.HyperParams(num_bases=60, local_epochs=3)
    )
    cfg = engine._protocol_config(spec)
    basis = engine._make_basis(spec, shards)
    server, clients, bc = protocol.init_protocol(shards, basis, cfg)
    stats = clients[0].stats
    kms = [kernels.kernel_matrix(s, basis) for s in shards]
    kernel_weighted = cfg.penalty_mode in (protocol.PENALTY_GLOBAL, protocol.PENALTY_NONE)
    for _ in range(4):
        phis = [
            fairness.covariance_coeff_w(s, km @ bc.alpha if kernel_weighted else np.ones(s.n), stats)
            for s, km in zip(shards, kms)
        ]
        if bc.round == 0:
            assert_close(bc.phi_C_global, np.sum(phis, axis=0))
        bundles = protocol.clients_round(clients, bc, cfg)
        for s, km, phi, b in zip(shards, kms, phis, bundles):
            assert_close(b.psi_C, fairness.covariance_coeff_alpha(s, km, b.w_local, stats))
            assert_close(b.phi_C, phi)
            assert_close(b.psi_theta, km.sum(axis=0) / stats.n_total)
        bc = protocol.server_round(server, bundles, cfg)


@pytest.mark.parametrize("split", list(FORM_SPLITS))
def test_round_reads_no_per_sample_covariance(split, monkeypatch):
    # after set-up, psi_C and phi_C come from the covariance form alone
    shards = FORM_SPLITS[split]
    basis = kernels.select_basis(shards, 30, seed=0, sigma=1.0, bound=5.0)
    cfg = fast_cfg(penalty_mode=protocol.PENALTY_GLOBAL)
    server, clients, bc = setup_run(shards, basis, cfg)

    def refuse(*args):
        raise AssertionError("a round called a per-sample covariance formula")

    monkeypatch.setattr(fairness, "covariance_coeff_alpha", refuse)
    monkeypatch.setattr(fairness, "covariance_coeff_w", refuse)
    for _ in range(2):
        bc = protocol.server_round(server, protocol.clients_round(clients, bc, cfg), cfg)
