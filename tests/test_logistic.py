import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfair import fairness, kernels, logistic, protocol
from fedfair.errors import ProtocolError

from conftest import make_shard, random_shard, run_stacks


def no_penalty(shape):
    """A penalty that is off: lambda = tau = 0 and a zero phi_c."""
    return logistic.PenaltySpec(0.0, 0.0, np.zeros(shape))


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------


def test_zero_weights_give_half_probability():
    x = np.array([[0.2, 0.8, 1.0], [5.0, -3.0, 1.0]])
    assert np.allclose(logistic.predict_proba(np.zeros(3), x), 0.5)


def test_logit_saturation():
    x = np.array([[30.0, 1.0]])
    p = logistic.predict_proba(np.array([1.0, 0.0]), x)
    assert p[0] == pytest.approx(1.0, abs=1e-9)


def test_ln3_logit_gives_three_quarters():
    x = np.array([[np.log(3.0), 1.0]])
    p = logistic.predict_proba(np.array([1.0, 0.0]), x)
    assert p[0] == pytest.approx(0.75)


def test_predict_label_threshold():
    x = np.array([[0.0, 1.0], [1.0, 1.0], [-1.0, 1.0]])
    w = np.array([1.0, 0.0])
    assert logistic.predict_label(w, x).tolist() == [1, 1, 0]


def test_probabilities_strictly_inside_unit_interval():
    x = np.array([[1e6, 1.0], [-1e6, 1.0]])
    p = logistic.predict_proba(np.array([1.0, 0.0]), x)
    assert np.all(p > 0.0) and np.all(p < 1.0)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def test_zero_weights_loss_is_ln2():
    shard = make_shard([[0.4, 0.6]], [1], [0])
    losses = logistic.per_sample_logloss(np.zeros(3), shard.features, shard.labels)
    assert losses[0] == pytest.approx(np.log(2.0))
    assert losses[0] == pytest.approx(0.693147, abs=1e-6)


def test_local_objective_weighted_hand_case():
    # single sample, y=1, p=0.75, theta=2, no penalty -> -2 ln 0.75
    shard = make_shard([[np.log(3.0)]], [1], [0])
    obj = logistic.local_objective(
        np.array([1.0, 0.0]), shard, np.array([2.0]), no_penalty(2)
    )
    assert obj == pytest.approx(-2.0 * np.log(0.75))
    assert obj == pytest.approx(0.575364, abs=1e-6)


def test_local_objective_uniform_weights_is_mean_loss(rng):
    shard = random_shard(rng, 10, 3)
    w = rng.normal(size=4)
    obj = logistic.local_objective(w, shard, np.ones(10), no_penalty(4))
    mean_loss = logistic.per_sample_logloss(w, shard.features, shard.labels).mean()
    assert obj == pytest.approx(mean_loss)


def test_losses_nonnegative_and_finite(rng):
    shard = random_shard(rng, 20, 3)
    for scale in (1.0, 100.0, 1000.0):
        w = rng.normal(size=4) * scale
        losses = logistic.per_sample_logloss(w, shard.features, shard.labels)
        assert np.all(losses >= 0.0) and np.all(np.isfinite(losses))


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------


def finite_difference(w, shard, theta, penalty, h=1e-6):
    fd = np.zeros_like(w)
    for j in range(len(w)):
        e = np.zeros_like(w)
        e[j] = h
        fd[j] = (
            logistic.local_objective(w + e, shard, theta, penalty)
            - logistic.local_objective(w - e, shard, theta, penalty)
        ) / (2 * h)
    return fd


def test_gradient_lambda_zero_is_plain_logistic(rng):
    shard = random_shard(rng, 6, 2)
    w = rng.normal(size=3)
    pen = no_penalty(3)
    grad = logistic.loss_gradient(w, logistic.signed_xt(shard), np.ones(6), pen)
    p = logistic.predict_proba(w, shard.features)
    expected = shard.features.T @ (p - shard.labels) / shard.n
    assert np.allclose(grad, expected, atol=1e-12)


def test_gradient_matches_finite_differences_at_saturated_logits(rng):
    # margins of 40-200 in both directions, some on the wrong side: the
    # loss is linear there, not flat, and the gradient must say so
    for lam in (0.0, 2.0):
        z = rng.uniform(40.0, 200.0, size=8) * np.array([1, -1] * 4)
        shard = make_shard(
            np.column_stack([z, rng.normal(size=8)]), [1, 0, 0, 1, 1, 1, 0, 0], [0, 1] * 4
        )
        w = np.array([1.0, 0.01, 0.0])
        th = rng.uniform(0.1, 2.0, size=8)
        pen = logistic.PenaltySpec(lam=lam, tau=0.05, phi_c=rng.normal(size=3))
        grad = logistic.loss_gradient(w, logistic.signed_xt(shard), th, pen)
        fd = finite_difference(w, shard, th, pen)
        assert np.linalg.norm(grad - fd) <= 1e-4 * np.linalg.norm(fd)


def test_gradient_zero_on_constraint_boundary(rng):
    shard = random_shard(rng, 5, 2)
    phi = rng.normal(size=3)
    w = 0.05 * phi / (phi @ phi)  # w . phi = tau = 0.05
    pen = logistic.PenaltySpec(lam=100.0, tau=0.05, phi_c=phi)
    sxt = logistic.signed_xt(shard)
    with_pen = logistic.loss_gradient(w, sxt, np.ones(5), pen)
    without = logistic.loss_gradient(w, sxt, np.ones(5), no_penalty(3))
    assert np.allclose(with_pen, without, atol=1e-10)


@pytest.mark.parametrize("lam", [0.0, 2.0, 100.0])
def test_gradient_matches_finite_differences(lam, rng):
    for _ in range(10):
        shard = random_shard(rng, 5, 3)
        w = rng.normal(size=4)
        th = rng.uniform(0.1, 2.0, size=5)
        pen = logistic.PenaltySpec(lam=lam, tau=0.05, phi_c=rng.normal(size=4))
        grad = logistic.loss_gradient(w, logistic.signed_xt(shard), th, pen)
        fd = finite_difference(w, shard, th, pen)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel <= 1e-4


# ---------------------------------------------------------------------------
# fit_local
# ---------------------------------------------------------------------------


def reference_fit(w_init, shard, theta, penalty, opt):
    """Weight-space backtracking descent: every candidate's objective from
    its own weights. Returns w, the halvings made and whether a step was
    rejected."""
    w = np.array(w_init, dtype=float)
    obj = logistic.local_objective(w, shard, theta, penalty)
    halvings = 0
    for _ in range(opt.epochs):
        grad = logistic.loss_gradient(w, logistic.signed_xt(shard), theta, penalty)
        rate = opt.learning_rate
        for k in range(opt.max_halvings + 1):
            cand = w - rate * grad
            cand_obj = logistic.local_objective(cand, shard, theta, penalty)
            if np.isfinite(cand_obj) and cand_obj <= obj:
                w, obj = cand, cand_obj
                halvings += k
                break
            rate *= 0.5
        else:
            return w, halvings, True
    return w, halvings, False


def test_fit_matches_weight_space_reference(rng):
    halvings, rejected = 0, 0
    for lam in (0.0, 2.0, 100.0):
        for max_halvings in (20, 1, 0):
            for _ in range(10):
                n, d = int(rng.integers(20, 60)), int(rng.integers(2, 6))
                shard = random_shard(rng, n, d)
                th = rng.uniform(0.1, 2.0, size=n)
                pen = logistic.PenaltySpec(lam=lam, tau=0.05, phi_c=rng.normal(size=d + 1))
                opt = logistic.OptimizerSpec(
                    learning_rate=5.0, epochs=10, max_halvings=max_halvings
                )
                w0 = rng.normal(size=d + 1)
                ref, h, r = reference_fit(w0, shard, th, pen, opt)
                got = logistic.fit_local(w0, logistic.signed_xt(shard), th, pen, opt)
                assert np.max(np.abs(got - ref)) <= 1e-12
                halvings, rejected = halvings + h, rejected + r
    assert halvings > 0 and rejected > 0


def test_fit_zero_epochs_is_identity(rng):
    shard = random_shard(rng, 5, 2)
    w0 = rng.normal(size=3)
    out = logistic.fit_local(
        w0, logistic.signed_xt(shard), np.ones(5), no_penalty(3),
        logistic.OptimizerSpec(learning_rate=0.1, epochs=0),
    )
    assert np.array_equal(out, w0)


def test_fit_separable_reaches_full_accuracy():
    shard = make_shard([[0.0], [0.1], [0.9], [1.0]], [0, 0, 1, 1], [0, 1, 0, 1])
    w = logistic.fit_local(
        np.zeros(2), logistic.signed_xt(shard), np.ones(4), no_penalty(2),
        logistic.OptimizerSpec(learning_rate=1.0, epochs=2000),
    )
    assert np.all(logistic.predict_label(w, shard.features) == shard.labels)


def test_fit_large_lambda_pins_constraint(rng):
    shard = random_shard(rng, 20, 3)
    phi = rng.normal(size=4) * 0.5
    pen = logistic.PenaltySpec(lam=100.0, tau=0.05, phi_c=phi)
    w = logistic.fit_local(
        np.zeros(4), logistic.signed_xt(shard), np.ones(20), pen,
        logistic.OptimizerSpec(learning_rate=1.0, epochs=3000),
    )
    assert abs(w @ phi) <= 0.05 + 0.01


def test_fit_objective_nonincreasing(rng):
    shard = random_shard(rng, 10, 3)
    pen = logistic.PenaltySpec(lam=2.0, tau=0.05, phi_c=rng.normal(size=4))
    opt = logistic.OptimizerSpec(learning_rate=5.0, epochs=1)
    w = rng.normal(size=4)
    prev = logistic.local_objective(w, shard, np.ones(10), pen)
    for _ in range(30):
        w = logistic.fit_local(w, logistic.signed_xt(shard), np.ones(10), pen, opt)
        obj = logistic.local_objective(w, shard, np.ones(10), pen)
        assert obj <= prev + 1e-12
        prev = obj


def test_fit_stateless_chaining(rng):
    # r rounds of e epochs equals one run of r*e epochs
    shard = random_shard(rng, 8, 2)
    pen = no_penalty(3)
    opt1 = logistic.OptimizerSpec(learning_rate=0.5, epochs=10)
    w_chained = np.zeros(3)
    for _ in range(5):
        w_chained = logistic.fit_local(w_chained, logistic.signed_xt(shard), np.ones(8), pen, opt1)
    opt2 = logistic.OptimizerSpec(learning_rate=0.5, epochs=50)
    w_once = logistic.fit_local(np.zeros(3), logistic.signed_xt(shard), np.ones(8), pen, opt2)
    assert np.allclose(w_chained, w_once, atol=1e-12)


def test_fit_nonfinite_start_raises(rng):
    shard = random_shard(rng, 4, 2)
    w0 = np.array([np.nan, 0.0, 0.0])
    with pytest.raises(ProtocolError):
        logistic.fit_local(
            w0, logistic.signed_xt(shard), np.ones(4), no_penalty(3),
            logistic.OptimizerSpec(learning_rate=0.1, epochs=1),
        )


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), scale=st.floats(0.1, 1000.0))
def test_no_nan_for_bounded_weights(seed, scale):
    r = np.random.default_rng(seed)
    shard = random_shard(r, 6, 2)
    w = r.uniform(-1.0, 1.0, size=3) * scale
    losses = logistic.per_sample_logloss(w, shard.features, shard.labels)
    assert np.all(np.isfinite(losses))
    grad = logistic.loss_gradient(
        w, logistic.signed_xt(shard), np.ones(6), no_penalty(3)
    )
    assert np.all(np.isfinite(grad))


# ---------------------------------------------------------------------------
# fit_lockstep, against fit_local client by client
# ---------------------------------------------------------------------------


def mode_penalties(mode, r, shards, thetas, lam):
    """Each client's penalty as the protocol builds it in each penalty mode."""
    dim = shards[0].features.shape[1]
    if mode == "none":
        return [no_penalty(dim)] * len(shards)
    if mode == "local":
        return [
            logistic.PenaltySpec(lam, 0.0, s.features.T @ (s.sensitive - s.sensitive.mean()) / s.n)
            for s in shards
        ]
    stats = fairness.compute_stats(shards)
    weights = thetas if mode == "global" else [np.ones(s.n) for s in shards]
    phi = np.sum(
        [fairness.covariance_coeff_w(s, w, stats) for s, w in zip(shards, weights)], axis=0
    )
    return [logistic.PenaltySpec(lam, 0.05, phi)] * len(shards)


def stacked(pens):
    """The one penalty fit_lockstep takes for the clients' *pens*, which
    share lam and tau: their phi_c stacked (p, d+1)."""
    return logistic.PenaltySpec(pens[0].lam, pens[0].tau, np.array([p.phi_c for p in pens]))


def lockstep_case(seed, p, mode, lam, scale):
    r = np.random.default_rng(seed)
    sizes = r.integers(1, 12, size=p)
    sizes[r.integers(p)] = 1
    shards = [random_shard(r, int(n), 3, k) for k, n in enumerate(sizes)]
    thetas = [r.uniform(0.1, 2.0, size=n) * (r.random(n) < 0.7) for n in sizes]
    thetas[r.integers(p)][:] = 0.0
    w0 = r.normal(size=4) * scale
    return shards, thetas, mode_penalties(mode, r, shards, thetas, lam), w0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(3, 25),
    mode=st.sampled_from(["none", "global", "unweighted", "local"]),
    lam=st.sampled_from([2.0, 100.0]),
    scale=st.sampled_from([0.1, 1.0, 60.0]),
    step=st.sampled_from([(1.0, 20), (5.0, 2), (1e6, 0)]),
)
def test_lockstep_matches_fit_local(seed, p, mode, lam, scale, step):
    # scale 60 puts logits far beyond +-40; a step of 1e6 with no halving
    # is rejected by every client whose gradient is not zero
    shards, thetas, pens, w0 = lockstep_case(seed, p, mode, lam, scale)
    opt = logistic.OptimizerSpec(learning_rate=step[0], epochs=10, max_halvings=step[1])
    got = logistic.fit_lockstep(
        w0, run_stacks(shards), np.concatenate(thetas), stacked(pens), opt
    )
    assert got.shape == (p, 4)
    for k, (sxt, th, pen) in enumerate(zip(map(logistic.signed_xt, shards), thetas, pens)):
        assert np.array_equal(got[k], logistic.fit_local(w0, sxt, th, pen, opt))


# shard sizes in runs of equal-sized clients, which fit_lockstep batches:
# a run of 1-row shards, one run spanning every client, and two runs that
# differ by one row, as an even split's np.array_split makes them
RUN_SIZES = st.one_of(
    st.integers(3, 12).map(lambda p: (1,) * p),
    st.tuples(st.integers(3, 12), st.integers(2, 40)).map(lambda t: (t[1],) * t[0]),
    st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 40)).map(
        lambda t: (t[2] + 1,) * t[0] + (t[2],) * t[1]
    ),
)


# 300 epochs on small shards hold hundreds of accept tests a client,
# where an objective summed unlike fit_local's dot soon tips one
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    sizes=RUN_SIZES,
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(["none", "global", "unweighted", "local"]),
    step=st.sampled_from([(1.0, 20), (5.0, 2), (1e6, 0)]),
    epochs=st.sampled_from([10, 300]),
)
def test_lockstep_matches_fit_local_on_runs_of_equal_sizes(sizes, seed, mode, step, epochs):
    r = np.random.default_rng(seed)
    shards = [random_shard(r, n, 3, k) for k, n in enumerate(sizes)]
    thetas = [r.uniform(0.1, 2.0, size=n) for n in sizes]
    pens = mode_penalties(mode, r, shards, thetas, 2.0)
    theta = np.concatenate(thetas)
    w0 = r.normal(size=4)
    opt = logistic.OptimizerSpec(learning_rate=step[0], epochs=epochs, max_halvings=step[1])
    got = logistic.fit_lockstep(w0, run_stacks(shards), theta, stacked(pens), opt)
    for k, (sxt, th, pen) in enumerate(zip(map(logistic.signed_xt, shards), thetas, pens)):
        assert np.array_equal(got[k], logistic.fit_local(w0, sxt, th, pen, opt))
    ws = r.normal(size=(len(sizes), 4))
    grads = logistic.lockstep_gradient(ws, run_stacks(shards), theta, stacked(pens))
    for k, (sxt, th, pen) in enumerate(zip(map(logistic.signed_xt, shards), thetas, pens)):
        assert np.array_equal(grads[k], logistic.loss_gradient(ws[k], sxt, th, pen))


def logaddexp_objective(w, shard, theta, penalty):
    """The local objective with each loss as logaddexp(0, s z), s = 1 - 2y:
    a sum of nonnegative terms, which does not cancel."""
    m = (1.0 - 2.0 * shard.labels) * (shard.features @ w)
    loss = float(theta @ np.logaddexp(0.0, m)) / shard.n
    return loss + penalty.lam * (float(w @ penalty.phi_c) - penalty.tau) ** 2


def assert_step_never_raises(w_prev, w, shard, theta, penalty):
    """The exact objective at *w* is at most that at *w_prev*, to 1e-12 of
    itself and to the rounding of the penalty gap w . phi_C - tau, whose
    terms cancel as the gap nears zero."""
    before = logaddexp_objective(w_prev, shard, theta, penalty)
    after = logaddexp_objective(w, shard, theta, penalty)
    d = 1e-15 * max(
        float(np.abs(v) @ np.abs(penalty.phi_c)) + abs(penalty.tau) for v in (w_prev, w)
    )
    gap = abs(float(w @ penalty.phi_c) - penalty.tau)
    assert after - before <= 1e-12 * before + penalty.lam * d * (2.0 * gap + d)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(3, 8),
    mode=st.sampled_from(["none", "global", "unweighted", "local"]),
    lam=st.sampled_from([2.0, 100.0]),
    reach=st.floats(0.1, 3000.0),
    step=st.sampled_from([(1.0, 20), (5.0, 2)]),
)
def test_fit_never_raises_logaddexp_objective(seed, p, mode, lam, reach, step):
    # the start's largest |z| is *reach*: past 200 a right-side row's loss
    # is below 1e-80, while the sums of c |z| that the old line search
    # subtracted ran to thousands. Each epoch of either fit is checked.
    shards, thetas, pens, w0 = lockstep_case(seed, p, mode, lam, 1.0)
    w0 = w0 * reach / max(np.max(np.abs(s.features @ w0)) for s in shards)
    lr, halvings = step
    lockstep = [
        logistic.fit_lockstep(
            w0, run_stacks(shards), np.concatenate(thetas), stacked(pens),
            logistic.OptimizerSpec(learning_rate=lr, epochs=e, max_halvings=halvings),
        )
        for e in range(11)
    ]
    one_epoch = logistic.OptimizerSpec(learning_rate=lr, epochs=1, max_halvings=halvings)
    for k, (shard, th, pen) in enumerate(zip(shards, thetas, pens)):
        w = w0
        for e in range(10):
            w_next = logistic.fit_local(w, logistic.signed_xt(shard), th, pen, one_epoch)
            assert_step_never_raises(w, w_next, shard, th, pen)
            assert_step_never_raises(lockstep[e][k], lockstep[e + 1][k], shard, th, pen)
            w = w_next


def test_lockstep_stops_rejecting_clients_and_fits_the_rest():
    shards, thetas, pens, w0 = lockstep_case(5, 8, "global", 2.0, 1.0)
    theta = np.concatenate(thetas)
    for lr, halvings in ((1e6, 0), (1e3, 3), (1.0, 20)):
        opt = logistic.OptimizerSpec(learning_rate=lr, epochs=5, max_halvings=halvings)
        got = logistic.fit_lockstep(w0, run_stacks(shards), theta, stacked(pens), opt)
        for k, (sxt, th, pen) in enumerate(zip(map(logistic.signed_xt, shards), thetas, pens)):
            assert np.array_equal(got[k], logistic.fit_local(w0, sxt, th, pen, opt))
        if lr == 1e6:
            # the quadratic penalty makes so long a step worse for every
            # client: each rejects its first step and stops at w0
            assert all(np.array_equal(w, w0) for w in got)


def test_lockstep_nonfinite_start_raises(rng):
    shards = [random_shard(rng, 4, 2, k) for k in range(3)]
    w0 = np.array([np.nan, 0.0, 0.0])
    with pytest.raises(ProtocolError):
        logistic.fit_lockstep(
            w0, run_stacks(shards), np.ones(12), no_penalty((3, 3)),
            logistic.OptimizerSpec(learning_rate=0.1, epochs=1),
        )


@pytest.mark.filterwarnings("error")
def test_overflowing_step_raises_nonfinite_weights():
    # a step of the largest float from a gradient that is not zero
    # overflows the weights to infinities of both signs, alone or in a run
    shards = [make_shard([[10.0, 10.0]], [0], [1], k) for k in range(3)]
    opt = logistic.OptimizerSpec(learning_rate=sys.float_info.max, epochs=2)
    with pytest.raises(ProtocolError, match="non-finite weights after local fit"):
        logistic.fit_local(np.zeros(3), logistic.signed_xt(shards[0]), np.ones(1),
                           no_penalty(3), opt)
    with pytest.raises(ProtocolError, match="non-finite weights after local fit"):
        logistic.fit_lockstep(np.zeros(3), run_stacks(shards), np.ones(3), no_penalty((3, 3)),
                              opt)


# ---------------------------------------------------------------------------
# the signed, transposed design matrix both fits run on
# ---------------------------------------------------------------------------


def test_signed_xt_is_the_signed_transposed_features_and_kept(rng):
    # init_protocol stacks each run's signed_xt once, alone or in a run of
    # equal-sized clients; rounds read the stacks and leave them as built
    shards = [random_shard(rng, n, 4, k) for k, n in enumerate((50, 7, 7, 7, 30))]
    cfg = protocol.ProtocolConfig(
        lam=2.0, tau=0.05, penalty_mode=protocol.PENALTY_GLOBAL,
        opt=logistic.OptimizerSpec(learning_rate=0.1, epochs=3),
    )
    basis = kernels.select_basis(shards, 4, seed=0, sigma=1.0, bound=5.0)
    server, clients, bc = protocol.init_protocol(shards, basis, cfg)
    for c in clients:
        item = c.run.signed_xt[c.slot]
        assert item.shape == (5, c.shard.n) and item.flags.c_contiguous
        assert np.array_equal(item, ((1 - 2 * c.shard.labels)[:, None] * c.shard.features).T)
    before = [c.run.signed_xt.copy() for c in clients]
    for _ in range(2):
        bc = protocol.server_round(server, protocol.clients_round(clients, bc, cfg), cfg)
    assert all(np.array_equal(c.run.signed_xt, b) for c, b in zip(clients, before))


def test_fit_allocates_no_design_sized_array(rng):
    # the fit holds about a dozen n-vectors, where a (d+1) x n array is 30
    n, d = 20_000, 29
    shard = random_shard(rng, n, d)
    th = rng.uniform(0.1, 2.0, size=n)
    pen = logistic.PenaltySpec(lam=2.0, tau=0.05, phi_c=rng.normal(size=d + 1) * 0.1)
    opt = logistic.OptimizerSpec(learning_rate=5.0, epochs=5, max_halvings=3)
    sxt = logistic.signed_xt(shard)
    tracemalloc.start()
    try:
        logistic.fit_local(np.zeros(d + 1), sxt, th, pen, opt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 15 * n * 8
