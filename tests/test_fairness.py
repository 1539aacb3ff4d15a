import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfair import fairness, kernels

from conftest import make_shard, random_shard
from oracles import reweighted_risk_difference, risk_difference_reference


# ---------------------------------------------------------------------------
# compute_stats
# ---------------------------------------------------------------------------


def test_stats_simple_mean():
    shard = make_shard([[0.0]] * 4, [0, 0, 1, 1], [1, 1, 0, 0])
    stats = fairness.compute_stats([shard])
    assert stats.s_bar == pytest.approx(0.5)
    assert stats.n_total == 4


def test_stats_pooled_mean():
    a = make_shard([[0.0]] * 2, [0, 1], [1, 1], client_id=0)
    b = make_shard([[0.0]], [0], [0], client_id=1)
    stats = fairness.compute_stats([a, b])
    assert stats.s_bar == pytest.approx(2 / 3)
    assert stats.n_total == 3


# ---------------------------------------------------------------------------
# risk difference
# ---------------------------------------------------------------------------


def test_rd_hand_case():
    # group 1: 2 positive of 4; group 0: 1 positive of 4 -> 0.25
    preds = np.array([1, 1, 0, 0, 1, 0, 0, 0])
    sens = np.array([1, 1, 1, 1, 0, 0, 0, 0])
    assert fairness.risk_difference(preds, sens) == pytest.approx(0.25)


def test_rd_parity_is_zero():
    preds = np.array([1, 0, 1, 0])
    sens = np.array([1, 1, 0, 0])
    assert fairness.risk_difference(preds, sens) == 0.0


def test_rd_constant_classifier_is_zero():
    preds = np.ones(6, dtype=int)
    sens = np.array([1, 1, 1, 0, 0, 0])
    assert fairness.risk_difference(preds, sens) == 0.0


def test_rd_empty_group_is_nan():
    # NaN, as client_risk_differences gives a client of one group
    for sens in ([1, 1], [0, 0], []):
        assert np.isnan(
            fairness.risk_difference(np.array([1, 0][: len(sens)]), np.array(sens, dtype=int))
        )


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 40))
def test_rd_in_unit_interval(seed, n):
    r = np.random.default_rng(seed)
    preds = r.integers(0, 2, size=n)
    sens = np.concatenate([[0, 1], r.integers(0, 2, size=n - 2)])
    rd = fairness.risk_difference(preds, sens)
    assert 0.0 <= rd <= 1.0
    assert rd == risk_difference_reference(preds, sens)


# ---------------------------------------------------------------------------
# reweighted risk difference
# ---------------------------------------------------------------------------


def test_reweighted_uniform_reduces_to_plain():
    r = np.random.default_rng(1)
    preds = r.integers(0, 2, size=30)
    sens = np.concatenate([[0, 1], r.integers(0, 2, size=28)])
    plain = fairness.risk_difference(preds, sens)
    rw = reweighted_risk_difference(preds, sens, np.ones(30))
    assert rw == plain  # exact equality required


def test_reweighted_concentrated_mass():
    # all weight on one parity-violating pair -> value 1.0
    preds = np.array([1, 0, 0, 1])
    sens = np.array([1, 1, 0, 0])
    theta = np.array([1.0, 0.0, 1.0, 0.0])  # keeps (y=1,s=1) and (y=0,s=0)
    assert reweighted_risk_difference(preds, sens, theta) == pytest.approx(1.0)


def test_reweighted_zero_group_weight_is_nan():
    preds = np.array([1, 0, 1, 0])
    sens = np.array([1, 1, 0, 0])
    assert np.isnan(reweighted_risk_difference(preds, sens, np.array([1.0, 1.0, 0.0, 0.0])))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_reweighted_uniform_reduction_property(seed):
    r = np.random.default_rng(seed)
    n = int(r.integers(2, 30))
    preds = r.integers(0, 2, size=n)
    sens = np.concatenate([[0, 1], r.integers(0, 2, size=n - 2)])
    c = float(r.uniform(0.5, 3.0))
    plain = fairness.risk_difference(preds, sens)
    rw = reweighted_risk_difference(preds, sens, np.full(n, c))
    assert rw == pytest.approx(plain, abs=1e-12)


# ---------------------------------------------------------------------------
# covariance coefficients
# ---------------------------------------------------------------------------


def test_phi_symmetric_cancellation():
    # two identical feature rows, s = (1, 0), s_bar = 0.5 -> phi = 0
    both = make_shard([[1.0], [1.0]], [1, 0], [1, 0])
    stats = fairness.compute_stats([both])
    phi = fairness.covariance_coeff_w(both, np.ones(2), stats)
    assert np.allclose(phi, 0.0)


def test_phi_hand_case():
    # single sample s=1, s_bar=0, theta=2, x=(0.5, 1), n=1 -> phi = (1.0, 2.0)
    shard = make_shard([[0.5]], [1], [1])
    stats = fairness.FairnessStats(s_bar=0.0, n_total=1)
    phi = fairness.covariance_coeff_w(shard, np.array([2.0]), stats)
    assert np.allclose(phi, [1.0, 2.0])


def test_phi_zero_weights(rng):
    shard = random_shard(rng, 5, 3)
    stats = fairness.compute_stats([shard])
    assert np.allclose(fairness.covariance_coeff_w(shard, np.zeros(5), stats), 0.0)


def test_psi_zero_w(rng):
    shard = random_shard(rng, 5, 3)
    stats = fairness.compute_stats([shard])
    km = np.abs(rng.normal(size=(5, 3)))
    psi = fairness.covariance_coeff_alpha(shard, km, np.zeros(4), stats)
    assert np.allclose(psi, 0.0)


def test_psi_constant_basis_reduction(rng):
    shard = random_shard(rng, 6, 2)
    stats = fairness.compute_stats([shard])
    w = rng.normal(size=3)
    km = np.ones((6, 1))
    psi = fairness.covariance_coeff_alpha(shard, km, w, stats)
    direct = np.mean(
        (shard.sensitive - stats.s_bar) * (shard.features @ w)
    )
    assert psi[0] == pytest.approx(direct, abs=1e-12)


BLOCK = kernels.KERNEL_BLOCK_ROWS


# d + 2 columns of the form: 3, and 18 as in the census
@pytest.mark.parametrize("d", [1, 16])
# a constant basis, a 2-client indicator basis, the default Gaussian M
@pytest.mark.parametrize("m", [1, 2, 200])
@pytest.mark.parametrize("n", [1, 2, BLOCK, BLOCK + 1, 3469])
def test_covariance_form_equals_kt_left_bit_for_bit(n, m, d):
    r = np.random.default_rng([n, m, d])
    shard = random_shard(r, n, d)
    km = r.random((n, m))
    stats = fairness.FairnessStats(s_bar=0.3, n_total=7 * n)
    left = np.hstack([np.ones((n, 1)), shard.features * (shard.sensitive - 0.3)[:, None]])
    form = fairness.covariance_form(shard, km, stats)
    assert np.array_equal(form, km.T @ left / stats.n_total)
    assert form.flags.c_contiguous


def direct_covariance(shards, basis, alpha, w, stats):
    """Straight evaluation of the reweighed covariance over pooled data."""
    total = 0.0
    for shard in shards:
        km = kernels.kernel_matrix(shard, basis)
        th = km @ alpha
        total += np.sum(
            (shard.sensitive - stats.s_bar) * th * (shard.features @ w)
        )
    return total / stats.n_total


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000))
def test_linear_form_equivalence_both_sides(seed):
    r = np.random.default_rng(seed)
    shards = [
        make_shard(r.normal(size=(6, 2)), r.integers(0, 2, 6), r.integers(0, 2, 6), 0),
        make_shard(r.normal(size=(4, 2)), r.integers(0, 2, 4), r.integers(0, 2, 4), 1),
    ]
    stats = fairness.compute_stats(shards)
    basis = kernels.select_basis(shards, 3, seed=seed, sigma=1.0, bound=5.0)
    alpha = r.uniform(0.0, 5.0, size=3)
    w = r.normal(size=3)
    direct = direct_covariance(shards, basis, alpha, w, stats)

    psi = np.zeros(3)
    phi = np.zeros(3)
    for shard in shards:
        km = kernels.kernel_matrix(shard, basis)
        psi += fairness.covariance_coeff_alpha(shard, km, w, stats)
        phi += fairness.covariance_coeff_w(shard, km @ alpha, stats)
    assert alpha @ psi == pytest.approx(direct, abs=1e-12)
    assert w @ phi == pytest.approx(direct, abs=1e-12)
