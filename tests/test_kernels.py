import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfair import kernels
from fedfair.errors import ConfigError

from conftest import make_shard, random_shard


def gaussian_basis(centers, sigma=1.0, bound=5.0):
    return kernels.KernelBasis(
        kind=kernels.GAUSSIAN,
        centers=np.asarray(centers, dtype=float),
        sigma=sigma,
        bound=bound,
    )


# ---------------------------------------------------------------------------
# basis construction and validation
# ---------------------------------------------------------------------------


def test_basis_rejects_bad_kind():
    with pytest.raises(ConfigError):
        kernels.KernelBasis(kind="fourier", centers=np.zeros((1, 2)), sigma=1.0, bound=5.0)


def test_basis_rejects_no_centers():
    with pytest.raises(ConfigError, match="at least one component"):
        gaussian_basis(np.zeros((0, 3)))


def test_basis_rejects_nonpositive_sigma_and_bound():
    with pytest.raises(ConfigError):
        gaussian_basis(np.zeros((1, 2)), sigma=0.0)
    with pytest.raises(ConfigError):
        gaussian_basis(np.zeros((1, 2)), bound=0.0)


def test_proportional_quotas_80_20():
    assert kernels.proportional_quotas([80, 20], 10) == [8, 2]


def test_proportional_quotas_remainder_to_largest():
    # exact quotas 3.5 / 3.5: remainder goes to the lower index on ties
    assert kernels.proportional_quotas([50, 50], 7) == [4, 3]
    assert sum(kernels.proportional_quotas([30, 50, 20], 7)) == 7


@settings(max_examples=300, deadline=None)
@given(data=st.data(), sizes=st.lists(st.integers(1, 500), min_size=1, max_size=25))
def test_proportional_quotas_sum_to_total_within_each_shard(data, sizes):
    """What select_basis relies on: for any total up to the rows there
    are, the quotas sum to it and none exceeds its shard's rows."""
    total = data.draw(st.integers(1, sum(sizes)))
    quotas = kernels.proportional_quotas(sizes, total)
    assert sum(quotas) == total
    assert all(0 <= q <= s for q, s in zip(quotas, sizes))


def test_select_basis_deterministic_and_sampled_from_data(rng):
    shards = [random_shard(rng, 80, 3, 0), random_shard(rng, 20, 3, 1)]
    a = kernels.select_basis(shards, 10, seed=4, sigma=1.0, bound=5.0)
    b = kernels.select_basis(shards, 10, seed=4, sigma=1.0, bound=5.0)
    assert np.array_equal(a.centers, b.centers)
    pool = np.vstack([s.features for s in shards])
    for row in a.centers:
        assert any(np.allclose(row, p) for p in pool)


def test_select_basis_quota_split(rng):
    shards = [random_shard(rng, 80, 3, 0), random_shard(rng, 20, 3, 1)]
    basis = kernels.select_basis(shards, 10, seed=4, sigma=1.0, bound=5.0)
    from_first = sum(
        any(np.allclose(c, p) for p in shards[0].features) for c in basis.centers
    )
    assert from_first == 8


def test_select_basis_too_many_centers(rng):
    shards = [random_shard(rng, 5, 2)]
    with pytest.raises(ConfigError):
        kernels.select_basis(shards, 6, seed=0, sigma=1.0, bound=5.0)


def test_select_basis_single_center_single_shard(rng):
    shards = [random_shard(rng, 5, 2)]
    basis = kernels.select_basis(shards, 1, seed=0, sigma=1.0, bound=5.0)
    assert basis.num_bases == 1
    assert any(np.allclose(basis.centers[0], p) for p in shards[0].features)


def test_client_weight_basis_bound_is_total_over_smallest(rng):
    shards = [random_shard(rng, 30, 2, 0), random_shard(rng, 10, 2, 1)]
    basis = kernels.client_weight_basis(shards)
    assert basis.kind == kernels.INDICATOR
    assert basis.num_bases == 2
    assert basis.bound == pytest.approx(40 / 10)


def test_client_weight_basis_empty_errors():
    with pytest.raises(ConfigError):
        kernels.client_weight_basis([])


# ---------------------------------------------------------------------------
# kernel_matrix
# ---------------------------------------------------------------------------


def test_kernel_matrix_zero_distance_is_one():
    shard = make_shard([[0.3, 0.7]], [1], [0])
    basis = gaussian_basis(shard.features)
    km = kernels.kernel_matrix(shard, basis)
    assert km[0, 0] == pytest.approx(1.0)


def test_kernel_matrix_two_sigma_squared_distance():
    # ||b - x||^2 = 2 sigma^2  ->  entry e^{-1}
    shard = make_shard([[0.0, 0.0]], [1], [0])
    center = np.array([[1.0, 1.0, 1.0]])  # distance^2 = 2 from (0,0,1)
    km = kernels.kernel_matrix(shard, gaussian_basis(center, sigma=1.0))
    assert km[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-9)
    assert km[0, 0] == pytest.approx(0.367879, abs=1e-6)


def test_kernel_matrix_huge_sigma_limit():
    shard = make_shard([[0.1, 0.9], [0.5, 0.5]], [1, 0], [0, 1])
    basis = gaussian_basis([[0.9, 0.1, 1.0]], sigma=1e6)
    km = kernels.kernel_matrix(shard, basis)
    assert np.all(np.abs(km - 1.0) < 1e-9)


def test_kernel_matrix_entries_in_unit_interval(rng):
    shard = random_shard(rng, 20, 4)
    basis = kernels.select_basis([shard], 5, seed=1, sigma=1.0, bound=5.0)
    km = kernels.kernel_matrix(shard, basis)
    assert np.all(km > 0.0) and np.all(km <= 1.0)


def test_kernel_matrix_coordinate_permutation_invariance(rng):
    shard = random_shard(rng, 10, 3)
    basis = kernels.select_basis([shard], 4, seed=2, sigma=1.0, bound=5.0)
    km = kernels.kernel_matrix(shard, basis)
    perm = [2, 0, 1, 3]  # keep bias position irrelevant: distance is all that matters
    shard_p = make_shard(shard.features[:, perm][:, :-1], shard.labels, shard.sensitive)
    shard_p.features = shard.features[:, perm]
    basis_p = kernels.KernelBasis(
        kind=kernels.GAUSSIAN,
        centers=basis.centers[:, perm],
        sigma=basis.sigma,
        bound=basis.bound,
    )
    assert np.allclose(kernels.kernel_matrix(shard_p, basis_p), km, atol=1e-12)


def whole_matrix_kernel(shard, basis):
    """The Gaussian kernel matrix as one whole-matrix expression: the same
    floating-point operations, in the same order, as the blocked build,
    with a full-size temporary at every step."""
    x2 = np.sum(shard.features**2, axis=1)[:, None]
    b2 = np.sum(basis.centers**2, axis=1)[None, :]
    cross = shard.features @ basis.centers.T
    sq = np.maximum(x2 + b2 - 2.0 * cross, 0.0)
    return np.exp(-sq / (2.0 * basis.sigma**2))


def shard_and_basis(n, sigma, m=30, d=6):
    """A random shard of n rows and a basis whose first centers are rows
    of the shard, where the clamped squared distance is 0."""
    r = np.random.default_rng(n)
    shard = random_shard(r, n, d)
    centers = np.vstack([shard.features[: min(n, 5)], r.normal(size=(m, d + 1))])
    return shard, gaussian_basis(centers, sigma=sigma)


BLOCK = kernels.KERNEL_BLOCK_ROWS


@pytest.mark.parametrize("sigma", [1.0, 0.7])
# the edges of the first block and of a block after many
@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5,
                               8 * BLOCK - 1, 8 * BLOCK, 8 * BLOCK + 1, 24 * BLOCK + 5])
def test_kernel_matrix_equals_whole_matrix_expansion(n, sigma):
    shard, basis = shard_and_basis(n, sigma)
    assert np.array_equal(
        kernels.kernel_matrix(shard, basis), whole_matrix_kernel(shard, basis)
    )


@pytest.mark.parametrize("sigma", [1.0, 0.7])
def test_kernel_matrix_matches_direct_distances(sigma):
    shard, basis = shard_and_basis(BLOCK + 1, sigma)
    x, b = shard.features, basis.centers
    direct = np.exp(-((x[:, None] - b[None]) ** 2).sum(-1) / (2 * sigma**2))
    assert np.allclose(kernels.kernel_matrix(shard, basis), direct, rtol=0.0, atol=1e-12)


def test_kernel_matrix_allocates_little_beyond_its_result():
    # the whole-matrix expression peaks at about 4x the result; 3,469 rows
    # is the flagship's larger client, where a block is a larger share
    for n in (20_000, 3_469):
        shard, basis = shard_and_basis(n, 1.0, m=200, d=10)
        tracemalloc.start()
        try:
            km = kernels.kernel_matrix(shard, basis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * km.nbytes, n


def test_kernel_matrix_dimension_mismatch(rng):
    shard = random_shard(rng, 4, 3)
    basis = gaussian_basis(np.zeros((2, 2)))
    with pytest.raises(ConfigError):
        kernels.kernel_matrix(shard, basis)


def test_constant_basis_matrix_is_ones(rng):
    shard = random_shard(rng, 7, 3)
    km = kernels.kernel_matrix(shard, kernels.constant_basis(4))
    assert km.shape == (7, 1)
    assert np.all(km == 1.0)


def test_indicator_basis_rows(rng):
    shards = [random_shard(rng, 3, 2, 0), random_shard(rng, 4, 2, 1)]
    basis = kernels.client_weight_basis(shards)
    km0 = kernels.kernel_matrix(shards[0], basis)
    km1 = kernels.kernel_matrix(shards[1], basis)
    assert np.all(km0 == [[1.0, 0.0]] * 3)
    assert np.all(km1 == [[0.0, 1.0]] * 4)


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------


def test_theta_constant_basis_identity(rng):
    shard = random_shard(rng, 6, 2)
    km = kernels.kernel_matrix(shard, kernels.constant_basis(3))
    assert np.allclose(kernels.theta(km, np.array([1.0])), 1.0)


def test_theta_zero_alpha():
    km = np.array([[0.5, 0.25], [0.1, 0.9]])
    assert np.all(kernels.theta(km, np.zeros(2)) == 0.0)


def test_theta_hand_dot_product():
    km = np.array([[0.5, 0.25]])
    assert kernels.theta(km, np.array([2.0, 4.0]))[0] == pytest.approx(2.0)


def test_theta_dimension_mismatch():
    with pytest.raises(ConfigError):
        kernels.theta(np.ones((2, 3)), np.ones(2))


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 8),
    m=st.integers(1, 5),
)
def test_theta_linearity_and_bounds(seed, n, m):
    r = np.random.default_rng(seed)
    km = r.uniform(0.0, 1.0, size=(n, m))
    a1 = r.uniform(0.0, 5.0, size=m)
    a2 = r.uniform(0.0, 5.0, size=m)
    lhs = kernels.theta(km, a1 + a2)
    rhs = kernels.theta(km, a1) + kernels.theta(km, a2)
    assert np.allclose(lhs, rhs, atol=1e-12)
    th = kernels.theta(km, a1)
    assert np.all(th >= 0.0)
    assert np.all(th <= 5.0 * km.sum(axis=1) + 1e-12)


def theta_matrix(kind, r, n, m):
    """An n-row kernel matrix of *kind*: constant (M = 1), indicator (one
    column of ones) or Gaussian (M = m)."""
    if kind == "constant":
        return np.ones((n, 1))
    if kind == "indicator":
        km = np.zeros((n, m))
        km[:, r.integers(m)] = 1.0
        return km
    shard = random_shard(r, n, 4)
    centers = r.normal(size=(m, 5))
    return kernels.kernel_matrix(shard, gaussian_basis(centers, sigma=1.5))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 300),
    m=st.integers(1, 200),
    kind=st.sampled_from(["constant", "indicator", "gaussian"]),
    alpha_kind=st.sampled_from(["zero", "sparse", "dense"]),
)
def test_theta_equals_matrix_product(seed, n, m, kind, alpha_kind):
    # sparse: 1 to M nonzeros, so both the column sum (up to M / 10) and
    # the whole-matrix pass are reached
    r = np.random.default_rng(seed)
    km = theta_matrix(kind, r, n, m)
    m = km.shape[1]
    alpha = np.zeros(m)
    if alpha_kind == "dense":
        alpha[:] = r.uniform(0.01, 5.0, size=m)
    elif alpha_kind == "sparse":
        support = r.choice(m, size=r.integers(1, m + 1), replace=False)
        alpha[support] = r.uniform(0.01, 5.0, size=len(support))
    expected = km @ alpha
    got = kernels.theta(km, alpha)
    assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(expected))


# derandomized: it checks bits, and a seed that broke them must not be
# drawn once and then lost
@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    g=st.sampled_from([1, 3, 4, 7, 20]),
    n=st.integers(1, 300),
    m=st.integers(1, 200),
    alpha_kind=st.sampled_from(["uniform", "sparse", "dense"]),
)
def test_stacked_theta_is_each_clients_theta(seed, g, n, m, alpha_kind):
    # a run's stack of kernel matrices takes theta in one call, each row
    # the bits of its own matrix's theta, on both of theta's paths
    r = np.random.default_rng(seed)
    kms = np.stack([theta_matrix("gaussian", r, n, m) for _ in range(g)])
    alpha = np.full(m, 1.0 / m) if alpha_kind == "uniform" else np.zeros(m)
    if alpha_kind == "dense":
        alpha[r.random(m) < 0.5] = 0.01
    elif alpha_kind == "sparse":
        support = r.choice(m, size=min(m, int(r.integers(1, 21))), replace=False)
        alpha[support] = r.uniform(0.01, 5.0, size=len(support))
    got = kernels.theta(kms, alpha)
    assert got.shape == (g, n)
    for k in range(g):
        assert np.array_equal(got[k], kernels.theta(kms[k], alpha))


@pytest.mark.parametrize("nonzeros", [200, 20])
def test_theta_allocates_a_few_n_vectors(nonzeros):
    # a dense alpha (the uniform round-0 one) and the most nonzeros the
    # column sum takes; gathering the support's columns would cost
    # n x |support| floats
    n = 20_000
    shard, basis = shard_and_basis(n, 1.0, m=195, d=10)
    km = kernels.kernel_matrix(shard, basis)
    alpha = np.zeros(km.shape[1])
    alpha[:: km.shape[1] // nonzeros] = 0.01
    assert np.count_nonzero(alpha) == nonzeros
    tracemalloc.start()
    try:
        kernels.theta(km, alpha)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * n * 8
