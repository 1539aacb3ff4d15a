import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfair import lp
from fedfair.errors import ConfigError


def make_lp(objective, equality, fairness_row=None, tau=0.05, box_upper=5.0):
    return lp.AlphaLP(
        objective=np.asarray(objective, dtype=float),
        equality=np.asarray(equality, dtype=float),
        fairness_row=None if fairness_row is None else np.asarray(fairness_row, dtype=float),
        tau=tau,
        box_upper=box_upper,
    )


def check_feasible(problem, alpha, tol=1e-8):
    assert abs(problem.equality @ alpha - 1.0) <= tol
    assert np.all(alpha >= -tol)
    assert np.all(alpha <= problem.box_upper + tol)
    if problem.fairness_row is not None:
        assert abs(problem.fairness_row @ alpha) <= problem.tau + tol


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_lp_rejects_negative_tau():
    with pytest.raises(ConfigError):
        make_lp([1.0], [1.0], tau=-0.1)


def test_lp_rejects_nonpositive_box():
    with pytest.raises(ConfigError):
        make_lp([1.0], [1.0], box_upper=0.0)


def test_lp_rejects_negative_equality_entry():
    with pytest.raises(ConfigError):
        make_lp([1.0, 1.0], [1.0, -0.5])


def test_lp_rejects_length_mismatch():
    with pytest.raises(ConfigError):
        make_lp([1.0, 2.0], [1.0])
    with pytest.raises(ConfigError):
        make_lp([1.0], [1.0], fairness_row=[1.0, 2.0])


# ---------------------------------------------------------------------------
# hand cases
# ---------------------------------------------------------------------------


def test_single_variable_forced_by_equality():
    sol = lp.solve(make_lp([1.0], [0.5], fairness_row=[0.0]))
    assert sol.status == lp.STATUS_OPTIMAL
    assert sol.alpha[0] == pytest.approx(2.0, abs=1e-8)
    assert sol.objective_value == pytest.approx(2.0, abs=1e-8)


def test_two_variable_vertex():
    sol = lp.solve(make_lp([1.0, 0.0], [0.5, 0.5], fairness_row=[0.0, 0.0]))
    assert sol.status == lp.STATUS_OPTIMAL
    assert np.allclose(sol.alpha, [2.0, 0.0], atol=1e-8)
    assert sol.objective_value == pytest.approx(2.0, abs=1e-8)


def test_fairness_row_binds():
    problem = make_lp([1.0, 1.0], [1.0, 1.0], fairness_row=[10.0, -10.0], tau=0.05)
    sol = lp.solve(problem)
    assert sol.status == lp.STATUS_OPTIMAL
    check_feasible(problem, sol.alpha)
    assert abs(10.0 * sol.alpha[0] - 10.0 * sol.alpha[1]) <= 0.05 + 1e-8
    assert sol.alpha.sum() == pytest.approx(1.0, abs=1e-8)


def test_box_bound_caps_solution():
    # equality 0.1*a = 1 forces a = 10 > B = 5 -> infeasible without fairness row
    sol = lp.solve(make_lp([1.0], [0.1], fairness_row=None))
    assert sol.status == lp.STATUS_ERROR


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row", [None, [1.0, -1.0, 0.5, 0.2]])
def test_huge_box_bound_fills_without_overflow(row):
    # bound times each equality entry is near 1e308, so the fill's running
    # sum of them overflowed; the answer is the one a box of 5 gives
    objective, equality = [1.0, 3.0, 2.0, 0.5], [0.9, 0.8, 0.7, 0.6]
    huge = lp.solve(make_lp(objective, equality, fairness_row=row, box_upper=1e308))
    small = lp.solve(make_lp(objective, equality, fairness_row=row, box_upper=5.0))
    assert huge.status == small.status == lp.STATUS_OPTIMAL
    assert np.array_equal(huge.alpha, small.alpha)


def test_all_zero_equality_row_errors():
    sol = lp.solve(make_lp([1.0, 1.0], [0.0, 0.0]))
    assert sol.status == lp.STATUS_ERROR


def test_no_fairness_row_solves_plain():
    sol = lp.solve(make_lp([3.0, 1.0], [1.0, 1.0], fairness_row=None))
    assert sol.status == lp.STATUS_OPTIMAL
    assert np.allclose(sol.alpha, [1.0, 0.0], atol=1e-8)


def test_infeasible_fairness_relaxed_minimal_slack():
    # equality forces alpha=(2); fairness |1*2| <= 0.05 impossible -> slack 1.95
    problem = make_lp([1.0], [0.5], fairness_row=[1.0], tau=0.05)
    sol = lp.solve(problem)
    assert sol.status == lp.STATUS_RELAXED
    assert sol.slack_used == pytest.approx(1.95, abs=1e-6)
    assert sol.alpha[0] == pytest.approx(2.0, abs=1e-6)


def test_determinism():
    problem = make_lp([1.0, 1.0, 0.5], [0.4, 0.3, 0.3], fairness_row=[0.2, -0.1, 0.05])
    a = lp.solve(problem)
    b = lp.solve(problem)
    assert np.array_equal(a.alpha, b.alpha)
    assert a.objective_value == b.objective_value


# ---------------------------------------------------------------------------
# oracle equivalence
# ---------------------------------------------------------------------------


def random_problem(rng, m=None, feasible_bias=True):
    m = m or int(rng.integers(1, 5))
    equality = np.abs(rng.normal(size=m)) + 0.05 if feasible_bias else rng.normal(size=m)
    return make_lp(
        rng.normal(size=m),
        equality,
        fairness_row=rng.normal(size=m) * 0.5,
        tau=float(rng.uniform(0.01, 0.5)),
        box_upper=5.0,
    )


def test_oracle_equivalence_100_instances():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(100):
        problem = random_problem(rng)
        got = lp.solve(problem)
        ref = lp.brute_force_oracle(problem)
        assert got.status == ref.status
        if got.status == lp.STATUS_OPTIMAL:
            check_feasible(problem, got.alpha)
            assert got.objective_value == pytest.approx(ref.objective_value, abs=1e-6)
            checked += 1
    assert checked >= 60  # the generator should mostly produce feasible LPs


def test_oracle_equivalence_includes_infeasible():
    rng = np.random.default_rng(7)
    seen_relaxed = 0
    for _ in range(60):
        m = int(rng.integers(1, 4))
        problem = make_lp(
            rng.normal(size=m),
            np.abs(rng.normal(size=m)) + 0.05,
            fairness_row=rng.normal(size=m) * 5.0,  # large rows force relaxation
            tau=0.01,
            box_upper=5.0,
        )
        got = lp.solve(problem)
        ref = lp.brute_force_oracle(problem)
        assert got.status == ref.status
        if got.status == lp.STATUS_RELAXED:
            seen_relaxed += 1
            assert got.slack_used == pytest.approx(ref.slack_used, abs=1e-6)
            assert got.objective_value == pytest.approx(ref.objective_value, abs=1e-6)
    assert seen_relaxed > 0


def test_oracle_refuses_large_m():
    with pytest.raises(ConfigError):
        lp.brute_force_oracle(make_lp([1.0] * 7, [1.0] * 7))


def test_oracle_single_variable_matches():
    problem = make_lp([2.0], [0.25], fairness_row=[0.1], tau=5.0)
    got = lp.solve(problem)
    ref = lp.brute_force_oracle(problem)
    assert got.objective_value == pytest.approx(ref.objective_value, abs=1e-8)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_box_respected_even_when_relaxed(seed):
    rng = np.random.default_rng(seed)
    problem = random_problem(rng)
    sol = lp.solve(problem)
    if sol.status != lp.STATUS_ERROR:
        assert np.all(sol.alpha >= -1e-8)
        assert np.all(sol.alpha <= problem.box_upper + 1e-8)
        assert problem.equality @ sol.alpha == pytest.approx(1.0, abs=1e-8)

