"""Each output check of the benchmark passes on a real run and rejects a
deliberately corrupted one.

    python3 -m pytest -q bench/test_checks.py
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from fedfair import engine, logistic, lp, protocol  # noqa: E402

import checks  # noqa: E402
from tracing import RunObserver, patched  # noqa: E402

LOCAL_SPLIT = {"client_assignment": "even", "num_clients": 5}


def small_run(kind="AgnosticFair", split=None, corrupt=()):
    """Four rounds on a small census, observed; *corrupt* hooks sit
    between the program and the observer."""
    train, test, shards = engine.prepare_census(seed=1, n=1500, split_kwargs=split)
    hyper = replace(engine.HyperParams(), num_bases=20, rounds=4, local_epochs=3)
    spec = engine.AlgorithmSpec(kind=kind, hyper=hyper)
    obs = RunObserver()
    with patched(list(corrupt)), patched(obs.hooks()):
        result = engine.run(spec, train, test, shards)
    return obs, result, (train, test)


def failures(obs, result, data, kind="AgnosticFair"):
    errors = checks.check_run(obs, result, *data, select_round=kind == "LocalFair")
    return [f"round {r}: {m}" for r, ms in sorted(errors.items()) for m in ms]


def replacing(module, name, change):
    """Hook that passes the original's output through *change*."""
    return (module, name, lambda orig: lambda *a, **k: change(orig(*a, **k)))


@pytest.mark.parametrize(
    "kind, split",
    [("AgnosticFair", None), ("AgnosticFair-a", None), ("LocalFair", LOCAL_SPLIT)],
)
def test_clean_run_passes_every_check(kind, split):
    obs, result, data = small_run(kind, split)
    assert failures(obs, result, data, kind) == []


def test_lp_check_rejects_infeasible_alpha():
    def spoil(solution):
        return replace(solution, alpha=solution.alpha * 1.01)

    found = failures(*small_run(corrupt=[replacing(lp, "solve", spoil)]))
    assert {m.split(":")[0] for m in found if "not 1" in m} == {
        "round 1", "round 2", "round 3", "round 4"
    }


def test_lp_check_rejects_feasible_suboptimal_alpha():
    obs, _, _ = small_run()
    problem = obs.lps[-1][0]
    worst = checks._linprog(
        -np.asarray(problem.objective), np.asarray(problem.equality),
        np.asarray(problem.fairness_row), problem.tau, problem.box_upper,
    )
    solution = lp.LPSolution(
        alpha=worst.x,
        objective_value=float(problem.objective @ worst.x),
        status=lp.STATUS_OPTIMAL,
    )
    errors = checks.check_lp(problem, solution)
    assert len(errors) == 1 and "differs from HiGHS" in errors[0]


def test_lp_check_rejects_slack_that_is_not_least():
    # every entry of the fairness row is positive, so |psi_C . alpha| has
    # a floor above tau and the row must be relaxed
    rng = np.random.default_rng(0)
    problem = lp.AlphaLP(
        objective=rng.random(6),
        equality=rng.random(6) + 0.5,
        fairness_row=rng.random(6) + 1.0,
        tau=0.05,
        box_upper=5.0,
    )
    solution = lp.solve(problem)
    assert solution.status == lp.STATUS_RELAXED
    assert checks.check_lp(problem, solution) == []
    loose = replace(solution, slack_used=solution.slack_used * 1.5)
    assert any("not the least" in m for m in checks.check_lp(problem, loose))


@pytest.mark.parametrize(
    "kind, split", [("AgnosticFair", None), ("LocalFair", LOCAL_SPLIT)]
)
def test_descent_check_rejects_fit_that_raises_objective(kind, split):
    def spoil(w):
        return w + 3.0

    found = failures(
        *small_run(kind, split, [replacing(logistic, "fit_local", spoil)]), kind
    )
    assert any("raised the objective" in m for m in found)


def test_average_check_rejects_wrong_w_avg():
    def spoil(bc):
        return replace(bc, w_avg=bc.w_avg + 1e-6)

    found = failures(*small_run(corrupt=[replacing(protocol, "server_round", spoil)]))
    assert any("w_avg is not the mean" in m for m in found)


@pytest.mark.parametrize("field", ["psi_L", "psi_theta", "psi_C", "phi_C"])
def test_pooled_check_rejects_wrong_client_coefficients(field):
    def spoil(bundle):
        return replace(bundle, **{field: getattr(bundle, field) * 1.001})

    found = failures(*small_run(corrupt=[replacing(protocol, "client_round", spoil)]))
    assert any(f"aggregated {field} differs" in m for m in found)


@pytest.mark.parametrize("key", ["test_acc", "test_rd", "train_acc", "per_client_rd"])
def test_final_check_rejects_wrong_reported_metric(key):
    obs, result, data = small_run()
    if key == "per_client_rd":
        result.final[key] = [v + 0.01 for v in result.final[key]]
    else:
        result.final[key] += 0.01
    assert any(f"final {key}" in m for m in failures(obs, result, data))


def test_final_check_rejects_wrong_local_fair_round():
    obs, result, data = small_run("LocalFair", LOCAL_SPLIT)
    other = next(
        row for row in result.per_round
        if any(row[k] != v for k, v in result.final.items())
    )
    result.final = {k: other[k] for k in result.final}
    found = failures(obs, result, data, "LocalFair")
    assert any(m.startswith("round 4: final") for m in found)
