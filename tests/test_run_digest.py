"""scripts/run_digest.py compare: the bit-identity gate between two trees'
digests. The script is loaded from its file; the digests are made by hand.
"""

import copy
import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "run_digest.py"

RUN = {
    "w_final": [0.25, -1.5, 3.0],
    "alpha_final": [0.2, 0.0],
    "per_round": [{"round": 0, "lp_status": "optimal", "train_rd": float("nan")}],
    "final": {"test_acc": 0.75, "test_rd": 0.04},
}


@pytest.fixture(scope="module")
def run_digest():
    spec = importlib.util.spec_from_file_location("run_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def compare(run_digest, tmp_path, a, b):
    paths = []
    for name, side in (("a", a), ("b", b)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"tree": name, "engine": name, "runs": side}))
        paths.append(path)
    return run_digest.main(["compare", *map(str, paths)])


def runs(edit=None):
    """A digest's runs: RUN, changed in place by *edit* if given."""
    run = copy.deepcopy(RUN)
    if edit:
        edit(run)
    return {"FL/by_group": run}


def test_identical_digests_pass(run_digest, tmp_path, capsys):
    # the NaN in per_round counts as equal to itself
    assert compare(run_digest, tmp_path, runs(), runs()) == 0
    assert "PASS" in capsys.readouterr().out


def test_w_final_moved_past_the_tolerance_fails(run_digest, tmp_path, capsys):
    def move(run):
        run["w_final"][1] += 1e-11

    assert 1e-11 > run_digest.W_TOL
    assert compare(run_digest, tmp_path, runs(), runs(move)) == 1
    assert "FAIL" in capsys.readouterr().out


def test_different_lp_status_fails(run_digest, tmp_path, capsys):
    def relax(run):
        run["per_round"][0]["lp_status"] = "relaxed"

    assert compare(run_digest, tmp_path, runs(), runs(relax)) == 1
    assert "lp_status" in capsys.readouterr().out


def test_nan_against_a_number_fails(run_digest, tmp_path):
    def fill(run):
        run["per_round"][0]["train_rd"] = 0.0

    assert compare(run_digest, tmp_path, runs(), runs(fill)) == 1


def test_different_run_names_fail(run_digest, tmp_path, capsys):
    other = {"LocalFair/by_group": copy.deepcopy(RUN)}
    assert compare(run_digest, tmp_path, runs(), other) == 1
    assert "different runs" in capsys.readouterr().out
