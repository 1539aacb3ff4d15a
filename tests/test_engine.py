import csv
import hashlib
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfair import engine, logistic, protocol
from fedfair.data import ClientShard, EncodedDataset, cut_shards
from fedfair.errors import ConfigError, ProtocolError

from oracles import risk_difference_reference, run_fedavg_reference


def synthetic_setup(n=80, num_clients=2, seed=0):
    return engine.prepare_census(
        seed=seed, n=n, split_kwargs={"client_assignment": "even", "num_clients": num_clients}
    )


FAST = engine.HyperParams(rounds=3, local_epochs=5, learning_rate=0.5, num_bases=4)


# ---------------------------------------------------------------------------
# algorithm spec
# ---------------------------------------------------------------------------


def test_unknown_algorithm_rejected():
    with pytest.raises(ConfigError):
        engine.AlgorithmSpec(kind="Bogus")


@pytest.mark.parametrize("num_clients", [2, 3])  # per-client and lockstep fits
@pytest.mark.parametrize("kind", ["FL", "AFL", "AgnosticFair-a"])
def test_penalty_free_variants_ignore_lambda(kind, num_clients):
    train, test, shards = synthetic_setup(num_clients=num_clients)
    runs = [
        engine.run(engine.AlgorithmSpec(kind=kind, hyper=replace(FAST, lam=lam)),
                   train, test, shards)
        for lam in (0.0, 7.0)
    ]
    assert runs[0].w_final.tobytes() == runs[1].w_final.tobytes()
    assert repr(runs[0].per_round) == repr(runs[1].per_round)  # repr: exact floats


@pytest.mark.parametrize("field, value", [("rounds", "3"), ("lam", True)])
def test_hyper_params_reject_mistyped_values(field, value):
    key = {"lam": "lambda"}.get(field, field)  # as a config spells it
    with pytest.raises(ConfigError, match=f"hyper {key} must be"):
        engine.HyperParams(**{field: value})


def test_penalized_variants_keep_lambda():
    spec = engine.AlgorithmSpec(kind="AgnosticFair", hyper=engine.HyperParams(lam=7.0))
    assert spec.hyper.lam == 7.0


#: (the server solves the alpha LP, the LP carries the fairness row) of each
#: variant, as its two switches of their own set them before protocol
#: derived both from the basis kind and the penalty mode
LP_SWITCHES = {
    "FL": (False, False),
    "FairFL": (False, False),
    "AFL": (True, False),
    "AgnosticFair": (True, True),
    "AgnosticFair-a": (True, False),
    "AgnosticFair-b": (True, False),
    "LocalFair": (False, False),
}


@pytest.mark.parametrize("kind", engine.ALGORITHMS)
def test_each_variant_solves_the_lp_and_carries_its_fairness_row_as_before(kind, monkeypatch):
    assert set(LP_SWITCHES) == set(engine.ALGORITHMS)
    problems, real_solve = [], protocol.lp.solve
    monkeypatch.setattr(protocol.lp, "solve", lambda p: problems.append(p) or real_solve(p))
    train, test, shards = synthetic_setup(n=200)
    result = engine.run(engine.AlgorithmSpec(kind=kind, hyper=replace(FAST, rounds=2)),
                        train, test, shards)
    solves, fairness_row = LP_SWITCHES[kind]
    assert len(problems) == (2 if solves else 0)
    assert all((p.fairness_row is not None) == fairness_row for p in problems)
    assert all(("lp_status" in r) == solves for r in result.per_round)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def test_single_client_equals_centralized_descent():
    """With one client, federated training is exactly sequential descent."""
    train, test, shards = synthetic_setup(num_clients=1)
    spec = engine.AlgorithmSpec(kind="FL", hyper=FAST)
    result = engine.run(spec, train, test, shards)

    opt = logistic.OptimizerSpec(learning_rate=0.5, epochs=5)
    penalty = logistic.PenaltySpec(0.0, 0.0, np.zeros(train.features.shape[1]))
    w, sxt = np.zeros(train.features.shape[1]), logistic.signed_xt(shards[0])
    for _ in range(FAST.rounds):
        w = logistic.fit_local(w, sxt, np.ones(shards[0].n), penalty, opt)
    assert np.allclose(result.w_final, w, atol=1e-8)


def test_constant_basis_fl_matches_fedavg_reference():
    train, test, shards = synthetic_setup(num_clients=3)
    spec = engine.AlgorithmSpec(kind="FL", hyper=FAST)
    result = engine.run(spec, train, test, shards)
    opt = logistic.OptimizerSpec(learning_rate=0.5, epochs=5)
    history = run_fedavg_reference(shards, FAST.rounds, opt)
    assert np.allclose(result.w_final, history[-1], atol=1e-10)


def test_fedavg_reference_zero_epochs_stays_at_origin():
    _, _, shards = synthetic_setup()
    history = run_fedavg_reference(shards, 3, logistic.OptimizerSpec(learning_rate=0.1, epochs=0))
    for w in history:
        assert np.allclose(w, 0.0)


def test_afl_alpha_has_one_entry_per_client():
    train, test, shards = synthetic_setup(num_clients=3)
    spec = engine.AlgorithmSpec(kind="AFL", hyper=FAST)
    result = engine.run(spec, train, test, shards)
    assert result.alpha_final.shape == (3,)


def test_all_variants_run_and_report_metrics():
    train, test, shards = synthetic_setup()
    for kind in engine.ALGORITHMS:
        spec = engine.AlgorithmSpec(kind=kind, hyper=FAST)
        final = engine.run(spec, train, test, shards).final
        for key in ("train_acc", "test_acc", "train_rd", "test_rd"):
            assert 0.0 <= final[key] <= 1.0


def test_zero_rounds_reports_initial_model():
    train, test, shards = synthetic_setup()
    hyper = engine.HyperParams(rounds=0, num_bases=4)
    result = engine.run(engine.AlgorithmSpec(kind="FL", hyper=hyper), train, test, shards)
    assert result.per_round == []
    assert np.allclose(result.w_final, 0.0)


# ---------------------------------------------------------------------------
# the row layout engine.run takes: train holds the shards' rows in client order
# ---------------------------------------------------------------------------


def test_run_rejects_shards_out_of_client_order():
    train, test, shards = synthetic_setup(num_clients=3)
    swapped = [ClientShard(k, s.features, s.labels, s.sensitive)
               for k, s in enumerate([shards[1], shards[0], shards[2]])]
    with pytest.raises(ConfigError, match="client order"):
        engine.run(engine.AlgorithmSpec(kind="FL", hyper=FAST), train, test, swapped)


def test_run_rejects_train_with_extra_rows():
    train, test, shards = synthetic_setup(num_clients=3)
    longer = train.subset(np.arange(train.n + 1) % train.n)  # row 0 again at the end
    with pytest.raises(ConfigError, match="client order"):
        engine.run(engine.AlgorithmSpec(kind="FL", hyper=FAST), longer, test, shards)


@pytest.mark.parametrize("name", ["features", "labels", "sensitive"])
def test_run_rejects_train_with_one_altered_row(name):
    train, test, shards = synthetic_setup(num_clients=3)
    altered = train.subset(np.arange(train.n))  # a copy: the shards still view train
    column = getattr(altered, name)
    column[17] = 1 - column[17]
    with pytest.raises(ConfigError, match="client order"):
        engine.run(engine.AlgorithmSpec(kind="FL", hyper=FAST), altered, test, shards)


@pytest.mark.parametrize("num_clients", [2, 5])
def test_per_client_rd_is_each_shards_own_risk_difference(num_clients):
    train, test, shards = synthetic_setup(n=200, num_clients=num_clients)
    result = engine.run(engine.AlgorithmSpec(kind="FairFL", hyper=FAST), train, test, shards)
    want = [
        risk_difference_reference(logistic.predict_label(result.w_final, s.features), s.sensitive)
        for s in shards
    ]
    assert result.final["per_client_rd"] == want
    assert len(set(want)) == num_clients  # distinct figures, so a mix-up shows


# ---------------------------------------------------------------------------
# LocalFair round selection
# ---------------------------------------------------------------------------


def row(train_acc, rds):
    return {
        "train_acc": train_acc,
        "test_acc": train_acc,
        "train_rd": 0.0,
        "test_rd": 0.0,
        "per_client_rd": rds,
    }


def test_local_fair_selects_best_fair_round():
    rounds = [
        row(0.70, [0.01, 0.02]),  # fair
        row(0.80, [0.20, 0.01]),  # unfair
        row(0.75, [0.04, 0.04]),  # fair, best fair accuracy
    ]
    assert engine._select_local_fair_round(rounds)["train_acc"] == 0.75


def test_local_fair_falls_back_to_least_unfair():
    rounds = [
        row(0.70, [0.30, 0.10]),
        row(0.90, [0.40, 0.06]),
        row(0.80, [0.08, 0.09]),  # smallest worst-client rd
    ]
    assert engine._select_local_fair_round(rounds)["train_acc"] == 0.80


def test_local_fair_judges_rounds_on_defined_clients():
    nan = float("nan")
    rounds = [
        row(0.70, [0.01, nan]),  # fair on its one defined client
        row(0.90, [nan, 0.30]),  # unfair
        row(0.80, [nan, nan]),  # no defined client: qualifies
    ]
    assert engine._select_local_fair_round(rounds)["train_acc"] == 0.80
    rounds = [row(0.70, [0.30, nan]), row(0.90, [nan, 0.20])]
    assert engine._select_local_fair_round(rounds)["train_acc"] == 0.90


@pytest.mark.parametrize("kind", ["FL", "LocalFair"])
def test_one_group_shards_get_nan_risk_difference(kind):
    train, test, shards = engine.data_from_config(
        {"n": 300}, {"client_assignment": "even", "num_clients": 40}, 0
    )
    hyper = engine.HyperParams(rounds=3, local_epochs=2)
    result = engine.run(engine.AlgorithmSpec(kind=kind, hyper=hyper), train, test, shards)
    one_group = [k for k, s in enumerate(shards) if len(set(s.sensitive.tolist())) < 2]
    assert len(one_group) == 6
    for r in result.per_round:
        assert [k for k, v in enumerate(r["per_client_rd"]) if np.isnan(v)] == one_group
    last = result.per_round[-1]["per_client_rd"]
    for k, shard in enumerate(shards):
        if k not in one_group:
            pred = logistic.predict_label(result.w_final, shard.features)
            assert last[k] == risk_difference_reference(pred, shard.sensitive)


def random_dataset(rng, n, p_sensitive):
    x = np.hstack([rng.random((n, 2)), np.ones((n, 1))])
    return EncodedDataset(
        features=x,
        labels=rng.integers(0, 2, size=n),
        sensitive=(rng.random(n) < p_sensitive).astype(int),
        feature_names=["x0", "x1", "__bias__"],
    )


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(engine.ALGORITHMS),
    seed=st.integers(0, 2**16),
    n=st.integers(2, 30),
    num_clients=st.integers(1, 6),
    by_group=st.booleans(),
    p_group=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
    p_sensitive=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
)
def test_run_returns_or_raises_documented_error(
    kind, seed, n, num_clients, by_group, p_group, p_sensitive
):
    """Over random even and by-group partitions, tiny n and every mix of
    sensitive groups, one-group shards included, engine.run returns or
    raises ConfigError or ProtocolError."""
    rng = np.random.default_rng(seed)
    train = random_dataset(rng, n, p_sensitive)
    test = random_dataset(rng, n, p_sensitive)
    if by_group:
        group = rng.random(n) < p_group
        parts = [np.flatnonzero(group), np.flatnonzero(~group)]
    else:
        parts = np.array_split(rng.permutation(n), min(num_clients, n))
    train, shards = cut_shards(train, [p for p in parts if p.size])
    hyper = engine.HyperParams(rounds=2, local_epochs=2, num_bases=4, seed=seed)
    try:
        result = engine.run(engine.AlgorithmSpec(kind=kind, hyper=hyper), train, test, shards)
    except (ConfigError, ProtocolError):
        return
    assert len(result.final["per_client_rd"]) == len(shards)


@pytest.mark.parametrize("empty", ["train", "test"])
def test_run_refuses_an_empty_set_before_training(monkeypatch, empty):
    """An empty set has no risk difference: ConfigError before any round,
    for an empty train set with no shards too."""
    train, test, shards = synthetic_setup()
    if empty == "train":
        train, shards = train.subset(np.arange(0)), []
    else:
        test = test.subset(np.arange(0))
    monkeypatch.setattr(protocol, "init_protocol", lambda *args: pytest.fail("trained"))
    with pytest.raises(ConfigError, match=f"the {empty} set holds no row"):
        engine.run(engine.AlgorithmSpec(kind="FL", hyper=FAST), train, test, shards)


# ---------------------------------------------------------------------------
# census-like generator
# ---------------------------------------------------------------------------


def test_census_deterministic():
    a = engine.generate_census_like(200, 5)
    b = engine.generate_census_like(200, 5)
    assert a.columns.keys() == b.columns.keys()
    for name in a.columns:
        assert np.array_equal(a.columns[name], b.columns[name])


def test_census_rows_match_schema():
    table = engine.generate_census_like(100, 0)
    assert list(table.columns) == [c.name for c in table.schema.columns]
    assert table.n == 100
    for c in table.schema.columns:
        values = table.columns[c.name]
        assert values.shape == (100,)
        assert values.dtype.kind == ("f" if c.kind == "numeric" else "U")


def _sha256(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("n, seed, digest", [
    (600, 0, "889cb24ab7edf84e3a9cc59d86af3e399403db8a33c41405191eb74c00af3b94"),
    (50, 19, "f46d6c8d5fbb49e29f57636f43776205b70dec7c628efaee0b229bab27bdbdd8"),
])
def test_census_output_is_pinned(n, seed, digest):
    """The census draws are the data every criterion is measured on: a
    change to the generator's code must leave its tables byte-identical."""
    table = engine.generate_census_like(n, seed)
    assert _sha256([table.columns[c.name] for c in table.schema.columns]) == digest


@pytest.mark.parametrize("n, seed, digest", [
    (600, 0, "5593312cddb24986a97bef4c2325ef7561d9d98daf5e4509334d385bad2212e8"),
    (50, 19, "561bbc832c7de4605a13f58a62782a7e4cd2654c7f1d8095affb762e2ff7a10e"),
])
def test_encoded_census_is_pinned(n, seed, digest):
    """Every run trains on encode's output: a change to encode's code must
    leave its arrays, their dtypes and the feature names byte-identical."""
    ds = engine.encode(engine.generate_census_like(n, seed))
    assert ds.features.flags.c_contiguous
    names = np.asarray(ds.feature_names)
    assert _sha256([ds.features, ds.labels, ds.sensitive, names]) == digest


def test_prepare_census_default_split():
    train, test, shards = engine.prepare_census(seed=0, n=600)
    assert len(shards) == 2
    assert train.n + test.n == 600
    assert sum(s.n for s in shards) == train.n
    # sensitive column must not appear among the features
    assert "gender" not in " ".join(train.feature_names)


def test_write_census_csv_roundtrip(tmp_path):
    from fedfair.data import encode, load_csv

    table = engine.generate_census_like(50, 1)
    path = tmp_path / "census.csv"
    engine.write_census_csv(path, table)
    loaded = load_csv(path, engine.CENSUS_SCHEMA)
    assert loaded.n == 50
    for name in table.columns:
        assert np.array_equal(loaded.columns[name], table.columns[name])
    got, want = encode(loaded), encode(table)
    assert np.array_equal(got.features, want.features)
    assert np.array_equal(got.labels, want.labels)
    assert np.array_equal(got.sensitive, want.sensitive)
    assert got.feature_names == want.feature_names


# ---------------------------------------------------------------------------
# experiment grid
# ---------------------------------------------------------------------------


def test_experiment_grid_records_cell_failures():
    # train fractions of 1 and 1 leave no test row: the config is valid,
    # and only a job's split shows the failure
    config = {
        "algorithms": ["FL", "AFL"],
        "splits": [{"name": "bad", "train_fraction_group_a": 1.0,
                    "train_fraction_group_b": 1.0}],
        "repetitions": 1,
        "hyper": {"rounds": 1, "local_epochs": 1, "num_bases": 4},
        "dataset": {"n": 400},
    }
    summary = engine.experiment_grid(config)
    # the split cannot be built, so every algorithm's cell fails
    assert [row["algorithm"] for row in summary] == ["FL", "AFL"]
    for row in summary:
        assert row["repetitions_failed"] == 1
        assert "leave no row for the test set" in row["errors"][0]


def test_csv_dataset_reads_a_group_a_mask_and_no_raw_column(tmp_path):
    # every grid job is sent the dataset; the split reads only the mask
    table = engine.generate_census_like(200, 0)
    engine.write_census_csv(tmp_path / "census.csv", table)
    split = {"split_column": "sector", "group_a_values": ["private"]}
    columns = [{"name": c.name, "kind": c.kind} for c in engine.CENSUS_SCHEMA.columns]
    (tmp_path / "schema.yaml").write_text(yaml.safe_dump({"columns": columns, "split": split}))
    encoded, mask_a = engine._read_dataset({
        "kind": "csv", "path": str(tmp_path / "census.csv"),
        "schema": str(tmp_path / "schema.yaml")})
    assert mask_a.dtype == bool and np.array_equal(mask_a, table.columns["sector"] == "private")
    assert vars(encoded).keys() == {"features", "labels", "sensitive", "feature_names"}


def test_experiment_grid_rejects_a_bad_census_split_before_any_cell(monkeypatch, in_process_grid):
    monkeypatch.setattr(engine, "run", lambda *args: pytest.fail("the grid trained"))
    config = {
        "algorithms": ["FL"],
        "splits": [{"name": "ok"},
                   {"name": "bad", "client_assignment": "by_group", "num_clients": 3}],
        "hyper": {"rounds": 1},
        "dataset": {"n": 400},
    }
    with pytest.raises(ConfigError, match="exactly 2 clients"):
        engine.experiment_grid(config)


def test_experiment_grid_builds_each_dataset_once(monkeypatch, tmp_path):
    config = {
        "algorithms": ["FL", "AFL", "AgnosticFair"],
        "splits": [{"name": "shift"},
                   {"name": "even3", "client_assignment": "even", "num_clients": 3}],
        "repetitions": 2,
        "base_seed": 5,
        "hyper": {"rounds": 2, "local_epochs": 2, "num_bases": 4},
        "dataset": {"n": 400},
    }
    # what per-cell builds give: fresh data for every (algorithm, split, rep)
    hyper = engine.hyper_from_config(config)
    reference, expected = {}, []
    for algorithm in config["algorithms"]:
        for split_cfg in config["splits"]:
            for seed in (5, 6):
                data = engine.data_from_config(config["dataset"], split_cfg, seed)
                spec = engine.AlgorithmSpec(kind=algorithm, hyper=replace(hyper, seed=seed))
                reference[algorithm, split_cfg["name"], seed] = engine.run(spec, *data).final
            finals = [reference[algorithm, split_cfg["name"], seed] for seed in (5, 6)]
            expected.append({
                "algorithm": algorithm,
                "split": split_cfg["name"],
                "repetitions_ok": 2,
                "repetitions_failed": 0,
                **{k: float(np.mean([f[k] for f in finals]))
                   for k in ("train_acc", "test_acc", "train_rd", "test_rd")},
                "test_acc_sd": float(np.std([f["test_acc"] for f in finals])),
            })

    summary = engine.experiment_grid(config, output_dir=tmp_path)
    assert yaml.safe_load((tmp_path / "summary.yaml").read_text()) == summary
    with open(tmp_path / "summary.csv", newline="") as fh:
        run_s = [float(row["run_s"]) for row in csv.DictReader(fh)]
    assert run_s == [row.pop("run_s") for row in summary] and min(run_s) > 0
    assert summary == expected

    # each (split, repetition) job builds its data once for all its runs
    calls = []
    split = engine._split
    monkeypatch.setattr(engine, "_split", lambda *a: calls.append(a) or split(*a))
    dataset = engine._read_dataset(config["dataset"])
    for split_cfg in config["splits"]:
        for seed in (5, 6):
            results = engine._grid_job(config["algorithms"], hyper, dataset, split_cfg, seed)
            assert [final for final, _ in results] == [
                reference[a, split_cfg["name"], seed] for a in config["algorithms"]]
    assert len(calls) == 2 * 2  # splits x repetitions


def test_grid_accepts_lambda_alias():
    config = {
        "algorithms": ["FairFL"],
        "splits": [{"name": "shift"}],
        "repetitions": 1,
        "hyper": {"rounds": 1, "local_epochs": 2, "num_bases": 4, "lambda": 3.0},
        "dataset": {"n": 400},
    }
    summary = engine.experiment_grid(config)
    assert summary[0]["repetitions_ok"] == 1


# ---------------------------------------------------------------------------
# round CSV
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["FL", "AFL"])
def test_write_round_csv(tmp_path, kind):
    train, test, shards = synthetic_setup()
    result = engine.run(engine.AlgorithmSpec(kind=kind, hyper=FAST), train, test, shards)
    path = tmp_path / "rounds.csv"
    engine.write_round_csv(path, result)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + FAST.rounds
    header = "round,train_acc,test_acc,train_rd,test_rd,"
    if kind == "AFL":
        header += ("lp_status,lp_slack,adversary_loss_before,adversary_loss_after,"
                   "alpha_nnz,alpha_at_bound,alpha_move_l1,")
    assert lines[0] == header + "client0_rd,client1_rd"
    if kind == "AFL":
        status, slack, before, after = lines[1].split(",")[5:9]
        assert status == "optimal"
        assert float(slack) == 0.0
        assert float(before) == result.per_round[0]["adversary_loss_before"]
        assert float(after) == result.per_round[0]["adversary_loss_after"]


ROUND_CSV_DIGESTS = {
    "FL": "97b016b365c84957d978f213b16b064d9cb626744e18dea66bc82ea2ec606c28",
    "FairFL": "1c54aab8571172bcd2e2a246755ef31c34ca3bcddf9f1a65a8bb38379c4ecdb2",
    "AFL": "e6178dac3a6b1cc0f66d788c4fcc7350d9c365b6e0cf1653b952862b124a0eb7",
    "AgnosticFair": "56900bdec5c483af7273d473868560f608a2bee762bb0af2b06b7969b98bddf0",
    "AgnosticFair-a": "445e9fee76b0b24053fcb48f2eb10c8cdbdcb9767be8fc12ac8ba8179c2dc66f",
    "AgnosticFair-b": "d18a2e275d84ed51e593d1eec69c87449b380b2a4d1a5ae19d8d45740aff0d97",
    "LocalFair": "44681067bb366beef69236ffd9843277c1c0b455d6d286c3d0374a548f35c37a",
}


@pytest.mark.parametrize("kind", engine.ALGORITHMS)
def test_round_csv_is_pinned(tmp_path, kind):
    """rounds.csv is what a run leaves to be read: its columns, their
    order and every value's text are held byte for byte."""
    hyper = engine.HyperParams(rounds=4, local_epochs=3, learning_rate=0.5, num_bases=20)
    result = engine.run(engine.AlgorithmSpec(kind=kind, hyper=hyper),
                        *engine.prepare_census(seed=3, n=600))
    path = tmp_path / "rounds.csv"
    engine.write_round_csv(path, result)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ROUND_CSV_DIGESTS[kind]


@pytest.mark.parametrize("num_clients", [2, 4])  # per-client and lockstep fits
@pytest.mark.parametrize("kind", ["AFL", "AgnosticFair", "AgnosticFair-a", "AgnosticFair-b"])
def test_round_csv_records_alpha_support(tmp_path, monkeypatch, kind, num_clients):
    # alpha after each LP, caught at the server; the uniform alpha0 first
    alphas = []
    init, server_round = protocol.init_protocol, protocol.server_round

    def record_init(shards, basis, cfg):
        out = init(shards, basis, cfg)
        alphas.append((out[0].bc.alpha.copy(), basis.bound))
        return out

    def record_round(state, bundles, cfg):
        out = server_round(state, bundles, cfg)
        alphas.append((state.bc.alpha.copy(), state.basis.bound))
        return out

    monkeypatch.setattr(protocol, "init_protocol", record_init)
    monkeypatch.setattr(protocol, "server_round", record_round)
    train, test, shards = synthetic_setup(num_clients=num_clients)
    hyper = replace(FAST, rounds=5, num_bases=30)
    result = engine.run(engine.AlgorithmSpec(kind=kind, hyper=hyper), train, test, shards)
    path = tmp_path / "rounds.csv"
    engine.write_round_csv(path, result)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == hyper.rounds
    for row, (old, _), (new, bound) in zip(rows, alphas, alphas[1:]):
        assert int(row["alpha_nnz"]) == sum(a != 0.0 for a in new)
        assert int(row["alpha_at_bound"]) == sum(a == bound for a in new)
        assert float(row["alpha_move_l1"]) == pytest.approx(
            sum(abs(a - b) for a, b in zip(new, old)), rel=1e-12, abs=1e-15
        )
    assert float(rows[0]["alpha_move_l1"]) > 0.0  # the LP leaves the uniform start
