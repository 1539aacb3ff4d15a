import csv
import math
import os
import pathlib
import subprocess
import sys

import yaml

from fedfair import cli, engine

ROOT = pathlib.Path(__file__).resolve().parents[1]


def write_census_inputs(tmp_path, n=300, with_split=True):
    """Small raw CSV plus matching schema YAML for the prepare command."""
    table = engine.generate_census_like(engine.CensusSpec(n=n, seed=0))
    csv_path = tmp_path / "census.csv"
    engine.write_census_csv(csv_path, table)
    doc = {
        "columns": [
            {"name": c.name, "kind": c.kind, "split_key": c.split_key}
            for c in engine.CENSUS_SCHEMA.columns
        ]
    }
    if with_split:
        doc["split"] = {
            "split_column": "sector",
            "group_a_values": ["private"],
            "train_fraction_group_a": 0.8,
            "train_fraction_group_b": 0.2,
            "client_assignment": "by_group",
            "num_clients": 2,
            "seed": 0,
        }
    schema_path = tmp_path / "schema.yaml"
    schema_path.write_text(yaml.safe_dump(doc))
    return csv_path, schema_path


def small_run_config(tmp_path, algorithm="FL", rounds=2):
    cfg = {
        "algorithm": algorithm,
        "hyper": {"rounds": rounds, "local_epochs": 2, "num_bases": 4},
        "dataset": {"n": 300},
    }
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------


def test_prepare_writes_manifest_and_shards(tmp_path):
    csv_path, schema_path = write_census_inputs(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(
        ["prepare", "--data", str(csv_path), "--schema", str(schema_path),
         "--output", str(out)]
    )
    assert rc == 0
    manifest = yaml.safe_load((out / "manifest.yaml").read_text())
    assert manifest["train_rows"] + manifest["test_rows"] == 300
    assert len(manifest["shards"]) == 2
    for entry in manifest["shards"]:
        assert (out / entry["file"]).exists()
    assert (out / "train.csv").exists() and (out / "test.csv").exists()
    assert sum(e["rows"] for e in manifest["shards"]) == manifest["train_rows"]


def test_prepare_without_split_section_is_usage_error(tmp_path):
    csv_path, schema_path = write_census_inputs(tmp_path, with_split=False)
    rc = cli.main(
        ["prepare", "--data", str(csv_path), "--schema", str(schema_path),
         "--output", str(tmp_path / "out")]
    )
    assert rc == 2


def test_prepare_missing_data_file_is_usage_error(tmp_path):
    _, schema_path = write_census_inputs(tmp_path)
    rc = cli.main(
        ["prepare", "--data", str(tmp_path / "nope.csv"),
         "--schema", str(schema_path), "--output", str(tmp_path / "out")]
    )
    assert rc == 2


def test_prepare_header_only_csv_is_usage_error(tmp_path):
    csv_path, schema_path = write_census_inputs(tmp_path)
    header = csv_path.read_text().splitlines()[0]
    csv_path.write_text(header + "\n")
    rc = cli.main(
        ["prepare", "--data", str(csv_path), "--schema", str(schema_path),
         "--output", str(tmp_path / "out")]
    )
    assert rc == 2


def test_prepare_truncated_row_is_usage_error(tmp_path):
    csv_path, schema_path = write_census_inputs(tmp_path)
    lines = csv_path.read_text().splitlines()
    lines[5] = ",".join(lines[5].split(",")[:4])
    csv_path.write_text("\n".join(lines) + "\n")
    rc = cli.main(
        ["prepare", "--data", str(csv_path), "--schema", str(schema_path),
         "--output", str(tmp_path / "out")]
    )
    assert rc == 2


def test_make_dataset_script_feeds_prepare(tmp_path):
    data_dir = tmp_path / "data"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_dataset.py"),
         "--n", "200", "--out", str(data_dir)],
        check=True, env=env, capture_output=True,
    )
    out = tmp_path / "out"
    rc = cli.main(
        ["prepare", "--data", str(data_dir / "census.csv"),
         "--schema", str(data_dir / "schema.yaml"), "--output", str(out)]
    )
    assert rc == 0
    manifest = yaml.safe_load((out / "manifest.yaml").read_text())
    assert manifest["train_rows"] + manifest["test_rows"] == 200
    assert len(manifest["shards"]) == 2
    for entry in manifest["shards"]:
        assert (out / entry["file"]).exists()


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_writes_result_and_rounds(tmp_path, capsys):
    cfg = small_run_config(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", str(cfg), "--output", str(out)])
    assert rc == 0
    result = yaml.safe_load((out / "result.yaml").read_text())
    assert result["algorithm"] == "FL"
    assert 0.0 <= result["final"]["test_acc"] <= 1.0
    assert (out / "rounds.csv").exists()
    assert "test_acc=" in capsys.readouterr().out


def test_run_zero_rounds_evaluates_initial_model(tmp_path):
    cfg = small_run_config(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(
        ["run", "--config", str(cfg), "--rounds", "0", "--output", str(out)]
    )
    assert rc == 0
    assert not (out / "rounds.csv").exists()
    assert (out / "result.yaml").exists()


def test_run_unknown_algorithm_is_usage_error(tmp_path):
    cfg = small_run_config(tmp_path)
    rc = cli.main(
        ["run", "--config", str(cfg), "--algorithm", "Bogus",
         "--output", str(tmp_path / "out")]
    )
    assert rc == 2


def test_run_missing_config_is_usage_error(tmp_path):
    rc = cli.main(
        ["run", "--config", str(tmp_path / "missing.yaml"),
         "--output", str(tmp_path / "out")]
    )
    assert rc == 2


def test_run_unknown_hyper_key_is_usage_error(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump({"hyper": {"rounds": 1, "bogus": 3}}))
    rc = cli.main(["run", "--config", str(path), "--output", str(tmp_path / "out")])
    assert rc == 2


def test_run_runtime_failure_exits_1(tmp_path):
    # a draw with men only has one sensitive group, so the train set's risk
    # difference is undefined after training
    cfg = {
        "algorithm": "FL",
        "hyper": {"rounds": 2, "local_epochs": 2},
        "dataset": {"n": 300, "census": {"p_male_private": 1.0, "p_male_other": 1.0}},
    }
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(cfg))
    rc = cli.main(["run", "--config", str(path), "--output", str(tmp_path / "out")])
    assert rc == 1


def test_run_one_group_shards_record_nan(tmp_path):
    # 40 shards of a 300-row draw leave six shards with one sensitive group
    cfg = {
        "algorithm": "LocalFair",
        "hyper": {"rounds": 2, "local_epochs": 2},
        "dataset": {"n": 300},
        "split": {"client_assignment": "even", "num_clients": 40},
    }
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--output", str(out)]) == 0
    per_client = yaml.safe_load((out / "result.yaml").read_text())["final"]["per_client_rd"]
    undefined = [k for k, v in enumerate(per_client) if math.isnan(v)]
    assert len(per_client) == 40 and len(undefined) == 6
    with open(out / "rounds.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert all(rows[1][f"client{k}_rd"] == "" for k in undefined)


def test_run_deterministic_across_invocations(tmp_path):
    cfg = small_run_config(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(
            ["run", "--config", str(cfg), "--seed", "3", "--output", str(out)]
        ) == 0
        outs.append(yaml.safe_load((out / "result.yaml").read_text()))
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


def test_grid_summary(tmp_path, capsys):
    cfg = {
        "algorithms": ["FL", "AFL"],
        "splits": [{"name": "shift"}],
        "repetitions": 1,
        "hyper": {"rounds": 1, "local_epochs": 2, "num_bases": 4},
        "dataset": {"n": 300},
    }
    path = tmp_path / "grid.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "out"
    rc = cli.main(["grid", "--config", str(path), "--output", str(out)])
    assert rc == 0
    assert (out / "summary.csv").exists()
    assert len(capsys.readouterr().out.strip().splitlines()) == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_all_checks_pass(capsys):
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    for name in ("lp", "gradient", "aggregation"):
        assert f"{name}: PASS" in out


def test_verify_inject_fault_fails(capsys):
    assert cli.main(["verify", "--inject-fault"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_only_filter(capsys):
    assert cli.main(["verify", "--only", "lp"]) == 0
    out = capsys.readouterr().out
    assert "lp: PASS" in out and "gradient" not in out


def test_verify_unknown_check_is_usage_error():
    assert cli.main(["verify", "--only", "bogus"]) == 2
