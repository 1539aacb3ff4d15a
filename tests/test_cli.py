import csv
import logging
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import fedfair
from fedfair import cli, data, engine
from fedfair.errors import ConfigError

ROOT = pathlib.Path(__file__).resolve().parents[1]


def write_census_inputs(tmp_path, n=300, with_split=True):
    """Small raw CSV, its schema YAML and a run config that trains on them."""
    table = engine.generate_census_like(n, 0)
    csv_path = tmp_path / "census.csv"
    engine.write_census_csv(csv_path, table)
    doc = {
        "columns": [{"name": c.name, "kind": c.kind} for c in engine.CENSUS_SCHEMA.columns]
    }
    if with_split:
        doc["split"] = {"split_column": "sector", "group_a_values": ["private"]}
    schema_path = tmp_path / "schema.yaml"
    schema_path.write_text(yaml.safe_dump(doc))
    cfg_path = write_config(tmp_path, {
        "algorithm": "FL",
        "hyper": {"rounds": 1, "local_epochs": 2},
        "dataset": {"kind": "csv", "path": str(csv_path), "schema": str(schema_path)},
    })
    return csv_path, schema_path, cfg_path


def write_config(tmp_path, cfg, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def small_run_config(tmp_path, algorithm="FL", rounds=2):
    return write_config(tmp_path, {
        "algorithm": algorithm,
        "hyper": {"rounds": rounds, "local_epochs": 2, "num_bases": 4},
        "dataset": {"n": 300},
    })


# ---------------------------------------------------------------------------
# CSV datasets: the data preparation step of run and grid
# ---------------------------------------------------------------------------


def test_prepare_without_split_section_is_usage_error(tmp_path, caplog):
    _, schema_path, cfg = write_census_inputs(tmp_path, with_split=False)
    rc = cli.main(["run", "--config", str(cfg), "--output", str(tmp_path / "out")])
    assert rc == 2
    assert f"{schema_path}: split lacks the key(s) split_column, group_a_values" in caplog.text


def test_prepare_missing_data_file_is_usage_error(tmp_path, caplog):
    csv_path, _, cfg = write_census_inputs(tmp_path)
    csv_path.unlink()
    rc = cli.main(["run", "--config", str(cfg), "--output", str(tmp_path / "out")])
    assert rc == 2
    assert "No such file" in caplog.text and str(csv_path) in caplog.text


def test_prepare_header_only_csv_is_usage_error(tmp_path, caplog):
    csv_path, _, cfg = write_census_inputs(tmp_path)
    header = csv_path.read_text().splitlines()[0]
    csv_path.write_text(header + "\n")
    rc = cli.main(["run", "--config", str(cfg), "--output", str(tmp_path / "out")])
    assert rc == 2
    assert f"{csv_path}: no complete data rows" in caplog.text


def test_prepare_truncated_row_is_usage_error(tmp_path, caplog):
    csv_path, _, cfg = write_census_inputs(tmp_path)
    lines = csv_path.read_text().splitlines()
    lines[5] = ",".join(lines[5].split(",")[:4])
    csv_path.write_text("\n".join(lines) + "\n")
    rc = cli.main(["run", "--config", str(cfg), "--output", str(tmp_path / "out")])
    assert rc == 2
    assert "line 6: 4 cells where the header has" in caplog.text


def run_python(*args, cwd=None):
    """Run the interpreter on *args* with src on PYTHONPATH; its CompletedProcess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True
    )


def make_dataset(*args):
    """Run scripts/make_dataset.py with *args*; its CompletedProcess."""
    return run_python(str(ROOT / "scripts" / "make_dataset.py"), *args)


def test_make_dataset_script_feeds_run_and_grid(tmp_path):
    data_dir = tmp_path / "data"
    make_dataset("--n", "200", "--out", str(data_dir)).check_returncode()
    dataset = {"kind": "csv", "path": str(data_dir / "census.csv"),
               "schema": str(data_dir / "schema.yaml")}
    hyper = {"rounds": 1, "local_epochs": 2, "num_bases": 4}
    raw = data.load_csv(data_dir / "census.csv", engine.CENSUS_SCHEMA)
    schema, *shift = data.load_schema_file(data_dir / "schema.yaml")
    assert (schema, tuple(shift)) == (engine.CENSUS_SCHEMA, engine.CENSUS_SHIFT)
    # a run at seed 0 splits the rows as a census run at seed 0 does
    mask_a = data.group_a_rows(raw, *shift)
    train, test, shards = data.shift_split(data.encode(raw), mask_a, data.ShiftSplitSpec(), 0)
    assert train.n + test.n == 200
    spec = engine.AlgorithmSpec(kind="FL", hyper=engine.HyperParams(**hyper))
    want = engine.run(spec, train, test, shards).final

    run_cfg = write_config(tmp_path, {"algorithm": "FL", "hyper": hyper, "dataset": dataset})
    assert cli.main(["run", "--config", str(run_cfg), "--output", str(tmp_path / "run")]) == 0
    got = yaml.safe_load((tmp_path / "run" / "result.yaml").read_text())["final"]
    assert (got["test_acc"], got["test_rd"]) == (want["test_acc"], want["test_rd"])

    grid_cfg = write_config(
        tmp_path, {"algorithms": ["FL"], "hyper": hyper, "dataset": dataset}, "grid.yaml"
    )
    grid_out = tmp_path / "grid"
    assert cli.main(["grid", "--config", str(grid_cfg), "--output", str(grid_out)]) == 0
    [row] = yaml.safe_load((grid_out / "summary.yaml").read_text())
    assert (row["test_acc"], row["test_rd"]) == (want["test_acc"], want["test_rd"])


def test_csv_grid_splits_and_repetitions_draw_their_own_rows(tmp_path):
    # a CSV is split as its config's split says, at the run seed, as a
    # census is: splits that differ only in their sharding give different
    # cells, and FL's repetitions train on different rows
    data_dir = tmp_path / "data"
    make_dataset("--n", "600", "--out", str(data_dir)).check_returncode()
    cfg = {
        "algorithms": ["FL"],
        "splits": [{"name": "a"},
                   {"name": "b", "client_assignment": "even", "num_clients": 4}],
        "repetitions": 3,
        "hyper": {"rounds": 2, "local_epochs": 2, "num_bases": 4},
        "dataset": {"kind": "csv", "path": str(data_dir / "census.csv"),
                    "schema": str(data_dir / "schema.yaml")},
    }
    out = tmp_path / "out"
    path = write_config(tmp_path, cfg, "grid.yaml")
    assert cli.main(["grid", "--config", str(path), "--output", str(out)]) == 0
    a, b = yaml.safe_load((out / "summary.yaml").read_text())
    assert (a["test_acc"], a["test_rd"]) != (b["test_acc"], b["test_rd"])
    assert a["test_acc_sd"] > 0 and b["test_acc_sd"] > 0
    for split, clients in zip(cfg["splits"], (2, 4)):
        shards = [engine.data_from_config(cfg["dataset"], split, seed)[2] for seed in range(3)]
        assert [len(s) for s in shards] == [clients] * 3


def test_csv_grid_parses_its_files_once(tmp_path, monkeypatch):
    # every (split, repetition) job splits the rows parsed before the first
    loads = []
    load = engine.load_csv
    monkeypatch.setattr(engine, "load_csv", lambda *args: loads.append(args) or load(*args))
    _, _, run_cfg = write_census_inputs(tmp_path)
    cfg = {"algorithms": ["FL"], "splits": [{"name": "a"}, {"name": "b"}], "repetitions": 2,
           "hyper": FAST_HYPER, "dataset": yaml.safe_load(run_cfg.read_text())["dataset"]}
    summary = engine.experiment_grid(cfg)
    assert len(loads) == 1 and [row["repetitions_ok"] for row in summary] == [2, 2]


def test_csv_run_takes_the_configs_split(tmp_path):
    _, _, cfg_path = write_census_inputs(tmp_path)
    cfg = yaml.safe_load(cfg_path.read_text())
    cfg["split"] = {"name": "even", "client_assignment": "even", "num_clients": 4}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--output", str(out)]) == 0
    final = yaml.safe_load((out / "result.yaml").read_text())["final"]
    assert len(final["per_client_rd"]) == 4


@pytest.mark.parametrize("n", ["0", "-5"])
def test_make_dataset_script_rejects_n_below_1(tmp_path, n):
    done = make_dataset("--n", n, "--out", str(tmp_path / "data"))
    assert done.returncode == 2 and "--n must be at least 1" in done.stderr
    assert not (tmp_path / "data").exists()


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

FAST_HYPER = {"rounds": 1, "local_epochs": 1, "num_bases": 4}

BAD_CONFIGS = {
    "empty": "",
    "yaml_syntax_error": "hyper: {rounds: 1\n",
    "not_a_mapping": "- FL\n- AFL\n",
    "csv_without_schema": {"dataset": {"kind": "csv", "path": "census.csv"}},
    "csv_without_path": {"dataset": {"kind": "csv", "schema": "schema.yaml"}},
    "unknown_census_key": {"dataset": {"n": 300, "census": {"p_privat": 0.5}}},
    "census_section": {"dataset": {"n": 300, "census": {"p_male_private": 1.0}}},
    "unknown_dataset_kind": {"dataset": {"kind": "parquet", "n": 300}},
    "unknown_dataset_key": {"dataset": {"n": 300, "rows": 300}},
    "misspelled_split_key": {
        "dataset": {"n": 300},
        "split": {"name": "even", "client_assignment": "even", "num_client": 4},
    },
    "text_n": {"dataset": {"n": "abc"}},
    "fractional_n": {"dataset": {"n": 300.7}},
    "bool_n": {"dataset": {"n": True}},
    "zero_n": {"dataset": {"n": 0}},
    "text_num_clients": {
        "dataset": {"n": 300},
        "split": {"client_assignment": "even", "num_clients": "x"},
    },
    "fractional_num_clients": {
        "dataset": {"n": 300},
        "split": {"client_assignment": "even", "num_clients": 2.5},
    },
    "text_train_fraction": {
        "dataset": {"n": 300}, "split": {"train_fraction_group_a": "x"},
    },
    "split_name_not_text": {"dataset": {"n": 300}, "split": {"name": 2}},
}


@pytest.mark.parametrize("command", ["run", "grid"])
@pytest.mark.parametrize("case", list(BAD_CONFIGS))
def test_bad_config_is_usage_error(tmp_path, monkeypatch, in_process_grid, command, case):
    monkeypatch.setattr(engine, "run", lambda *args: pytest.fail("trained"))
    bad = BAD_CONFIGS[case]
    path = tmp_path / "bad.yaml"
    if isinstance(bad, str):
        path.write_text(bad)
    else:
        write_census_inputs(tmp_path)  # census.csv and schema.yaml, for the csv cases
        monkeypatch.chdir(tmp_path)
        cfg = {"hyper": FAST_HYPER, **bad}
        if command == "grid" and "split" in cfg:  # a grid lists its splits
            cfg["splits"] = [cfg.pop("split")]
        path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--output", str(out)]) == 2
    assert not (out / "result.yaml").exists() and not (out / "summary.csv").exists()


def csv_config(tmp_path, monkeypatch, command, split=None, **grid):
    """A run or grid config file over write_census_inputs' files, with
    *split* as its split; engine.run fails the test, and the list that
    is returned records each engine.load_csv call."""
    loads = []
    load = engine.load_csv
    monkeypatch.setattr(engine, "load_csv", lambda *args: loads.append(args) or load(*args))
    monkeypatch.setattr(engine, "run", lambda *args: pytest.fail("trained"))
    csv_path, schema_path, _ = write_census_inputs(tmp_path)
    cfg = {"hyper": FAST_HYPER,
           "dataset": {"kind": "csv", "path": str(csv_path), "schema": str(schema_path)}}
    if command == "grid":
        cfg.update({"splits": [split or {"name": "a"}], **grid})
    elif split is not None:
        cfg["split"] = split
    return write_config(tmp_path, cfg, name="bad.yaml"), loads


BAD_SCHEMAS = {
    "split_without_split_column": ("split", "split_column"),
    "split_without_group_a_values": ("split", "group_a_values"),
    "column_without_kind": ("columns", "kind"),
}


@pytest.mark.parametrize("command", ["run", "grid"])
@pytest.mark.parametrize("case", list(BAD_SCHEMAS))
def test_schema_file_missing_key_is_usage_error(tmp_path, monkeypatch, caplog, command, case):
    path, loads = csv_config(tmp_path, monkeypatch, command)
    schema_path = tmp_path / "schema.yaml"
    doc = yaml.safe_load(schema_path.read_text())
    section, key = BAD_SCHEMAS[case]
    target = doc["split"] if section == "split" else doc["columns"][0]
    del target[key]
    schema_path.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--output", str(out)]) == 2
    assert f"{schema_path}: " in caplog.text and f"lacks the key(s) {key}" in caplog.text
    assert loads == []
    assert not (out / "result.yaml").exists() and not (out / "summary.csv").exists()


BAD_SCHEMA_SPLITS = {
    "bare_group_a_value": ({"group_a_values": "private"}, "group_a_values must be"),
    "no_group_a_values": ({"group_a_values": []}, "group_a_values must be"),
    "nested_group_a_value": ({"group_a_values": [["private"]]}, "group_a_values must be"),
    # each value is read in its split column's kind, and a YAML bool in none
    "text_in_numeric_column": (
        {"split_column": "skill", "group_a_values": [0.1, "x"]},
        "group_a_values must be finite numbers for the numeric column 'skill', not ['x']",
    ),
    "bool_in_numeric_column": (
        {"split_column": "skill", "group_a_values": [True]},
        "group_a_values must be finite numbers for the numeric column 'skill', not [True]",
    ),
    "bool_in_categorical_column": (
        {"group_a_values": [True]},
        "group_a_values must be text or numbers for the categorical column 'sector', "
        "not [True]",
    ),
}


@pytest.mark.parametrize("command", ["run", "grid"])
@pytest.mark.parametrize("case", list(BAD_SCHEMA_SPLITS))
def test_schema_file_bad_split_value_is_usage_error(tmp_path, monkeypatch, caplog, command, case):
    # found when the schema file is read, before the CSV is; the values
    # are taken as written: "private" is not {p, r, i, ...}
    path, loads = csv_config(tmp_path, monkeypatch, command)
    schema_path = tmp_path / "schema.yaml"
    doc = yaml.safe_load(schema_path.read_text())
    values, message = BAD_SCHEMA_SPLITS[case]
    doc["split"].update(values)
    schema_path.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--output", str(out)]) == 2
    assert f"{schema_path}: split: " in caplog.text and message in caplog.text
    assert loads == []
    assert not (out / "result.yaml").exists() and not (out / "summary.csv").exists()


@pytest.mark.parametrize("command", ["run", "grid"])
@pytest.mark.parametrize("key, value", [
    ("train_fraction_group_a", 0.8), ("train_fraction_group_b", 0.2),
    ("client_assignment", "even"), ("num_clients", 2), ("seed", 0),
])
def test_schema_file_split_setting_is_usage_error(
    tmp_path, monkeypatch, caplog, command, key, value
):
    # how rows are split is the config's split section: a schema file
    # that still sets it is never split another way without a word
    path, loads = csv_config(tmp_path, monkeypatch, command)
    schema_path = tmp_path / "schema.yaml"
    doc = yaml.safe_load(schema_path.read_text())
    doc["split"][key] = value
    schema_path.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--output", str(out)]) == 2
    assert f"{schema_path}: split: unknown key(s) {key}; " in caplog.text
    assert "the config's split section" in caplog.text
    assert loads == []
    assert not (out / "result.yaml").exists() and not (out / "summary.csv").exists()


BAD_CSV_SPLITS = {
    "fractional_num_clients": (
        {"client_assignment": "even", "num_clients": 2.5}, "num_clients must be an integer"
    ),
    "text_num_clients": (
        {"client_assignment": "even", "num_clients": "3"}, "num_clients must be an integer"
    ),
    "text_train_fraction": (
        {"train_fraction_group_a": "0.8"}, "train fraction must be a number"
    ),
}


@pytest.mark.parametrize("command", ["run", "grid"])
@pytest.mark.parametrize("case", list(BAD_CSV_SPLITS))
def test_csv_split_bad_value_is_usage_error(tmp_path, monkeypatch, caplog, command, case):
    # a CSV config's split is checked as a census config's is, its values
    # taken as written: 2.5 clients is not 2, and "0.8" is not 0.8
    split, message = BAD_CSV_SPLITS[case]
    path, loads = csv_config(tmp_path, monkeypatch, command, split)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--output", str(out)]) == 2
    assert message in caplog.text and loads == []
    assert not (out / "result.yaml").exists() and not (out / "summary.csv").exists()


@pytest.mark.parametrize("command", ["run", "grid"])
def test_schema_file_group_a_matching_no_row_is_not_trained(
    tmp_path, monkeypatch, caplog, command
):
    # no sector is "privat", so group A is empty and an even split would
    # train with no shift: the rows alone decide it, a usage error
    path, _ = csv_config(tmp_path, monkeypatch, command, {"client_assignment": "even"})
    schema_path = tmp_path / "schema.yaml"
    doc = yaml.safe_load(schema_path.read_text())
    doc["split"]["group_a_values"] = ["privat"]
    schema_path.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--output", str(out)]) == 2
    assert "split column 'sector' has no row with a value in ['privat']" in caplog.text
    assert not (out / "result.yaml").exists() and not (out / "summary.yaml").exists()


@pytest.mark.parametrize("command", ["run", "grid"])
def test_schema_file_number_matches_the_text_of_a_categorical_column(tmp_path, command):
    # YAML reads group_a_values: [1] as an integer, and the categorical
    # sector column, written with 1 for private and 0 for other (which
    # sort as the names do), holds it as the text "1": the run splits as
    # one over the named sectors does
    csv_path, schema_path, run_cfg = write_census_inputs(tmp_path)
    dataset = yaml.safe_load(run_cfg.read_text())["dataset"]
    cfg = (write_config(tmp_path, {"algorithms": ["FL"], "hyper": FAST_HYPER,
                                   "dataset": dataset}, "grid.yaml")
           if command == "grid" else run_cfg)

    def final(name):
        out = tmp_path / name
        assert cli.main([command, "--config", str(cfg), "--output", str(out)]) == 0
        if command == "grid":
            [row] = yaml.safe_load((out / "summary.yaml").read_text())
            return row["test_acc"], row["test_rd"]
        got = yaml.safe_load((out / "result.yaml").read_text())["final"]
        return got["test_acc"], got["test_rd"]

    named = final("named")
    table = data.load_csv(csv_path, engine.CENSUS_SCHEMA)
    table.columns["sector"] = np.where(table.columns["sector"] == "private", "1", "0")
    engine.write_census_csv(csv_path, table)
    doc = yaml.safe_load(schema_path.read_text())
    doc["split"]["group_a_values"] = [1]
    schema_path.write_text(yaml.safe_dump(doc))
    assert final("numbered") == named


@pytest.mark.parametrize("command", ["run", "grid"])
def test_schema_file_unknown_split_column_is_usage_error(tmp_path, monkeypatch, caplog, command):
    # found when the schema file is read, before the CSV is
    path, loads = csv_config(tmp_path, monkeypatch, command,
                             splits=[{"name": "a"}, {"name": "b"}], repetitions=2)
    schema_path = tmp_path / "schema.yaml"
    doc = yaml.safe_load(schema_path.read_text())
    doc["split"]["split_column"] = "sectr"
    schema_path.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--output", str(out)]) == 2
    assert f"{schema_path}: split: split_column 'sectr' is not one of" in caplog.text
    assert loads == []
    assert not (out / "result.yaml").exists() and not (out / "summary.csv").exists()


def with_ff_byte(text: bytes) -> bytes:
    """*text* with a 0xff byte, which no UTF-8 text holds, in its middle."""
    return text[: len(text) // 2] + b"\xff" + text[len(text) // 2 :]


#: an input file made unreadable: its name, how, and what the error says
UNREADABLE_FILES = {
    "config_not_utf8": ("bad.yaml", with_ff_byte,
                        "not valid YAML: unacceptable character #x00ff"),
    "schema_not_utf8": ("schema.yaml", with_ff_byte,
                        "not valid YAML: unacceptable character #x00ff"),
    "schema_not_yaml": ("schema.yaml", lambda text: b"columns: {a\n",
                        "not valid YAML: while parsing a flow mapping"),
    "csv_not_utf8": ("census.csv", with_ff_byte,
                     "not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
}


@pytest.mark.parametrize("command", ["run", "grid"])
@pytest.mark.parametrize("case", list(UNREADABLE_FILES))
def test_unreadable_input_file_is_usage_error_naming_it(
    tmp_path, monkeypatch, caplog, command, case
):
    path, _ = csv_config(tmp_path, monkeypatch, command)
    name, spoil, message = UNREADABLE_FILES[case]
    spoilt = tmp_path / name
    spoilt.write_bytes(spoil(spoilt.read_bytes()))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--output", str(out)]) == 2
    assert f"{spoilt}: {message}" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "grid"])
def test_usage_error_creates_no_output_directory(tmp_path, monkeypatch, in_process_grid, command):
    monkeypatch.setattr(engine, "run", lambda *args: pytest.fail("trained"))
    write_census_inputs(tmp_path)  # census.csv and schema.yaml, for the csv cases
    monkeypatch.chdir(tmp_path)
    cases = list(BAD_CONFIGS.values())
    cases += [{"hyper": bad, "dataset": {"n": 300}} for bad in BAD_HYPER_VALUES.values()]
    if command == "grid":
        cases += [{"dataset": {"n": 300}, **bad} for bad in BAD_GRID_VALUES.values()]
    for j, bad in enumerate(cases):
        path = tmp_path / f"bad{j}.yaml"
        if isinstance(bad, str):
            path.write_text(bad)
        else:
            cfg = {"hyper": FAST_HYPER, **bad}
            if command == "grid" and "split" in cfg:
                cfg["splits"] = [cfg.pop("split")]
            path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / f"out{j}"
        assert cli.main([command, "--config", str(path), "--output", str(out)]) == 2, bad
        assert not out.exists(), bad


def test_grid_rejects_run_keys(tmp_path):
    path = write_config(tmp_path, {"algorithm": "FL", "hyper": FAST_HYPER})
    assert cli.main(["grid", "--config", str(path), "--output", str(tmp_path / "out")]) == 2


def test_run_rejects_a_splits_list(tmp_path, monkeypatch):
    # a run trains on one split; it reads a split section, never a list
    monkeypatch.setattr(engine, "run", lambda *args: pytest.fail("trained"))
    path = write_config(tmp_path, {"hyper": FAST_HYPER, "dataset": {"n": 300},
                                   "splits": [{"name": "a"}, {"name": "b"}]})
    assert cli.main(["run", "--config", str(path), "--output", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize(
    "path", sorted((ROOT / "scripts" / "configs").glob("*.yaml")), ids=lambda p: p.name
)
def test_shipped_configs_pass_the_reader(path, tmp_path, monkeypatch):
    text = path.read_text()
    # each config names the command that reads it in its "Run with:" line
    command = re.search(r"fedfair (run|grid) --config", text).group(1)
    keys = engine.RUN_KEYS if command == "run" else engine.GRID_KEYS
    assert engine.read_config(path, keys) == yaml.safe_load(text)

    # and its sections pass the checks its command makes before the data
    # is read, which stops it (a runtime failure, exit 1, not 2)
    def read(data_cfg):
        raise RuntimeError("checked")

    monkeypatch.setattr(engine, "_read_dataset", read)
    assert cli.main([command, "--config", str(path), "--output", str(tmp_path / "out")]) == 1


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


def test_result_yaml_records_the_run(tmp_path):
    cfg = small_run_config(tmp_path, algorithm="AFL", rounds=3)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--seed", "4", "--output", str(out)]) == 0
    record = yaml.safe_load((out / "result.yaml").read_text())
    assert list(record) == ["algorithm", "hyper", "seed", "version", "wall_s", "final"]
    spec = engine.hyper_from_config(yaml.safe_load(cfg.read_text()), seed=4)
    assert engine.HyperParams(**record["hyper"]) == spec
    assert record["seed"] == 4
    assert record["version"] == fedfair.__version__
    assert isinstance(record["wall_s"], float) and record["wall_s"] > 0.0


def test_run_zero_rounds_evaluates_initial_model(tmp_path):
    cfg = small_run_config(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(
        ["run", "--config", str(cfg), "--rounds", "0", "--output", str(out)]
    )
    assert rc == 0
    assert (out / "rounds.csv").read_text().splitlines() == [
        "round,train_acc,test_acc,train_rd,test_rd,client0_rd,client1_rd"
    ]
    assert (out / "result.yaml").exists()


def test_run_zero_rounds_replaces_an_earlier_runs_rounds(tmp_path):
    out = tmp_path / "out"
    cfg = small_run_config(tmp_path, algorithm="FL", rounds=2)
    assert cli.main(["run", "--config", str(cfg), "--output", str(out)]) == 0
    assert len((out / "rounds.csv").read_text().splitlines()) == 3
    cfg = small_run_config(tmp_path, algorithm="AgnosticFair", rounds=0)
    assert cli.main(["run", "--config", str(cfg), "--output", str(out)]) == 0
    assert yaml.safe_load((out / "result.yaml").read_text())["algorithm"] == "AgnosticFair"
    assert len((out / "rounds.csv").read_text().splitlines()) == 1  # the header alone


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


@pytest.mark.parametrize("what", ["config", "dataset path"])
def test_path_naming_a_directory_is_usage_error(tmp_path, monkeypatch, caplog, what):
    monkeypatch.setattr(engine, "run", lambda *args: pytest.fail("trained"))
    csv_path, _, cfg = write_census_inputs(tmp_path)
    if what == "config":
        cfg = tmp_path
    else:
        csv_path.unlink()
        csv_path.mkdir()
    rc = cli.main(["run", "--config", str(cfg), "--output", str(tmp_path / "out")])
    assert rc == 2 and "Is a directory" in caplog.text


def test_empty_output_is_usage_error(tmp_path, monkeypatch, caplog):
    for name in ("data_from_config", "run"):
        monkeypatch.setattr(engine, name, lambda *args: pytest.fail("built or trained"))
    cfg = small_run_config(tmp_path)
    assert cli.main(["run", "--config", str(cfg), "--output", ""]) == 2
    assert "--output must name a directory" in caplog.text


@pytest.mark.parametrize("command", ["run", "grid"])
@pytest.mark.parametrize("output", ["file", "file/out"])
def test_output_that_is_or_lies_under_a_file_is_usage_error(
    tmp_path, monkeypatch, caplog, command, output
):
    for name in ("prepare_census", "run"):
        monkeypatch.setattr(engine, name, lambda *args, **kw: pytest.fail("built or trained"))
    (tmp_path / "file").write_text("")
    if command == "run":
        cfg = small_run_config(tmp_path)
    else:
        cfg = write_config(tmp_path, {"hyper": FAST_HYPER, "dataset": {"n": 300}}, "grid.yaml")
    out = str(tmp_path / output)
    assert cli.main([command, "--config", str(cfg), "--output", out]) == 2
    assert f"{tmp_path / 'file'} is a file, not a directory" in caplog.text


@pytest.mark.parametrize("level, relaxed", [("WARNING", True), ("ERROR", False)])
def test_grid_workers_log_at_the_level_and_in_the_format_set(tmp_path, level, relaxed):
    # two jobs, so two workers where there are two cores; tau 0 relaxes
    # AgnosticFair's fairness row in round 1
    cfg = write_config(tmp_path, {
        "algorithms": ["AgnosticFair"], "repetitions": 2, "dataset": {"n": 300},
        "hyper": {"rounds": 1, "local_epochs": 2, "num_bases": 4, "tau": 0.0},
    }, "grid.yaml")
    proc = run_python("-m", "fedfair.cli", "--log-level", level, "grid", "--config", cfg.name,
                      "--output", "out", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stderr.splitlines() if "fairness row relaxed" in line]
    assert bool(lines) == relaxed, proc.stderr
    assert all(line.startswith("WARNING fedfair.engine: round ") for line in lines)


def test_entry_point_exit_code_reaches_the_shell(tmp_path):
    cfg = small_run_config(tmp_path, rounds=0)
    proc = run_python("-m", "fedfair.cli", "run", "--config", cfg.name, "--output", "",
                      cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "--output must name a directory" in proc.stderr
    assert os.listdir(tmp_path) == [cfg.name]


@pytest.mark.parametrize("level, relaxed", [("WARNING", True), ("ERROR", False)])
def test_log_level_applies_when_the_root_logger_has_a_handler(tmp_path, caplog, level, relaxed):
    # caplog's handler is on the root logger, so basicConfig alone does
    # nothing; tau 0 relaxes AgnosticFair's fairness row
    cfg = write_config(tmp_path, {
        "algorithm": "AgnosticFair", "dataset": {"n": 300},
        "hyper": {"rounds": 2, "local_epochs": 2, "num_bases": 4, "tau": 0.0},
    })
    package_log = logging.getLogger("fedfair")
    before = package_log.level
    try:
        with caplog.at_level(logging.WARNING):
            rc = cli.main(["--log-level", level, "run", "--config", str(cfg),
                           "--output", str(tmp_path / "out")])
    finally:
        package_log.setLevel(before)
    assert rc == 0
    warned = [r for r in caplog.records
              if r.name.startswith("fedfair") and r.levelno == logging.WARNING]
    assert bool(warned) == relaxed, caplog.text


@pytest.mark.parametrize("level", ["bogus", "warn ", ""])
def test_unknown_log_level_is_usage_error(tmp_path, capsys, level):
    cfg = small_run_config(tmp_path, rounds=0)
    with pytest.raises(SystemExit) as exc:
        cli.main(["--log-level", level, "run", "--config", str(cfg),
                  "--output", str(tmp_path / "out")])
    assert exc.value.code == 2 and "invalid choice" in capsys.readouterr().err


def test_log_level_is_case_insensitive(tmp_path, capsys):
    cfg = small_run_config(tmp_path, rounds=0)
    out = str(tmp_path / "out")
    assert cli.main(["--log-level", "warning", "run", "--config", str(cfg), "--output", out]) == 0
    assert "FL: test_acc=" in capsys.readouterr().out


def test_run_unknown_hyper_key_is_usage_error(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump({"hyper": {"rounds": 1, "bogus": 3}}))
    rc = cli.main(["run", "--config", str(path), "--output", str(tmp_path / "out")])
    assert rc == 2


def test_run_of_one_sensitive_group_exits_2_before_training(tmp_path, caplog, monkeypatch):
    # a CSV of men only has one sensitive group, so the train set's risk
    # difference is undefined: the data decides it, so no round runs; a
    # grid records the cell's failure
    csv_path, schema_path, cfg = write_census_inputs(tmp_path)
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows({**row, "gender": "male"} for row in rows)
    monkeypatch.setattr(engine.protocol, "init_protocol", lambda *args: pytest.fail("trained"))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--output", str(out)]) == 2
    assert "the train set holds sensitive group 1 alone" in caplog.text
    assert not out.exists()
    grid = write_config(tmp_path, {
        "algorithms": ["FL"], "hyper": {"rounds": 1},
        "dataset": {"kind": "csv", "path": str(csv_path), "schema": str(schema_path)},
    }, name="grid.yaml")
    assert cli.main(["grid", "--config", str(grid), "--output", str(out)]) == 1
    (row,) = yaml.safe_load((out / "summary.yaml").read_text())
    assert row["repetitions_failed"] == 1 and "train set holds" in row["errors"][0]


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


def test_run_more_clients_than_train_rows_is_usage_error(tmp_path, caplog):
    # a 50-row draw keeps 31 training rows, so 40 even clients leave
    # clients 31 to 39 without a row
    path = write_config(tmp_path, {
        "algorithm": "FL",
        "dataset": {"n": 50},
        "split": {"client_assignment": "even", "num_clients": 40},
    })
    rc = cli.main(["run", "--config", str(path), "--output", str(tmp_path / "out")])
    assert rc == 2 and "empty shard for client 31" in caplog.text


def test_run_deterministic_across_invocations(tmp_path):
    cfg = small_run_config(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(
            ["run", "--config", str(cfg), "--seed", "3", "--output", str(out)]
        ) == 0
        outs.append(yaml.safe_load((out / "result.yaml").read_text()))
    for record in outs:  # the one field that differs between runs
        assert record.pop("wall_s") > 0.0
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


BAD_GRID_VALUES = {
    "unknown_algorithm": {"algorithms": ["FL", "Bogus"]},
    "algorithms_not_a_list": {"algorithms": "FL"},
    "no_algorithms": {"algorithms": []},
    "zero_repetitions": {"repetitions": 0},
    "fractional_repetitions": {"repetitions": 1.5},
    "bool_repetitions": {"repetitions": True},
    "text_base_seed": {"base_seed": "abc"},
    "no_splits": {"splits": []},
    "splits_not_a_list": {"splits": "shift"},
    "split_not_a_mapping": {"splits": ["shift"]},
    "split_name_not_text": {"splits": [{"name": "a"}, {"name": 2}]},
    # repetition r runs at base_seed + r, whatever hyper says
    "hyper_seed": {"hyper": {"rounds": 1, "seed": 5}},
    # each (algorithm, split name) labels one summary row
    "repeated_algorithm": {"algorithms": ["FL", "FL"]},
    "repeated_split_name": {"splits": [{"name": "a"}, {"name": "a"}]},
    "two_unnamed_splits": {"splits": [{}, {"client_assignment": "even"}]},
}


@pytest.mark.parametrize("case", list(BAD_GRID_VALUES))
def test_grid_rejects_bad_values_before_training(tmp_path, monkeypatch, in_process_grid, case):
    monkeypatch.setattr(engine, "run", lambda *args: pytest.fail("the grid trained"))
    cfg = {"algorithms": ["FL"], "hyper": {"rounds": 1}, "dataset": {"n": 300}}
    path = write_config(tmp_path, {**cfg, **BAD_GRID_VALUES[case]}, "grid.yaml")
    out = tmp_path / "out"
    assert cli.main(["grid", "--config", str(path), "--output", str(out)]) == 2
    assert not (out / "summary.csv").exists()


def test_grid_checks_the_algorithms_it_runs_by_default(tmp_path, monkeypatch, in_process_grid):
    # experiment_grid checks the default it runs
    monkeypatch.setattr(engine, "run", lambda *args: pytest.fail("the grid trained"))
    monkeypatch.setattr(engine, "DEFAULT_ALGORITHMS", ["FL", "Bogus"])
    path = write_config(tmp_path, {"hyper": {"rounds": 1}, "dataset": {"n": 300}}, "grid.yaml")
    assert cli.main(["grid", "--config", str(path), "--output", str(tmp_path / "out")]) == 2


def test_grid_runs_the_default_algorithms_and_split(tmp_path, monkeypatch):
    cells = []

    def record(spec, train, test, shards):
        cells.append((spec.kind, len(shards)))
        raise ConfigError("recorded")

    monkeypatch.setattr(engine, "run", record)
    path = write_config(tmp_path, {"hyper": {"rounds": 1}, "dataset": {"n": 300}}, "grid.yaml")
    summary = engine.experiment_grid(engine.read_config(path, engine.GRID_KEYS))
    assert cells == [(kind, 2) for kind in engine.DEFAULT_ALGORITHMS]
    assert [row["split"] for row in summary] == ["shift"] * len(cells)


BAD_HYPER_VALUES = {
    "text_int": {"rounds": "abc"},
    "fractional_int": {"local_epochs": 2.5},
    "bool_int": {"seed": True},
    "text_float": {"tau": "small"},
    "bool_float": {"lambda": False},
    "empty_float": {"sigma": None},
    "negative_rounds": {"rounds": -3},
    "negative_local_epochs": {"local_epochs": -1},
    "negative_seed": {"seed": -1},
    "negative_lambda": {"lambda": -5},
    "negative_tau": {"tau": -1},
    "zero_num_bases": {"num_bases": 0},
    "zero_bound": {"bound": 0},
    "negative_sigma": {"sigma": -1.0},
    "zero_learning_rate": {"learning_rate": 0},
}


@pytest.mark.parametrize("command", ["run", "grid"])
@pytest.mark.parametrize("case", list(BAD_HYPER_VALUES))
def test_mistyped_hyper_value_is_usage_error(
    tmp_path, monkeypatch, in_process_grid, caplog, command, case
):
    monkeypatch.setattr(engine, "run", lambda *args: pytest.fail("trained"))
    path = write_config(tmp_path, {"hyper": BAD_HYPER_VALUES[case], "dataset": {"n": 300}})
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--output", str(out)]) == 2
    assert not (out / "result.yaml").exists() and not (out / "summary.csv").exists()
    (key,) = BAD_HYPER_VALUES[case]
    assert f"hyper {key} must be" in caplog.text  # the key as the config spells it


#: configs whose failure the config alone decides: no test rows, a
#: penalty lambda tau^2 that is infinite at the first fit's start, a float
#: hyper past the largest float, more rows than an array can hold, a
#: gradient penalty weight 2 lambda and a kernel 2 sigma^2 that overflow,
#: and a 2 sigma^2 that underflows to 0
DOOMED_CONFIGS = {
    "no_test_rows": {"split": {"train_fraction_group_a": 1.0, "train_fraction_group_b": 1.0}},
    "overflowing_penalty": {"hyper": {"tau": 1e300}},
    "infinite_tau": {"hyper": {"tau": float("inf")}},
    "int_lambda_past_float": {"hyper": {"lambda": 10**400}},
    "census_n_past_intp": {"dataset": {"n": 10**30}},
    "overflowing_gradient_weight": {"hyper": {"lambda": 1e308}},
    "vanishing_kernel_width": {"hyper": {"sigma": 5e-324}},
    "overflowing_kernel_width": {"hyper": {"sigma": 1e308}},
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", list(DOOMED_CONFIGS))
def test_config_decided_failure_exits_2_before_training(tmp_path, monkeypatch, case):
    monkeypatch.setattr(engine, "run", lambda *args: pytest.fail("trained"))
    path = write_config(tmp_path, {"dataset": {"n": 300}, **DOOMED_CONFIGS[case]})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--output", str(out)]) == 2
    assert not out.exists()


def test_more_bases_than_rows_exits_2_with_no_output_directory(tmp_path):
    # select_basis finds the shortfall inside engine.run, after the split
    cfg = {"hyper": {"num_bases": 400, "rounds": 1}, "dataset": {"n": 300}}
    out = tmp_path / "out"
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", str(path), "--output", str(out)]) == 2
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("clients", [2, 5])
def test_largest_learning_rate_trains_without_numpy_warnings(tmp_path, clients):
    # candidates overflow and are rejected, and an accepted step can leave
    # margins past the largest float, which read as +-inf; through
    # fit_local with two clients and fit_lockstep with five
    cfg = {
        "algorithm": "FL", "dataset": {"n": 30},
        "hyper": {"learning_rate": sys.float_info.max, "rounds": 2, "local_epochs": 2,
                  "num_bases": 2},
        "split": {"client_assignment": "even", "num_clients": clients},
    }
    out = tmp_path / "out"
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", str(path), "--output", str(out)]) == 0
    assert len((out / "rounds.csv").read_text().splitlines()) == 3


@pytest.mark.filterwarnings("error")
def test_non_finite_average_is_a_named_failure(tmp_path, caplog):
    # the four clients of ten rows accept steps to weights near the largest
    # float, whose mean overflows
    cfg = {
        "algorithm": "FL", "dataset": {"n": 10},
        "hyper": {"learning_rate": sys.float_info.max, "rounds": 1, "local_epochs": 1,
                  "num_bases": 1},
        "split": {"client_assignment": "even", "num_clients": 4},
    }
    out = tmp_path / "out"
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", str(path), "--output", str(out)]) == 1
    assert "round 0: non-finite average weights" in caplog.text
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sigma", [1e-154, 3e-155, 1e-160])
def test_tiny_sigma_zeroes_the_kernel_without_numpy_warnings(tmp_path, caplog, sigma):
    # every distance over 2 sigma^2 overflows to -inf, a kernel value of
    # exp(-inf) = 0, so no alpha meets the sum-to-one row
    cfg = {"dataset": {"n": 300}, "hyper": {"sigma": sigma, "rounds": 1, "num_bases": 20}}
    out = tmp_path / "out"
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", str(path), "--output", str(out)]) == 1
    assert "sum-to-one row" in caplog.text
    assert not out.exists()


def test_hyper_takes_integers_for_float_fields():
    hyper = engine.hyper_from_config({"hyper": {"lambda": 3, "tau": 0.1, "rounds": 4}})
    assert (hyper.lam, hyper.tau, hyper.rounds) == (3, 0.1, 4)


#: edge values of a float setting: zero, the least subnormal, a huge
#: float, the largest float and an integer past every float
EDGE = st.sampled_from([0, 5e-324, 1e308, sys.float_info.max, 10**400])
FLOAT_HYPERS = ("lambda", "tau", "bound", "sigma", "learning_rate")
FRACTIONS = ("train_fraction_group_a", "train_fraction_group_b")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    algorithm=st.sampled_from(engine.ALGORITHMS),
    edges=st.dictionaries(st.sampled_from(FLOAT_HYPERS + FRACTIONS), EDGE, max_size=3),
    work=st.fixed_dictionaries({
        "rounds": st.integers(0, 2), "local_epochs": st.integers(0, 3),
        "num_bases": st.integers(1, 4),
    }),
    n=st.sampled_from([1, 3, 10, 60, 150, 300]),
    clients=st.one_of(
        st.tuples(st.just("even"), st.integers(1, 5)), st.just(("by_group", 2)),
        st.just(("by_group", 3)),
    ),
)
def test_fuzzed_run_config_has_a_defined_outcome(
    tmp_path_factory, algorithm, edges, work, n, clients
):
    # up to three float settings at an edge and the rest at their defaults,
    # so that some runs train; the work settings stay small: a huge rounds
    # never ends, a huge n allocates
    tmp = tmp_path_factory.mktemp("fuzz")
    hyper = {k: v for k, v in edges.items() if k in FLOAT_HYPERS}
    split = {k: v for k, v in edges.items() if k in FRACTIONS}
    split.update(client_assignment=clients[0], num_clients=clients[1])
    cfg = {"algorithm": algorithm, "hyper": {**hyper, **work}, "dataset": {"n": n},
           "split": split}
    out = tmp / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["run", "--config", str(write_config(tmp, cfg)), "--output", str(out)])
    assert code in (0, 1, 2)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if code == 2:
        assert not out.exists()
    if code == 0:
        assert len((out / "rounds.csv").read_text().splitlines()) == 1 + work["rounds"]


#: numeric cells: zero, the least subnormals, huge floats and the largest
NUMERIC_CELLS = ("0", "1", "2.5", "5e-324", "-5e-324", "1e308", "-1e308",
                 repr(sys.float_info.max), repr(-sys.float_info.max))
#: the fuzzed schema's columns and their kinds, and the levels of each
#: column that is not numeric
CSV_COLUMNS = {"x": "numeric", "c": "categorical", "y": "label", "s": "sensitive"}
CSV_LEVELS = {"c": ("a", "b", "c", "d"), "y": ("0", "1", "2"), "s": ("f", "m", "x")}


@st.composite
def csv_dataset(draw):
    """A small CSV and its schema file, as bytes, and how a run splits
    its rows: drawn cells, damaged rows and header, and a split column of
    each kind whose group A may match no row."""
    n = draw(st.integers(1, 40))
    pools = {"x": tuple(draw(st.lists(st.sampled_from(NUMERIC_CELLS), min_size=1,
                                      max_size=3, unique=True)))}
    for name, levels in CSV_LEVELS.items():  # one, two or more values
        pools[name] = levels[: draw(st.integers(1, len(levels)))]
    rows = [[draw(st.sampled_from(pools[name])) for name in CSV_COLUMNS] for _ in range(n)]
    for k, damage in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                             st.sampled_from(["blank", "missing", "short"])),
                                   max_size=2)):
        if damage == "blank":
            rows[k] = []
        elif damage == "missing" and rows[k]:
            cell = draw(st.integers(0, len(rows[k]) - 1))
            rows[k][cell] = draw(st.sampled_from(data.MISSING_VALUES))
        else:
            rows[k] = rows[k][: draw(st.integers(1, 3))]
    header = list(CSV_COLUMNS) + draw(st.sampled_from([[]] * 4 + [["extra"], ["s"]]))
    # a whole row gets a cell for each added header name; a short row stays short
    rows = [row + ["e"] * (len(header) - 4) if len(row) == 4 else row for row in rows]
    text = "\n".join(",".join(row) for row in [header, *rows]) + "\n"

    column = draw(st.sampled_from(list(CSV_COLUMNS)))
    group_a = draw(st.sampled_from(pools[column] + ("absent",)))
    # a value that reads as a number is written mostly in its column's
    # kind, sometimes in the other: text for x, a YAML number for a level
    swapped = draw(st.sampled_from([False] * 3 + [True]))
    if group_a[-1].isdigit() and (column == "x") != swapped:
        group_a = int(group_a) if group_a.isdigit() else float(group_a)
    schema = yaml.safe_dump({
        "columns": [{"name": name, "kind": kind} for name, kind in CSV_COLUMNS.items()],
        "split": {"split_column": column, "group_a_values": [group_a]},
    }).encode()
    spoilt = draw(st.sampled_from([None] * 9 + ["csv", "schema", "not_yaml"]))
    csv_bytes = with_ff_byte(text.encode()) if spoilt == "csv" else text.encode()
    if spoilt == "schema":
        schema = with_ff_byte(schema)
    elif spoilt == "not_yaml":
        schema = b"columns: {a\n"
    split = draw(st.sampled_from([{}, {"client_assignment": "even", "num_clients": 1},
                                  {"client_assignment": "even", "num_clients": 3},
                                  {"train_fraction_group_a": 1.0}]))
    return csv_bytes, schema, split


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=csv_dataset(), algorithm=st.sampled_from(["FL", "AgnosticFair", "LocalFair"]))
def test_fuzzed_csv_dataset_has_a_defined_outcome(tmp_path_factory, case, algorithm):
    tmp = tmp_path_factory.mktemp("csvfuzz")
    csv_bytes, schema, split = case
    (tmp / "data.csv").write_bytes(csv_bytes)
    (tmp / "schema.yaml").write_bytes(schema)
    rounds = 2
    cfg = {"algorithm": algorithm,
           "hyper": {"rounds": rounds, "local_epochs": 2, "num_bases": 4},
           "dataset": {"kind": "csv", "path": str(tmp / "data.csv"),
                       "schema": str(tmp / "schema.yaml")},
           "split": split}
    out = tmp / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["run", "--config", str(write_config(tmp, cfg)), "--output", str(out)])
    assert code in (0, 1, 2)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if code == 2:
        assert not out.exists()
    if code == 0:
        assert len((out / "rounds.csv").read_text().splitlines()) == 1 + rounds
