import dataclasses
import logging
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfair import data, engine, kernels, logistic, protocol
from fedfair.errors import ConfigError

from oracles import encode_reference

SCHEMA = data.Schema(
    (
        data.ColumnSpec("age", "numeric"),
        data.ColumnSpec("job", "categorical"),
        data.ColumnSpec("gender", "sensitive"),
        data.ColumnSpec("income", "label"),
    )
)


def coded(schema, columns):
    """The RawTable of *columns*, arrays of values: each non-numeric one
    goes to coded_table with code i for row i, and is merged and sorted
    there."""
    return data.coded_table(schema, {
        c.name: columns[c.name] if c.kind == "numeric"
        else (columns[c.name], np.arange(len(columns[c.name])))
        for c in schema.columns
    })


def make_table(rows):
    """Columnar table from row dicts (floats for numeric columns)."""
    return coded(SCHEMA, {
        c.name: np.asarray(
            [r[c.name] for r in rows], dtype=float if c.kind == "numeric" else str
        )
        for c in SCHEMA.columns
    })


def row(age, job, gender, income):
    return {"age": age, "job": job, "gender": gender, "income": income}


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------


def test_schema_requires_exactly_one_label():
    with pytest.raises(ConfigError):
        data.Schema((data.ColumnSpec("a", "numeric"), data.ColumnSpec("s", "sensitive")))


def test_schema_requires_exactly_one_sensitive():
    with pytest.raises(ConfigError):
        data.Schema((data.ColumnSpec("a", "numeric"), data.ColumnSpec("y", "label")))


def test_schema_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        data.Schema(
            (
                data.ColumnSpec("a", "weird"),
                data.ColumnSpec("y", "label"),
                data.ColumnSpec("s", "sensitive"),
            )
        )


# ---------------------------------------------------------------------------
# load_csv
# ---------------------------------------------------------------------------


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_basic(tmp_path):
    p = write_csv(
        tmp_path / "d.csv",
        "age,job,gender,income\n30,clerk,male,high\n40,cook,female,low\n",
    )
    table = data.load_csv(p, SCHEMA)
    assert table.n == 2
    assert table.columns["age"].tolist() == [30.0, 40.0]
    assert table.values("job").tolist() == ["clerk", "cook"]


def test_load_csv_codes_each_column_over_its_sorted_values(tmp_path):
    p = write_csv(
        tmp_path / "d.csv",
        "age,job,gender,income\n1,cook,m,lo\n2,clerk,f,hi\n3,cook,f,lo\n4,baker,m,lo\n",
    )
    table = data.load_csv(p, SCHEMA)
    assert table.levels.keys() == {"job", "gender", "income"}
    # sorted, not in the order first read
    assert table.levels["job"].tolist() == ["baker", "clerk", "cook"]
    assert table.columns["job"].tolist() == [2, 1, 2, 0]
    assert table.values("gender").tolist() == ["m", "f", "f", "m"]


def test_load_csv_drops_incomplete_rows(tmp_path):
    p = write_csv(
        tmp_path / "d.csv",
        "age,job,gender,income\n30,clerk,male,high\n?,cook,female,low\n",
    )
    assert data.load_csv(p, SCHEMA).n == 1


def test_load_csv_missing_column(tmp_path):
    p = write_csv(tmp_path / "d.csv", "age,gender,income\n30,male,high\n")
    with pytest.raises(ConfigError):
        data.load_csv(p, SCHEMA)


def test_load_csv_names_a_column_the_header_names_twice(tmp_path):
    p = write_csv(tmp_path / "d.csv", "age,job,gender,income,age\n30,clerk,male,high,31\n")
    with pytest.raises(ConfigError, match="names column 'age' twice"):
        data.load_csv(p, SCHEMA)


def test_load_csv_bad_numeric_cites_line(tmp_path):
    p = write_csv(
        tmp_path / "d.csv",
        "age,job,gender,income\n30,clerk,male,high\nabc,cook,female,low\n",
    )
    with pytest.raises(ConfigError, match=f"^{re.escape(str(p))}: line 3: "):
        data.load_csv(p, SCHEMA)


def test_load_csv_non_finite_numeric_cites_line(tmp_path):
    p = write_csv(
        tmp_path / "d.csv",
        "age,job,gender,income\n30,clerk,male,high\nnan,cook,female,low\n",
    )
    with pytest.raises(ConfigError, match=f"^{re.escape(str(p))}: line 3: "):
        data.load_csv(p, SCHEMA)


@pytest.mark.parametrize("column", ["job", "gender", "income"])
def test_load_csv_refuses_a_nul_in_a_text_cell(tmp_path, column):
    # numpy's str dtype drops trailing NULs, which would code "cook\0"
    # and "cook" as one level
    cells = {"age": "31", "job": "cook", "gender": "female", "income": "low"}
    cells[column] += "\0"
    p = write_csv(tmp_path / "d.csv", "age,job,gender,income\n30,cook,female,low\n"
                  + ",".join(cells.values()) + "\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(p))}: line 3: column "
                                          f"'{column}': .* holds a NUL character"):
        data.load_csv(p, SCHEMA)


def test_load_csv_short_row_cites_line(tmp_path):
    p = write_csv(
        tmp_path / "d.csv",
        "age,job,gender,income\n30,clerk,male,high\n31,cook\n",
    )
    with pytest.raises(ConfigError, match=f"^{re.escape(str(p))}: line 3: "):
        data.load_csv(p, SCHEMA)


def test_load_csv_skips_blank_rows_but_counts_their_lines(tmp_path):
    head, *rows = ["age,job,gender,income", "30,clerk,male,high",
                   "40,cook,female,low", "50,clerk,male,low"]
    plain = write_csv(tmp_path / "plain.csv", "\n".join([head, *rows]) + "\n")
    spaced_lines = [head, rows[0], "", rows[1], "", "", rows[2], "", ""]
    spaced = write_csv(tmp_path / "spaced.csv", "\n".join(spaced_lines) + "\n")
    want, got = data.load_csv(plain, SCHEMA), data.load_csv(spaced, SCHEMA)
    assert got.schema == want.schema and got.columns.keys() == want.columns.keys()
    assert got.levels.keys() == want.levels.keys()
    for name, column in want.columns.items():
        assert column.dtype == got.columns[name].dtype
        assert column.tolist() == got.columns[name].tolist()
    for name, levels in want.levels.items():
        assert levels.dtype == got.levels[name].dtype
        assert levels.tolist() == got.levels[name].tolist()
    # a bad row after them cites its line of the file, blank lines counted
    for path, line in ((plain, 5), (spaced, 10)):
        path.write_text(path.read_text() + "abc,cook,female,low\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: line {line}: "):
            data.load_csv(path, SCHEMA)


def test_load_csv_cites_the_file_line_after_a_cell_that_spans_lines(tmp_path):
    p = write_csv(tmp_path / "d.csv", 'age,job,gender,income\n30,"cl\nerk",male,high\n'
                  "abc,cook,female,low\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(p))}: line 4: "):
        data.load_csv(p, SCHEMA)


def test_row_parse_error_survives_pickling(tmp_path):
    # a grid worker that raised it would send it back pickled
    p = write_csv(tmp_path / "d.csv", "age,job,gender,income\nabc,cook,female,low\n")
    with pytest.raises(ConfigError) as err:
        data.load_csv(p, SCHEMA)
    exc = pickle.loads(pickle.dumps(err.value))
    assert type(exc) is ConfigError
    assert str(exc) == str(err.value) == f"{p}: line 2: column 'age': 'abc' is not a finite number"


def test_load_csv_empty_file(tmp_path):
    p = write_csv(tmp_path / "d.csv", "")
    with pytest.raises(ConfigError):
        data.load_csv(p, SCHEMA)


def test_load_csv_header_only_is_schema_error(tmp_path):
    p = write_csv(tmp_path / "d.csv", "age,job,gender,income\n")
    with pytest.raises(ConfigError, match="no complete data rows"):
        data.load_csv(p, SCHEMA)


def test_load_csv_all_rows_incomplete_is_schema_error(tmp_path):
    p = write_csv(
        tmp_path / "d.csv",
        "age,job,gender,income\n?,clerk,male,high\n40,,female,low\n",
    )
    with pytest.raises(ConfigError, match="no complete data rows"):
        data.load_csv(p, SCHEMA)


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------


def test_encode_minmax_identity():
    table = make_table(
        [
            row(10, "a", "male", "high"),
            row(20, "a", "male", "high"),
            row(30, "a", "female", "low"),
        ]
    )
    ds = data.encode(table)
    age = ds.features[:, ds.feature_names.index("age")]
    assert np.allclose(age, [0.0, 0.5, 1.0])


def test_encode_one_hot_rows_sum_to_one():
    table = make_table(
        [
            row(1, "a", "male", "high"),
            row(2, "b", "female", "low"),
            row(3, "c", "male", "high"),
        ]
    )
    ds = data.encode(table)
    block = ds.features[:, [ds.feature_names.index(f"job={v}") for v in "abc"]]
    assert np.allclose(block.sum(axis=1), 1.0)
    # round-trip: one-hot block recovers the original category
    levels = ["a", "b", "c"]
    decoded = [levels[j] for j in block.argmax(axis=1)]
    assert decoded == table.values("job").tolist()


def test_encode_bias_column_last_and_all_ones():
    table = make_table([row(1, "a", "male", "high"), row(2, "a", "female", "low")])
    ds = data.encode(table)
    assert ds.feature_names[-1] == "__bias__"
    assert np.all(ds.features[:, -1] == 1.0)


def test_encode_excludes_sensitive_from_features():
    table = make_table([row(1, "a", "male", "high"), row(2, "a", "female", "low")])
    ds = data.encode(table)
    assert not any("gender" in name for name in ds.feature_names)
    assert set(ds.sensitive.tolist()) == {0, 1}


def test_encode_majority_value_maps_to_one():
    table = make_table(
        [
            row(1, "a", "male", "high"),
            row(2, "a", "male", "high"),
            row(3, "a", "female", "low"),
        ]
    )
    ds = data.encode(table)
    assert ds.labels.tolist() == [1, 1, 0]
    assert ds.sensitive.tolist() == [1, 1, 0]


def test_encode_majority_tie_goes_to_larger_value():
    table = make_table([row(1, "a", "male", "high"), row(2, "a", "female", "low")])
    ds = data.encode(table)
    assert ds.labels.tolist() == [0, 1]  # "low" > "high"
    assert ds.sensitive.tolist() == [1, 0]  # "male" > "female"


def test_encode_logs_a_label_or_sensitive_column_of_more_than_two_values(caplog):
    table = make_table([row(1, "a", "male", "high"), row(2, "a", "male", "mid"),
                        row(3, "a", "female", "low"), row(4, "a", "other", "high")])
    with caplog.at_level(logging.WARNING, logger="fedfair.data"):
        ds = data.encode(table)
    assert ds.labels.tolist() == [1, 0, 0, 1] and ds.sensitive.tolist() == [1, 1, 0, 0]
    assert [r.getMessage() for r in caplog.records] == [
        "column 'income' holds 3 values: 'high' maps to 1, the others to 0",
        "column 'gender' holds 3 values: 'male' maps to 1, the others to 0",
    ]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="fedfair.data"):
        data.encode(make_table([row(1, "a", "male", "high"), row(2, "a", "female", "low")]))
    assert not caplog.records


def test_encode_constant_numeric_warns_and_zeroes(caplog):
    table = make_table([row(5, "a", "male", "high"), row(5, "a", "female", "low")])
    with caplog.at_level(logging.WARNING, logger="fedfair.data"):
        ds = data.encode(table)
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("fedfair.data", logging.WARNING, "numeric column 'age' is constant; scaled to 0.0")
    ]
    assert np.all(ds.features[:, ds.feature_names.index("age")] == 0.0)


def test_encode_rejects_a_numeric_range_past_the_largest_float():
    table = make_table([row(-1e308, "a", "male", "high"), row(1e308, "b", "female", "low")])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from the scaling
        with pytest.raises(ConfigError, match="numeric column 'age' spans"):
            data.encode(table)


def with_job(job):
    """A two-row table whose job column holds the values *job*."""
    table = make_table([row(1, "a", "male", "high"), row(2, "b", "female", "low")])
    columns = {name: table.values(name) for name in table.columns}
    return coded(SCHEMA, {**columns, "job": job})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_encode_rejects_a_non_finite_categorical_value(bad):
    # a direct caller's float categorical column; load_csv gives strings
    with pytest.raises(ConfigError, match="'job'.*non-finite"):
        data.encode(with_job(np.array([1.0, bad])))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_encode_rejects_a_non_finite_value_in_an_object_column(bad):
    # a float among an object column's strings, as a direct caller may
    # give the levels (coded_table could not sort them)
    table = make_table([row(1, "a", "male", "high"), row(2, "b", "female", "low")])
    table.levels["job"] = np.array(["clerk", bad], dtype=object)
    with pytest.raises(ConfigError, match="'job'.*non-finite"):
        data.encode(table)


def test_encode_takes_a_finite_object_column():
    ds = data.encode(with_job(np.array(["cook", "clerk"], dtype=object)))
    assert ds.feature_names[1:3] == ["job=clerk", "job=cook"]
    assert ds.features[:, 1:3].tolist() == [[0.0, 1.0], [1.0, 0.0]]


PROPERTY_SCHEMA = data.Schema(
    (
        data.ColumnSpec("x", "numeric"),
        data.ColumnSpec("a", "categorical"),
        data.ColumnSpec("s", "sensitive"),
        data.ColumnSpec("one", "categorical"),
        data.ColumnSpec("b", "categorical"),
        data.ColumnSpec("y", "label"),
    )
)


@st.composite
def raw_tables(draw):
    """Tables of 1-40 rows, coded by coded_table from drawn (values,
    codes) pairs, and each column's values as drawn: categorical columns
    of 1-12 values in any order, not all of them used, a one-value column,
    a numeric column that may be constant, and label and sensitive columns
    that may tie exactly."""
    n = draw(st.integers(1, 40))
    text = st.text("abcXY=-9 ", min_size=1, max_size=4)

    def levels(k):
        return np.asarray(draw(st.lists(text, min_size=k, max_size=k, unique=True)))

    def categorical(most):
        k = draw(st.integers(1, most))
        return levels(k), np.asarray(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))

    def binary():
        if not draw(st.booleans()):
            return categorical(3)
        half = n // 2  # two values of half the rows each; a third for an odd row
        codes = [0] * half + [1] * half + [2] * (n - 2 * half)
        return levels(3), np.asarray(draw(st.permutations(codes)))

    floats = st.floats(-1e6, 1e6, allow_nan=False)
    x = draw(st.one_of(floats.map(lambda v: [v] * n), st.lists(floats, min_size=n, max_size=n)))
    columns = {
        "x": np.asarray(x, dtype=float),
        "a": categorical(12),
        "s": binary(),
        "one": (levels(1), np.zeros(n, dtype=np.uint8)),
        "b": categorical(12),
        "y": binary(),
    }
    values = {k: v if k == "x" else v[0][v[1]] for k, v in columns.items()}
    return data.coded_table(PROPERTY_SCHEMA, columns), values


@settings(max_examples=200, deadline=None)
@given(drawn=raw_tables())
def test_encode_equals_the_unique_reference(drawn):
    table, values = drawn
    for name, levels in table.levels.items():
        # sorted, distinct and each held by some row, and decoding to the draw
        assert levels.tolist() == sorted(set(values[name].tolist()))
        assert table.values(name).tolist() == values[name].tolist()
    ds = data.encode(table)
    features, labels, sensitive, names = encode_reference(table)
    for got, want in ((ds.features, features), (ds.labels, labels), (ds.sensitive, sensitive)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
    assert ds.feature_names == names


# ---------------------------------------------------------------------------
# shift_split
# ---------------------------------------------------------------------------


def make_split_table(n_a=10, n_b=10):
    rows = []
    for i in range(n_a):
        rows.append(row(i, "private", "male" if i % 2 else "female", "high" if i % 3 else "low"))
    for i in range(n_b):
        rows.append(row(100 + i, "other", "male" if i % 2 else "female", "low" if i % 3 else "high"))
    return make_table(rows)


def spec(fa=0.8, fb=0.2, assignment="by_group", clients=2):
    return data.ShiftSplitSpec(
        train_fraction_group_a=fa,
        train_fraction_group_b=fb,
        client_assignment=assignment,
        num_clients=clients,
    )


def split(table, sp, seed=0):
    """shift_split of *table* encoded, group A the rows whose job is private."""
    return data.shift_split(
        data.encode(table), data.group_a_rows(table, "job", {"private"}), sp, seed
    )


def test_shift_split_counts_by_group():
    train, test, shards = split(make_split_table(), spec())
    assert shards[0].n == 8 and shards[1].n == 2
    assert train.n == 10 and test.n == 10


def test_shift_split_leaves_split_keys_behind():
    # the split reads one group-A mask; no raw column travels with the rows
    table = make_split_table()
    mask_a = data.group_a_rows(table, "job", ["private"])
    assert mask_a.dtype == bool and np.array_equal(mask_a, table.values("job") == "private")
    train, test, _ = split(table, spec())
    encoded = [f.name for f in dataclasses.fields(data.EncodedDataset)]
    assert encoded == ["features", "labels", "sensitive", "feature_names"]
    assert all(vars(ds).keys() == set(encoded) for ds in (data.encode(table), train, test))


def test_shift_split_partition_no_overlap():
    # tag rows by the unique age value to track identity through the split
    train, test, shards = split(make_split_table(), spec())
    age_col = train.feature_names.index("age")
    train_ids = set(train.features[:, age_col].tolist())
    test_ids = set(test.features[:, age_col].tolist())
    assert not train_ids & test_ids
    shard_ids = [set(s.features[:, age_col].tolist()) for s in shards]
    assert shard_ids[0] | shard_ids[1] == train_ids
    assert not shard_ids[0] & shard_ids[1]


def test_shift_split_even_sizes_near_equal():
    _, _, shards = split(make_split_table(), spec(fa=0.8, fb=0.8, assignment="even"))
    assert abs(shards[0].n - shards[1].n) <= 1


def test_shift_split_deterministic():
    a = split(make_split_table(), spec(), seed=3)
    b = split(make_split_table(), spec(), seed=3)
    assert np.array_equal(a[0].features, b[0].features)
    assert np.array_equal(a[1].features, b[1].features)
    for sa, sb in zip(a[2], b[2]):
        assert np.array_equal(sa.features, sb.features)


def test_shift_split_empty_shard_errors():
    with pytest.raises(ConfigError):
        split(make_split_table(), spec(fb=0.0))


def test_shift_split_empty_group_a_errors():
    # an even split would otherwise train on group B's fraction alone,
    # with no shift
    with pytest.raises(ConfigError, match=r"'job' has no row with a value in \['privat'\]"):
        data.group_a_rows(make_split_table(), "job", frozenset({"privat"}))


def test_split_spec_validation():
    with pytest.raises(ConfigError):
        spec(fa=1.5)
    with pytest.raises(ConfigError):
        spec(assignment="weird")
    with pytest.raises(ConfigError):
        spec(assignment="by_group", clients=3)


@settings(max_examples=25, deadline=None)
@given(
    fa=st.floats(0.1, 0.9),
    fb=st.floats(0.1, 0.9),
    seed=st.integers(0, 1000),
)
def test_shift_split_partition_property(fa, fb, seed):
    train, test, shards = split(
        make_split_table(12, 8), spec(fa=fa, fb=fb, assignment="even", clients=2), seed
    )
    assert train.n + test.n == 20
    assert sum(s.n for s in shards) == train.n


def drawn_indices(table, sp, seed):
    """The shard and test row indices of *sp*'s draw at *seed*, taken from
    the census *table* directly: each shard's rows in the order the draw
    gives them."""
    column, group_a = engine.CENSUS_SHIFT
    mask_a = np.isin(table.values(column), list(group_a))
    idx_a, idx_b = np.flatnonzero(mask_a), np.flatnonzero(~mask_a)
    rng = np.random.default_rng(seed)
    take_a = int(round(sp.train_fraction_group_a * idx_a.size))
    take_b = int(round(sp.train_fraction_group_b * idx_b.size))
    perm_a, perm_b = rng.permutation(idx_a), rng.permutation(idx_b)
    train_a, train_b = np.sort(perm_a[:take_a]), np.sort(perm_b[:take_b])
    test_idx = np.sort(np.concatenate([perm_a[take_a:], perm_b[take_b:]]))
    if sp.client_assignment == "by_group":
        return [train_a, train_b], test_idx
    pooled = rng.permutation(np.concatenate([train_a, train_b]))
    return np.array_split(pooled, sp.num_clients), test_idx


@pytest.mark.parametrize("assignment, clients", [("by_group", 2), ("even", 20)])
def test_shift_split_shards_are_views_of_train(assignment, clients):
    """Each client assignment gives a train set that stacks the shards'
    rows in client order, each shard a view of its rows."""
    table = engine.generate_census_like(1500, 4)
    ds = data.encode(table)
    sp = data.ShiftSplitSpec(client_assignment=assignment, num_clients=clients)
    train, test, shards = data.shift_split(
        ds, data.group_a_rows(table, *engine.CENSUS_SHIFT), sp, 4
    )
    shard_idx, test_idx = drawn_indices(table, sp, 4)
    for name in ("features", "labels", "sensitive"):
        assert np.array_equal(getattr(test, name), getattr(ds, name)[test_idx])
    assert len(shards) == len(shard_idx) == clients
    assert [s.client_id for s in shards] == list(range(clients))
    starts = np.cumsum([0] + [s.n for s in shards[:-1]])
    assert np.array_equal(data.shard_starts(train, shards), starts)
    for name in ("features", "labels", "sensitive"):
        for shard, idx in zip(shards, shard_idx):
            assert np.shares_memory(getattr(shard, name), getattr(train, name))
            assert np.array_equal(getattr(shard, name), getattr(ds, name)[idx])
        stacked = np.concatenate([getattr(shard, name) for shard in shards])
        assert np.array_equal(stacked, getattr(train, name))


def init_runs(shards):
    """The (start, stop) of each run of clients that protocol.init_protocol
    lays out for *shards*, each of whose clients holds its run's stack."""
    cfg = protocol.ProtocolConfig(
        lam=2.0, tau=0.05, penalty_mode=protocol.PENALTY_NONE,
        opt=logistic.OptimizerSpec(learning_rate=0.1, epochs=200),
    )
    _, clients, _ = protocol.init_protocol(
        shards, kernels.constant_basis(shards[0].features.shape[1]), cfg
    )
    assert all(c.run is clients[k - c.slot].run for k, c in enumerate(clients))
    return [(k, k + len(c.run.kernels)) for k, c in enumerate(clients) if c.slot == 0]


@pytest.mark.parametrize("sizes, runs", [
    ((5,), [(0, 1)]),
    ((4, 4, 4), [(0, 3)]),
    ((1, 1, 7, 7, 7, 12), [(0, 2), (2, 5), (5, 6)]),
    ((3, 2, 3), [(0, 1), (1, 2), (2, 3)]),
])
def test_equal_size_runs_are_maximal_runs_of_equal_sizes(sizes, runs):
    # both sensitive groups in every case, so the stats round has them
    shards = [
        data.ClientShard(k, np.zeros((n, 2)), np.zeros(n, dtype=int), np.arange(n) % 2)
        for k, n in enumerate(sizes)
    ]
    assert init_runs(shards) == runs


def test_even_split_gives_at_most_two_runs():
    # np.array_split gives the first N mod p clients one extra row
    _, _, shards = engine.prepare_census(
        seed=0, split_kwargs={"client_assignment": "even", "num_clients": 7}
    )
    assert [s.n for s in shards] == [544] + [543] * 6
    assert init_runs(shards) == [(0, 1), (1, 7)]


# ---------------------------------------------------------------------------
# schema file loading
# ---------------------------------------------------------------------------


def test_load_schema_file(tmp_path):
    p = tmp_path / "schema.yaml"
    p.write_text(
        """
columns:
  - {name: age, kind: numeric}
  - {name: job, kind: categorical, split_key: true}  # an old key, ignored
  - {name: gender, kind: sensitive}
  - {name: income, kind: label}
split:
  split_column: job
  group_a_values: [private, self]
""",
        encoding="utf-8",
    )
    schema, column, group_a = data.load_schema_file(p)
    assert schema.label_column == "income"
    assert schema.columns[1] == data.ColumnSpec("job", "categorical")
    assert (column, group_a) == ("job", frozenset({"private", "self"}))


def split_schema_file(tmp_path, column, values):
    """A schema file over a numeric age and a categorical job column whose
    split section names *column* and the YAML list *values*."""
    p = tmp_path / "schema.yaml"
    p.write_text(
        f"""
columns:
  - {{name: age, kind: numeric}}
  - {{name: job, kind: categorical}}
  - {{name: gender, kind: sensitive}}
  - {{name: income, kind: label}}
split:
  split_column: {column}
  group_a_values: {values}
""",
        encoding="utf-8",
    )
    return p


@pytest.mark.parametrize("column, values, group_a", [
    ("job", "[1, 2.5, private]", {"1", "2.5", "private"}),  # text, as the cells read
    ("age", "[1, 2.5]", {1.0, 2.5}),  # finite floats, as the cells read
])
def test_load_schema_file_reads_group_a_in_the_split_columns_kind(
    tmp_path, column, values, group_a
):
    p = split_schema_file(tmp_path, column, values)
    assert data.load_schema_file(p)[1:] == (column, frozenset(group_a))
    raw = coded(data.load_schema_file(p)[0], {
        "age": np.array([1.0, 3.0]), "job": np.array(["1", "x"]),
        "gender": np.array(["f", "m"]), "income": np.array(["lo", "hi"]),
    })
    assert data.group_a_rows(raw, column, group_a).tolist() == [True, False]


@pytest.mark.parametrize("column, values", [
    ("age", "[0.1, x]"), ("age", "[.inf]"), ("age", "[.nan]"), ("age", "[true]"),
    ("job", "[false]"),
])
def test_load_schema_file_refuses_group_a_its_column_cannot_read(tmp_path, column, values):
    p = split_schema_file(tmp_path, column, values)
    with pytest.raises(ConfigError, match=f"group_a_values must be .* column '{column}', not"):
        data.load_schema_file(p)


def test_load_schema_file_names_the_split_settings_it_does_not_take(tmp_path):
    p = tmp_path / "schema.yaml"
    p.write_text(
        """
columns:
  - {name: job, kind: categorical}
  - {name: gender, kind: sensitive}
  - {name: income, kind: label}
split:
  split_column: job
  group_a_values: [private]
  train_fraction_group_a: 0.8
  num_clients: 2
""",
        encoding="utf-8",
    )
    with pytest.raises(ConfigError, match="unknown key.s. num_clients, train_fraction_group_a;"):
        data.load_schema_file(p)


def test_load_schema_file_rejects_garbage(tmp_path):
    p = tmp_path / "schema.yaml"
    p.write_text("- just\n- a list\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        data.load_schema_file(p)
