import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfair import data, engine, kernels, protocol
from fedfair.errors import ConfigError, RowParseError, SchemaError

from oracles import encode_reference

SCHEMA = data.Schema(
    (
        data.ColumnSpec("age", "numeric"),
        data.ColumnSpec("job", "categorical"),
        data.ColumnSpec("gender", "sensitive"),
        data.ColumnSpec("income", "label"),
    )
)


def make_table(rows):
    """Columnar table from row dicts (floats for numeric columns)."""
    columns = {
        c.name: np.asarray(
            [r[c.name] for r in rows], dtype=float if c.kind == "numeric" else str
        )
        for c in SCHEMA.columns
    }
    return data.RawTable(schema=SCHEMA, columns=columns)


def row(age, job, gender, income):
    return {"age": age, "job": job, "gender": gender, "income": income}


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------


def test_schema_requires_exactly_one_label():
    with pytest.raises(SchemaError):
        data.Schema((data.ColumnSpec("a", "numeric"), data.ColumnSpec("s", "sensitive")))


def test_schema_requires_exactly_one_sensitive():
    with pytest.raises(SchemaError):
        data.Schema((data.ColumnSpec("a", "numeric"), data.ColumnSpec("y", "label")))


def test_schema_rejects_unknown_kind():
    with pytest.raises(SchemaError):
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
    assert table.columns["job"].tolist() == ["clerk", "cook"]


def test_load_csv_drops_incomplete_rows(tmp_path):
    p = write_csv(
        tmp_path / "d.csv",
        "age,job,gender,income\n30,clerk,male,high\n?,cook,female,low\n",
    )
    assert data.load_csv(p, SCHEMA).n == 1


def test_load_csv_missing_column(tmp_path):
    p = write_csv(tmp_path / "d.csv", "age,gender,income\n30,male,high\n")
    with pytest.raises(SchemaError):
        data.load_csv(p, SCHEMA)


def test_load_csv_bad_numeric_cites_line(tmp_path):
    p = write_csv(
        tmp_path / "d.csv",
        "age,job,gender,income\n30,clerk,male,high\nabc,cook,female,low\n",
    )
    with pytest.raises(RowParseError) as err:
        data.load_csv(p, SCHEMA)
    assert err.value.line_number == 3


def test_load_csv_non_finite_numeric_cites_line(tmp_path):
    p = write_csv(
        tmp_path / "d.csv",
        "age,job,gender,income\n30,clerk,male,high\nnan,cook,female,low\n",
    )
    with pytest.raises(RowParseError) as err:
        data.load_csv(p, SCHEMA)
    assert err.value.line_number == 3


def test_load_csv_short_row_cites_line(tmp_path):
    p = write_csv(
        tmp_path / "d.csv",
        "age,job,gender,income\n30,clerk,male,high\n31,cook\n",
    )
    with pytest.raises(RowParseError) as err:
        data.load_csv(p, SCHEMA)
    assert err.value.line_number == 3


def test_load_csv_empty_file(tmp_path):
    p = write_csv(tmp_path / "d.csv", "")
    with pytest.raises(SchemaError):
        data.load_csv(p, SCHEMA)


def test_load_csv_header_only_is_schema_error(tmp_path):
    p = write_csv(tmp_path / "d.csv", "age,job,gender,income\n")
    with pytest.raises(SchemaError, match="no complete data rows"):
        data.load_csv(p, SCHEMA)


def test_load_csv_all_rows_incomplete_is_schema_error(tmp_path):
    p = write_csv(
        tmp_path / "d.csv",
        "age,job,gender,income\n?,clerk,male,high\n40,,female,low\n",
    )
    with pytest.raises(SchemaError, match="no complete data rows"):
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
    assert decoded == table.columns["job"].tolist()


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


def test_encode_constant_numeric_warns_and_zeroes():
    table = make_table([row(5, "a", "male", "high"), row(5, "a", "female", "low")])
    with pytest.warns(UserWarning):
        ds = data.encode(table)
    assert np.all(ds.features[:, ds.feature_names.index("age")] == 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_encode_rejects_a_non_finite_categorical_value(bad):
    # a direct caller's float categorical column; load_csv gives strings
    table = make_table([row(1, "a", "male", "high"), row(2, "b", "female", "low")])
    table.columns["job"] = np.array([1.0, bad])
    with pytest.raises(SchemaError, match="'job'.*non-finite"):
        data.encode(table)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_encode_rejects_a_non_finite_value_in_an_object_column(bad):
    # a float among an object column's strings: NaN would otherwise become
    # a level of its own that no row holds
    table = make_table([row(1, "a", "male", "high"), row(2, "b", "female", "low")])
    table.columns["job"] = np.array(["clerk", bad], dtype=object)
    with pytest.raises(SchemaError, match="'job'.*non-finite"):
        data.encode(table)


def test_encode_takes_a_finite_object_column():
    table = make_table([row(1, "a", "male", "high"), row(2, "b", "female", "low")])
    table.columns["job"] = np.array(["clerk", "cook"], dtype=object)
    ds = data.encode(table)
    assert {"job=clerk", "job=cook"} <= set(ds.feature_names)


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
    """Tables of 1-40 rows: categorical columns of 1-12 levels, first seen
    in any order, a one-level column, a numeric column that may be
    constant, and label and sensitive columns that may tie exactly."""
    n = draw(st.integers(1, 40))
    text = st.text("abcXY=-9 ", min_size=1, max_size=4)

    def levels(k):
        return np.asarray(draw(st.lists(text, min_size=k, max_size=k, unique=True)))

    def categorical(most):
        k = draw(st.integers(1, most))
        return levels(k)[draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))]

    def binary():
        if not draw(st.booleans()):
            return categorical(3)
        half = n // 2  # two levels of half the rows each; a third for an odd row
        codes = [0] * half + [1] * half + [2] * (n - 2 * half)
        return levels(3)[draw(st.permutations(codes))]

    floats = st.floats(-1e6, 1e6, allow_nan=False)
    x = draw(st.one_of(floats.map(lambda v: [v] * n), st.lists(floats, min_size=n, max_size=n)))
    columns = {
        "x": np.asarray(x, dtype=float),
        "a": categorical(12),
        "s": binary(),
        "one": levels(1)[np.zeros(n, dtype=int)],
        "b": categorical(12),
        "y": binary(),
    }
    return data.RawTable(schema=PROPERTY_SCHEMA, columns=columns)


@pytest.mark.filterwarnings("ignore:numeric column")
@settings(max_examples=200, deadline=None)
@given(table=raw_tables())
def test_encode_equals_the_unique_reference(table):
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


def spec(fa=0.8, fb=0.2, assignment="by_group", clients=2, seed=0):
    return data.ShiftSplitSpec(
        split_column="job",
        split_predicate=frozenset({"private"}),
        train_fraction_group_a=fa,
        train_fraction_group_b=fb,
        client_assignment=assignment,
        num_clients=clients,
        seed=seed,
    )


def test_shift_split_counts_by_group():
    ds = data.encode(make_split_table())
    train, test, shards = data.shift_split(ds, spec())
    assert shards[0].n == 8 and shards[1].n == 2
    assert train.n == 10 and test.n == 10


def test_shift_split_leaves_split_keys_behind():
    table = make_split_table()
    ds = data.encode(table)
    train, test, _ = data.shift_split(ds, spec())
    # encode keeps every raw column, uncopied, for the split to find
    assert all(ds.aux[name] is table.columns[name] for name in table.columns)
    assert train.aux == {} and test.aux == {}


def test_shift_split_partition_no_overlap():
    ds = data.encode(make_split_table())
    # tag rows by the unique age value to track identity through the split
    age_col = ds.feature_names.index("age")
    train, test, shards = data.shift_split(ds, spec())
    train_ids = set(train.features[:, age_col].tolist())
    test_ids = set(test.features[:, age_col].tolist())
    assert not train_ids & test_ids
    shard_ids = [set(s.features[:, age_col].tolist()) for s in shards]
    assert shard_ids[0] | shard_ids[1] == train_ids
    assert not shard_ids[0] & shard_ids[1]


def test_shift_split_even_sizes_near_equal():
    ds = data.encode(make_split_table())
    _, _, shards = data.shift_split(ds, spec(fa=0.8, fb=0.8, assignment="even"))
    assert abs(shards[0].n - shards[1].n) <= 1


def test_shift_split_deterministic():
    ds = data.encode(make_split_table())
    a = data.shift_split(ds, spec(seed=3))
    b = data.shift_split(ds, spec(seed=3))
    assert np.array_equal(a[0].features, b[0].features)
    assert np.array_equal(a[1].features, b[1].features)
    for sa, sb in zip(a[2], b[2]):
        assert np.array_equal(sa.features, sb.features)


def test_shift_split_empty_shard_errors():
    ds = data.encode(make_split_table())
    with pytest.raises(ConfigError):
        data.shift_split(ds, spec(fb=0.0))


def test_shift_split_unknown_split_column_errors():
    ds = data.encode(make_split_table())
    bad = dataclasses.replace(spec(), split_column="sector")
    with pytest.raises(ConfigError, match="'sector' is not a schema column"):
        data.shift_split(ds, bad)


def test_shift_split_empty_group_a_errors():
    # an even split would otherwise train on group B's fraction alone,
    # with no shift
    ds = data.encode(make_split_table())
    bad = dataclasses.replace(spec(assignment="even"), split_predicate=frozenset({"privat"}))
    with pytest.raises(ConfigError, match=r"'job' has no row with a value in \['privat'\]"):
        data.shift_split(ds, bad)


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
    ds = data.encode(make_split_table(12, 8))
    train, test, shards = data.shift_split(
        ds, spec(fa=fa, fb=fb, assignment="even", clients=2, seed=seed)
    )
    assert train.n + test.n == ds.n
    assert sum(s.n for s in shards) == train.n


def drawn_indices(ds, sp):
    """The shard and test row indices of *sp*'s draw, taken from *ds*
    directly: each shard's rows in the order the draw gives them."""
    mask_a = np.isin(ds.aux[sp.split_column], list(sp.split_predicate))
    idx_a, idx_b = np.flatnonzero(mask_a), np.flatnonzero(~mask_a)
    rng = np.random.default_rng(sp.seed)
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
    ds = data.encode(engine.generate_census_like(1500, 4))
    sp = data.ShiftSplitSpec(
        *engine.CENSUS_SHIFT, 4, client_assignment=assignment, num_clients=clients
    )
    train, test, shards = data.shift_split(ds, sp)
    shard_idx, test_idx = drawn_indices(ds, sp)
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
    _, clients, _ = protocol.init_protocol(
        shards, kernels.constant_basis(shards[0].features.shape[1]), protocol.ProtocolConfig()
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
    with pytest.raises(SchemaError, match="unknown key.s. num_clients, train_fraction_group_a;"):
        data.load_schema_file(p)


def test_load_schema_file_rejects_garbage(tmp_path):
    p = tmp_path / "schema.yaml"
    p.write_text("- just\n- a list\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        data.load_schema_file(p)
