"""Tabular data loading, encoding, shift splitting and client sharding.

The loader is schema generic: any CSV with one declared label column and
one declared sensitive column works. Raw tables are stored by column, one
array per schema column. A table is encoded once, before the split, in
one pass: categorical columns are one-hot expanded, numeric columns are
min-max scaled to [0, 1], and a constant bias column is appended as the
last feature. The encoded data is then cut into train, test and client
shards. A run's training rows are held once: ``train`` stacks the
shards' rows in client order and each shard is a view of its rows
(cut_shards), the layout that shard_starts checks. How the shards group
into runs of equal-sized clients is protocol.init_protocol's concern.
"""

from __future__ import annotations

import csv
import logging
import math
import sys
from dataclasses import dataclass

import numpy as np
import yaml

from fedfair.errors import ConfigError

log = logging.getLogger(__name__)

COLUMN_KINDS = ("numeric", "categorical", "label", "sensitive")

#: Cell values treated as missing; rows containing them are dropped at load.
MISSING_VALUES = ("", "?", "NA")


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str


@dataclass(frozen=True)
class Schema:
    columns: tuple[ColumnSpec, ...]

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if bad := [n for n in names if not isinstance(n, str)]:
            raise ConfigError(f"column names must be text, not {bad!r}")
        if twice := [n for n in names if names.count(n) > 1]:
            raise ConfigError(f"the schema names column {twice[0]!r} twice")
        kinds = [c.kind for c in self.columns]
        for k in kinds:
            if k not in COLUMN_KINDS:
                raise ConfigError(f"unknown column kind {k!r}")
        if kinds.count("label") != 1:
            raise ConfigError("schema must declare exactly one label column")
        if kinds.count("sensitive") != 1:
            raise ConfigError("schema must declare exactly one sensitive column")

    @property
    def label_column(self) -> str:
        return next(c.name for c in self.columns if c.kind == "label")

    @property
    def sensitive_column(self) -> str:
        return next(c.name for c in self.columns if c.kind == "sensitive")


@dataclass
class RawTable:
    """A table stored by column: one equal-length array per schema column
    (floats for numeric columns, strings for the others)."""

    schema: Schema
    columns: dict[str, np.ndarray]

    @property
    def n(self) -> int:
        return len(self.columns[self.schema.columns[0].name])


def require_int(name: str, value, least: int) -> None:
    """Raise ConfigError unless *value* is an integer >= *least* (a bool
    is not an integer)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, not {value!r}")


@dataclass(frozen=True)
class ShiftSplitSpec:
    """How shift_split cuts a table: a config's split section, with its
    defaults."""

    train_fraction_group_a: float = 0.8
    train_fraction_group_b: float = 0.2
    client_assignment: str = "by_group"  # "by_group" | "even"
    num_clients: int = 2

    def __post_init__(self):
        for f in (self.train_fraction_group_a, self.train_fraction_group_b):
            if isinstance(f, bool) or not isinstance(f, (int, float)):
                raise ConfigError(f"train fraction must be a number, not {f!r}")
            if not 0.0 <= f <= 1.0:
                raise ConfigError(f"train fraction {f} outside [0, 1]")
        require_int("num_clients", self.num_clients, 1)
        if self.client_assignment not in ("by_group", "even"):
            raise ConfigError(
                f"unknown client_assignment {self.client_assignment!r}"
            )
        if self.client_assignment == "by_group" and self.num_clients != 2:
            raise ConfigError("by_group assignment requires exactly 2 clients")


@dataclass
class EncodedDataset:
    """Feature matrix with bias column last, plus binary label/sensitive."""

    features: np.ndarray  # (n, d+1), last column all ones
    labels: np.ndarray  # (n,) in {0, 1}
    sensitive: np.ndarray  # (n,) in {0, 1}
    feature_names: list[str]

    @property
    def n(self) -> int:
        return self.features.shape[0]

    def subset(self, idx: np.ndarray) -> "EncodedDataset":
        """Rows *idx*."""
        return EncodedDataset(
            features=self.features[idx],
            labels=self.labels[idx],
            sensitive=self.sensitive[idx],
            feature_names=self.feature_names,
        )


@dataclass
class ClientShard:
    """One client's rows."""

    client_id: int
    features: np.ndarray
    labels: np.ndarray
    sensitive: np.ndarray

    @property
    def n(self) -> int:
        return self.features.shape[0]


def _utf8_lines(fh, path):
    """The lines of the text file *fh*, opened from *path*; ConfigError
    naming *path* on bytes that are not UTF-8."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None


def load_yaml(path):
    """The document of the YAML file at *path*; ConfigError naming the file
    when it is not valid YAML, which includes bytes that are not UTF-8."""
    with open(path, "rb") as fh:  # bytes, so that yaml reports a decode error
        try:
            return yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not valid YAML: {exc}") from None


def load_csv(path, schema: Schema) -> RawTable:
    """Parse a headered CSV against *schema*, dropping incomplete rows.

    Raises ConfigError naming *path* if the file is not UTF-8 text, a
    declared column is absent from the header or named in it twice, or no
    complete data row remains, and naming *path* and the 1-based line on a
    row with fewer cells than the header or a numeric cell that is not a
    finite number.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(_utf8_lines(fh, path))
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ConfigError(f"{path}: empty file") from None
        positions = {}
        for col in schema.columns:
            if col.name not in header:
                raise ConfigError(f"{path}: missing column {col.name!r}")
            if header.count(col.name) > 1:
                raise ConfigError(f"{path}: the header names column {col.name!r} twice")
            positions[col.name] = header.index(col.name)

        values: dict[str, list] = {col.name: [] for col in schema.columns}
        kept = dropped = 0
        for raw in reader:  # line_num, not a count of records: a cell can span lines
            if not raw:
                continue
            if len(raw) < len(header):
                raise ConfigError(f"{path}: line {reader.line_num}: "
                                  f"{len(raw)} cells where the header has {len(header)}")
            cells = [raw[positions[col.name]].strip() for col in schema.columns]
            if any(v in MISSING_VALUES for v in cells):
                dropped += 1
                continue
            for col, v in zip(schema.columns, cells):
                if col.kind == "numeric":
                    try:
                        x = float(v)
                    except ValueError:
                        x = math.nan
                    # float() also accepts "nan" and "inf", which would
                    # poison the column's min-max scaling
                    if not math.isfinite(x):
                        raise ConfigError(f"{path}: line {reader.line_num}: "
                                          f"column {col.name!r}: {v!r} is not a finite number")
                    v = x
                values[col.name].append(v)
            kept += 1
    if not kept:
        raise ConfigError(f"{path}: no complete data rows")
    log.info("loaded %d rows from %s (%d dropped as incomplete)", kept, path, dropped)
    columns = {
        col.name: np.asarray(
            values[col.name], dtype=float if col.kind == "numeric" else str
        )
        for col in schema.columns
    }
    return RawTable(schema=schema, columns=columns)


def _level_masks(values: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The distinct values of *values*, sorted, and for each the mask of
    the rows that hold it. Each pass takes the first row left and masks
    its value's rows, so the cost is O(levels * n) with no sort of n
    values; that row leaves even when its value does not equal itself
    (NaN), so the loop ends."""
    levels, masks = [], []
    left = np.ones(values.shape, dtype=bool)
    while left.any():
        i = left.argmax()
        levels.append(values[i])
        masks.append(values == values[i])
        left &= ~masks[-1]
        left[i] = False
    levels = np.asarray(levels, dtype=values.dtype)
    order = np.argsort(levels)
    return levels[order], [masks[j] for j in order]


def _majority_indicator(raw: RawTable, name: str) -> np.ndarray:
    """1 where column *name* of *raw* holds its most frequent value, else
    0; a tie goes to the larger ``str(value)``. A column of more than two
    values is binarized the same way, with a logged warning."""
    levels, masks = _level_masks(raw.columns[name])
    counts = [np.count_nonzero(m) for m in masks]
    top = max(range(levels.size), key=lambda j: (counts[j], str(levels[j])))
    if levels.size > 2:
        log.warning("column %r holds %d values: %r maps to 1, the others to 0",
                    name, levels.size, str(levels[top]))
    return masks[top].astype(int)


def encode(raw: RawTable) -> EncodedDataset:
    """Encode *raw* with statistics taken from *raw* itself.

    Numeric columns are min-max scaled by their own min and max (a
    constant column becomes 0.0, with a logged warning; ConfigError on one
    whose max - min is not a finite float); categorical columns are
    one-hot expanded over their sorted levels (ConfigError on a float or
    object one holding NaN or an infinity). Label and sensitive values
    are binary-mapped with the majority value mapped to 1. The sensitive
    column never enters the features, since the boundary distance is over
    non-sensitive attributes only.
    """
    columns, names = [], []  # each feature's values, written once below
    for col in raw.schema.columns:
        vals = raw.columns[col.name]
        if col.kind == "numeric":
            lo, hi = vals.min(), vals.max()
            # a Python float's difference overflows to inf with no warning
            if not math.isfinite(float(hi) - float(lo)):
                raise ConfigError(f"numeric column {col.name!r} spans {lo} to {hi}, "
                                  f"a range that is not a finite float")
            if lo == hi:
                log.warning("numeric column %r is constant; scaled to 0.0", col.name)
            columns.append(0.0 if lo == hi else (vals - lo) / (hi - lo))
            names.append(col.name)
        elif col.kind == "categorical":
            # NaN != NaN; an object column compares each value, so a float
            # NaN or infinity among its strings is caught as well
            if vals.dtype.kind in "fO" and (
                (vals != vals) | (vals == np.inf) | (vals == -np.inf)
            ).any():
                raise ConfigError(f"categorical column {col.name!r} holds a non-finite value")
            levels, masks = _level_masks(vals)
            columns.extend(masks)
            names.extend(f"{col.name}={v}" for v in levels)
    columns.append(1.0)
    names.append("__bias__")
    features = np.empty((raw.n, len(columns)))
    for j, values in enumerate(columns):
        features[:, j] = values
    return EncodedDataset(
        features=features,
        labels=_majority_indicator(raw, raw.schema.label_column),
        sensitive=_majority_indicator(raw, raw.schema.sensitive_column),
        feature_names=names,
    )


def group_a_rows(raw: RawTable, column: str, values) -> np.ndarray:
    """The bool mask of the rows of *raw* whose *column* holds one of
    *values*: a shift split's group A. Raises ConfigError when no row
    does, as an even split would then train with no shift."""
    mask_a = np.isin(raw.columns[column], list(values))
    if not mask_a.any():
        raise ConfigError(
            f"split column {column!r} has no row with a value in {sorted(values, key=str)}"
        )
    return mask_a


def shift_split(
    data: EncodedDataset, mask_a: np.ndarray, spec: ShiftSplitSpec, seed: int
) -> tuple[EncodedDataset, EncodedDataset, list[ClientShard]]:
    """Split into train/test with engineered distribution shift and shard.

    The training set keeps ``train_fraction_group_a`` of the rows that
    *mask_a* marks (group A, as group_a_rows finds it) and
    ``train_fraction_group_b`` of the rest; the test set is the
    complement. Train and shards are laid out by cut_shards.
    Deterministic given *seed*. Raises ConfigError when no row is left
    for the test set.
    """
    idx_a = np.flatnonzero(mask_a)
    idx_b = np.flatnonzero(~mask_a)

    rng = np.random.default_rng(seed)
    take_a = int(round(spec.train_fraction_group_a * idx_a.size))
    take_b = int(round(spec.train_fraction_group_b * idx_b.size))
    perm_a = rng.permutation(idx_a)
    perm_b = rng.permutation(idx_b)
    train_a = np.sort(perm_a[:take_a])
    train_b = np.sort(perm_b[:take_b])
    test_idx = np.sort(np.concatenate([perm_a[take_a:], perm_b[take_b:]]))
    if not test_idx.size:
        raise ConfigError("the split's train fractions leave no row for the test set")

    if spec.client_assignment == "by_group":
        shard_indices = [train_a, train_b]
    else:
        pooled = rng.permutation(np.concatenate([train_a, train_b]))
        shard_indices = np.array_split(pooled, spec.num_clients)

    train, shards = cut_shards(data, shard_indices)
    return train, data.subset(test_idx), shards


def cut_shards(
    data: EncodedDataset, shard_indices: list[np.ndarray]
) -> tuple[EncodedDataset, list[ClientShard]]:
    """The training set of a run and its client shards: ``train`` holds
    rows *shard_indices* of *data* stacked client by client, and client
    k's shard is a view of its contiguous rows of ``train``. Raises
    ConfigError on an empty shard."""
    for k, idx in enumerate(shard_indices):
        if len(idx) == 0:
            raise ConfigError(f"empty shard for client {k}")
    train = data.subset(np.concatenate(shard_indices))
    bounds = np.cumsum([0] + [len(idx) for idx in shard_indices])
    shards = [
        ClientShard(
            client_id=k,
            features=train.features[lo:hi],
            labels=train.labels[lo:hi],
            sensitive=train.sensitive[lo:hi],
        )
        for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
    ]
    return train, shards


def shard_starts(train: EncodedDataset, shards: list[ClientShard]) -> np.ndarray:
    """The row of *train* where each client's rows start. Raises
    ConfigError unless *train* holds exactly the shards' rows stacked in
    client order, as cut_shards lays them out; checked by value."""
    counts = np.array([s.n for s in shards], dtype=int)
    starts = np.cumsum(counts) - counts
    if counts.sum() != train.n or not all(
        np.array_equal(getattr(s, a), getattr(train, a)[lo : lo + s.n])
        for s, lo in zip(shards, starts)
        for a in ("features", "labels", "sensitive")
    ):
        raise ConfigError("train must hold exactly the shards' rows, in client order")
    return starts


def _require(section, keys, path, where: str) -> None:
    """Raise ConfigError naming *path* and the missing keys unless
    *section* is a mapping that holds every key in *keys*."""
    if missing := [k for k in keys if not isinstance(section, dict) or k not in section]:
        raise ConfigError(f"{path}: {where} lacks the key(s) {', '.join(missing)}")


def load_schema_file(path) -> tuple[Schema, str, frozenset]:
    """Read a YAML schema file: its columns, and the split column and
    group-A values that its ``split`` section names (how the rows are
    split is set by the config's split section), read in the split
    column's kind (_group_a_value). Raises ConfigError naming the file
    for a file that is not valid YAML, a missing key, columns that Schema
    refuses, any other split key, ``group_a_values`` that is not a
    non-empty list of strings or numbers, a ``split_column`` that is not
    one of the file's columns, and a group-A value that its kind does not
    read. A column entry's
    keys other than ``name`` and ``kind`` are ignored."""
    doc = load_yaml(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("columns"), list):
        raise ConfigError(f"{path}: expected a mapping with a 'columns' list")
    for j, c in enumerate(doc["columns"]):
        _require(c, ("name", "kind"), path, f"columns[{j}]")
    try:
        schema = Schema(tuple(ColumnSpec(c["name"], c["kind"]) for c in doc["columns"]))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    split = doc.get("split")
    _require(split, ("split_column", "group_a_values"), path, "split")
    if moved := sorted(map(str, set(split) - {"split_column", "group_a_values"})):
        raise ConfigError(f"{path}: split: unknown key(s) {', '.join(moved)}; "
                          f"how rows are split is set by the config's split section")
    column, values = split["split_column"], split["group_a_values"]
    if not isinstance(values, list) or not values or not all(
        isinstance(v, (str, int, float)) for v in values
    ):
        raise ConfigError(f"{path}: split: group_a_values must be a non-empty list, "
                          f"not {values!r}")
    kinds = {c.name: c.kind for c in schema.columns}
    if not isinstance(column, str) or column not in kinds:  # a list is unhashable
        raise ConfigError(f"{path}: split: split_column {column!r} "
                          f"is not one of the file's columns")
    numeric = kinds[column] == "numeric"
    read = [_group_a_value(v, numeric) for v in values]
    if bad := [v for v, x in zip(values, read) if x is None]:
        raise ConfigError(f"{path}: split: group_a_values must be "
                          f"{'finite numbers' if numeric else 'text or numbers'} for the "
                          f"{kinds[column]} column {column!r}, not {bad!r}")
    return schema, column, frozenset(read)


def _group_a_value(v, numeric: bool):
    """A group-A value read in its split column's kind: a finite float for
    a numeric column, text for any other; None for a value of neither, a
    YAML bool among them."""
    if isinstance(v, bool) or numeric and isinstance(v, str):
        return None
    if not numeric:
        return str(v)
    return float(v) if abs(v) <= sys.float_info.max else None  # False for nan
