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
import warnings
from dataclasses import dataclass, field

import numpy as np
import yaml

from fedfair.errors import ConfigError, RowParseError, SchemaError

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
        kinds = [c.kind for c in self.columns]
        for k in kinds:
            if k not in COLUMN_KINDS:
                raise SchemaError(f"unknown column kind {k!r}")
        if kinds.count("label") != 1:
            raise SchemaError("schema must declare exactly one label column")
        if kinds.count("sensitive") != 1:
            raise SchemaError("schema must declare exactly one sensitive column")

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
    """How shift_split cuts a table: the split column and its group-A
    values, the seed, and the defaults of a config's split section."""

    split_column: str
    split_predicate: frozenset
    seed: int
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
        require_int("seed", self.seed, 0)
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
    aux: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    def subset(self, idx: np.ndarray) -> "EncodedDataset":
        """Rows *idx*, without ``aux``: the raw columns serve only the
        split, so its train and test sets do not copy them."""
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


def load_csv(path, schema: Schema) -> RawTable:
    """Parse a headered CSV against *schema*, dropping incomplete rows.

    Raises SchemaError if a declared column is absent from the header or
    no complete data row remains, and RowParseError (with the 1-based
    line number) on a row with fewer cells than the header or a numeric
    cell that is not a finite number.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        positions = {}
        for col in schema.columns:
            if col.name not in header:
                raise SchemaError(f"{path}: missing column {col.name!r}")
            positions[col.name] = header.index(col.name)

        values: dict[str, list] = {col.name: [] for col in schema.columns}
        kept = dropped = 0
        for lineno, raw in enumerate(reader, start=2):
            if not raw:
                continue
            if len(raw) < len(header):
                raise RowParseError(
                    lineno, f"{len(raw)} cells where the header has {len(header)}"
                )
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
                        raise RowParseError(
                            lineno, f"column {col.name!r}: {v!r} is not a finite number"
                        )
                    v = x
                values[col.name].append(v)
            kept += 1
    if not kept:
        raise SchemaError(f"{path}: no complete data rows")
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


def _majority_indicator(values: np.ndarray) -> np.ndarray:
    """1 where *values* holds its most frequent value, else 0; a tie goes
    to the larger ``str(value)``."""
    levels, masks = _level_masks(values)
    counts = [np.count_nonzero(m) for m in masks]
    top = max(range(levels.size), key=lambda j: (counts[j], str(levels[j])))
    return masks[top].astype(int)


def encode(raw: RawTable) -> EncodedDataset:
    """Encode *raw* with statistics taken from *raw* itself.

    Numeric columns are min-max scaled by their own min and max (a
    constant column becomes 0.0, with a warning); categorical columns are
    one-hot expanded over their sorted levels (SchemaError on a float or
    object one holding NaN or an infinity). Label and sensitive values
    are binary-mapped with the majority value mapped to 1. The sensitive
    column never enters the features, since the boundary distance is over
    non-sensitive attributes only. Every raw column is kept, by reference,
    in ``aux`` for shift_split to find its split column.
    """
    columns, names = [], []  # each feature's values, written once below
    for col in raw.schema.columns:
        vals = raw.columns[col.name]
        if col.kind == "numeric":
            lo, hi = vals.min(), vals.max()
            if lo == hi:
                warnings.warn(
                    f"numeric column {col.name!r} is constant; scaled to 0.0"
                )
            columns.append(0.0 if lo == hi else (vals - lo) / (hi - lo))
            names.append(col.name)
        elif col.kind == "categorical":
            # NaN != NaN; an object column compares each value, so a float
            # NaN or infinity among its strings is caught as well
            if vals.dtype.kind in "fO" and (
                (vals != vals) | (vals == np.inf) | (vals == -np.inf)
            ).any():
                raise SchemaError(f"categorical column {col.name!r} holds a non-finite value")
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
        labels=_majority_indicator(raw.columns[raw.schema.label_column]),
        sensitive=_majority_indicator(raw.columns[raw.schema.sensitive_column]),
        feature_names=names,
        aux=raw.columns,
    )


def shift_split(
    data: EncodedDataset, spec: ShiftSplitSpec
) -> tuple[EncodedDataset, EncodedDataset, list[ClientShard]]:
    """Split into train/test with engineered distribution shift and shard.

    The training set keeps ``train_fraction_group_a`` of the rows whose
    split column matches the predicate (group A) and
    ``train_fraction_group_b`` of the rest; the test set is the
    complement. Train and shards are laid out by cut_shards.
    Deterministic given the spec seed. Raises ConfigError when the split
    column is not a schema column, no row's value is in the predicate or
    no row is left for the test set.
    """
    if spec.split_column not in data.aux:
        raise ConfigError(f"split column {spec.split_column!r} is not a schema column")
    mask_a = np.isin(data.aux[spec.split_column], list(spec.split_predicate))
    if not mask_a.any():
        raise ConfigError(
            f"split column {spec.split_column!r} has no row with a value in "
            f"{sorted(spec.split_predicate, key=str)}"
        )
    idx_a = np.flatnonzero(mask_a)
    idx_b = np.flatnonzero(~mask_a)

    rng = np.random.default_rng(spec.seed)
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
    """Raise SchemaError naming *path* and the missing keys unless
    *section* is a mapping that holds every key in *keys*."""
    if missing := [k for k in keys if not isinstance(section, dict) or k not in section]:
        raise SchemaError(f"{path}: {where} lacks the key(s) {', '.join(missing)}")


def load_schema_file(path) -> tuple[Schema, str, frozenset]:
    """Read a YAML schema file: its columns, and the split column and
    group-A values that its ``split`` section names (how the rows are
    split is set by the config's split section). Raises SchemaError
    naming the file for a missing key, any other split key,
    ``group_a_values`` that is not a non-empty list of strings or
    numbers, and a ``split_column`` that is not one of the file's
    columns. A column entry's keys other than ``name`` and ``kind`` are
    ignored."""
    with open(path, encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("columns"), list):
        raise SchemaError(f"{path}: expected a mapping with a 'columns' list")
    for j, c in enumerate(doc["columns"]):
        _require(c, ("name", "kind"), path, f"columns[{j}]")
    schema = Schema(tuple(ColumnSpec(c["name"], c["kind"]) for c in doc["columns"]))
    split = doc.get("split")
    _require(split, ("split_column", "group_a_values"), path, "split")
    if moved := sorted(map(str, set(split) - {"split_column", "group_a_values"})):
        raise SchemaError(f"{path}: split: unknown key(s) {', '.join(moved)}; "
                          f"how rows are split is set by the config's split section")
    column, values = split["split_column"], split["group_a_values"]
    if not isinstance(values, list) or not values or not all(
        isinstance(v, (str, int, float)) for v in values
    ):
        raise SchemaError(f"{path}: split: group_a_values must be a non-empty list, "
                          f"not {values!r}")
    if column not in [c.name for c in schema.columns]:
        raise SchemaError(f"{path}: split: split_column {column!r} "
                          f"is not one of the file's columns")
    return schema, column, frozenset(values)
