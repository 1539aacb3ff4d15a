"""Training orchestration: algorithm variants, data, configs, experiment grid.

All algorithm variants run through the same client/server machinery and
differ only in the two switches of their VARIANTS entry, the basis kind
and the penalty mode, from which protocol derives the alpha LP.

LocalFair trains a global (averaged) model like the others, but its
reported metrics follow the protocol of recording the global classifier
when fairness is achieved on every client: the best round (by training
accuracy) whose per-client risk differences are all within the fairness
threshold, falling back to the least-unfair round when no round
qualifies. More clients means more simultaneous local constraints, so
the qualifying rounds sit earlier (less accurate) in training.
"""

from __future__ import annotations

import csv
import logging
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np
import yaml

from fedfair import fairness, kernels, logistic, protocol
from fedfair.data import (
    ClientShard,
    ColumnSpec,
    EncodedDataset,
    RawTable,
    Schema,
    ShiftSplitSpec,
    encode,
    group_a_rows,
    load_csv,
    load_schema_file,
    load_yaml,
    require_int,
    shard_starts,
    shift_split,
)
from fedfair.errors import ConfigError, FedFairError

log = logging.getLogger(__name__)


class Variant(NamedTuple):
    basis: str  # a kernels basis kind: CONSTANT, INDICATOR or GAUSSIAN
    penalty: str  # a protocol.PENALTY_* mode


#: each algorithm variant's switches; ALGORITHMS lists the variants
VARIANTS = {
    "FL": Variant(kernels.CONSTANT, protocol.PENALTY_NONE),
    "FairFL": Variant(kernels.CONSTANT, protocol.PENALTY_GLOBAL),
    "AFL": Variant(kernels.INDICATOR, protocol.PENALTY_NONE),
    "AgnosticFair": Variant(kernels.GAUSSIAN, protocol.PENALTY_GLOBAL),
    "AgnosticFair-a": Variant(kernels.GAUSSIAN, protocol.PENALTY_NONE),
    "AgnosticFair-b": Variant(kernels.GAUSSIAN, protocol.PENALTY_UNWEIGHTED),
    "LocalFair": Variant(kernels.CONSTANT, protocol.PENALTY_LOCAL),
}
ALGORITHMS = tuple(VARIANTS)


@dataclass(frozen=True)
class HyperParams:
    lam: float = 2.0
    tau: float = 0.05
    bound: float = 5.0
    sigma: float = 1.0
    num_bases: int = 200
    rounds: int = 300
    local_epochs: int = 20
    learning_rate: float = 1.0
    seed: int = 0

    def __post_init__(self):
        """ConfigError unless each integer field holds an integer and each
        float field a number (a bool is neither), each field lies in [0, the
        largest float], the scales num_bases, bound, sigma and learning_rate
        are > 0, and lambda tau^2, 2 lambda and 2 sigma^2 > 0 are finite."""
        for f in fields(self):
            value = getattr(self, f.name)
            key = "lambda" if f.name == "lam" else f.name  # as a config spells it
            integral = isinstance(f.default, int)
            if isinstance(value, bool) or not isinstance(value, int if integral else (int, float)):
                what = "an integer" if integral else "a number"
                raise ConfigError(f"hyper {key} must be {what}, not {value!r}")
            positive = f.name in ("num_bases", "bound", "sigma", "learning_rate")
            if not (value > 0 if positive else value >= 0) or value > sys.float_info.max:
                raise ConfigError(
                    f"hyper {key} must be finite and {'>' if positive else '>='} 0, "
                    f"not {value!r}"
                )
        # products, not tau ** 2, which raises OverflowError on a huge float
        if not math.isfinite(self.lam * self.tau * self.tau):
            raise ConfigError(f"hyper lambda {self.lam!r} * tau {self.tau!r}^2 overflows")
        if not math.isfinite(2.0 * self.lam):  # the gradient's penalty weight
            raise ConfigError(f"hyper lambda {self.lam!r}: 2 lambda overflows")
        if not 0.0 < 2.0 * self.sigma * self.sigma < math.inf:  # the kernel's 2 sigma^2
            raise ConfigError(f"hyper sigma {self.sigma!r}: 2 sigma^2 is not a positive float")


@dataclass(frozen=True)
class AlgorithmSpec:
    kind: str
    hyper: HyperParams = field(default_factory=HyperParams)

    def __post_init__(self):
        if self.kind not in ALGORITHMS:
            raise ConfigError(
                f"unknown algorithm {self.kind!r}; valid: {', '.join(ALGORITHMS)}"
            )


@dataclass
class RunResult:
    per_round: list[dict]
    final: dict
    alpha_final: np.ndarray
    w_final: np.ndarray


def _make_basis(spec: AlgorithmSpec, shards: list[ClientShard]) -> kernels.KernelBasis:
    h = spec.hyper
    dim = shards[0].features.shape[1]
    kind = VARIANTS[spec.kind].basis
    if kind == kernels.GAUSSIAN:
        return kernels.select_basis(
            shards, h.num_bases, seed=h.seed, sigma=h.sigma, bound=h.bound
        )
    if kind == kernels.INDICATOR:
        return kernels.client_weight_basis(shards)
    return kernels.constant_basis(dim)


def _protocol_config(spec: AlgorithmSpec) -> protocol.ProtocolConfig:
    h = spec.hyper
    return protocol.ProtocolConfig(
        lam=h.lam,
        tau=h.tau,
        penalty_mode=VARIANTS[spec.kind].penalty,
        opt=logistic.OptimizerSpec(
            learning_rate=h.learning_rate, epochs=h.local_epochs
        ),
    )


def _evaluate(w, train: EncodedDataset, test: EncodedDataset, starts) -> dict:
    """Accuracy and risk difference of w on train and test, and each
    client's risk difference (NaN on a client with one sensitive group)
    from the same train prediction, client k's rows starting at starts[k]."""
    train_pred = logistic.predict_label(w, train.features)
    test_pred = logistic.predict_label(w, test.features)
    per_client = fairness.client_risk_differences(train_pred, train.sensitive, starts)
    return {
        "train_acc": float((train_pred == train.labels).mean()),
        "test_acc": float((test_pred == test.labels).mean()),
        "train_rd": fairness.risk_difference(train_pred, train.sensitive),
        "test_rd": fairness.risk_difference(test_pred, test.sensitive),
        "per_client_rd": per_client.tolist(),
    }


#: per-client risk-difference bound defining "fairness achieved on every
#: client" for the LocalFair round-selection rule
LOCAL_FAIR_RD_MAX = 0.05


def _worst_client_rd(row: dict) -> float:
    """The largest defined per-client risk difference; 0.0 if none is."""
    return max((v for v in row["per_client_rd"] if not math.isnan(v)), default=0.0)


def _select_local_fair_round(per_round: list[dict]) -> dict:
    """Best round (by train accuracy) that is fair on all clients.

    A round qualifies when every client's local risk difference under
    the global model is within LOCAL_FAIR_RD_MAX; if no round qualifies
    the least-unfair round (smallest worst-client RD) is recorded. A
    client whose shard holds one sensitive group has no risk difference
    (NaN): it neither qualifies nor disqualifies a round, which is judged
    on the other clients alone, and a round with no defined client
    qualifies.
    """
    achieved = [r for r in per_round if _worst_client_rd(r) <= LOCAL_FAIR_RD_MAX]
    pool = achieved or [min(per_round, key=_worst_client_rd)]
    return max(pool, key=lambda r: r["train_acc"])


def run(
    spec: AlgorithmSpec,
    train: EncodedDataset,
    test: EncodedDataset,
    shards: list[ClientShard],
) -> RunResult:
    """Execute the full synchronous training loop and evaluate per round.

    *train* must hold exactly the shards' rows in client order, as
    cut_shards lays them out (ConfigError otherwise): each client's risk
    difference is taken from its rows of the train prediction. A train or
    test set that is empty or holds one sensitive group has no risk
    difference: ConfigError, before training."""
    starts = shard_starts(train, shards)
    for name, ds in (("train", train), ("test", test)):
        if ds.n == 0:
            raise ConfigError(f"the {name} set holds no row; its risk difference is undefined")
        if ds.sensitive.min() == ds.sensitive.max():
            raise ConfigError(f"the {name} set holds sensitive group {ds.sensitive[0]} alone; "
                              f"its risk difference is undefined")
    cfg = _protocol_config(spec)
    basis = _make_basis(spec, shards)
    server, clients, bc = protocol.init_protocol(shards, basis, cfg)

    per_round = []
    for t in range(spec.hyper.rounds):
        bundles = protocol.clients_round(clients, bc, cfg)
        alpha_old = bc.alpha
        bc = protocol.server_round(server, bundles, cfg)
        row = {"round": t + 1}
        row.update(_evaluate(bc.w_avg, train, test, starts))
        if server.last_lp is not None:
            psi_L = np.sum([b.psi_L for b in bundles], axis=0)
            row["lp_status"] = server.last_lp.status
            row["lp_slack"] = server.last_lp.slack_used
            row["adversary_loss_before"] = float(psi_L @ alpha_old)
            row["adversary_loss_after"] = server.last_lp.objective_value
            row["alpha_nnz"] = int(np.count_nonzero(bc.alpha))
            row["alpha_at_bound"] = int(np.count_nonzero(bc.alpha == basis.bound))
            row["alpha_move_l1"] = float(np.abs(bc.alpha - alpha_old).sum())
            if server.last_lp.status == protocol.lp.STATUS_RELAXED:
                log.warning(
                    "round %d: fairness row relaxed by %.3g",
                    t + 1,
                    server.last_lp.slack_used,
                )
        per_round.append(row)

    if not per_round:
        final_row = _evaluate(bc.w_avg, train, test, starts)
    elif cfg.penalty_mode == protocol.PENALTY_LOCAL:
        final_row = _select_local_fair_round(per_round)
    else:
        final_row = per_round[-1]
    keys = ("train_acc", "test_acc", "train_rd", "test_rd", "per_client_rd")
    final = {k: final_row[k] for k in keys}
    return RunResult(
        per_round=per_round,
        final=final,
        alpha_final=bc.alpha,
        w_final=bc.w_avg.copy(),
    )


CENSUS_SCHEMA = Schema(
    (
        ColumnSpec("skill", "numeric"),
        ColumnSpec("hours", "numeric"),
        ColumnSpec("education", "categorical"),
        ColumnSpec("occupation", "categorical"),
        ColumnSpec("schedule", "categorical"),
        ColumnSpec("pension", "categorical"),
        ColumnSpec("sector", "categorical"),
        ColumnSpec("gender", "sensitive"),
        ColumnSpec("income", "label"),
    )
)

#: rows in a census draw when a config or caller names no ``n``
CENSUS_N = 6000

_P_PRIVATE = 0.72
_P_MALE = 0.67  # in both sectors
_SKILL_SHIFT_OTHER = 0.15  # male skill-score inflation, other sector
_LATENT_PRIVATE = (0.58, 0.18)  # (mean, sd): skill varies (and matters)
_LATENT_OTHER = (0.38, 0.06)  # near-constant skill in the other sector
# hours vary in private too, but carry no private-sector signal; this
# keeps the hours direction well conditioned while the two sectors still
# disagree on its slope
_HOURS_PRIVATE = (0.45, 0.15)  # (mean, sd)
_HOURS_OTHER = (0.55, 0.18)  # hours vary (and matter) in other
_PRIVATE_COEF = (-14.0, 24.0)  # intercept, latent skill: skill-driven
_OTHER_COEF = (-11.2, 1.0, 20.0)  # intercept, latent skill, hours: hours-driven
# occupation effect on the other-sector logit (manual, service, clerical,
# technical): spreads the other-sector rule over more coordinates --
# including two rare categories -- so it takes a sizeable sample to
# estimate well
_OCC_COEF_OTHER = (-1.4, 1.4, -1.6, 1.8)
_LABEL_FLIP_OTHER = 0.2  # label flip probability, other sector
# enrollment rates control how far the sectors sit apart in kernel space
_PENSION_P_PRIVATE = 0.90
_PENSION_P_OTHER = 0.10
_EDU_LEVELS = ("basic", "highschool", "college", "bachelor", "advanced")
# bin edges bracket the private-sector decision threshold so the coarse
# credential alone supports an accurate (and unbiased) private-sector rule
_EDU_EDGES = (0.40, 0.52, 0.60, 0.68)
_OCC_LEVELS = ("manual", "service", "clerical", "technical")
# occupation mix per sector; mostly disjoint so sectors stay well
# separated in kernel space
_OCC_P_PRIVATE = (0.05, 0.05, 0.35, 0.55)
_OCC_P_OTHER = (0.50, 0.40, 0.05, 0.05)


def generate_census_like(n: int, seed: int) -> RawTable:
    """Sample a raw census-like table (float and string columns, pre-encoding).

    A generator standing in for restricted survey data: two sectors with
    different feature distributions and different sector-conditional
    label rules (so a single linear model is misspecified and sample
    reweighing matters), and a skill score that overstates men's ability
    in one sector (so the unconstrained fit is demographically unfair).
    """
    rng = np.random.default_rng(seed)
    private = rng.random(n) < _P_PRIVATE
    male = rng.random(n) < _P_MALE

    latent = np.where(
        private,
        rng.normal(*_LATENT_PRIVATE, n),
        rng.normal(*_LATENT_OTHER, n),
    )
    # the recorded skill score overstates men's ability (sector-dependent
    # measurement bias); labels are driven by the latent value
    skill = latent + _SKILL_SHIFT_OTHER * (male & ~private)
    hours = np.where(
        private,
        rng.normal(*_HOURS_PRIVATE, n),
        rng.normal(*_HOURS_OTHER, n),
    )
    occ_private = rng.choice(len(_OCC_LEVELS), size=n, p=_OCC_P_PRIVATE)
    occ_other = rng.choice(len(_OCC_LEVELS), size=n, p=_OCC_P_OTHER)
    occ_idx = np.where(private, occ_private, occ_other)
    c0p, c1p = _PRIVATE_COEF
    c0o, c1o, c2o = _OTHER_COEF
    occ_term = np.asarray(_OCC_COEF_OTHER)[occ_idx]
    logit = np.where(
        private,
        c0p + c1p * latent,
        c0o + c1o * latent + c2o * hours + occ_term,
    )
    y = rng.random(n) < 1.0 / (1.0 + np.exp(-logit))
    # uniform label flips keep the optimal decision boundary intact but
    # put a floor under the sector's log-loss
    flips = (~private) & (rng.random(n) < _LABEL_FLIP_OTHER)
    y = np.where(flips, ~y, y)

    edu_latent = latent + rng.normal(0.0, 0.06, n)
    edu_idx = np.clip(
        np.digitize(edu_latent, _EDU_EDGES), 0, len(_EDU_LEVELS) - 1
    )
    regular = np.where(private, rng.random(n) < 0.92, rng.random(n) < 0.08)
    pension = np.where(
        private,
        rng.random(n) < _PENSION_P_PRIVATE,
        rng.random(n) < _PENSION_P_OTHER,
    )
    # a two-valued column is gathered from its (False, True) level pair,
    # which takes half the time of np.where over strings
    columns = {
        "skill": skill,
        "hours": hours,
        "education": np.asarray(_EDU_LEVELS)[edu_idx],
        "occupation": np.asarray(_OCC_LEVELS)[occ_idx],
        "schedule": np.asarray(("flexible", "regular"))[regular.view(np.uint8)],
        "pension": np.asarray(("none", "enrolled"))[pension.view(np.uint8)],
        "sector": np.asarray(("other", "private"))[private.view(np.uint8)],
        "gender": np.asarray(("female", "male"))[male.view(np.uint8)],
        "income": np.asarray(("low", "high"))[y.view(np.uint8)],
    }
    return RawTable(schema=CENSUS_SCHEMA, columns=columns)


def write_census_csv(path, table: RawTable) -> None:
    names = [c.name for c in table.schema.columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(names)
        # .tolist() hands csv Python floats, which it writes by repr
        w.writerows(zip(*(table.columns[k].tolist() for k in names)))


#: the census's shift column and its group-A values
CENSUS_SHIFT = ("sector", frozenset({"private"}))


def prepare_census(seed: int, n: int = CENSUS_N, split_kwargs: dict | None = None):
    """Generate, encode and split a census-like dataset in one call."""
    table = generate_census_like(n, seed)
    ds = encode(table)
    mask_a = group_a_rows(table, *CENSUS_SHIFT)
    return shift_split(ds, mask_a, ShiftSplitSpec(**(split_kwargs or {})), seed)


# ---------------------------------------------------------------------------
# configs and the experiment grid
# ---------------------------------------------------------------------------


_SPLIT_KEYS = tuple(f.name for f in fields(ShiftSplitSpec))

#: top-level keys of a ``fedfair run`` and a ``fedfair grid`` config
RUN_KEYS = ("algorithm", "hyper", "dataset", "split")
GRID_KEYS = ("algorithms", "splits", "repetitions", "base_seed", "hyper", "dataset")

#: ``dataset`` keys of each dataset kind
_DATASET_KEYS = {"census": ("kind", "n"), "csv": ("kind", "path", "schema")}

#: what a grid runs when its config has no ``algorithms`` key
DEFAULT_ALGORITHMS = ["FL", "AgnosticFair"]


def _check_keys(section: str, given, known) -> None:
    if not isinstance(given, dict):
        raise ConfigError(f"{section} must be a mapping, not {type(given).__name__}")
    if unknown := set(given) - set(known):
        raise ConfigError(f"unknown {section} key(s): {', '.join(sorted(unknown))}")


def read_config(path, keys) -> dict:
    """The mapping in the YAML file at *path*, its top-level key names
    checked against *keys* (RUN_KEYS or GRID_KEYS). Raises ConfigError
    for a file that is not valid YAML, an empty file, a document that is
    not a mapping and an unknown key; the sections' values are checked by
    the readers that use them (hyper_from_config, AlgorithmSpec,
    data_from_config and experiment_grid)."""
    config = load_yaml(path, ConfigError)
    if config is None:
        raise ConfigError(f"{path}: empty config")
    _check_keys("config", config, keys)
    return config


def hyper_from_config(config: dict, **overrides) -> HyperParams:
    """HyperParams from a config's ``hyper`` section, which may spell
    ``lam`` as ``lambda``; *overrides* that are not None take precedence.
    Raises ConfigError on an unknown key and on a value HyperParams
    rejects."""
    hyper_cfg = config.get("hyper") or {}
    _check_keys("hyper", hyper_cfg, ("lambda", *(f.name for f in fields(HyperParams))))
    hyper_cfg = dict(hyper_cfg)
    if "lambda" in hyper_cfg:
        hyper_cfg["lam"] = hyper_cfg.pop("lambda")
    hyper_cfg.update((k, v) for k, v in overrides.items() if v is not None)
    return HyperParams(**hyper_cfg)


def _check_data_keys(data_cfg: dict, split_cfg: dict) -> None:
    """Check a ``dataset`` section and one split against the keys
    data_from_config reads, a census ``n`` (an integer >= 1), the split's
    ``name`` (a string) and its values, by building a spec from them."""
    kind = data_cfg.get("kind", "census") if isinstance(data_cfg, dict) else "census"
    if kind not in ("census", "csv"):
        raise ConfigError(f"unknown dataset kind {kind!r}; valid: census, csv")
    _check_keys("dataset", data_cfg, _DATASET_KEYS[kind])
    _check_keys("split", split_cfg, ("name", *_SPLIT_KEYS))
    if not isinstance(name := split_cfg.get("name", ""), str):
        raise ConfigError(f"split name must be a string, not {name!r}")
    ShiftSplitSpec(**_split_kwargs(split_cfg))
    if kind == "csv":
        if missing := {"path", "schema"} - set(data_cfg):
            raise ConfigError(f"csv dataset needs key(s): {', '.join(sorted(missing))}")
    else:
        require_int("dataset n", n := data_cfg.get("n", CENSUS_N), 1)
        if n > np.iinfo(np.intp).max:
            raise ConfigError(f"dataset n {n} is more rows than an array can hold")


def _split_kwargs(split_cfg: dict) -> dict:
    """The ShiftSplitSpec arguments that a split section sets."""
    return {k: split_cfg[k] for k in _SPLIT_KEYS if k in split_cfg}


def _read_dataset(data_cfg: dict):
    """The rows a checked ``dataset`` section names, before any split: for
    ``kind: csv``, ``path`` parsed against the schema file ``schema``,
    encoded, and the group_a_rows mask of that file's split column and
    group-A values; for a census (the default), its ``n``, since each
    seed draws its own rows."""
    if data_cfg.get("kind") == "csv":
        schema, column, group_a = load_schema_file(data_cfg["schema"])
        raw = load_csv(data_cfg["path"], schema)
        return encode(raw), group_a_rows(raw, column, group_a)
    return data_cfg.get("n", CENSUS_N)


def _split(dataset, split_cfg: dict, seed: int):
    """*dataset*, as _read_dataset gives it, split by *split_cfg* at *seed*."""
    if isinstance(dataset, int):
        return prepare_census(seed=seed, n=dataset, split_kwargs=_split_kwargs(split_cfg))
    encoded, mask_a = dataset
    return shift_split(encoded, mask_a, ShiftSplitSpec(**_split_kwargs(split_cfg)), seed)


def data_from_config(data_cfg: dict, split_cfg: dict, seed: int):
    """The (train, test, shards) that a config's ``dataset`` section and
    one of its splits describe, split at *seed*."""
    _check_data_keys(data_cfg, split_cfg)
    return _split(_read_dataset(data_cfg), split_cfg, seed)


def _grid_job(algorithms: list, hyper: HyperParams, dataset, split_cfg: dict, seed: int):
    """One (split, repetition) of a grid: *dataset* split once at *seed*,
    and every algorithm run on it; no run writes to its data. For each
    algorithm, its ``final`` and engine.run seconds, or the text of the
    FedFairError it raised and None."""
    try:
        data = _split(dataset, split_cfg, seed)
    except ConfigError as exc:  # no data: every algorithm fails
        return [(str(exc), None)] * len(algorithms)
    results = []
    for algorithm in algorithms:
        try:
            spec = AlgorithmSpec(kind=algorithm, hyper=replace(hyper, seed=seed))
            start = time.perf_counter()
            results.append((run(spec, *data).final, time.perf_counter() - start))
        except FedFairError as exc:
            results.append((str(exc), None))
    return results


def _log_to(queue, level: int) -> None:
    """Send a grid worker's log records at *level* and above to *queue*."""
    from logging.handlers import QueueHandler  # imported here, as the pool is

    root = logging.getLogger()
    root.setLevel(level)
    root.handlers = [QueueHandler(queue)]


def experiment_grid(config: dict, output_dir=None) -> list[dict]:
    """Run every (algorithm, split) cell, averaging over repetitions.

    Repetition r uses seed base_seed + r. Each (split, repetition) is one
    _grid_job, run in a pool of at most one spawned process per core (in
    this process for one) whose log records reach this process's
    handlers; the summary is built in job order. Before any job starts,
    ConfigError is raised for an empty or non-list ``algorithms`` or
    ``splits``, an unknown algorithm, a ``repetitions`` or ``base_seed``
    that is not an integer >= 1 or >= 0, a ``hyper`` section that
    hyper_from_config rejects or that sets a seed, a split that
    _check_data_keys rejects, and an algorithm or split name (``unnamed``
    when none is given) listed twice; then a CSV dataset is parsed, once,
    and its empty group A rejected. Failures that only a split or a run
    shows are recorded per cell and the grid continues.
    """
    algorithms = config.get("algorithms", DEFAULT_ALGORITHMS)
    splits = config.get("splits", [{"name": "shift"}])
    for key, listed in (("algorithms", algorithms), ("splits", splits)):
        if not isinstance(listed, list) or not listed:
            raise ConfigError(f"{key} must be a non-empty list, not {listed!r}")
    for kind in algorithms:
        AlgorithmSpec(kind=kind)  # ConfigError on an unknown name
    reps, base_seed = config.get("repetitions", 1), config.get("base_seed", 0)
    require_int("repetitions", reps, 1)
    require_int("base_seed", base_seed, 0)
    hyper = hyper_from_config(config)
    if "seed" in (config.get("hyper") or {}):
        raise ConfigError("a grid's hyper sets no seed: repetition r runs at base_seed + r")
    data_cfg = config.get("dataset") or {}
    for split_cfg in splits:
        _check_data_keys(data_cfg, split_cfg)
    names = [split_cfg.get("name", "unnamed") for split_cfg in splits]
    for key, listed in (("algorithm", algorithms), ("split name", names)):
        if repeated := sorted({x for x in listed if listed.count(x) > 1}):
            raise ConfigError(f"{key} {', '.join(map(repr, repeated))} listed twice or more; "
                              f"each (algorithm, split name) labels one summary row")
    dataset = _read_dataset(data_cfg)
    if output_dir is not None:
        os.makedirs(output_dir, exist_ok=True)

    jobs = [(algorithms, hyper, dataset, split_cfg, base_seed + r)
            for split_cfg in splits for r in range(reps)]
    workers = min(os.cpu_count() or 1, len(jobs))
    if workers == 1:
        results = list(map(_grid_job, *zip(*jobs)))
    else:
        # imported here, not at the top: they add about 1 MB to the peak
        # memory of every process that imports engine, a bench run's too
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from logging.handlers import QueueListener

        context = multiprocessing.get_context("spawn")  # a fork would copy threads' locks
        queue = context.Queue()
        handlers = logging.getLogger().handlers or [logging.lastResort]
        listener = QueueListener(queue, *handlers, respect_handler_level=True)
        listener.start()
        try:
            with ProcessPoolExecutor(workers, mp_context=context, initializer=_log_to,
                                     initargs=(queue, log.getEffectiveLevel())) as pool:
                results = list(pool.map(_grid_job, *zip(*jobs)))
        finally:
            listener.stop()

    summary = []
    for k, algorithm in enumerate(algorithms):
        for i, name in enumerate(names):
            row = {"algorithm": algorithm, "split": name}
            outcomes = [results[i * reps + r][k] for r in range(reps)]
            finals = [final for final, s in outcomes if s is not None]
            errors = [text for text, s in outcomes if s is None]
            for r, (text, s) in enumerate(outcomes):
                if s is None:
                    log.error("cell (%s, %s) rep %d failed: %s", algorithm, name, r, text)
            row.update(repetitions_ok=len(finals), repetitions_failed=len(errors))
            if finals:
                for key in ("train_acc", "test_acc", "train_rd", "test_rd"):
                    row[key] = float(np.mean([f[key] for f in finals]))
                row["test_acc_sd"] = float(np.std([f["test_acc"] for f in finals]))
                row["run_s"] = sum(s for _, s in outcomes if s is not None)
            if errors:
                row["errors"] = errors
            summary.append(row)

    if output_dir is not None:
        _write_summary(output_dir, summary)
    return summary


def _write_summary(output_dir, summary: list[dict]) -> None:
    cols = ["algorithm", "split", "repetitions_ok", "repetitions_failed",
            "train_acc", "test_acc", "test_acc_sd", "train_rd", "test_rd", "run_s"]
    with open(os.path.join(output_dir, "summary.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for row in summary:
            w.writerow([row.get(c, "") for c in cols])
    with open(os.path.join(output_dir, "summary.yaml"), "w") as fh:
        yaml.safe_dump(summary, fh, sort_keys=False)


def write_round_csv(path, result: RunResult) -> None:
    """Per-round metric CSV: one column per key of a ``per_round`` row, in
    the row's order, and last one column per client for its risk
    difference (empty where the client has one sensitive group). A run
    of 0 rounds writes the header alone, its columns those of ``final``."""
    first = result.per_round[0] if result.per_round else {"round": None, **result.final}
    base_cols = [c for c in first if c != "per_client_rd"]
    client_cols = [f"client{k}_rd" for k in range(len(result.final["per_client_rd"]))]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(base_cols + client_cols)
        for row in result.per_round:
            w.writerow(
                [row[c] for c in base_cols]
                + ["" if math.isnan(v) else f"{v:.6f}" for v in row["per_client_rd"]]
            )
