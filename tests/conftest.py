import itertools
import os

# One BLAS/OpenMP thread, as the benchmark runs: the acceptance figures then
# do not depend on the machine's core count. Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

from fedfair import logistic
from fedfair.data import ClientShard


def make_shard(features, labels, sensitive, client_id=0):
    """Build a ClientShard from plain lists, appending a bias column."""
    x = np.asarray(features, dtype=float)
    x = np.hstack([x, np.ones((x.shape[0], 1))])
    return ClientShard(
        client_id=client_id,
        features=x,
        labels=np.asarray(labels, dtype=int),
        sensitive=np.asarray(sensitive, dtype=int),
    )


def random_shard(rng, n, d, client_id=0):
    return ClientShard(
        client_id=client_id,
        features=np.hstack([rng.normal(size=(n, d)), np.ones((n, 1))]),
        labels=rng.integers(0, 2, size=n),
        sensitive=rng.integers(0, 2, size=n),
    )


def run_stacks(shards):
    """Each run of consecutive equal-sized shards' signed_xt stacked
    (g, d+1, n), in shard order: the stacks fit_lockstep takes."""
    return [
        np.stack([logistic.signed_xt(s) for s in run])
        for _, run in itertools.groupby(shards, key=lambda s: s.n)
    ]


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def in_process_grid(monkeypatch):
    """One core, as os.cpu_count reports it, so experiment_grid runs its
    jobs in this process, where a test's patches of engine and protocol
    hold: a pool's spawned workers import them afresh."""
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
