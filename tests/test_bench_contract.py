"""The benchmark's hold on the program: every name it wraps exists, the
calls it intercepts keep the positional shapes its wrappers assume, and
the calls bench/run.py makes by keyword still take those keywords and
values.

bench/tracing.py times a run by replacing module attributes for the
length of the run; a renamed function would break the benchmark, and a
changed call shape would break its wrappers. The module is loaded from
its file and left as it is.
"""

import importlib.util
import inspect
import pathlib
from dataclasses import replace

import pytest

from fedfair import engine, lp, protocol

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists(tracing):
    wrapped = [*tracing.TIMED.values(), *tracing.COUNTED.values()]
    wrapped += [(module, name) for module, name, _ in tracing.RunObserver().hooks()]
    missing = [f"{m.__name__}.{n}" for m, n in wrapped if not callable(getattr(m, n, None))]
    assert missing == []


@pytest.mark.parametrize("function, args", [
    (protocol.init_protocol, ("shards", "basis", "cfg")),
    (protocol.server_round, ("state", "bundles", "cfg")),
    (lp.solve, ("problem",)),
    (engine.run, ("spec", "train", "test", "shards")),
])
def test_intercepted_calls_take_positional_arguments(function, args):
    inspect.signature(function).bind(*args)  # TypeError if the shape changed


@pytest.mark.parametrize("function, kwargs", [
    (engine.prepare_census, ("seed", "n", "split_kwargs")),
    (engine.AlgorithmSpec, ("kind", "hyper")),
])
def test_bench_calls_take_keyword_arguments(function, kwargs):
    inspect.signature(function).bind(**dict.fromkeys(kwargs))


@pytest.mark.parametrize("rounds", [0, 300])
@pytest.mark.parametrize("seed", [0, 2**32 - 1])  # bench/run.py draws uint32 seeds
def test_bench_hyper_params_are_valid(rounds, seed):
    hyper = replace(engine.HyperParams(), rounds=rounds, seed=seed)
    assert engine.AlgorithmSpec(kind="AgnosticFair", hyper=hyper).hyper == hyper


def test_prepare_census_calls_each_data_span_once(tracing, monkeypatch):
    """The benchmark's data spans time the engine attributes that
    prepare_census calls; a call that bypasses them reads zero."""
    data_spans = {span: target for span, target in tracing.TIMED.items()
                  if span.startswith("data.")}
    assert [name for _, name in data_spans.values()] == [
        "generate_census_like", "encode", "shift_split"
    ]
    calls = dict.fromkeys(data_spans, 0)

    def counted(span, original):
        def wrapper(*args, **kwargs):
            calls[span] += 1
            return original(*args, **kwargs)

        return wrapper

    for span, (module, name) in data_spans.items():
        monkeypatch.setattr(module, name, counted(span, getattr(module, name)))
    engine.prepare_census(seed=0, n=300)
    assert calls == dict.fromkeys(data_spans, 1)
