"""Wrappers that time and count calls into fedfair's public functions.

Spans are recorded from the benchmark's side of each call; the program
itself carries no timers. A wrapper replaces a module attribute for the
length of a ``with`` block. fedfair's modules call one another through
module attributes (``kernels.theta``, ``lp.solve``) or through names looked
up in their own module (``local_objective`` inside ``logistic``), so
replacing the attribute on the module that holds the call site catches
every call made by ``engine.run``.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from fedfair import engine, fairness, kernels, logistic, lp, protocol


@contextlib.contextmanager
def patched(replacements):
    """Replace module attributes for the length of the block.

    *replacements* is a list of ``(module, name, make_wrapper)``;
    ``make_wrapper(original)`` returns the callable to install.
    """
    saved = []
    try:
        for module, name, make_wrapper in replacements:
            original = getattr(module, name)
            saved.append((module, name, original))
            setattr(module, name, make_wrapper(original))
        yield
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


class RunObserver:
    """What one ``engine.run`` passes across the protocol's boundaries.

    It reads the clock when set-up ends (``protocol.init_protocol``
    returns) and when each round ends (``server_round`` returns), and
    keeps what the output checks need afterwards: the shards, basis and
    config, every broadcast, every client's ``w_local``, every LP with its
    answer, and the bundles of the first and the latest round. It only
    appends references, a few microseconds a round.
    """

    def __init__(self):
        self.setup_end = None
        self.round_ends = []
        self.shards = self.basis = self.cfg = None
        self.broadcasts = []  # round 0 (from init_protocol), then each round's
        self.w_locals = []
        self.lps = []
        self.first_bundles = self.last_bundles = None

    def hooks(self):
        def on_init(original):
            def wrapper(shards, basis, cfg):
                out = original(shards, basis, cfg)
                self.setup_end = time.perf_counter()
                self.shards, self.basis, self.cfg = shards, basis, cfg
                self.broadcasts.append(out[2])
                return out

            return wrapper

        def on_server_round(original):
            def wrapper(state, bundles, cfg):
                out = original(state, bundles, cfg)
                self.round_ends.append(time.perf_counter())
                self.broadcasts.append(out)
                self.w_locals.append([b.w_local for b in bundles])
                if self.first_bundles is None:
                    self.first_bundles = bundles
                self.last_bundles = bundles
                return out

            return wrapper

        def on_solve(original):
            def wrapper(problem):
                out = original(problem)
                self.lps.append((problem, out))
                return out

            return wrapper

        return [
            (protocol, "init_protocol", on_init),
            (protocol, "server_round", on_server_round),
            (lp, "solve", on_solve),
        ]

    def training_seconds(self) -> float:
        """Wall time from the end of set-up to the end of the last round."""
        return self.round_ends[-1] - self.setup_end

    def rate(self) -> float:
        """Rounds per second after set-up."""
        return len(self.round_ends) / self.training_seconds()

    def block_seconds(self, size: int) -> list:
        """Wall time of each block of *size* consecutive rounds, in order.

        The last block holds what is left when *size* does not divide the
        round count.
        """
        ends = [self.setup_end] + self.round_ends
        marks = list(range(0, len(self.round_ends), size)) + [len(self.round_ends)]
        return [ends[b] - ends[a] for a, b in zip(marks, marks[1:])]


# layer boundaries timed per call: span name -> (module holding the call
# site, attribute). The data layer's functions are called from engine.
TIMED = {
    "data.generate": (engine, "generate_census_like"),
    "data.encode": (engine, "encode"),
    "data.split": (engine, "shift_split"),
    "kernels.kernel_matrix": (kernels, "kernel_matrix"),
    "kernels.theta": (kernels, "theta"),
    "logistic.fit_local": (logistic, "fit_local"),
    "logistic.predict_label": (logistic, "predict_label"),
    "fairness.cov_alpha": (fairness, "covariance_coeff_alpha"),
    "fairness.cov_w": (fairness, "covariance_coeff_w"),
    "fairness.risk_difference": (fairness, "risk_difference"),
    "lp.solve": (lp, "solve"),
    "protocol.init": (protocol, "init_protocol"),
    "protocol.client_round": (protocol, "client_round"),
    "protocol.server_round": (protocol, "server_round"),
}

# hot inner calls, counted but not timed: predict_proba alone runs about
# 259k times in one even20_localfair run, and a clock pair per call
# inflated such a run by about a fifth
COUNTED = {
    "logistic.local_objective": (logistic, "local_objective"),
    "logistic.loss_gradient": (logistic, "loss_gradient"),
    "logistic.predict_proba": (logistic, "predict_proba"),
}


class Tracer:
    """Per-span busy seconds and call counts, kept in memory."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.kernel_bytes = 0
        self.relaxed = 0

    def _timed(self, key, original):
        seconds, calls, clock = self.seconds, self.calls, time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                out = original(*args, **kwargs)
            finally:
                seconds[key] += clock() - start
                calls[key] += 1
            if key == "kernels.kernel_matrix":
                self.kernel_bytes += out.nbytes
            elif key == "lp.solve" and out.status == lp.STATUS_RELAXED:
                self.relaxed += 1
            return out

        return wrapper

    def _counted(self, key, original):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        return wrapper

    def hooks(self):
        out = [
            (module, name, lambda orig, key=key: self._timed(key, orig))
            for key, (module, name) in TIMED.items()
        ]
        out += [
            (module, name, lambda orig, key=key: self._counted(key, orig))
            for key, (module, name) in COUNTED.items()
        ]
        return out

    def run_metrics(self, rounds_seconds: float) -> dict:
        """Per-layer figures of one traced ``engine.run``.

        *rounds_seconds* is the wall time of the run after set-up; what
        no timed span covers in it is reported as ``engine.other_s``.
        """
        s, c = self.seconds, self.calls
        evaluate = s["logistic.predict_label"] + s["fairness.risk_difference"]
        gradients = c["logistic.loss_gradient"]
        return {
            "kernels.kernel_matrix_s": (s["kernels.kernel_matrix"], "s"),
            "kernels.kernel_matrix_mb": (self.kernel_bytes / 1e6, "MB"),
            "kernels.theta_s": (s["kernels.theta"], "s"),
            "kernels.theta_calls": (c["kernels.theta"], "count"),
            "logistic.fit_local_s": (s["logistic.fit_local"], "s"),
            "logistic.objective_evals": (c["logistic.local_objective"], "count"),
            "logistic.gradient_evals": (gradients, "count"),
            "logistic.evals_per_step": (
                c["logistic.local_objective"] / gradients if gradients else 0.0,
                "ratio",
            ),
            "logistic.predict_proba_calls": (c["logistic.predict_proba"], "count"),
            "fairness.cov_alpha_s": (s["fairness.cov_alpha"], "s"),
            "fairness.cov_w_s": (s["fairness.cov_w"], "s"),
            "lp.solve_s": (s["lp.solve"], "s"),
            "lp.solve_calls": (c["lp.solve"], "count"),
            "lp.relaxed_rounds": (self.relaxed, "count"),
            "protocol.init_s": (s["protocol.init"], "s"),
            "protocol.client_round_s": (s["protocol.client_round"], "s"),
            "protocol.extract_s": (
                s["protocol.client_round"] - s["logistic.fit_local"],
                "s",
            ),
            "protocol.server_round_s": (s["protocol.server_round"], "s"),
            "protocol.aggregate_s": (
                s["protocol.server_round"] - s["lp.solve"],
                "s",
            ),
            "engine.evaluate_s": (evaluate, "s"),
            "engine.other_s": (
                rounds_seconds
                - s["protocol.client_round"]
                - s["protocol.server_round"]
                - evaluate,
                "s",
            ),
        }

    def setup_metrics(self) -> dict:
        """Per-layer figures of one traced ``engine.prepare_census``."""
        return {
            "data.generate_s": (self.seconds["data.generate"], "s"),
            "data.encode_s": (self.seconds["data.encode"], "s"),
            "data.split_s": (self.seconds["data.split"], "s"),
        }
