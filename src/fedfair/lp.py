"""Exact solver for the server's mixture-coefficient subproblem.

maximize    psi_L . alpha
subject to  psi_theta . alpha  = 1
            |psi_C . alpha|   <= tau        (optional row)
            0 <= alpha_m      <= B

psi_theta is a column sum of kernel values, so it is nonnegative, and
over the box and the equality row alone the LP is a fractional knapsack
that a greedy fill solves exactly. When the objective's optimal face
misses the fairness row, the row binds on one side, and a secant search
over its Lagrange multiplier finds two fills whose segment crosses it at
the optimum. When no point meets the row, it is relaxed by the smallest
slack s with |psi_C . alpha| <= tau + s, and the objective is then
maximized under the relaxed row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fedfair.errors import ConfigError

STATUS_OPTIMAL = "optimal"
STATUS_RELAXED = "infeasible_relaxed"
STATUS_ERROR = "error"


@dataclass(frozen=True)
class AlphaLP:
    objective: np.ndarray  # psi_L, length M
    equality: np.ndarray  # psi_theta, length M, rhs fixed at 1.0
    fairness_row: np.ndarray | None  # psi_C, length M; None disables the row
    tau: float
    box_upper: float

    def __post_init__(self):
        if self.tau < 0:
            raise ConfigError("tau must be nonnegative")
        if self.box_upper <= 0:
            raise ConfigError("box upper bound must be positive")
        m = len(self.objective)
        if len(self.equality) != m:
            raise ConfigError("objective/equality length mismatch")
        if self.fairness_row is not None and len(self.fairness_row) != m:
            raise ConfigError("fairness row length mismatch")
        if np.any(np.asarray(self.equality) < 0):
            raise ConfigError("equality row must be nonnegative")


@dataclass
class LPSolution:
    alpha: np.ndarray
    objective_value: float
    status: str
    slack_used: float = 0.0


def _fill(p, q, e, upper):
    """Lexicographic maximum of (p . alpha, q . alpha) over the box and
    e . alpha = 1, or None when the box cannot meet that row: entries with
    e > 0 take the bound by descending (p/e, q/e) until the row is met, the
    marginal one the remainder; entries with e == 0 take it when (p, q) > 0.
    """
    alpha = np.where((e == 0) & ((p > 0) | ((p == 0) & (q > 0))), upper, 0.0)
    (paid,) = np.nonzero(e)
    order = paid[np.lexsort((-q[paid] / e[paid], -p[paid] / e[paid]))]
    # a term clipped at 1 meets the row alone: the clip keeps the marginal
    # entry and the mass before it, and a huge bound cannot overflow
    mass = np.cumsum(np.minimum(upper * e[order], 1.0))
    if not len(mass) or mass[-1] < 1.0:
        return None
    k = int(np.searchsorted(mass, 1.0))
    alpha[order[:k]] = upper
    alpha[order[k]] = (1.0 - (mass[k - 1] if k else 0.0)) / e[order[k]]
    return alpha


def _segment(a, b, f, target):
    """The point of the segment from a to b where f . alpha == target."""
    fa, fb = f @ a, f @ b
    return a + ((target - fa) / (fb - fa) if fb != fa else 0.0) * (b - a)


def _result(c, alpha, status=STATUS_OPTIMAL, slack=0.0) -> LPSolution:
    if alpha is None:
        return LPSolution(np.zeros(len(c)), float("nan"), STATUS_ERROR)
    return LPSolution(alpha, float(c @ alpha), status, slack)


def _bind(lp: AlphaLP, c, e, f, a) -> LPSolution:
    """Optimum when every best fill of c has f . alpha > tau; a is one.

    b = fill(-f, c) has the least f . alpha and is the relaxed answer if
    even that exceeds tau. Otherwise each pass refills at the multiplier mu
    where the Lagrangian values (c - mu f) . x + mu tau of a and b meet, and
    the refill replaces a or b by its side of tau. Once a refill gains
    nothing, mu is optimal, and so is the point between a and b where the
    row binds.
    """
    b = _fill(-f, c, e, lp.box_upper)
    if f @ b > lp.tau:
        return _result(c, b, STATUS_RELAXED, float(f @ b - lp.tau))
    # the dual has at most one piece per order swap of two entries or sign
    # change of one, and every pass that does not stop finds a new piece
    for _ in range((len(c) + 1) ** 2):
        lam = c - (c @ a - c @ b) / (f @ a - f @ b) * f
        new = _fill(lam, c, e, lp.box_upper)
        gain = lam @ new - max(lam @ a, lam @ b)
        # a gain within the rounding error of these dot products is none
        if gain <= len(c) * np.finfo(float).eps * (np.abs(lam) @ (a + b + new)):
            return _result(c, _segment(a, b, f, lp.tau))
        if f @ new > lp.tau:
            a = new
        else:
            b = new
    return _result(c, None)


def solve(lp: AlphaLP) -> LPSolution:
    """Solve the mixture-coefficient LP, relaxing the fairness row if needed.

    lo and hi are the best fills of the objective with the least and the
    most psi_C . alpha (a missing row counts as psi_C = 0). Where that
    range meets [-tau, tau], the answer is the point of the segment from
    lo to hi closest to psi_C . alpha = 0; otherwise the row binds.
    """
    c = np.asarray(lp.objective, dtype=float)
    e = np.asarray(lp.equality, dtype=float)
    f = np.zeros_like(c) if lp.fairness_row is None else lp.fairness_row
    f = np.asarray(f, dtype=float)
    lo, hi = _fill(c, -f, e, lp.box_upper), _fill(c, f, e, lp.box_upper)
    if lo is None:
        return _result(c, None)
    target = min(max(0.0, f @ lo), f @ hi)
    if abs(target) <= lp.tau:
        return _result(c, _segment(lo, hi, f, target))
    return _bind(lp, c, e, f, lo) if target > 0 else _bind(lp, c, e, -f, hi)
