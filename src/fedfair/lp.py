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

A vertex-enumeration oracle (for small M) is provided for testing and
must never share code with the solver.
"""

from __future__ import annotations

import itertools
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
    mass = np.cumsum(upper * e[order])
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


def _enumerate_vertices(planes, check_feasible, dim):
    """Yield feasible intersection points of every dim-subset of planes."""
    for combo in itertools.combinations(range(len(planes)), dim):
        A = np.array([planes[i][0] for i in combo])
        rhs = np.array([planes[i][1] for i in combo])
        if abs(np.linalg.det(A)) < 1e-12:
            continue
        x = np.linalg.solve(A, rhs)
        if check_feasible(x):
            yield x


def brute_force_oracle(lp: AlphaLP) -> LPSolution:
    """Enumerate basic feasible points; test oracle only, refuses M > 6."""
    m = len(lp.objective)
    if m > 6:
        raise ConfigError("vertex-enumeration oracle limited to M <= 6")
    if np.all(np.abs(lp.equality) < 1e-10):
        return LPSolution(
            alpha=np.zeros(m), objective_value=float("nan"), status=STATUS_ERROR
        )
    tol = 1e-9
    eq = np.asarray(lp.equality, dtype=float)
    f = None if lp.fairness_row is None else np.asarray(lp.fairness_row, dtype=float)

    planes = [(eq, 1.0)]
    if f is not None:
        planes += [(f, lp.tau), (-f, lp.tau)]
    for j in range(m):
        e = np.zeros(m)
        e[j] = 1.0
        planes += [(e, 0.0), (e, lp.box_upper)]

    def feasible(x):
        if abs(eq @ x - 1.0) > tol:
            return False
        if np.any(x < -tol) or np.any(x > lp.box_upper + tol):
            return False
        if f is not None and abs(f @ x) > lp.tau + tol:
            return False
        return True

    best, best_val = None, -np.inf
    for x in _enumerate_vertices(planes, feasible, m):
        val = float(lp.objective @ x)
        if val > best_val + 1e-12:
            best, best_val = x, val
    if best is not None:
        return LPSolution(alpha=best, objective_value=best_val, status=STATUS_OPTIMAL)

    if f is None:
        return LPSolution(
            alpha=np.zeros(m), objective_value=float("nan"), status=STATUS_ERROR
        )

    # relaxed enumeration over (alpha, s) with |f.alpha| <= tau + s
    ext_planes = [(np.concatenate([eq, [0.0]]), 1.0)]
    ext_planes += [
        (np.concatenate([f, [-1.0]]), lp.tau),
        (np.concatenate([-f, [-1.0]]), lp.tau),
    ]
    for j in range(m):
        e = np.zeros(m + 1)
        e[j] = 1.0
        ext_planes += [(e, 0.0), (e, lp.box_upper)]
    e_s = np.zeros(m + 1)
    e_s[m] = 1.0
    ext_planes.append((e_s, 0.0))

    def ext_feasible(z):
        x, s = z[:m], z[m]
        if s < -tol or abs(eq @ x - 1.0) > tol:
            return False
        if np.any(x < -tol) or np.any(x > lp.box_upper + tol):
            return False
        return abs(f @ x) <= lp.tau + s + tol

    candidates = list(_enumerate_vertices(ext_planes, ext_feasible, m + 1))
    if not candidates:
        return LPSolution(
            alpha=np.zeros(m), objective_value=float("nan"), status=STATUS_ERROR
        )
    s_min = min(z[m] for z in candidates)
    best = max(
        (z for z in candidates if z[m] <= s_min + tol),
        key=lambda z: float(lp.objective @ z[:m]),
    )
    return LPSolution(
        alpha=best[:m],
        objective_value=float(lp.objective @ best[:m]),
        status=STATUS_RELAXED,
        slack_used=float(s_min),
    )

