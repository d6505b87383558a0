"""Evaluation suite: optimal assignment, mean localization error, count-based
false-alarm / missed-detection rates, and the OSPA distance with cutoff g.

The assignment solver `_lsap` is a port of the rectangular shortest
augmenting path algorithm of D. F. Crouse, "On implementing 2D rectangular
assignment algorithms" (IEEE TAES 52(4), 2016), as scipy's
`linear_sum_assignment` runs it: the same float expressions, remaining-column
order and tie rule (a tied column is taken when it is unassigned), so it
returns scipy's pairs, ties included, without importing `scipy.optimize`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .scenario import _check

DEFAULT_OSPA_CUTOFF = 20.0


@dataclass
class Matching:
    pairs: list[tuple[int, int]]          # (pred index, true index)
    unmatched_pred: list[int]
    unmatched_true: list[int]


@dataclass
class ScenarioEval:
    m: int
    m_hat: int
    mle: float | None
    far: float
    mdr: float
    ospa: float


@dataclass
class EvalReport:
    """Aggregate over scenarios; far/mdr carry both count conventions."""

    mle: float | None
    ospa: float
    far: float            # micro: summed excess counts over summed predictions
    mdr: float            # micro: summed misses over summed truths
    far_macro: float
    mdr_macro: float
    total_true: int
    total_pred: int


def _cost_matrix(pred, true, cutoff: float) -> np.ndarray:
    p = np.asarray(pred, dtype=np.float64).reshape(-1, 2)
    t = np.asarray(true, dtype=np.float64).reshape(-1, 2)
    d = np.hypot(p[:, None, 0] - t[None, :, 0], p[:, None, 1] - t[None, :, 1])
    return np.minimum(d, cutoff) ** 2


def _lsap(cost: np.ndarray) -> tuple[list[int], list[int]]:
    """Minimum-cost assignment of min(rows, cols) pairs as (rows, cols), rows
    ascending; NaN or -inf costs and an infeasible matrix raise ValueError."""
    nr, nc = cost.shape
    transpose = nc < nr
    if transpose:
        cost, nr, nc = cost.T, nc, nr
    c = cost.tolist()
    if any(x != x or x == -math.inf for row in c for x in row):
        raise ValueError("matrix contains invalid numeric entries")
    u, v = [0.0] * nr, [0.0] * nc
    path, col4row, row4col = [-1] * nc, [-1] * nr, [-1] * nc
    for cur in range(nr):
        # shortest path from row cur to an unassigned column
        short = [math.inf] * nc
        remaining = list(range(nc - 1, -1, -1))
        rows_seen, cols_seen = [], []
        i, sink, min_val = cur, -1, 0.0
        while sink == -1:
            rows_seen.append(i)
            index, lowest = -1, math.inf
            ci, ui = c[i], u[i]
            for it, j in enumerate(remaining):
                r, s = min_val + ci[j] - ui - v[j], short[j]
                if r < s:
                    path[j] = i
                    short[j] = s = r
                if s < lowest or (s == lowest and row4col[j] == -1):
                    index, lowest = it, s
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        # update the duals, then augment along the path
        u[cur] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - short[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - short[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        order = sorted(range(nr), key=col4row.__getitem__)
        return [col4row[k] for k in order], order
    return list(range(nr)), col4row


def optimal_assignment(pred, true, cutoff: float = math.inf) -> Matching:
    """Minimum total min(cutoff, d)^2 matching over min(|pred|, |true|) pairs,
    listed in prediction order."""
    if not cutoff > 0:
        raise ValueError("cutoff must be positive")
    rows, cols = _lsap(_cost_matrix(pred, true, cutoff))
    return Matching(pairs=list(zip(rows, cols)),
                    unmatched_pred=sorted(set(range(len(pred))) - set(rows)),
                    unmatched_true=sorted(set(range(len(true))) - set(cols)))


def mle(pred, true) -> float | None:
    """Mean Euclidean distance over optimally matched pairs; None when no pairs."""
    matching = optimal_assignment(pred, true, cutoff=math.inf)
    if not matching.pairs:
        return None
    p = np.asarray(pred, dtype=np.float64).reshape(-1, 2)
    t = np.asarray(true, dtype=np.float64).reshape(-1, 2)
    dists = [math.hypot(*(p[i] - t[j])) for i, j in matching.pairs]
    return float(np.mean(dists))


def far_mdr(m_hat: int, m: int) -> tuple[float, float]:
    """Count-based rates: excess predictions over M-hat, misses over M."""
    if m < 1:
        raise ValueError("scenarios always contain at least one source")
    if m_hat < 0:
        raise ValueError("m_hat must be >= 0")
    far = max(0, m_hat - m) / m_hat if m_hat > 0 else 0.0
    mdr = max(0, m - m_hat) / m
    return far, mdr


def ospa(pred, true, g: float = DEFAULT_OSPA_CUTOFF) -> float:
    """Optimal subpattern assignment distance (p = 2, cutoff g).

    With n = max and m = min of the two cardinalities: sqrt of (optimal sum
    of min(g, d)^2 over m pairs + g^2 (n - m)) / n. Empty vs empty is 0,
    empty vs non-empty is g.
    """
    _check("g", g, numbers.Real, "positive", lambda g: g > 0)
    np_, nt = len(pred), len(true)
    if np_ == 0 and nt == 0:
        return 0.0
    if np_ == 0 or nt == 0:
        return float(g)
    n, m = max(np_, nt), min(np_, nt)
    cost = _cost_matrix(pred, true, g)
    rows, cols = _lsap(cost)
    total = float(cost[rows, cols].sum()) + g * g * (n - m)
    return math.sqrt(total / n)


def evaluate_scenario(pred, true, g: float = DEFAULT_OSPA_CUTOFF) -> ScenarioEval:
    far, mdr = far_mdr(len(pred), len(true))
    return ScenarioEval(m=len(true), m_hat=len(pred), mle=mle(pred, true),
                        far=far, mdr=mdr, ospa=ospa(pred, true, g))


def aggregate(reports: list[ScenarioEval]) -> EvalReport:
    """Combine per-scenario evaluations.

    mLE averages over scenarios where it is defined, OSPA over all; far/mdr are
    reported micro-averaged (from summed counts) and macro-averaged (mean of
    the per-scenario rates) since unbalanced scenario sizes make them differ.
    """
    if not reports:
        raise ValueError("no reports to aggregate")
    mles = [r.mle for r in reports if r.mle is not None]
    total_true = sum(r.m for r in reports)
    total_pred = sum(r.m_hat for r in reports)
    excess = sum(max(0, r.m_hat - r.m) for r in reports)
    missed = sum(max(0, r.m - r.m_hat) for r in reports)
    return EvalReport(
        mle=float(np.mean(mles)) if mles else None,
        ospa=float(np.mean([r.ospa for r in reports])),
        far=excess / total_pred if total_pred > 0 else 0.0,
        mdr=missed / total_true if total_true > 0 else 0.0,
        far_macro=float(np.mean([r.far for r in reports])),
        mdr_macro=float(np.mean([r.mdr for r in reports])),
        total_true=total_true,
        total_pred=total_pred)
