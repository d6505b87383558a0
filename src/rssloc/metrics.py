"""Evaluation suite: optimal assignment, mean localization error, count-based
false-alarm / missed-detection rates, and the OSPA distance with cutoff g.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

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

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class EvalReport:
    """Aggregate over scenarios; far/mdr carry both count conventions."""

    mle: float | None
    ospa: float | None
    far: float            # micro: summed excess counts over summed predictions
    mdr: float            # micro: summed misses over summed truths
    far_macro: float
    mdr_macro: float
    total_true: int
    total_pred: int

    def as_dict(self) -> dict:
        return asdict(self)


def _cost_matrix(pred, true, cutoff: float) -> np.ndarray:
    p = np.asarray(pred, dtype=np.float64).reshape(-1, 2)
    t = np.asarray(true, dtype=np.float64).reshape(-1, 2)
    d = np.hypot(p[:, None, 0] - t[None, :, 0], p[:, None, 1] - t[None, :, 1])
    return np.minimum(d, cutoff) ** 2


def optimal_assignment(pred, true, cutoff: float = math.inf) -> Matching:
    """Minimum total min(cutoff, d)^2 matching over min(|pred|, |true|) pairs,
    listed in prediction order."""
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    rows, cols = (a.tolist() for a in
                  linear_sum_assignment(_cost_matrix(pred, true, cutoff)))
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
    if g <= 0:
        raise ValueError("g must be positive")
    np_, nt = len(pred), len(true)
    if np_ == 0 and nt == 0:
        return 0.0
    if np_ == 0 or nt == 0:
        return float(g)
    n, m = max(np_, nt), min(np_, nt)
    cost = _cost_matrix(pred, true, g)
    rows, cols = linear_sum_assignment(cost)
    total = float(cost[rows, cols].sum()) + g * g * (n - m)
    return math.sqrt(total / n)


def evaluate_scenario(pred, true, g: float = DEFAULT_OSPA_CUTOFF) -> ScenarioEval:
    far, mdr = far_mdr(len(pred), len(true))
    return ScenarioEval(m=len(true), m_hat=len(pred), mle=mle(pred, true),
                        far=far, mdr=mdr, ospa=ospa(pred, true, g))


def aggregate(reports: list[ScenarioEval]) -> EvalReport:
    """Combine per-scenario evaluations.

    mLE and OSPA average over scenarios where they are defined; far/mdr are
    reported micro-averaged (from summed counts) and macro-averaged (mean of
    the per-scenario rates) since unbalanced scenario sizes make them differ.
    """
    if not reports:
        raise ValueError("no reports to aggregate")
    mles = [r.mle for r in reports if r.mle is not None]
    ospas = [r.ospa for r in reports]
    total_true = sum(r.m for r in reports)
    total_pred = sum(r.m_hat for r in reports)
    excess = sum(max(0, r.m_hat - r.m) for r in reports)
    missed = sum(max(0, r.m - r.m_hat) for r in reports)
    return EvalReport(
        mle=float(np.mean(mles)) if mles else None,
        ospa=float(np.mean(ospas)) if ospas else None,
        far=excess / total_pred if total_pred > 0 else 0.0,
        mdr=missed / total_true if total_true > 0 else 0.0,
        far_macro=float(np.mean([r.far for r in reports])),
        mdr_macro=float(np.mean([r.mdr for r in reports])),
        total_true=total_true,
        total_pred=total_pred)
