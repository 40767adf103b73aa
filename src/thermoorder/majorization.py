"""Lorenz curves, beta-ordering, and the (thermo)majorization decision.

A thermal Lorenz curve plots cumulative beta-ordered probability against
cumulative Gibbs weight; one state can reach another through a
Gibbs-preserving stochastic map exactly when its curve lies everywhere on
or above the target's. Curves are concave and piecewise linear, so checking
the union of breakpoints decides dominance everywhere.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction

from .entropies import format_number
from .modes import CMP_TOL, RISE_TOL, SLOPE_TOL, TIE_TOL, all_exact
from .states import BlockState, Hamiltonian

ABOVE = "above"
BELOW = "below"
CROSSING = "crossing"
EQUAL = "equal"


@dataclass(frozen=True)
class BetaOrdering:
    """Permutation sorting levels by Gibbs-rescaled probability p_i/g_i.

    Ties break toward the larger probability, then the smaller original
    index; the curve itself does not depend on the resolution, but exports
    do, so the rule is pinned.
    """

    perm: tuple
    rescaled: tuple


def beta_order(s: BlockState) -> BetaOrdering:
    ratios = [p / g for p, g in zip(s.probs, s.ham.gibbs)]
    idx = sorted(range(len(ratios)), key=lambda i: (-ratios[i], -s.probs[i], i))
    if not s.exact:
        # chain-group nearly equal rescaled values, then re-break by (p, index)
        groups = []
        for i in idx:
            if groups and float(ratios[groups[-1][-1]]) - float(ratios[i]) <= TIE_TOL:
                groups[-1].append(i)
            else:
                groups.append([i])
        idx = []
        for grp in groups:
            grp.sort(key=lambda i: (-s.probs[i], i))
            idx.extend(grp)
    return BetaOrdering(tuple(idx), tuple(ratios[i] for i in idx))


@dataclass(frozen=True)
class LorenzCurve:
    """Concave piecewise-linear curve from (0,0) to (X_total, 1)."""

    points: tuple
    exact: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        pts = [(x, y) for x, y in self.points]
        if not pts or pts[0][0] != 0 or pts[0][1] != 0:
            raise ValueError("curve must start at (0, 0)")
        merged = [pts[0]]
        for x, y in pts[1:]:
            px, py = merged[-1]
            if x == px:
                if y != py:
                    raise ValueError(f"two heights at x={x!r}")
                continue
            if x < px:
                raise ValueError("x coordinates must be non-decreasing")
            if y < py and not (isinstance(y, float) and py - y <= RISE_TOL):
                raise ValueError("y must be non-decreasing")
            merged.append((x, y))
        exact = all_exact(x for x, _ in merged) and all_exact(y for _, y in merged)
        slope_tol = 0 if exact else SLOPE_TOL
        prev = None
        for (x0, y0), (x1, y1) in zip(merged, merged[1:]):
            slope = (y1 - y0) / (x1 - x0)
            if prev is not None and slope > prev + slope_tol:
                raise ValueError("curve is not concave")
            prev = slope
        object.__setattr__(self, "points", tuple(merged))
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "_xs", tuple(x for x, _ in merged))

    @property
    def x_extent(self):
        return self.points[-1][0]

    def value_at(self, x):
        xs = self._xs
        if x <= 0:
            return self.points[0][1]
        if x >= xs[-1]:
            return self.points[-1][1]
        k = bisect_left(xs, x)
        x1, y1 = self.points[k]
        if x1 == x:
            return y1
        x0, y0 = self.points[k - 1]
        return y0 + (x - x0) * (y1 - y0) / (x1 - x0)

    def write_csv(self, fh) -> None:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["x", "y"])
        for x, y in self.points:
            w.writerow([format_number(float(x)), format_number(float(y))])


def thermal_lorenz(s: BlockState) -> LorenzCurve:
    """Cumulative beta-ordered probability against cumulative Gibbs weight.

    Zero-probability levels land at the end as flat segments, keeping the
    full partition-function extent."""
    order = beta_order(s)
    if s.exact:
        x, y = Fraction(0), Fraction(0)
        pts = [(x, y)]
        for i in order.perm:
            x = x + s.ham.gibbs[i]
            y = y + s.probs[i]
            pts.append((x, y))
        return LorenzCurve(tuple(pts))
    # float path: running sums depend on the summation order, so pin the
    # endpoint to the order-independent compensated totals; two states on one
    # Hamiltonian then share their extent to the bit
    x, y = 0.0, 0.0
    pts = [(x, y)]
    for i in order.perm[:-1]:
        x = x + float(s.ham.gibbs[i])
        y = y + float(s.probs[i])
        pts.append((x, min(y, 1.0)))
    pts.append((float(s.ham.partition_function), 1.0))
    return LorenzCurve(tuple(pts))


def lorenz(p) -> LorenzCurve:
    """Ordinary Lorenz curve: trivial Hamiltonian, x counts levels."""
    return thermal_lorenz(BlockState(tuple(p), Hamiltonian.trivial(len(p))))


@dataclass(frozen=True)
class CurveComparison:
    """Outcome of a dominance check between two curves.

    ``violations`` lists union breakpoints where the candidate-above curve
    dips below the other one (x, positive gap). ``min_gap``/``max_gap`` are
    the extreme signed differences over interior breakpoints; ``marginal``
    flags an Above verdict that touches tangency within tolerance.
    """

    verdict: str
    violations: tuple
    marginal: bool = False
    min_gap: float = math.nan
    max_gap: float = math.nan

    @property
    def dominates(self) -> bool:
        return self.verdict in (ABOVE, EQUAL)

    def to_json_obj(self) -> dict:
        return {
            "verdict": self.verdict,
            "violations": [{"x": float(x), "gap": float(g)} for x, g in self.violations],
            "marginal": self.marginal,
            "min_gap": None if math.isnan(self.min_gap) else self.min_gap,
            "max_gap": None if math.isnan(self.max_gap) else self.max_gap,
        }


def compare(candidate_above: LorenzCurve, candidate_below: LorenzCurve,
            cmp_tol: float = CMP_TOL) -> CurveComparison:
    """Decide whether the first curve dominates the second.

    Both curves must share their x-extent (same partition function); a
    mismatch means the states live on incompatible Hamiltonians.
    """
    xa, xb = candidate_above.x_extent, candidate_below.x_extent
    exact = candidate_above.exact and candidate_below.exact
    tol = 0 if exact else cmp_tol
    extent_gap = abs(float(xa) - float(xb))
    if extent_gap > (0 if exact else cmp_tol * max(1.0, float(xa), float(xb))):
        raise ValueError(
            f"curves span different x-extents ({float(xa)!r} vs {float(xb)!r}): "
            "incompatible Hamiltonians"
        )
    xs = sorted(set(list(candidate_above._xs) + list(candidate_below._xs)))
    dips = []
    has_pos = False
    min_gap, max_gap = math.inf, -math.inf
    for x in xs[1:-1]:
        d = candidate_above.value_at(x) - candidate_below.value_at(x)
        fd = float(d)
        min_gap = min(min_gap, fd)
        max_gap = max(max_gap, fd)
        if d < -tol:
            dips.append((x, -d))
        elif d > tol:
            has_pos = True
    if not xs[1:-1]:
        min_gap = max_gap = 0.0
    if dips and has_pos:
        verdict = CROSSING
    elif dips:
        verdict = BELOW
    elif has_pos:
        verdict = ABOVE
    else:
        verdict = EQUAL
    marginal = verdict == ABOVE and min_gap <= float(tol)
    return CurveComparison(verdict, tuple(dips), marginal, min_gap, max_gap)


def thermomajorizes(a: BlockState, b: BlockState, cmp_tol: float = CMP_TOL) -> CurveComparison:
    """Thermal-curve dominance of a over b; identical Hamiltonians required."""
    if a.ham != b.ham:
        raise ValueError("thermomajorization compares states on one Hamiltonian")
    return compare(thermal_lorenz(a), thermal_lorenz(b), cmp_tol)


def majorizes(p, q) -> CurveComparison:
    """Partial-sum dominance of sorted probability vectors: the Lorenz curve
    comparison, with the shorter input zero-padded."""
    n = max(len(p), len(q))
    return compare(lorenz([*p] + [0] * (n - len(p))), lorenz([*q] + [0] * (n - len(q))))
