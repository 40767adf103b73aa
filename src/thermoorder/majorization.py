"""Beta-ordering, Lorenz curves, and the (thermo)majorization decision.

A thermal Lorenz curve plots cumulative beta-ordered probability against
cumulative Gibbs weight; one state can reach another through a
Gibbs-preserving stochastic map exactly when its curve lies everywhere on
or above the target's. Curves are concave and piecewise linear, so the gaps
at the breakpoints of both curves decide dominance everywhere; plain
majorization is the case of a trivial Hamiltonian.

Every dominance question, on float, exact or mixed data, is decided by one
exact walk over those breakpoints. Entries are read exactly as integers
over one denominator, floats too, since they are dyadic rationals, and each
gap's sign is one integer cross-multiplication, so no tolerance decides a
verdict. A witness is decided and built on the integer cells of one such
reading, and exported curves are its exact prefix sums, rendered once.
"""

from __future__ import annotations

import csv
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, groupby

from .entropies import format_number
from .states import BlockState, Hamiltonian

ABOVE = "above"
BELOW = "below"
CROSSING = "crossing"
EQUAL = "equal"


def integer_data(gibbs, vectors) -> tuple:
    """Gibbs weights and probability vectors read exactly, in integers:
    (lengths, numerators, g, m).

    lengths are the Gibbs weights' numerators over one common denominator
    g. Each vector is taken over the sum of its numerators over a common
    denominator, which renormalises a float vector exactly, as
    BlockState.to_exact does, and leaves an exact one as it is, since its
    sum is that denominator; numerators holds every vector over the one
    common denominator m of those sums.
    """
    flat, _ = _integers([v for vector in vectors for v in vector])
    ends = list(accumulate(map(len, vectors)))
    scaled = [flat[end - len(vector):end] for end, vector in zip(ends, vectors)]
    totals = [sum(nums) for nums in scaled]
    m = math.lcm(*totals)
    numerators = [[v * (m // total) for v in nums] for nums, total in zip(scaled, totals)]
    lengths, g = _integers(gibbs)
    return lengths, numerators, g, m


def _integers(values) -> tuple:
    """(numerators, d): values read exactly as numerators over one common
    denominator d."""
    if all(type(v) is float for v in values):
        # a float is an integer times a power of two, so scaling by the power
        # that clears the finest one is exact, unless it overflows
        k = max(0, 53 - math.frexp(min(filter(None, values), default=1.0))[1])
        try:
            scale = 2.0 ** k
            return [int(v * scale) for v in values], 1 << k
        except OverflowError:
            pass
    ratios = [v.as_integer_ratio() for v in values]
    d = math.lcm(*[den for _, den in ratios])
    return [num * (d // den) for num, den in ratios], d


def beta_order(nums, lengths) -> list:
    """Level indices in beta order: by decreasing density nums[i]/lengths[i],
    ties toward the larger nums[i], then the smaller index.

    nums and lengths are exact (ints, say a state's probability and Gibbs
    numerators); the curve does not depend on how ties resolve, but exports
    do, so the rule is pinned. The sort runs on float keys: an int over an
    int is rounded once, correctly, so the keys are monotone in the density
    and only runs of equal keys need an exact look.
    """
    try:
        keys = [p / v for p, v in zip(nums, lengths)]
    except OverflowError:  # densities beyond the float range: one run, ordered exactly
        keys = [0] * len(nums)
    order = sorted(range(len(keys)), key=keys.__getitem__, reverse=True)
    if len(set(keys)) == len(keys):
        return order
    exact = []
    for _, run in groupby(order, keys.__getitem__):
        run = list(run)
        if len(run) > 1:
            top = math.lcm(*[lengths[i] for i in run])
            run.sort(key=lambda i: (-nums[i] * (top // lengths[i]), -nums[i], i))
        exact += run
    return exact


def partition(nums, lengths) -> tuple:
    """A side's partition of [0, Z] in beta order, as (lengths, masses): the
    walk's input. Both sides of one walk carry their masses over one
    denominator and their lengths over another."""
    order = beta_order(nums, lengths)
    return [lengths[i] for i in order], [nums[i] for i in order]


def _gaps(a, b):
    """(x, d, length) at every interior breakpoint of either curve, left to
    right, for two partitions a and b of one interval: the gap of a's curve
    over b's there is d / (M length), M being the masses' denominator.

    At a breakpoint of one curve, the other curve's height is read on its
    segment (length G, mass P) that holds x, whose right end (X, Y) lies at
    or past x: (Y G - (X - x) P) / (M G), so the gap's numerator over M G is
    one integer expression.
    """
    (la, ma), (lb, mb) = a, b
    last_a, last_b = len(la) - 1, len(lb) - 1
    i = j = 0
    xa, xb, ya, yb = la[0], lb[0], ma[0], mb[0]  # the current segments' right ends
    while i < last_a or j < last_b:
        if xa <= xb:
            yield xa, (ya - yb) * lb[j] + (xb - xa) * mb[j], lb[j]
            if xa == xb:  # a breakpoint of both curves
                j += 1
                xb += lb[j]
                yb += mb[j]
            i += 1
            xa += la[i]
            ya += ma[i]
        else:
            yield xb, (ya - yb) * la[i] - (xa - xb) * ma[i], la[i]
            j += 1
            xb += lb[j]
            yb += mb[j]


def dominates(a, b) -> bool:
    """Whether partition a's curve lies on or above b's, stopping at the
    first dip: the walk's verdict without a comparison."""
    return all(d >= 0 for _, d, _ in _gaps(a, b))


class _Dips(Sequence):
    """A comparison's violations as (x, gap) Fractions, built on first read:
    most callers read only the verdict, and two Fractions per dip cost more
    than the walk that found the dip."""

    def __init__(self, dips, x_unit, mass_unit):
        self._dips, self._units = dips, (x_unit, mass_unit)

    @cached_property
    def _items(self) -> tuple:
        x_unit, mass_unit = self._units
        return tuple((Fraction(x, x_unit), Fraction(-d, mass_unit * length)) for x, d, length in self._dips)

    def __getitem__(self, k):
        return self._items[k]

    def __len__(self) -> int:
        return len(self._dips)

    def __eq__(self, other) -> bool:
        return self._items == (other._items if isinstance(other, _Dips) else other)

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        return repr(self._items)


def compare_partitions(a, b, x_unit) -> CurveComparison:
    """Dominance of partition a's curve over b's, from the exact walk; x_unit
    is the denominator of the lengths. The extreme gaps are rounded once,
    from the exact values."""
    gaps = list(_gaps(a, b))
    mass_unit = sum(a[1])
    dips = [gap for gap in gaps if gap[1] < 0]
    rises = any(d > 0 for _, d, _ in gaps)
    verdict = CROSSING if dips and rises else BELOW if dips else ABOVE if rises else EQUAL
    # an int over an int is correctly rounded, and rounding is monotone
    values = [d / (mass_unit * length) for _, d, length in gaps]
    min_gap, max_gap = min(values, default=0.0), max(values, default=0.0)
    return CurveComparison(verdict, _Dips(dips, x_unit, mass_unit) if dips else (),
                           verdict == ABOVE and min_gap <= 0, min_gap, max_gap)


@dataclass(frozen=True)
class LorenzCurve:
    """Piecewise-linear curve from (0,0) to (X_total, 1), for export; points
    at one x are merged into one."""

    points: tuple

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
            merged.append((x, y))
        object.__setattr__(self, "points", tuple(merged))

    @property
    def x_extent(self):
        return self.points[-1][0]

    def write_csv(self, fh) -> None:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["x", "y"])
        for x, y in self.points:
            w.writerow([format_number(float(x)), format_number(float(y))])


def thermal_lorenz(s: BlockState) -> LorenzCurve:
    """Cumulative beta-ordered probability against cumulative Gibbs weight.

    Zero-probability levels land at the end as flat segments, keeping the
    full partition-function extent. The points are exact prefix sums of the
    integer reading, rendered once: as Fractions for an exact state, rounded
    correctly to floats otherwise, so a float curve ends at (Z, 1.0)."""
    lengths, (nums,), g, m = integer_data(s.ham.gibbs, (s.probs,))
    perm = beta_order(nums, lengths)
    render = Fraction if s.exact else operator.truediv
    xs = accumulate((lengths[i] for i in perm), initial=0)
    ys = accumulate((nums[i] for i in perm), initial=0)
    return LorenzCurve(tuple((render(x, g), render(y, m)) for x, y in zip(xs, ys)))


def lorenz(p) -> LorenzCurve:
    """Ordinary Lorenz curve: trivial Hamiltonian, x counts levels."""
    return thermal_lorenz(BlockState(tuple(p), Hamiltonian.trivial(len(p))))


@dataclass(frozen=True)
class CurveComparison:
    """Outcome of a dominance check between two curves.

    ``violations`` lists breakpoints of either curve where the candidate-above
    curve dips below the other one (x, positive gap). ``min_gap``/``max_gap``
    are the extreme signed differences over interior breakpoints; ``marginal``
    flags an Above verdict that touches the other curve.
    """

    verdict: str
    violations: Sequence
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


def refine(a, b) -> list:
    """Common cells, left to right, of two ordered partitions of one interval.

    A partition is a non-empty list of segments (length, density, label), a
    cell is (length, a's label, b's label, a's mass, b's mass).
    """
    last_a, last_b = len(a) - 1, len(b) - 1
    i = j = 0
    (a_left, da, la), (b_left, db, lb) = a[0], b[0]  # what remains of the current segments
    cells = []
    while i < last_a or j < last_b:
        # cut at the nearer segment end; a last segment has none before the end
        length = a_left if j == last_b or i < last_a and a_left < b_left else b_left
        cells.append((length, la, lb, length * da, length * db))
        a_left -= length
        b_left -= length
        if not a_left and i < last_a:
            i += 1
            a_left, da, la = a[i]
        if not b_left and j < last_b:
            j += 1
            b_left, db, lb = b[j]
    cells.append((a_left, la, lb, a_left * da, a_left * db))
    return cells


def exact_cells(a: BlockState, b: BlockState) -> tuple:
    """(comparison, cells, G) for a witness from a to b, on one reading of
    both states: the exact dominance of a's curve over b's and, only when it
    holds, the common cells cut in integers and the Gibbs numerators G the
    cells' lengths are counted in (else None, None).

    A level's density is its numerator times top / G_i with top = lcm(G), so
    every cell mass is an integer; each cell is a fixed multiple of a cell
    of the inputs' exact copies, its length and masses scaled by one unit
    each, cut in the same order. Both states lie on one Hamiltonian."""
    lengths, numerators, g, _ = integer_data(a.ham.gibbs, (a.probs, b.probs))
    orders = [beta_order(nums, lengths) for nums in numerators]
    comparison = compare_partitions(*(([lengths[i] for i in order], [nums[i] for i in order])
                                      for nums, order in zip(numerators, orders)), g)
    if not comparison.dominates:
        return comparison, None, None
    top = math.lcm(*lengths)
    sides = ([(lengths[i], nums[i] * (top // lengths[i]), i) for i in order]
             for nums, order in zip(numerators, orders))
    return comparison, refine(*sides), lengths


def thermomajorizes(a: BlockState, b: BlockState) -> CurveComparison:
    """Thermal-curve dominance of a over b, decided exactly for float, exact
    and mixed data alike; identical Hamiltonians required."""
    if a.ham != b.ham:
        raise ValueError("thermomajorization compares states on one Hamiltonian")
    lengths, (pa, pb), g, _ = integer_data(a.ham.gibbs, (a.probs, b.probs))
    return compare_partitions(partition(pa, lengths), partition(pb, lengths), g)


def majorizes(p, q) -> CurveComparison:
    """Partial-sum dominance of sorted probability vectors: thermomajorization
    on the trivial Hamiltonian, with the shorter input zero-padded."""
    n = max(len(p), len(q))
    ham = Hamiltonian.trivial(n)
    return thermomajorizes(*(BlockState((*v, *(0,) * (n - len(v))), ham) for v in (p, q)))
