"""The four workloads: seeded instances, the operations run on them, and the
oracle expectation each answer is checked against.

A workload is one round: a fixed list of operations, each in float or exact
mode. The runner repeats whole rounds, so the share of any operation kind,
and of the two named faults, is the same in every run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

import inputs
import oracle

FLOAT, EXACT = "float", "exact"
# Library decision tolerance for transition verdicts (float free energies);
# oracle values within AMBIGUOUS of it are not held against either answer.
POSSIBLE_TOL = 1e-10
AMBIGUOUS = 1e-9
# Smallest exact curve gap a random instance may have: far above float
# rounding, so float and exact verdicts must agree on it.
CLEAR_GAP = 1e-8


@dataclass
class Op:
    kind: str
    mode: str
    inst: dict
    check: Callable
    fault: str | None = None
    argv: list = field(default_factory=list)
    path: str = ""  # the library code path, where a kind has more than one


def _mode_copy(inst, mode):
    return inputs.exact_copy(inst) if mode == EXACT else inst


def _clear_pair(rng, n, relation, top=3.0):
    """Float instance whose oracle curve verdict has a clear margin."""
    while True:
        lv = inputs.levels(rng, n, top)
        p = inputs.distribution(rng, n)
        if relation == "crossing":
            a, b = p, inputs.distribution(rng, n)
        else:
            image = inputs.thermal_image(rng, lv, p, rng.uniform(0.05, 0.3))
            a, b = (p, image) if relation == "above" else (image, p)
        inst = inputs.instance(lv, a, b)
        _, closest = oracle.dominance(a, b, inst["gibbs"])
        if closest > CLEAR_GAP:
            return inst


# -- expectations -----------------------------------------------------------------

def expect_verdict(inst):
    want = oracle.dominance(inst["a"], inst["b"], inst["gibbs"])[0]
    return lambda cmp: cmp.verdict == want


def violations(inst, alphas, tol=POSSIBLE_TOL):
    """Orders where the oracle says F_alpha increases by more than tol, and
    orders too close to tol to hold against either answer."""
    sure, unsure = set(), set()
    for alpha in alphas:
        d = oracle.delta_f(inst["a"], inst["b"], inst["gibbs"], alpha)
        if math.isnan(d):
            continue
        if abs(d - tol) <= AMBIGUOUS:
            unsure.add(alpha)
        elif d > tol:
            sure.add(alpha)
    return sure, unsure


def expect_catalytic(inst, alphas):
    sure, unsure = violations(inst, alphas)
    curve_ok = oracle.dominates(oracle.dominance(inst["a"], inst["b"], inst["gibbs"])[0])

    def check(verdict):
        got = {a.value for a in verdict.diagnostics}
        if verdict.possible != (not got) or not sure <= got <= sure | unsure:
            return False
        # curve dominance implies every free energy decreases
        return verdict.possible or not curve_ok
    return check


def expect_correlating(inst):
    d = oracle.delta_f(inst["a"], inst["b"], inst["gibbs"], 1.0)
    if abs(d - POSSIBLE_TOL) <= AMBIGUOUS:
        return lambda verdict: True
    return lambda verdict: verdict.possible == (d <= POSSIBLE_TOL)


def delta_ok(got, want):
    """A library free-energy difference against mpmath's: 1e-9 relative,
    infinities and undefined (nan) entries matched exactly."""
    if math.isnan(want):
        return math.isnan(got)
    if math.isinf(want):
        return got == want
    return abs(got - want) <= 1e-9 * max(1.0, abs(want))


def expect_sweep(inst, alphas):
    table = {a: oracle.delta_f(inst["a"], inst["b"], inst["gibbs"], a) for a in alphas}

    def check(profile):
        for e in profile:
            want = table.get(e.alpha.value)
            if want is None:
                want = oracle.delta_f(inst["a"], inst["b"], inst["gibbs"], e.alpha.value)
            if not delta_ok(e.value, want):
                return False
            # the sign decides the verdict, wherever the gap clears the tolerance
            if abs(want - POSSIBLE_TOL) > AMBIGUOUS and (e.value > POSSIBLE_TOL) != (want > POSSIBLE_TOL):
                return False
        return True
    return check


def expect_verify(inst):
    want = oracle.correlating_dominance(inst["a"], inst["b"], inst["gibbs"], inst["joint"], inst["dims"])[0]
    return lambda cmp: cmp.verdict == want


def search_ok(inst, joint, dims):
    """A found joint: valid, certifies the transition exactly, and spends at
    most the free-energy budget on correlations. joint None: not found, so
    the free energy must drop and the direct curves must not dominate."""
    budget = -oracle.delta_f(inst["a"], inst["b"], inst["gibbs"], 1.0)
    if joint is None:
        direct = oracle.dominance(inst["a"], inst["b"], inst["gibbs"])[0]
        return budget > 0 and not oracle.dominates(direct)
    if not oracle.valid_joint(joint):
        return False
    verdict = oracle.correlating_dominance(inst["a"], inst["b"], inst["gibbs"], joint, dims)[0]
    return oracle.dominates(verdict) and oracle.total_correlation(joint, dims) <= budget + 1e-12


def expect_search(inst):
    def check(result):
        if result is None:
            return search_ok(inst, None, None)
        return search_ok(inst, result.joint.probs, result.joint.dims)
    return check


def witness_ok(inst, matrix):
    feasible = oracle.dominates(oracle.dominance(inst["a"], inst["b"], inst["gibbs"])[0])
    if matrix is None:
        return not feasible
    return feasible and oracle.witness_ok(matrix, inst["a"], inst["b"], inst["gibbs"])


def expect_witness(inst):
    return lambda w: witness_ok(inst, None if w is None else w.matrix)


# -- verdicts ----------------------------------------------------------------------

# thermomajorizes sizes per mode. A block of 14 at n = 12 sits in the middle
# of each mode's latency order, so the median falls inside one kind at one
# size rather than between two sizes.
THERMO_DIMS = {
    FLOAT: (3,) * 4 + (4,) * 4 + (6,) * 5 + (12,) * 14 + (24,) * 2 + (32,) * 3,
    EXACT: (3,) * 3 + (4,) * 3 + (6,) * 4 + (12,) * 14 + (24,) * 4 + (32,) * 4,
}
SLOW_DIMS = {FLOAT: (3, 4, 6, 8, 12, 16, 24, 32), EXACT: (4, 8, 16, 24)}
RELATIONS = ("above", "below", "crossing", "crossing")

# Fault 1: 1e-14 of mass moved from the lowest to the highest p/g level.
# Exact arithmetic says "below"; float thermomajorizes says "equal".
NEAR_TIE_LEVELS = (0.0, 0.4, 1.1, 2.0)
NEAR_TIE_P = (0.4, 0.3, 0.2, 0.1)
NEAR_TIE_Q = (0.4 - 1e-14, 0.3, 0.2, 0.1 + 1e-14)
# Fault 2: the same kind of pair with every level shifted by +-800 kT.
GAUGE_P = (0.4, 0.3, 0.2, 0.1)
GAUGE_Q = (0.3, 0.28, 0.24, 0.18)
GAUGE_SHIFT = 800.0


def _fault_ops():
    tie = inputs.instance(NEAR_TIE_LEVELS, NEAR_TIE_P, NEAR_TIE_Q)
    base = inputs.instance(NEAR_TIE_LEVELS, GAUGE_P, GAUGE_Q)
    ops = [Op("thermomajorizes", FLOAT, tie, expect_verdict(tie), fault="near-tie")]
    for shift, kind in ((GAUGE_SHIFT, "thermomajorizes"), (GAUGE_SHIFT, "correlating_possible"),
                        (-GAUGE_SHIFT, "thermomajorizes")):
        shifted = dict(base, levels=tuple(e + shift for e in base["levels"]))
        # the answer expected is the unshifted instance's
        check = expect_verdict(base) if kind == "thermomajorizes" else expect_correlating(base)
        ops.append(Op(kind, FLOAT, shifted, check, fault=f"gauge{shift:+.0f}"))
    return ops


def verdicts(seed, alphas):
    """Per round, float: 32 thermomajorizes, 12 correlating, 8 verify, 8
    catalytic, 8 sweep and the 4 fault operations; exact: the same but 4
    catalytic and 4 sweep."""
    rng = random.Random(seed)
    ops = []
    for mode in (FLOAT, EXACT):
        for k, n in enumerate(THERMO_DIMS[mode]):
            inst = _mode_copy(_clear_pair(rng, n, RELATIONS[k % 4]), mode)
            ops.append(Op("thermomajorizes", mode, inst, expect_verdict(inst)))
        for k in range(12):
            inst = _mode_copy(_clear_pair(rng, (3, 4, 6, 8)[k % 4], "crossing"), mode)
            ops.append(Op("correlating_possible", mode, inst, expect_correlating(inst)))
        for k in range(8):
            inst = _mode_copy(_verify_instance(rng, (2, 3, 4, 6)[k % 4]), mode)
            ops.append(Op("verify_correlating", mode, inst, expect_verify(inst)))
        for k, n in enumerate(SLOW_DIMS[mode]):
            inst = _mode_copy(_clear_pair(rng, n, ("above", "crossing")[k % 2]), mode)
            ops.append(Op("catalytic_possible", mode, inst, expect_catalytic(inst, alphas)))
            inst = _mode_copy(_clear_pair(rng, n, ("crossing", "above")[k % 2]), mode)
            ops.append(Op("delta_f_sweep", mode, inst, expect_sweep(inst, alphas)))
    ops.extend(_fault_ops())
    return _interleave(ops, rng)


def _verify_instance(rng, n):
    """A system pair next to a random two-qubit joint catalyst."""
    while True:
        base = _clear_pair(rng, n, "crossing")
        s, q = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
        lo, hi = max(0.0, q - s), min(q, 1.0 - s)
        x10 = rng.uniform(lo, hi)
        joint = (q - x10, x10 + s - q, x10, 1.0 - s - x10)
        if min(joint) <= 1e-6:
            continue
        joint = inputs.normalised(joint)
        _, closest = oracle.correlating_dominance(base["a"], base["b"], base["gibbs"], joint, (2, 2))
        if closest > CLEAR_GAP:
            return dict(base, joint=joint, dims=(2, 2))


def setup_rank(op):
    """Order in which ops of one kind, path and mode are preferred for the
    set-up probe: the cheapest, so the probe measures set-up, not work."""
    cls = op.inst.get("search_class")
    return (SEARCH_CLASSES.index(cls) if cls else 0, len(op.inst["a"]))


def _interleave(ops, rng):
    """Deterministic shuffle, so kinds and modes alternate through a round."""
    ops = list(ops)
    rng.shuffle(ops)
    return ops


# -- search ------------------------------------------------------------------------

# Demo-family points (beta_e, beta_w, ground population, failure probability)
# and where the reduced search certifies them: on the direct curves, within
# the first two-qubit cells, late in the two-qubit stage, in the three-qubit
# stage, or not at all within the 200-cell walk.
SEARCH_POINTS = {
    "direct": ((1.0, 0.01, 0.7, 0.03), (0.5, 0.01, 0.85, 0.005), (2.0, 0.01, 0.65, 0.02)),
    "early": ((2.0, 0.01, 0.6, 0.005), (1.5, 0.01, 0.6, 0.005), (2.0, 0.05, 0.6, 0.012)),
    "late": ((0.5, 0.01, 0.8, 0.004), (3.0, 0.01, 0.85, 0.008)),
    "three-qubit": ((2.5, 0.05, 0.75, 0.02), (3.0, 0.05, 0.8, 0.02), (3.5, 0.05, 0.85, 0.02)),
    "not-found": ((1.0, 0.01, 0.75, 0.006), (2.0, 0.01, 0.85, 0.006), (0.5, 0.01, 0.65, 0.006)),
}
SEARCH_CLASSES = ("direct", "early", "late", "three-qubit", "not-found", "random")
SEARCH_MIX = {
    FLOAT: {"direct": 3, "early": 4, "late": 10, "three-qubit": 3, "not-found": 2, "random": 3},
    EXACT: {"direct": 2, "early": 2, "late": 7, "three-qubit": 5, "not-found": 1},
}
JITTER = 0.01


def _demo_instance(rng, point):
    be, bw, gp, fp = (inputs.jitter(rng, v, JITTER) for v in point)
    return inputs.instance(*inputs.demo_pair(be, bw, gp, fp))


# F_1 drop of the random 3-level search pairs. Within this band the reduced
# walk finds no catalyst (none of 60 pairs with -0.055 < ΔF_1 < -0.001 was
# found, while a third of those below were), so a pair's cost does not hang
# on the seed.
RANDOM_DELTA_F1 = (-0.02, -0.002)


def _crossing_three_level(rng):
    """Smoothed random 3-level pair whose curves cross while F_1 drops by an
    amount within RANDOM_DELTA_F1."""
    low, high = RANDOM_DELTA_F1
    while True:
        lv = tuple(sorted(inputs.levels(rng, 3, 2.0)))
        a = inputs.distribution(rng, 3, 0.02)
        b = inputs.smoothed(inputs.distribution(rng, 3, 0.02), lv, rng.uniform(0.01, 0.15))
        inst = inputs.instance(lv, a, b)
        verdict, closest = oracle.dominance(a, b, inst["gibbs"])
        if verdict == "crossing" and closest > CLEAR_GAP and \
                low < oracle.delta_f(a, b, inst["gibbs"], 1.0) < high:
            return inst


def search(seed):
    rng = random.Random(seed)
    ops = []
    for mode, mix in SEARCH_MIX.items():
        for cls, count in mix.items():
            for k in range(count):
                if cls == "random":
                    inst = _crossing_three_level(rng)
                else:
                    points = SEARCH_POINTS[cls]
                    inst = _demo_instance(rng, points[k % len(points)])
                inst = _mode_copy(dict(inst, search_class=cls), mode)
                ops.append(Op("search", mode, inst, expect_search(inst)))
    return _interleave(ops, rng)


# -- witness -----------------------------------------------------------------------

# Per mode: exact simplex at n = 3, 4 (30 %), scipy LP at n = 16 (45 %) and
# n = 24 (25 %), half of each feasible. The median falls inside the n = 16
# LP kind and p90 inside the n = 24 one.
WITNESS_MIX = ((3, 6), (4, 6), (16, 18), (24, 10))


def witness(seed):
    rng = random.Random(seed)
    ops = []
    for mode in (FLOAT, EXACT):
        for n, count in WITNESS_MIX:
            for k in range(count):
                relation = ("above", "below", "above", "crossing")[k % 4]
                inst = _mode_copy(_clear_pair(rng, n, relation), mode)
                path = "exact-simplex" if n <= 12 else "scipy-lp"
                ops.append(Op("find_witness", mode, inst, expect_witness(inst), path=path))
    ops = _interleave(ops, rng)
    # lead with an LP-path call, so the process's first find_witness call
    # (witness.first_call_ms) is of the same kind in every run
    first = next(i for i, op in enumerate(ops) if op.path == "scipy-lp")
    return [ops[first]] + ops[:first] + ops[first + 1:]
