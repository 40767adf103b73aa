"""Fast checks of the benchmark's own oracle and failure accounting.

    python3 thermobench/selftest.py        (or: python3 -m pytest thermobench/selftest.py)

The first group reproduces the paper's demo by hand with the oracle alone:
the free-energy sweep changes sign (dF_1 < 0 < dF_4), the two uncorrelated
qubit catalysts leave the curves crossing, and the correlated joint
(0.66, 0.29, 0.04, 0.01) lifts the initial curve above the final one. The
second group feeds deliberately wrong verdicts, witnesses and joints
through the checks and the runner and expects each to count as failed.
"""

import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import inputs  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

DEMO = inputs.instance(*inputs.demo_pair(1.0, 0.01, 0.73, 0.007))
S, Q = Fraction(19, 20), Fraction(7, 10)
JOINT = (Fraction(66, 100), Fraction(29, 100), Fraction(4, 100), Fraction(1, 100))


def test_demo_sweep_changes_sign():
    df1 = oracle.delta_f(DEMO["a"], DEMO["b"], DEMO["gibbs"], 1.0)
    df4 = oracle.delta_f(DEMO["a"], DEMO["b"], DEMO["gibbs"], 4.0)
    assert df1 < 0 < df4


def test_demo_product_catalyst_crosses():
    product = oracle.kron((S, 1 - S), (Q, 1 - Q))
    verdict, _ = oracle.correlating_dominance(DEMO["a"], DEMO["b"], DEMO["gibbs"], product, (2, 2))
    assert verdict == "crossing"


def test_demo_correlated_joint_dominates():
    assert oracle.marginals(JOINT, (2, 2)) == [(S, 1 - S), (Q, 1 - Q)]
    verdict, _ = oracle.correlating_dominance(DEMO["a"], DEMO["b"], DEMO["gibbs"], JOINT, (2, 2))
    assert verdict == "above"
    assert workloads.search_ok(DEMO, JOINT, (2, 2))


class _Verdict:
    def __init__(self, verdict):
        self.verdict = verdict


def test_wrong_verdict_fails():
    tie = workloads._fault_ops()[0].inst
    check = workloads.expect_verdict(tie)
    assert check(_Verdict("below")) and not check(_Verdict("equal"))


def test_wrong_witness_fails():
    lv = (0.0, 0.5, 1.2)
    p = (0.6, 0.3, 0.1)
    q = inputs.thermal_image(random.Random(3), lv, p, 0.2)
    inst = inputs.instance(lv, p, q)
    identity = [[1.0 if i == j else 0.0 for j in range(3)] for i in range(3)]
    gamma = inputs.gibbs(lv)
    thermalise = [[gamma[i]] * 3 for i in range(3)]
    assert not workloads.witness_ok(inst, identity)      # M p != q
    assert not workloads.witness_ok(inst, None)          # feasible, so None is wrong
    assert not workloads.witness_ok(dict(inst, b=gamma), [[1.0, 0.0, 0.0]] * 3)  # not Gibbs-fixing
    assert workloads.witness_ok(dict(inst, b=gamma), thermalise)


def test_wrong_joint_fails():
    product = oracle.kron((S, 1 - S), (Q, 1 - Q))
    assert not workloads.search_ok(DEMO, product, (2, 2))          # does not certify
    assert not workloads.search_ok(DEMO, (Fraction(1, 2),) * 4, (2, 2))  # sums to 2
    reverse = dict(DEMO, a=DEMO["b"], b=DEMO["a"])
    assert not workloads.search_ok(reverse, None, None)             # F_1 would increase


def test_runner_counts_wrong_answers():
    import run
    import ops
    inst = workloads._clear_pair(random.Random(5), 4, "crossing")
    op = workloads.Op("thermomajorizes", workloads.FLOAT, inst, workloads.expect_verdict(inst))
    record, _ = run.run_in_process(op)
    assert record.ok
    real = ops.KINDS["thermomajorizes"]
    ops.KINDS["thermomajorizes"] = lambda i: _Verdict("equal")
    try:
        record, _ = run.run_in_process(op)
    finally:
        ops.KINDS["thermomajorizes"] = real
    assert not record.ok and record.fault is None


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for t in tests:
        t()
    print(f"{len(tests)} checks passed")
