"""Bundled work-extraction demo instance.

A single qubit with gap 1 kT and ground population 0.73 hands its free
energy to a work bit with gap 0.01 kT, up to failure probability 0.007.
The demo shows the full story on one screen: the transition fails the
order-4 free-energy constraint even though the ordinary free energy drops,
two trivial-Hamiltonian qubit catalysts with ground populations 0.95 and
0.70 cannot fix it while uncorrelated, and the correlated joint
(0.66, 0.29, 0.04, 0.01) certifies it through curve dominance.

Parameters are module constants so the demo pipeline and the test suite
share one source of truth.
"""

from __future__ import annotations

from fractions import Fraction

from .states import BlockState, Hamiltonian, tensor

BETA_E = 1.0
BETA_W = 0.01
GROUND_POP = 0.73
FAIL_PROB = 0.007

CATALYST_S = Fraction(19, 20)   # 0.95
CATALYST_Q = Fraction(7, 10)    # 0.70
CATALYST_X10 = Fraction(1, 25)  # 0.04

SMOOTHING_GRID = (0.05, 0.02, 0.007)


def work_extraction_pair(beta_e: float = BETA_E, beta_w: float = BETA_W,
                         ground_pop: float = GROUND_POP,
                         fail_prob: float = FAIL_PROB):
    """(initial, final) on the qubit-plus-work-bit Hamiltonian.

    Initial: the qubit in (p, 1-p) with the work bit parked in its ground
    state. Final: the qubit thermalized, the work bit raised except with
    probability eps.
    """
    system = Hamiltonian((0.0, float(beta_e)))
    work_bit = Hamiltonian((0.0, float(beta_w)))
    p, eps = float(ground_pop), float(fail_prob)
    if not 0 < p < 1:
        raise ValueError("ground population must lie strictly in (0,1)")
    if not 0 < eps < 1:
        raise ValueError("failure probability must lie strictly in (0,1)")
    initial = tensor(
        BlockState((p, 1.0 - p), system),
        BlockState((1.0, 0.0), work_bit),
    )
    final = tensor(
        BlockState(system.gibbs_probs, system),
        BlockState((eps, 1.0 - eps), work_bit),
    )
    return initial, final
