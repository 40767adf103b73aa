"""Operations the benchmark times: raw instance in, library answer out.

Every operation builds its Hamiltonian and states from the raw tuples, as a
caller holding plain numbers would, and then asks one public question. All
calls go through the package namespace so that a traced run sees them.
"""

from __future__ import annotations

import thermoorder as to

# Reduced search resolution: 5 marginal values per qubit, 5 polytope points
# per slice, at most 200 cells (125 two-qubit cells, then three-qubit ones).
SEARCH_CONFIG = {"marginal_grid": 5, "polytope_grid": 5, "budget_cells": 200}


def states(inst):
    if inst["exact"]:
        ham = to.Hamiltonian(inst["levels"], inst["gibbs"])
    else:
        ham = to.Hamiltonian(inst["levels"])
    return to.BlockState(inst["a"], ham), to.BlockState(inst["b"], ham)


def thermomajorizes(inst):
    return to.thermomajorizes(*states(inst))


def catalytic_possible(inst):
    return to.catalytic_possible(*states(inst))


def correlating_possible(inst):
    return to.correlating_catalytic_possible(*states(inst))


def delta_f_sweep(inst):
    return to.delta_f_sweep(*states(inst))


def verify_correlating(inst):
    a, b = states(inst)
    return to.verify_correlating_transition(a, b, to.JointCatalyst(inst["joint"], inst["dims"]))


def search(inst):
    a, b = states(inst)
    return to.search_correlating_catalyst(a, b, to.SearchConfig(**SEARCH_CONFIG))


def find_witness(inst):
    return to.find_witness(*states(inst))


KINDS = {
    "thermomajorizes": thermomajorizes,
    "catalytic_possible": catalytic_possible,
    "correlating_possible": correlating_possible,
    "delta_f_sweep": delta_f_sweep,
    "verify_correlating": verify_correlating,
    "search": search,
    "find_witness": find_witness,
}
