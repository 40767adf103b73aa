import ast
import dataclasses
import pathlib

import pytest

import thermoorder
from thermoorder import BlockState, Hamiltonian, JointCatalyst, LorenzCurve, StochasticWitness


def test_small_float_literals_live_only_in_the_tolerance_table():
    package = pathlib.Path(thermoorder.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "modes.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, float) \
                    and 0 < abs(node.value) < 1e-5:
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not found, found


@pytest.mark.parametrize("cls", [Hamiltonian, BlockState, JointCatalyst, LorenzCurve, StochasticWitness])
def test_exactness_is_decided_once_at_construction(cls):
    exact = {f.name: f for f in dataclasses.fields(cls)}["exact"]
    assert not (exact.init or exact.compare or exact.repr)
