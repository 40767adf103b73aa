import ast
import dataclasses
import pathlib

import pytest

import thermoorder
from thermoorder import BlockState, Hamiltonian, JointCatalyst, StochasticWitness


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


def test_every_tolerance_in_the_table_is_used():
    package = pathlib.Path(thermoorder.__file__).parent
    modes = ast.parse((package / "modes.py").read_text(encoding="utf-8"))
    table = {target.id for node in modes.body if isinstance(node, ast.Assign)
             and isinstance(node.value, ast.Constant) and isinstance(node.value.value, float)
             for target in node.targets}
    used = set()
    for path in package.glob("*.py"):
        if path.name == "modes.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert table, "no tolerance table found in modes.py"
    assert not table - used, sorted(table - used)


def _calls(names, skip=()):
    """'file:line: name' of every call in the package to one of names,
    outside the files named in skip."""
    package = pathlib.Path(thermoorder.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name in skip:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in names:
                    found.append(f"{path.name}:{node.lineno}: {name}")
    return found


def test_library_code_calls_the_evaluator_not_the_raw_sequence_functions():
    """renyi_entropy and renyi_divergence validate raw sequences for callers
    outside the package; inside it, validated data goes to the evaluator."""
    found = _calls(("renyi_entropy", "renyi_divergence"))
    assert not found, found


def test_only_majorization_orders_levels():
    """The beta order, the scaling of exact data to integers and the cell
    refinement built on them stay in one module; the others ask it for
    curves, comparisons or cells, except that the catalyst decisions order
    their composite sides' segments themselves, in Fractions, floats or
    integers, all scaled by the one helper."""
    package = pathlib.Path(thermoorder.__file__).parent
    defined = [path.name for path in sorted(package.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef)
               and node.name in ("beta_segments", "integer_segments", "integer_data", "_beta_order")]
    assert defined == ["majorization.py"] * 4, defined
    found = _calls(("beta_segments", "integer_segments", "integer_data"),
                   skip=("majorization.py", "catalysis.py"))
    found += _calls(("_beta_order", "lcm"), skip=("majorization.py",))
    assert not found, found


def test_exact_and_float_copies_are_made_only_at_the_boundary():
    """The CLI converts loaded files and find_witness cuts its cells from exact
    data; every other computation takes the arithmetic of its inputs."""
    found = _calls(("to_exact", "to_float"), skip=("cli.py", "witness.py"))
    assert not found, found


@pytest.mark.parametrize("cls", [Hamiltonian, BlockState, JointCatalyst, StochasticWitness])
def test_exactness_is_decided_once_at_construction(cls):
    exact = {f.name: f for f in dataclasses.fields(cls)}["exact"]
    assert not (exact.init or exact.compare or exact.repr)
