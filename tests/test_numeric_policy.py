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


def _tolerance_table() -> set:
    """The names of the float constants in modes.py's tolerance table."""
    package = pathlib.Path(thermoorder.__file__).parent
    modes = ast.parse((package / "modes.py").read_text(encoding="utf-8"))
    return {target.id for node in modes.body if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, float)
            for target in node.targets}


def test_every_tolerance_in_the_table_is_used():
    package = pathlib.Path(thermoorder.__file__).parent
    table = _tolerance_table()
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
    """The one beta-order function, the exact integer reading of the data
    and the walk and cells built on them stay in one module; the others ask
    it for readings, partitions, verdicts, comparisons or cells."""
    package = pathlib.Path(thermoorder.__file__).parent
    defined = [path.name for path in sorted(package.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef)
               and node.name in ("beta_order", "integer_data", "partition", "_gaps", "refine")]
    assert defined == ["majorization.py"] * 5, defined
    found = _calls(("beta_order", "_gaps", "refine", "lcm"), skip=("majorization.py",))
    assert not found, found


def _names(tree) -> set:
    """Every name a syntax tree reads, imports or takes as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_curve_verdicts_take_no_float_slack():
    """Curve dominance is decided exactly for every arithmetic: the module
    that decides it imports no tolerance, the tie tolerance is gone, the
    correlating verification names no tolerance, and the search names only
    the free-energy slack, in its correlation-budget comparison."""
    package = pathlib.Path(thermoorder.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    imports = [node for node in ast.walk(trees["majorization.py"])
               if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "modes"
               or isinstance(node, (ast.Import, ast.ImportFrom)) and "modes" in _names(node)]
    assert not imports, [node.lineno for node in imports]
    assert not [name for name, tree in trees.items() if "TIE_TOL" in _names(tree)]
    functions = {node.name: node for node in ast.walk(trees["catalysis.py"]) if isinstance(node, ast.FunctionDef)}
    table = _tolerance_table()
    assert not _names(functions["verify_correlating_transition"]) & table
    search = functions["search_correlating_catalyst"]
    assert _names(search) & table == {"POSSIBLE_TOL"}
    budget = [node for node in ast.walk(search) if isinstance(node, ast.Compare)
              and {"budget_i", "POSSIBLE_TOL"} <= _names(node)]
    slack = [node for node in ast.walk(search) if isinstance(node, ast.Name) and node.id == "POSSIBLE_TOL"]
    assert len(budget) == 1 and slack == [node for node in ast.walk(budget[0]) if node in slack]


def test_only_states_builds_the_gibbs_record():
    """The Gibbs distribution and Z are computed once per Hamiltonian, in
    states.py; every other module reads them and neither calls gibbs_state
    nor divides by the partition function."""
    package = pathlib.Path(thermoorder.__file__).parent
    found = _calls(("gibbs_state",), skip=("states.py",))
    for path in sorted(package.glob("*.py")):
        if path.name == "states.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            divisor = node.right if isinstance(node, ast.BinOp) else getattr(node, "value", None)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div) \
                    and "partition_function" in _names(divisor):
                found.append(f"{path.name}:{node.lineno}: / partition_function")
    assert not found, found


def test_exact_and_float_copies_are_made_only_at_the_boundary():
    """The CLI converts loaded files; every other computation takes the
    arithmetic of its inputs, and find_witness reads float inputs exactly
    without a copy."""
    found = _calls(("to_exact", "to_float"), skip=("cli.py",))
    assert not found, found


def _stored(node) -> set:
    """The variables an assignment target binds or writes into."""
    if isinstance(node, (ast.Tuple, ast.List)):
        return set().union(*map(_stored, node.elts))
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return {node.id} if isinstance(node, ast.Name) else set()


def test_the_witness_reads_once_and_decides_in_integers():
    """find_witness reads its inputs once, through majorization.exact_cells,
    and _construct decides every T-transform on the integer masses: the row
    flag is tested bare and picks only the rows' arithmetic, so no branch on
    it assigns a decision, and there is no test for a missing deficit and no
    float clamp of s or t."""
    assert not [call for call in _calls(("thermomajorizes", "integer_data"))
                if call.startswith("witness.py:")]
    package = pathlib.Path(thermoorder.__file__).parent
    tree = ast.parse((package / "witness.py").read_text(encoding="utf-8"))
    construct = next(node for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef) and node.name == "_construct")
    decisions = {"mass", "target", "delta", "denom", "s_num", "t_num", "j", "k"}
    found = []
    for node in ast.walk(construct):
        if isinstance(node, (ast.If, ast.IfExp, ast.While)) and "exact" in _names(node.test):
            if not (isinstance(node.test, ast.Name) and isinstance(node, (ast.If, ast.IfExp))):
                found.append(f"{node.lineno}: a test that is not the bare flag")
            branches = node.body + node.orelse if isinstance(node, ast.If) else []
            for stmt in (n for b in branches for n in ast.walk(b)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else \
                    [stmt.target] if isinstance(stmt, (ast.AugAssign, ast.For)) else []
                if set().union(*map(_stored, targets)) & decisions:
                    found.append(f"{stmt.lineno}: a decision assigned under the flag")
        if isinstance(node, ast.Compare) and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
            found.append(f"{node.lineno}: an identity test")
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("min", "max", "float") \
                and any(isinstance(arg, ast.Constant) for arg in node.args):
            found.append(f"{node.lineno}: a clamp to a constant")
    assert not found, found


@pytest.mark.parametrize("cls", [Hamiltonian, BlockState, JointCatalyst, StochasticWitness])
def test_exactness_is_decided_once_at_construction(cls):
    exact = {f.name: f for f in dataclasses.fields(cls)}["exact"]
    assert not (exact.init or exact.compare or exact.repr)
