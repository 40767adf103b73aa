import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from thermoorder import BlockState, Hamiltonian
from thermoorder.demo import work_extraction_pair
from thermoorder.states import save_json, state_to_dict


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "thermoorder.cli", *args],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


@pytest.fixture(scope="module")
def demo_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("states")
    initial, final = work_extraction_pair()
    paths = {}
    for name, state in (("initial", initial), ("final", final)):
        path = root / f"{name}.json"
        save_json(state_to_dict(state), path)
        paths[name] = str(path)
    rational = BlockState((Fraction(7, 10), Fraction(3, 10)), Hamiltonian.trivial(2))
    path = root / "rational.json"
    save_json(state_to_dict(rational), path)
    paths["rational"] = str(path)
    return paths


def test_check_identical_files_possible_any_mode(demo_files):
    for mode in ("plain", "catalytic", "correlating"):
        res = run_cli("check", demo_files["initial"], demo_files["initial"], "--mode", mode)
        assert res.returncode == 0, res.stderr


def test_check_catalytic_reference_pair_impossible(demo_files):
    res = run_cli("check", demo_files["initial"], demo_files["final"], "--mode", "catalytic")
    assert res.returncode == 1
    assert "violating_alphas" in res.stdout
    assert "4.0" in res.stdout


def test_check_correlating_reference_pair_possible(demo_files):
    res = run_cli("check", demo_files["initial"], demo_files["final"], "--mode", "correlating")
    assert res.returncode == 0


def test_check_parse_error_exits_two(tmp_path, demo_files):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = run_cli("check", str(bad), demo_files["final"])
    assert res.returncode == 2
    assert "error" in res.stderr


def test_check_hamiltonian_mismatch_exits_two(tmp_path, demo_files):
    other = tmp_path / "other.json"
    save_json({"levels": [0, 2.0], "probs": [0.5, 0.5]}, other)
    res = run_cli("check", demo_files["rational"], str(other))
    assert res.returncode == 2


def test_check_float_overflow_exits_two(tmp_path):
    # across an 800 kT spread the upper level's weight e^{-800} underflows
    deep = tmp_path / "deep.json"
    save_json({"levels": [-800.0, 0.0], "probs": [0.5, 0.5]}, deep)
    res = run_cli("check", str(deep), str(deep))
    assert res.returncode == 2
    assert res.stderr.startswith("error:")


@pytest.mark.parametrize("numeric_mode", ["float", "rational"])
def test_check_level_beyond_the_float_range_exits_two(tmp_path, numeric_mode):
    # a 401-digit integer level: its weight is 0, as for a float level 800 kT up
    far = tmp_path / "far.json"
    far.write_text('{"levels": [0, 1%s], "probs": [1, 0]}' % ("0" * 400))
    res = run_cli("check", str(far), str(far), "--numeric-mode", numeric_mode)
    assert res.returncode == 2
    assert res.stderr.startswith("error:") and ") is 0.0; weights must be finite and positive" in res.stderr


@pytest.mark.parametrize("numeric_mode", ["float", "rational"])
def test_check_is_gauge_invariant_at_800_kT(tmp_path, numeric_mode):
    # the shifted files' absolute Boltzmann weights under- or overflow
    levels = (0.0, 0.4, 1.1, 2.0)
    for shift in (0.0, 800.0, -800.0):
        for name, probs in (("a", (0.4, 0.3, 0.2, 0.1)), ("b", (0.3, 0.28, 0.24, 0.18))):
            save_json({"levels": [e + shift for e in levels], "probs": list(probs)},
                      tmp_path / f"{name}{shift:+.0f}.json")
    outcomes = {}
    for shift in ("+0", "+800", "-800"):
        for mode in ("plain", "catalytic", "correlating"):
            res = run_cli("check", str(tmp_path / f"a{shift}.json"), str(tmp_path / f"b{shift}.json"),
                          "--mode", mode, "--numeric-mode", numeric_mode)
            verdicts = [line for line in res.stdout.splitlines() if line.startswith("curve:")]
            outcomes.setdefault(shift, []).append((res.returncode, verdicts))
    assert outcomes["+800"] == outcomes["-800"] == outcomes["+0"]
    assert {code for code, _ in outcomes["+0"]} <= {0, 1}


@pytest.mark.parametrize("numeric_mode", ["float", "rational"])
def test_lorenz_keeps_the_absolute_weights_of_the_levels(tmp_path, numeric_mode):
    # the library's weights are relative to the ground level; a file's
    # curve keeps the units of its levels as written
    state = tmp_path / "s.json"
    save_json({"levels": [1.0, 2.5], "probs": [0.25, 0.75]}, state)
    res = run_cli("lorenz", str(state), "--numeric-mode", numeric_mode)
    assert res.returncode == 0, res.stderr
    extent = float(res.stdout.split("x_extent = ")[1].split()[0])
    assert extent == pytest.approx(math.exp(-1.0) + math.exp(-2.5), rel=1e-15)


@pytest.mark.parametrize("document", [
    {"probs": 5},
    "probs",
    {"levels": 3, "probs": [0.5, 0.5]},
], ids=["probs-number", "top-level-string", "levels-number"])
def test_check_malformed_state_file_exits_two(tmp_path, demo_files, document):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document))
    res = run_cli("check", str(bad), demo_files["rational"])
    assert res.returncode == 2
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_check_rejects_bad_tol(tmp_path, tol):
    # uniform -> (9/10, 1/10) is impossible; a NaN or infinite slack called it possible
    a = tmp_path / "a.json"
    save_json({"levels": [0, 0], "probs": ["1/2", "1/2"]}, a)
    b = tmp_path / "b.json"
    save_json({"levels": [0, 0], "probs": ["9/10", "1/10"]}, b)
    res = run_cli("check", str(a), str(b), f"--tol={tol}")
    assert res.returncode == 2
    assert "error: argument --tol" in res.stderr
    assert res.stdout == ""


def test_sweep_writes_csv_with_limit_labels(tmp_path, demo_files):
    out = tmp_path / "sweep.csv"
    res = run_cli("sweep", demo_files["initial"], demo_files["final"], "--out", str(out))
    assert res.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,delta_f,finite"
    labels = [line.split(",")[0] for line in lines[1:]]
    for needed in ("-inf", "0", "1", "inf", "4.0"):
        assert needed in labels
    one_row = lines[labels.index("1") + 1]
    four_row = lines[labels.index("4.0") + 1]
    assert float(one_row.split(",")[1]) < 0
    assert float(four_row.split(",")[1]) > 0


def test_sweep_identical_states_all_zero(tmp_path, demo_files):
    out = tmp_path / "zero.csv"
    res = run_cli("sweep", demo_files["initial"], demo_files["initial"], "--out", str(out))
    assert res.returncode == 0
    for line in out.read_text().splitlines()[1:]:
        label, value, finite = line.split(",")
        if finite == "true":
            assert abs(float(value)) < 1e-12


def test_sweep_to_gibbs_never_positive(tmp_path, demo_files):
    gamma_path = tmp_path / "gamma.json"
    from thermoorder import gibbs_state
    from thermoorder.states import load_state

    initial = load_state(demo_files["initial"])
    save_json(state_to_dict(gibbs_state(initial.ham)), gamma_path)
    out = tmp_path / "togibbs.csv"
    res = run_cli("sweep", demo_files["initial"], str(gamma_path), "--out", str(out))
    assert res.returncode == 0
    for line in out.read_text().splitlines()[1:]:
        label, value, finite = line.split(",")
        if finite == "true":
            assert float(value) <= 1e-12


def test_lorenz_gibbs_two_point_diagonal(tmp_path):
    path = tmp_path / "gibbs.json"
    save_json({"levels": [0.0, 1.0], "probs": [0.7310585786300049, 0.2689414213699951]}, path)
    out = tmp_path / "curve.csv"
    res = run_cli("lorenz", str(path), "--out", str(out))
    assert res.returncode == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "x,y"
    assert len(rows) == 4  # (0,0) plus one breakpoint per level


def test_witness_identity_for_equal_files(tmp_path, demo_files):
    out = tmp_path / "w.json"
    res = run_cli("witness", demo_files["rational"], demo_files["rational"], "--out", str(out),
                  "--numeric-mode", "rational")
    assert res.returncode == 0
    data = json.loads(out.read_text())
    assert data["matrix"] == [[1, 0], [0, 1]]
    assert data["validated"] is True


def test_witness_constant_map_to_gibbs(tmp_path):
    a = tmp_path / "a.json"
    save_json({"levels": [0, 0], "probs": ["9/10", "1/10"]}, a)
    g = tmp_path / "g.json"
    save_json({"levels": [0, 0], "probs": ["1/2", "1/2"]}, g)
    out = tmp_path / "w.json"
    res = run_cli("witness", str(a), str(g), "--out", str(out), "--numeric-mode", "rational")
    assert res.returncode == 0
    data = json.loads(out.read_text())
    assert data["matrix"] == [["1/2", "1/2"], ["1/2", "1/2"]]


def test_witness_infeasible_pair_reports_breakpoint(tmp_path):
    a = tmp_path / "a.json"
    save_json({"levels": [0, 0], "probs": ["1/2", "1/2"]}, a)
    b = tmp_path / "b.json"
    save_json({"levels": [0, 0], "probs": ["9/10", "1/10"]}, b)
    res = run_cli("witness", str(a), str(b))
    assert res.returncode == 1
    assert "violating_breakpoint_x" in res.stdout


def test_witness_reports_the_exact_comparison_on_a_float_near_tie(tmp_path):
    # 1e-14 of mass moved: the curves differ by less than any float slack,
    # and both commands decide them exactly, as the rationals the files hold
    levels = [0, 0.4, 1.1, 2]
    a = tmp_path / "a.json"
    save_json({"levels": levels, "probs": [0.4 + 1e-14, 0.3 - 1e-14, 0.2, 0.1]}, a)
    b = tmp_path / "b.json"
    save_json({"levels": levels, "probs": [0.4, 0.3, 0.2, 0.1]}, b)
    res = run_cli("witness", str(a), str(b))
    assert res.returncode == 1
    assert "feasible: False" in res.stdout
    assert "curve: below" in res.stdout
    assert "violating_breakpoint_x" in res.stdout
    res = run_cli("check", str(a), str(b))
    assert res.returncode == 1
    assert "curve: below" in res.stdout
    assert "possible: False" in res.stdout


@pytest.mark.parametrize("mode, gap", [("float", "0.049999999999999996"),
                                       ("rational", "0.050000000000000003")],
                         ids=("float", "rational"))
def test_witness_decides_an_infeasible_pair_once(tmp_path, monkeypatch, capsys, mode, gap):
    # the comparison that rules the witness out is the one reported
    from thermoorder import cli, majorization

    walk = majorization.compare_partitions
    calls = []

    def counted(*args):
        calls.append(None)
        return walk(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("thermoorder") and getattr(module, "compare_partitions", None) is walk:
            monkeypatch.setattr(module, "compare_partitions", counted)
    a = tmp_path / "a.json"
    save_json({"levels": [0, 0, 0], "probs": ["3/5", "1/4", "3/20"]}, a)
    b = tmp_path / "b.json"
    save_json({"levels": [0, 0, 0], "probs": ["1/2", "2/5", "1/10"]}, b)
    assert cli.main(["witness", str(a), str(b), "--numeric-mode", mode]) == 1
    assert len(calls) == 1
    assert capsys.readouterr().out.splitlines()[3:] == [
        "feasible: False",
        "curve: crossing",
        "violating_breakpoint_x = 2",
        f"violating_breakpoint_gap = {gap}",
    ]


@pytest.mark.parametrize("command", [("check", "--mode", "catalytic"), ("sweep",)])
def test_empty_order_list_exits_two(demo_files, command):
    res = run_cli(command[0], demo_files["initial"], demo_files["final"], *command[1:],
                  "--alphas=,")
    assert res.returncode == 2
    assert "at least one order" in res.stderr
    assert "possible: True" not in res.stdout


def test_work_command_full_rank_zero_f0(demo_files):
    res = run_cli("work", demo_files["rational"])
    assert res.returncode == 0
    line = next(l for l in res.stdout.splitlines() if l.startswith("w_ext_deterministic_f0"))
    assert abs(float(line.split("=")[1])) < 1e-12


def test_search_product_catalyst_when_direct(tmp_path):
    a = tmp_path / "a.json"
    save_json({"levels": [0, 0], "probs": ["3/4", "1/4"]}, a)
    b = tmp_path / "b.json"
    save_json({"levels": [0, 0], "probs": ["5/8", "3/8"]}, b)
    out = tmp_path / "res.json"
    res = run_cli("search", str(a), str(b), "--out", str(out))
    assert res.returncode == 0
    data = json.loads(out.read_text())
    assert data["total_correlation"] == 0.0


def test_search_reference_pair_succeeds(tmp_path, demo_files):
    out = tmp_path / "res.json"
    res = run_cli("search", demo_files["initial"], demo_files["final"], "--out", str(out))
    assert res.returncode == 0
    data = json.loads(out.read_text())
    assert data["comparison"]["verdict"] in ("above", "equal")
    assert data["total_correlation"] > 0


def test_search_reports_the_cells_it_compared(tmp_path, demo_files):
    report = tmp_path / "report.json"
    res = run_cli("search", demo_files["initial"], demo_files["final"], "--report", str(report))
    assert res.returncode == 0
    numbers = json.loads(report.read_text())["numbers"]
    assert 0 < numbers["cells_compared"] <= numbers["cells_evaluated"]
    assert f"cells_compared = {numbers['cells_compared']}" in res.stdout


def test_search_reverse_pair_exits_one(demo_files):
    res = run_cli("search", demo_files["final"], demo_files["initial"])
    assert res.returncode == 1
    assert "precondition: correlating transition is impossible: " in res.stdout


def test_search_hamiltonian_mismatch_exits_two(tmp_path, demo_files):
    other = tmp_path / "other.json"
    save_json({"levels": [0, 2.0], "probs": [0.5, 0.5]}, other)
    res = run_cli("search", demo_files["rational"], str(other))
    assert res.returncode == 2
    assert res.stderr.startswith("error:")


def test_example_all_pass(tmp_path):
    res = run_cli("example")
    assert res.returncode == 0, res.stdout + res.stderr
    passes = [l for l in res.stdout.splitlines() if l.startswith("PASS")]
    fails = [l for l in res.stdout.splitlines() if l.startswith("FAIL")]
    assert len(passes) >= 8 and not fails


def test_example_infeasible_x10_fails_construction():
    res = run_cli("example", "--x10", "0.3")
    assert res.returncode == 1
    assert "FAIL catalyst-construction" in res.stdout


@pytest.mark.parametrize("flag", ["--x10=nan", "--x10=inf", "--epsilon=nan", "--epsilon=-inf"])
def test_example_rejects_non_finite_parameters(flag):
    res = run_cli("example", flag)
    assert res.returncode == 2
    assert f"error: argument {flag.split('=')[0]}: must be finite" in res.stderr
    assert "FAIL" not in res.stdout


def test_example_x10_outside_the_feasible_interval_fails_construction():
    res = run_cli("example", "--x10=-0.5")
    assert res.returncode == 1
    assert "FAIL catalyst-construction" in res.stdout


def test_example_byte_identical_across_runs(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    res1 = run_cli("example", "--outdir", str(out1))
    res2 = run_cli("example", "--outdir", str(out2))
    assert res1.returncode == res2.returncode == 0
    assert res1.stdout.replace(str(out1), "") == res2.stdout.replace(str(out2), "")
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2 and files1
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_state_file_round_trip_bit_exact_rational(tmp_path, demo_files):
    from thermoorder.states import load_state

    state = load_state(demo_files["rational"]).to_exact()
    path = tmp_path / "copy.json"
    save_json(state_to_dict(state), path)
    again = load_state(path)
    assert again.probs == state.probs
    assert json.dumps(state_to_dict(again)) == json.dumps(state_to_dict(state))


def test_env_variable_selects_mode(demo_files):
    res = run_cli("work", demo_files["rational"], env_extra={"THERMO_ORDER_MODE": "rational"})
    assert res.returncode == 0
    assert "mode=rational" in res.stdout


def test_unknown_env_mode_exits_two(demo_files):
    res = run_cli("work", demo_files["rational"], env_extra={"THERMO_ORDER_MODE": "decimal"})
    assert res.returncode == 2
    assert res.stderr.strip() == "error: unknown numeric mode 'decimal'"


def test_sweep_json_export(tmp_path, demo_files):
    out = tmp_path / "sweep.json"
    res = run_cli("sweep", demo_files["initial"], demo_files["final"], "--out", str(out))
    assert res.returncode == 0
    data = json.loads(out.read_text())
    rows = data["sweep"]
    labels = [r["alpha"] for r in rows]
    assert labels[0] == "-inf" and labels[-1] == "inf"
    neg_inf_row = rows[0]
    assert neg_inf_row["delta_f"] in ("inf", "-inf") or isinstance(neg_inf_row["delta_f"], float)
    assert any(r["alpha"] == "1" and r["delta_f"] < 0 for r in rows)


def test_search_honors_config_file(tmp_path, demo_files):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "dims": [[2, 2]], "marginal_grid": 19, "polytope_grid": 26,
        "budget_cells": 2,
    }))
    res = run_cli("search", demo_files["initial"], demo_files["final"],
                  "--config", str(config))
    assert res.returncode == 1
    assert "not found at this resolution" in res.stdout


@pytest.mark.parametrize("bad", [
    {"polytope_grid": 1}, {"marginal_grid": 0}, {"polytope_grd": 3}, [],
    {"polytope_grid": 5.7}, {"marginal_grid": True}, {"dims": [[2, 2.0]]}, {"dims": []},
])
def test_search_rejects_bad_config_file(tmp_path, demo_files, bad):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(bad))
    res = run_cli("search", demo_files["initial"], demo_files["final"],
                  "--config", str(config))
    assert res.returncode == 2
    assert res.stderr.startswith("error:")


def test_lorenz_stdout_when_no_out(demo_files):
    res = run_cli("lorenz", demo_files["rational"])
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == "x,y"


def test_report_json_written(tmp_path, demo_files):
    report = tmp_path / "report.json"
    res = run_cli("work", demo_files["rational"], "--report", str(report))
    assert res.returncode == 0
    data = json.loads(report.read_text())
    assert data["command"] == "work"
    assert data["mode"] == "float"
    assert "state" in data["inputs"]


@pytest.mark.parametrize("where", ["before", "after"])
@pytest.mark.parametrize("options, header", [
    (["--numeric-mode", "rational"], "mode=rational cmp_tol=0.0 "),
    (["--tol", "0.001"], "mode=float cmp_tol=0.001 "),
], ids=["numeric-mode", "tol"])
def test_shared_options_apply_on_either_side_of_the_subcommand(demo_files, options, header, where):
    command = ["work", demo_files["rational"]]
    res = run_cli(*options, *command) if where == "before" else run_cli(*command, *options)
    assert res.returncode == 0, res.stderr
    assert header in res.stdout.splitlines()[0]


def test_report_option_before_the_subcommand_writes_the_report(tmp_path, demo_files):
    report = tmp_path / "report.json"
    res = run_cli("--report", str(report), "--numeric-mode", "rational", "work", demo_files["rational"])
    assert res.returncode == 0, res.stderr
    data = json.loads(report.read_text())
    assert (data["command"], data["mode"]) == ("work", "rational")


def test_shared_option_after_the_subcommand_wins(demo_files):
    res = run_cli("--numeric-mode", "rational", "work", "--numeric-mode", "float", demo_files["rational"])
    assert res.returncode == 0, res.stderr
    assert "mode=float " in res.stdout.splitlines()[0]


def test_check_correlating_flags_equal_free_energy(tmp_path):
    a = tmp_path / "a.json"
    save_json({"levels": [0, 0], "probs": ["3/5", "2/5"]}, a)
    res = run_cli("check", str(a), str(a), "--mode", "correlating")
    assert res.returncode == 0
    assert "caveat" in res.stdout
    assert "unbounded catalyst dimension" in res.stdout


def test_search_result_joint_round_trips_bit_exact(tmp_path, demo_files):
    from thermoorder import load_joint
    from fractions import Fraction as F

    out = tmp_path / "res.json"
    res = run_cli("search", demo_files["initial"], demo_files["final"], "--out", str(out))
    assert res.returncode == 0
    joint = load_joint(out)
    data = json.loads(out.read_text())
    assert [str(F(x)) if isinstance(x, str) else x for x in data["joint"]["probs"]] == \
        [x if isinstance(x, (int, float)) else str(F(x)) for x in data["joint"]["probs"]]
    # reload and re-serialize: identical payload
    from thermoorder.states import joint_to_dict
    assert joint_to_dict(joint) == data["joint"]


def test_runtime_loads_neither_numpy_nor_scipy():
    code = (
        "import runpy, sys\n"
        "import thermoorder\n"
        "assert not {'numpy', 'scipy'} & set(sys.modules), 'import'\n"
        "sys.argv = ['thermoorder', 'example']\n"
        "try:\n"
        "    runpy.run_module('thermoorder', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "loaded = sorted({'numpy', 'scipy'} & set(sys.modules))\n"
        "assert not loaded, loaded\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert "PASS" in res.stdout
