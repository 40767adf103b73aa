"""The ``cli`` workload: cold ``thermoorder`` processes on seeded state files.

One round is 100 processes, 50 per numeric mode: each of check (plain,
catalytic, correlating), sweep, lorenz, work, search and witness at n = 4
six times, then witness at n = 16 and example once. The eight six-fold
commands take the same time to within process start-up noise (interpreter,
numpy, argparse, JSON), so each mode's median falls inside that one class;
the two slow commands import scipy and are 4 % of the round, so p90 stays
inside it too. Each answer is checked from its exit code, its stdout and
the files it wrote.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from fractions import Fraction

import inputs
import oracle
import ops as library_ops
import workloads
from workloads import EXACT, FLOAT, Op

# The CLI compares free energies with max(cmp_tol, 1e-15): 1e-10 in float
# mode, 1e-15 in rational mode (cmp_tol 0).
CLI_TOL = {FLOAT: 1e-10, EXACT: 1e-15}
MODE_FLAG = {FLOAT: "float", EXACT: "rational"}
REPEATS = 6
DEMO = (1.0, 0.01, 0.73, 0.007)  # the bundled example's parameters


def _write_state(path, levels, probs):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"levels": list(levels), "probs": list(probs)}, fh)


def _number(v):
    return Fraction(v) if isinstance(v, str) else v


def _exit_matches(rc, possible, unsure):
    if rc not in (0, 1):
        return False
    return unsure or (rc == 0) == possible


def _pair_checks(inst, mode, alphas):
    """Expected exit codes of the three check modes on one pair; alphas are
    the orders the library samples for the catalytic check."""
    tol = CLI_TOL[mode]
    verdict = oracle.dominance(inst["a"], inst["b"], inst["gibbs"])[0]
    sure, unsure = workloads.violations(inst, alphas, tol)
    d1 = oracle.delta_f(inst["a"], inst["b"], inst["gibbs"], 1.0)
    return {
        "check": lambda rc, out: _exit_matches(rc, oracle.dominates(verdict), False),
        "check-catalytic": lambda rc, out: _exit_matches(rc, not sure, bool(unsure) and not sure),
        "check-correlating": lambda rc, out: _exit_matches(rc, d1 <= tol, abs(d1 - tol) <= workloads.AMBIGUOUS),
    }


def _sweep_ok(inst, rows):
    """rows: (alpha label, delta_f value) from a sweep output file."""
    seen = 0
    for label, value in rows:
        want = oracle.delta_f(inst["a"], inst["b"], inst["gibbs"], float(label))
        if not workloads.delta_ok(value, want):
            return False
        seen += 1
    return seen > 0


def _sweep_json(path):
    with open(path, encoding="utf-8") as fh:
        entries = json.load(fh)["sweep"]
    return [(e["alpha"], float(e["delta_f"])) for e in entries]


def _sweep_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return [(row["alpha"], float(row["delta_f"])) for row in csv.DictReader(fh)]


def _lorenz_ok(inst, path):
    xs, ys = oracle.curve(inst["a"], inst["gibbs"])
    with open(path, encoding="utf-8", newline="") as fh:
        points = [(float(r["x"]), float(r["y"])) for r in csv.DictReader(fh)]
    if not points or abs(points[-1][0] - float(xs[-1])) > 1e-12 * float(xs[-1]):
        return False
    return all(abs(y - float(oracle.height(xs, ys, oracle.rational(x)))) <= 1e-12
               for x, y in points if x <= xs[-1])


def _work_ok(inst, out):
    gamma = oracle.gibbs(inst["gibbs"])
    numbers = dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line)
    for key, alpha in (("w_ext_deterministic_f0", 0.0), ("w_correlated_f1", 1.0), ("w_form_finf", math.inf)):
        want = float(oracle.divergence(inst["a"], gamma, alpha))
        if key not in numbers or not workloads.delta_ok(float(numbers[key]), want):
            return False
    return True


def _joint_from(path):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    joint = payload["joint"]
    return tuple(_number(v) for v in joint["probs"]), tuple(joint["dims"])


def _matrix_from(path):
    with open(path, encoding="utf-8") as fh:
        return [[_number(v) for v in row] for row in json.load(fh)["matrix"]]


def _example_ok(demo, rc, out, outdir):
    """Exit 0, PASS on every step, and the written joint, witness and sweep
    pass the oracle's checks on the demo pair."""
    steps = [line for line in out.splitlines() if line.startswith(("PASS ", "FAIL "))]
    if rc != 0 or not steps or any(line.startswith("FAIL ") for line in steps):
        return False
    joint, dims = _joint_from(os.path.join(outdir, "joint.json"))
    if not workloads.search_ok(demo, joint, dims):
        return False
    rj = tuple(oracle.rational(x) for x in joint)
    initial = tuple(oracle.rational(x) for x in demo["a"])
    for m in oracle.marginals(rj, dims):
        initial = oracle.kron(initial, m)
    final = oracle.kron(tuple(oracle.rational(x) for x in demo["b"]), rj)
    weights = oracle.kron(tuple(oracle.rational(x) for x in demo["gibbs"]), (Fraction(1),) * len(rj))
    matrix = _matrix_from(os.path.join(outdir, "witness.json"))
    if not oracle.witness_ok(matrix, initial, final, weights):
        return False
    return _sweep_ok(demo, _sweep_csv(os.path.join(outdir, "sweep.csv")))


def build(seed, rundir, alphas):
    """Write the state files and return (round of ops, warm-pass ops)."""
    rng = random.Random(seed)
    os.makedirs(rundir, exist_ok=True)

    def path(name):
        return os.path.join(rundir, name)

    classes = ("direct", "early", "late", "three-qubit", "not-found")
    pairs = [workloads._demo_instance(rng, workloads.SEARCH_POINTS[c][0]) for c in classes]
    pairs.append(workloads._clear_pair(rng, 4, "crossing"))
    searches = [workloads._demo_instance(rng, workloads.SEARCH_POINTS["early"][k % 3]) for k in range(REPEATS)]
    small = [workloads._clear_pair(rng, 4, ("above", "below", "above", "crossing")[k % 4]) for k in range(REPEATS)]
    large = workloads._clear_pair(rng, 16, "above")
    demo = inputs.instance(*inputs.demo_pair(*DEMO))

    files = {}
    for name, group in (("pair", pairs), ("search", searches), ("small", small), ("large", [large])):
        for k, inst in enumerate(group):
            for side in ("a", "b"):
                files[(name, k, side)] = path(f"{name}{k}-{side}.json")
                _write_state(files[(name, k, side)], inst["levels"], inst[side])
    config = path("search-config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(library_ops.SEARCH_CONFIG, fh)

    round_ops = []
    for mode in (FLOAT, EXACT):
        flag = ["--numeric-mode", MODE_FLAG[mode]]

        def add(kind, inst, argv, check):
            round_ops.append(Op(kind, mode, inst, check, argv=argv + flag))

        for k in range(REPEATS):
            inst = workloads._mode_copy(pairs[k], mode)
            a, b = files[("pair", k, "a")], files[("pair", k, "b")]
            checks = _pair_checks(inst, mode, alphas)
            add("check", inst, ["check", a, b], checks["check"])
            add("check-catalytic", inst, ["check", a, b, "--mode", "catalytic"], checks["check-catalytic"])
            add("check-correlating", inst, ["check", a, b, "--mode", "correlating"], checks["check-correlating"])
            out = path(f"sweep{k}-{mode}.json")
            add("sweep", inst, ["sweep", a, b, "--out", out],
                lambda rc, o, inst=inst, out=out: rc == 0 and _sweep_ok(inst, _sweep_json(out)))
            out = path(f"lorenz{k}-{mode}.csv")
            add("lorenz", inst, ["lorenz", a, "--out", out],
                lambda rc, o, inst=inst, out=out: rc == 0 and _lorenz_ok(inst, out))
            add("work", inst, ["work", a], lambda rc, o, inst=inst: rc == 0 and _work_ok(inst, o))

            inst = workloads._mode_copy(searches[k], mode)
            out = path(f"search{k}-{mode}.json")
            add("search", inst, ["search", files[("search", k, "a")], files[("search", k, "b")],
                                 "--config", config, "--out", out],
                lambda rc, o, inst=inst, out=out: (rc == 0 and workloads.search_ok(inst, *_joint_from(out)))
                or (rc == 1 and workloads.search_ok(inst, None, None)))

            inst = workloads._mode_copy(small[k], mode)
            out = path(f"witness{k}-{mode}.json")
            add("witness-small", inst, ["witness", files[("small", k, "a")], files[("small", k, "b")], "--out", out],
                lambda rc, o, inst=inst, out=out: (rc == 0 and workloads.witness_ok(inst, _matrix_from(out)))
                or (rc == 1 and workloads.witness_ok(inst, None)))

        inst = workloads._mode_copy(large, mode)
        out = path(f"witness-large-{mode}.json")
        add("witness-large", inst, ["witness", files[("large", 0, "a")], files[("large", 0, "b")], "--out", out],
            lambda rc, o, inst=inst, out=out: (rc == 0 and workloads.witness_ok(inst, _matrix_from(out)))
            or (rc == 1 and workloads.witness_ok(inst, None)))
        demo_mode = workloads._mode_copy(demo, mode)
        outdir = path(f"example-{mode}")
        add("example", demo_mode, ["example", "--outdir", outdir],
            lambda rc, o, d=demo_mode, outdir=outdir: _example_ok(d, rc, o, outdir))

    ordered = workloads._interleave(round_ops, rng)
    # one command of each kind, for the untimed pass that warms the file cache
    warm, seen = [], set()
    for op in round_ops:
        if op.kind not in seen:
            seen.add(op.kind)
            warm.append(op)
    return ordered, warm
