"""Command-line front end.

Subcommands: check, sweep, lorenz, search, witness, work, example. Inputs
are JSON state files ({"levels": [...], "probs": [...]}, rational entries
as "n/d" strings); outputs are CSV/JSON files plus a deterministic report
on stdout. Exit codes: 0 possible/success, 1 impossible/not found, 2 error.
Each command fills in a RunReport and returns its exit code; ``main``
prints the report and writes it to --report.

The numeric mode defaults to THERMO_ORDER_MODE ({float|rational}) and can
be overridden per invocation with --numeric-mode. ``main`` resolves it once
into ``args.exact`` (load files as rationals) and ``args.cmp_tol``, the
free-energy slack (0 in rational mode); curve verdicts are always exact.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field

from . import demo
from .catalysis import (
    SearchConfig,
    catalytic_possible,
    correlating_catalytic_possible,
    qubit_pair_catalyst,
    search_correlating_catalyst,
    verify_correlating_transition,
    work_quantities,
)
from .entropies import (
    ALPHA_1,
    Alpha,
    default_alpha_grid,
    delta_f_sweep,
    format_number,
    free_energy_gap,
    total_correlation,
    work_bit_delta_f,
)
from .majorization import thermal_lorenz, thermomajorizes
from .modes import (
    BUDGET_TOL,
    CLOSED_FORM_TOL,
    FREE_ENERGY_FLOOR,
    NORM_TOL,
    POSSIBLE_TOL,
    to_fraction,
)
from .states import (
    BlockState,
    Hamiltonian,
    joint_to_dict,
    load_state,
    marginal,
    product_joint,
    save_json,
    state_to_dict,
    tensor,
)
from .witness import WitnessNumericalError, _witness_or_comparison, find_witness

EXIT_OK = 0
EXIT_IMPOSSIBLE = 1
EXIT_ERROR = 2
NUMERIC_MODES = ("float", "rational")


@dataclass
class RunReport:
    """Reproducibility header plus the command's verdicts and numbers."""

    command: str
    mode: str
    tolerances: dict
    inputs: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    numbers: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)

    def to_json_obj(self) -> dict:
        return asdict(self)

    def print_text(self, out) -> None:
        tols = " ".join(f"{k}={v!r}" for k, v in sorted(self.tolerances.items()))
        print(f"# command={self.command} mode={self.mode} {tols}", file=out)
        for name, digest in sorted(self.inputs.items()):
            print(f"# input {name} sha256={digest}", file=out)
        for key, value in self.verdicts.items():
            print(f"{key}: {value}", file=out)
        for key, value in self.numbers.items():
            if isinstance(value, float):
                value = format_number(value)
            print(f"{key} = {value}", file=out)
        for path in self.outputs:
            print(f"wrote {path}", file=out)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load(path: str, exact: bool) -> BlockState:
    """The file's state in the chosen arithmetic, on the absolute Boltzmann
    weights e^{-E_i} of its levels where floats hold them, so answers and
    exports keep the units of the levels as written; beyond the float
    range, on the library's ground-relative weights."""
    state = load_state(path)
    levels = state.ham.levels
    try:
        state = BlockState(state.probs, Hamiltonian(levels, tuple(math.exp(-float(e)) for e in levels)))
    except (OverflowError, ValueError):  # a weight over- or underflows
        pass
    return state.to_exact() if exact else state.to_float()


def _parse_alphas(text: str):
    return tuple(Alpha.from_label(part) for part in text.split(",") if part.strip())


def _finite(text: str) -> float:
    """--x10 and --epsilon values: a finite float."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, not {text}")
    return value


def _tolerance(text: str) -> float:
    """--tol value: a finite float >= 0."""
    if _finite(text) < 0:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, not {text}")
    return float(text)


def cmd_check(args, report: RunReport, out) -> int:
    a = _load(args.initial, args.exact)
    b = _load(args.final, args.exact)
    alphas = _parse_alphas(args.alphas) if args.alphas else None
    tol = max(args.cmp_tol, FREE_ENERGY_FLOOR)
    if args.mode == "plain":
        cmp_result = thermomajorizes(a, b)
        possible = cmp_result.dominates
        report.verdicts["curve"] = cmp_result.verdict
        report.verdicts["marginal"] = cmp_result.marginal
        if cmp_result.violations:
            x, gap = cmp_result.violations[0]
            report.numbers["worst_violation_x"] = float(x)
            report.numbers["worst_violation_gap"] = float(gap)
    elif args.mode == "catalytic":
        verdict = catalytic_possible(a, b, alphas, tol=tol)
        possible = verdict.possible
        if not possible:
            report.verdicts["violating_alphas"] = ",".join(
                v.label() for v in verdict.diagnostics
            )
    else:
        verdict = correlating_catalytic_possible(a, b, tol=tol)
        possible = verdict.possible
        delta_f1 = free_energy_gap(b, ALPHA_1) - free_energy_gap(a, ALPHA_1)
        report.numbers["delta_f1"] = delta_f1
        if possible and abs(delta_f1) <= tol:
            report.verdicts["caveat"] = (
                "free energies are equal within tolerance: approaching the "
                "target with vanishing correlations forces unbounded catalyst dimension"
            )
    report.verdicts["possible"] = possible
    return EXIT_OK if possible else EXIT_IMPOSSIBLE


def cmd_sweep(args, report: RunReport, out) -> int:
    a = _load(args.initial, args.exact)
    b = _load(args.final, args.exact)
    alphas = _parse_alphas(args.alphas) if args.alphas else default_alpha_grid()
    profile = delta_f_sweep(a, b, alphas)
    if args.out:
        if args.out.endswith(".json"):
            save_json({"sweep": profile.to_json_obj()}, args.out)
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                profile.write_csv(fh)
        report.outputs.append(args.out)
    else:
        profile.write_csv(out)
    intervals = profile.sign_intervals()
    pretty = "; ".join(f"{s} on [{lo.label()}, {hi.label()}]" for s, lo, hi in intervals)
    report.verdicts["sign_intervals"] = pretty
    return EXIT_OK


def cmd_lorenz(args, report: RunReport, out) -> int:
    s = _load(args.state, args.exact)
    curve = thermal_lorenz(s)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            curve.write_csv(fh)
        report.outputs.append(args.out)
    else:
        curve.write_csv(out)
    report.numbers["breakpoints"] = len(curve.points)
    report.numbers["x_extent"] = float(curve.x_extent)
    return EXIT_OK


def cmd_search(args, report: RunReport, out) -> int:
    a = _load(args.initial, args.exact)
    b = _load(args.final, args.exact)
    config = SearchConfig()
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = SearchConfig.from_json_obj(json.load(fh))
        report.inputs["config"] = _digest(args.config)
    verdict = correlating_catalytic_possible(a, b)
    if not verdict.possible:
        report.verdicts["found"] = False
        report.verdicts["precondition"] = f"correlating transition is impossible: {verdict.reason}"
        return EXIT_IMPOSSIBLE
    result = search_correlating_catalyst(a, b, config)
    if result is None:
        report.verdicts["found"] = False
        report.verdicts["note"] = "not found at this resolution"
        return EXIT_IMPOSSIBLE
    report.verdicts["found"] = True
    report.verdicts["curve"] = result.comparison.verdict
    report.numbers["total_correlation"] = result.total_correlation
    report.numbers["cells_evaluated"] = result.cells_evaluated
    report.numbers["cells_compared"] = result.cells_compared
    if args.out:
        payload = {
            "joint": joint_to_dict(result.joint),
            "marginals": [
                state_to_dict(m) for m in result.joint.marginals()
            ],
            "total_correlation": result.total_correlation,
            "comparison": result.comparison.to_json_obj(),
        }
        save_json(payload, args.out)
        report.outputs.append(args.out)
    return EXIT_OK


def cmd_witness(args, report: RunReport, out) -> int:
    a = _load(args.initial, args.exact)
    b = _load(args.final, args.exact)
    witness, cmp_result = _witness_or_comparison(a, b)
    if witness is None:
        # the comparison that decided, as check reports it
        report.verdicts["feasible"] = False
        report.verdicts["curve"] = cmp_result.verdict
        if cmp_result.violations:
            x, gap = cmp_result.violations[0]
            report.numbers["violating_breakpoint_x"] = float(x)
            report.numbers["violating_breakpoint_gap"] = float(gap)
        return EXIT_IMPOSSIBLE
    gamma = a.ham.gibbs_probs
    report.verdicts["feasible"] = True
    residuals = witness.residuals(a.probs, b.probs, gamma)
    for key, value in sorted(residuals.items()):
        report.numbers[f"residual_{key}"] = value
    if args.out:
        save_json(witness.to_json_obj(a.probs, b.probs, gamma), args.out)
        report.outputs.append(args.out)
    return EXIT_OK


def cmd_work(args, report: RunReport, out) -> int:
    s = _load(args.state, args.exact)
    wq = work_quantities(s)
    report.numbers["w_ext_deterministic_f0"] = wq.f0
    report.numbers["w_correlated_f1"] = wq.f1
    report.numbers["w_form_finf"] = wq.finf
    return EXIT_OK


def cmd_example(args, report: RunReport, out) -> int:
    """Full demo pipeline; PASS/FAIL per step, exit 0 only if all reproduce."""
    x10 = args.x10 if args.x10 is not None else float(demo.CATALYST_X10)
    eps = args.epsilon if args.epsilon is not None else demo.FAIL_PROB
    report.numbers.update({
        "beta_e": demo.BETA_E, "beta_w": demo.BETA_W,
        "ground_pop": demo.GROUND_POP, "fail_prob": eps,
        "s": float(demo.CATALYST_S), "q": float(demo.CATALYST_Q), "x10": x10,
    })
    failures = []
    outdir = args.outdir
    if outdir:
        os.makedirs(outdir, exist_ok=True)

    def step(name: str, ok: bool, detail: str) -> None:
        tag = "PASS" if ok else "FAIL"
        print(f"{tag} {name}: {detail}", file=out)
        report.verdicts[name] = tag
        if not ok:
            failures.append(name)

    initial, final = demo.work_extraction_pair(fail_prob=eps)
    if args.exact:
        initial, final = initial.to_exact(), final.to_exact()

    # 1. sweep sign pattern and closed-form agreement
    profile = delta_f_sweep(initial, final)
    df1 = profile.value_at(ALPHA_1)
    df4 = profile.value_at(Alpha(4.0))
    step("sweep-signs", df1 < 0 < df4,
         f"dF_1={format_number(df1)} dF_4={format_number(df4)}")
    worst = 0.0
    for a_val in (0.5, 2.0, 4.0, 10.0):
        closed = work_bit_delta_f(demo.BETA_E, demo.BETA_W, demo.GROUND_POP, eps, a_val)
        worst = max(worst, abs(profile.value_at(Alpha(a_val)) - closed))
    step("closed-form-match", worst < CLOSED_FORM_TOL, f"max deviation {format_number(worst)}")
    if outdir:
        path = os.path.join(outdir, "sweep.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            profile.write_csv(fh)
        report.outputs.append(path)

    # 2. catalyst construction (infeasible overrides fail here); the free
    # parameter is rationalized losslessly so the joint stays exact
    try:
        joint = qubit_pair_catalyst(
            demo.CATALYST_S, demo.CATALYST_Q,
            demo.CATALYST_X10 if args.x10 is None else to_fraction(x10),
        )
        step("catalyst-construction", True,
             "joint " + ",".join(format_number(float(v)) for v in joint.probs))
    except ValueError as exc:
        step("catalyst-construction", False, str(exc))
        return EXIT_IMPOSSIBLE

    c1, c2 = marginal(joint, 0), marginal(joint, 1)

    # 3. uncorrelated catalysts leave the curves crossing
    product = product_joint([c1.probs, c2.probs])
    cmp_product = verify_correlating_transition(initial, final, product)
    step("uncorrelated-crossing", cmp_product.verdict == "crossing",
         f"verdict {cmp_product.verdict}")

    # 4. correlated joint certifies the transition
    cmp_joint = verify_correlating_transition(initial, final, joint)
    step("correlated-dominance", cmp_joint.verdict == "above",
         f"verdict {cmp_joint.verdict}, min interior gap {format_number(cmp_joint.min_gap)}")

    # 5. marginals preserved exactly (rational arithmetic)
    margins_ok = (c1.probs == (demo.CATALYST_S, 1 - demo.CATALYST_S)
                  and c2.probs == (demo.CATALYST_Q, 1 - demo.CATALYST_Q))
    step("marginal-preservation", margins_ok,
         f"marginals {tuple(float(v) for v in c1.probs)} and {tuple(float(v) for v in c2.probs)}")

    # 6. total correlation stays within the free-energy budget
    info = total_correlation(joint)
    budget = free_energy_gap(initial, ALPHA_1) - free_energy_gap(final, ALPHA_1)
    step("correlation-budget", 0 < info <= budget + BUDGET_TOL,
         f"I={format_number(info)} budget={format_number(budget)}")
    if outdir:
        path = os.path.join(outdir, "joint.json")
        save_json({
            "joint": joint_to_dict(joint),
            "total_correlation": info,
            "comparison": cmp_joint.to_json_obj(),
        }, path)
        report.outputs.append(path)

    # 7. explicit stochastic witness for the certified transition
    big_initial = tensor(tensor(initial, c1), c2)
    big_final = tensor(final, joint.as_state())
    witness = find_witness(big_initial, big_final)
    if witness is None:
        step("witness-extraction", False, "no Gibbs-preserving map found")
    else:
        gamma = big_initial.ham.gibbs_probs
        # find_witness has already held the residuals to its bounds
        res = witness.residuals(big_initial.probs, big_final.probs, gamma)
        step("witness-extraction", True,
             f"map residual {format_number(res['map'])}, "
             f"gibbs residual {format_number(res['gibbs'])}")
        if outdir:
            path = os.path.join(outdir, "witness.json")
            save_json(witness.to_json_obj(big_initial.probs, big_final.probs, gamma), path)
            report.outputs.append(path)

    if outdir:
        for name, state in (("curve_initial.csv", big_initial),
                            ("curve_final.csv", big_final)):
            path = os.path.join(outdir, name)
            with open(path, "w", encoding="utf-8", newline="") as fh:
                thermal_lorenz(state).write_csv(fh)
            report.outputs.append(path)

    if failures:
        print(f"failed steps: {', '.join(failures)}", file=out)
        return EXIT_IMPOSSIBLE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--numeric-mode", choices=NUMERIC_MODES,
                        default=argparse.SUPPRESS,
                        help="numeric regime; defaults to $THERMO_ORDER_MODE or float")
    common.add_argument("--tol", type=_tolerance, default=argparse.SUPPRESS,
                        help="free-energy comparison slack in float mode, finite and "
                             f">= 0 (default {POSSIBLE_TOL}); free energies use "
                             f"max(tol, {FREE_ENERGY_FLOOR}), curve verdicts are exact")
    common.add_argument("--report", default=argparse.SUPPRESS,
                        help="write the run report as JSON")

    parser = argparse.ArgumentParser(
        prog="thermoorder",
        description="Single-shot thermodynamic transition checks on "
                    "energy-block-diagonal states (energies in kT units, "
                    "entropies in nats).",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="decide a transition between two state files")
    p.add_argument("initial")
    p.add_argument("final")
    p.add_argument("--mode", choices=["plain", "catalytic", "correlating"],
                   default="plain")
    p.add_argument("--alphas", default=None,
                   help="comma-separated orders, e.g. '0.5,1,4,inf' "
                        "(use --alphas=-2,4 for negative orders)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sweep", parents=[common], help="free-energy difference across orders")
    p.add_argument("initial")
    p.add_argument("final")
    p.add_argument("--alphas", default=None,
                   help="comma-separated orders (use --alphas=-2,4 for negative orders)")
    p.add_argument("--out", default=None, help="CSV (.csv) or JSON (.json) output path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("lorenz", parents=[common], help="thermal Lorenz curve breakpoints as CSV")
    p.add_argument("state")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_lorenz)

    p = sub.add_parser("search", parents=[common], help="grid search for a correlating catalyst")
    p.add_argument("initial")
    p.add_argument("final")
    p.add_argument("--config", default=None, help="search configuration JSON")
    p.add_argument("--out", default=None, help="result JSON path")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("witness", parents=[common], help="explicit Gibbs-preserving stochastic matrix")
    p.add_argument("initial")
    p.add_argument("final")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("work", parents=[common], help="work quantities of a state (kT units)")
    p.add_argument("state")
    p.set_defaults(func=cmd_work)

    p = sub.add_parser(
        "example",
        parents=[common],
        help="bundled demo: qubit (gap 1 kT, ground population 0.73) "
             "feeding a 0.01 kT work bit at failure probability 0.007, "
             "certified by two correlated qubit catalysts (0.95/0.70, x10=0.04)",
    )
    p.add_argument("--x10", type=_finite, default=None,
                   help="override the joint's free parameter")
    p.add_argument("--epsilon", type=_finite, default=None,
                   help="override the work-bit failure probability")
    p.add_argument("--outdir", default=None, help="directory for artifact files")
    p.set_defaults(func=cmd_example)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout
    try:
        # shared options default to absent: a subparser never overwrites them
        kind = getattr(args, "numeric_mode", None) or os.environ.get("THERMO_ORDER_MODE", "float")
        if kind not in NUMERIC_MODES:
            raise ValueError(f"unknown numeric mode {kind!r}")
        args.exact = kind == "rational"
        args.cmp_tol = 0.0 if args.exact else getattr(args, "tol", POSSIBLE_TOL)
        report = RunReport(
            command=args.command,
            mode=kind,
            tolerances={"cmp_tol": args.cmp_tol, "norm_tol": 0.0 if args.exact else NORM_TOL},
            inputs={name: _digest(getattr(args, name))
                    for name in ("initial", "final", "state") if hasattr(args, name)},
        )
        code = args.func(args, report, out)
        report.print_text(out)
        if getattr(args, "report", None):
            save_json(report.to_json_obj(), args.report)
        return code
    except (ValueError, ArithmeticError, OSError, json.JSONDecodeError,
            WitnessNumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
