"""Benchmark entry point.

    python3 thermobench/run.py --workload {verdicts,search,witness,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``. Each run generates its inputs from the seed, measures set-up in
fresh interpreters, runs one untimed warm-up round, then repeats whole
rounds of the workload, closed loop in one process (``cli``: one child
process at a time), until ``--seconds`` have passed. Every answer is checked
against the oracle. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import os

# One thread per BLAS/OpenMP pool, here and in every child, set before numpy
# can load.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("verdicts", "search", "witness", "cli")
SETUP_SAMPLES = 5
PROBE_SAMPLES = 5

E2E_UNITS = {
    "setup_s": "s", "float_ops_per_s": "ops/s", "exact_ops_per_s": "ops/s",
    "float_p50_ms": "ms", "exact_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB",
}


def layer_unit(name):
    if name.endswith("_per_s"):
        return "cells/s"
    if name.endswith("_per_compared"):
        return "ratio"
    if name.startswith("cli.") or name == "witness.first_call_ms":
        return "ms"
    return "ms/round" if name.endswith("_ms") else "count/round"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("THERMO_ORDER_MODE", None)
    return env


# -- set-up -------------------------------------------------------------------------

def setup_spec(workload, round_ops):
    """The cheapest operation of each kind, code path and mode (for the CLI,
    of each command in float mode), in the form setup_child.py reads."""
    import inputs
    import workloads
    chosen = {}
    for op in round_ops:
        if op.fault or (workload == "cli" and op.mode != "float"):
            continue
        key = (op.kind, op.path, op.mode)
        if key not in chosen or workloads.setup_rank(op) < workloads.setup_rank(chosen[key]):
            chosen[key] = op
    if workload == "cli":
        return {"argv": [op.argv for op in chosen.values()]}
    return {"calls": [[op.kind, inputs.encode(op.inst)] for op in chosen.values()]}


def write_spec(spec, rundir):
    path = os.path.join(rundir, "setup-spec.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    return path


def setup_sample(spec_path):
    """Import plus first calls, timed inside one fresh interpreter."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_child.py"), spec_path],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# -- running operations ---------------------------------------------------------------

class Record:
    __slots__ = ("mode", "seconds", "ok", "fault", "group")

    def __init__(self, mode, seconds, ok, fault):
        self.mode, self.seconds, self.ok, self.fault = mode, seconds, ok, fault
        self.group = None  # records of one group repeat the same work; see end_to_end


def checked(op, *answer):
    try:
        return bool(op.check(*answer))
    except Exception as exc:  # a malformed answer counts as a wrong one
        print(f"check of {op.kind}/{op.mode} raised {exc!r}", file=sys.stderr)
        return False


def run_in_process(op, tracer=None, op_id=0):
    import ops
    fn = ops.KINDS[op.kind]
    start = time.perf_counter()
    try:
        if tracer is None:
            answer = fn(op.inst)
        else:
            answer = tracer.op(op_id, f"op.{op.kind}", lambda: fn(op.inst))
        error = None
    except Exception as exc:  # the benchmark keeps running; the op failed
        answer, error = None, exc
    took = time.perf_counter() - start
    ok = error is None and checked(op, answer)
    if not ok and not op.fault:
        print(f"{op.kind}/{op.mode} failed: {error!r}", file=sys.stderr)
    return Record(op.mode, took, ok, op.fault), 0


def clear_outputs(argv):
    """Remove what an earlier round wrote, so a check never reads a stale file."""
    for flag, target in zip(argv, argv[1:]):
        if flag == "--outdir":
            shutil.rmtree(target, ignore_errors=True)
        elif flag == "--out" and os.path.exists(target):
            os.remove(target)


def run_process(op, rundir):
    """One cold CLI process; returns its record and its peak RSS in KiB."""
    clear_outputs(op.argv)
    out_path = os.path.join(rundir, "stdout.txt")
    err_path = os.path.join(rundir, "stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "thermoorder", *op.argv],
                                stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        took = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8") as fh:
        stdout = fh.read()
    ok = checked(op, proc.returncode, stdout)
    if not ok:
        with open(err_path, encoding="utf-8") as fh:
            print(f"{op.kind}/{op.mode} exit {proc.returncode}: {fh.read()[-400:]}", file=sys.stderr)
    return Record(op.mode, took, ok, op.fault), usage.ru_maxrss


# -- metrics ----------------------------------------------------------------------------

def end_to_end(records, setup_s, peak_kib):
    out = {"setup_s": setup_s}
    for mode in ("float", "exact"):
        mine = [r for r in records if r.mode == mode]
        busy = sum(r.seconds for r in mine)
        out[f"{mode}_ops_per_s"] = sum(r.ok for r in mine) / busy
        out[f"{mode}_p50_ms"] = 1e3 * statistics.median(r.seconds for r in mine)
    # p90 over the operations of each one's group median: a group is one
    # operation of the round over all rounds (for cli, one command and mode,
    # whose six processes cost the same), so the tail is the slow kinds of
    # operation, not the host's one-off stalls
    groups = {}
    for r in records:
        groups.setdefault(r.group, []).append(r.seconds)
    typical = [statistics.median(groups[r.group]) for r in records]
    out["op_p90_ms"] = 1e3 * statistics.quantiles(typical, n=10, method="inclusive")[-1]
    out["peak_rss_mb"] = peak_kib / 1024.0
    return {k: out[k] for k in E2E_UNITS}


def probe_ms(code):
    """Median wall time of a fresh interpreter running ``code``, and of the
    import it times internally when it prints a number."""
    walls, inner = [], []
    for _ in range(PROBE_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        walls.append(time.perf_counter() - start)
        if proc.stdout.strip():
            inner.append(float(proc.stdout.strip()))
    return 1e3 * statistics.median(walls), (1e3 * statistics.median(inner) if inner else None)


def cli_layer(round_ops, tracer):
    """cli.* metrics: bare interpreter, fresh import, and in-process main on
    the round's float commands, timed on a second, warm pass that the
    tracer also records."""
    interpreter_ms, _ = probe_ms("pass")
    _, import_ms = probe_ms("import time; t = time.perf_counter(); import thermoorder; "
                            "print(time.perf_counter() - t)")
    main_ms = 0.0
    if round_ops is not None:
        import contextlib
        import io
        from thermoorder import cli
        # the n = 16 witness first, so the first find_witness call is the
        # same in every run
        float_ops = sorted((op for op in round_ops if op.mode == "float"),
                           key=lambda op: op.kind != "witness-large")
        for _pass in ("warm", "timed"):
            tracer.reset()  # the per-layer metrics describe the timed pass
            times = []
            for i, op in enumerate(float_ops):
                with contextlib.redirect_stdout(io.StringIO()):
                    start = time.perf_counter()
                    tracer.op(i, f"op.cli.{op.kind}", lambda: cli.main(list(op.argv)))
                    times.append(time.perf_counter() - start)
        main_ms = 1e3 * statistics.median(times)
    return {"cli.interpreter_ms": interpreter_ms, "cli.import_ms": import_ms, "cli.main_ms": main_ms}


# -- main -------------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def build(workload, seed, rundir):
    import thermoorder
    import workloads
    alphas = tuple(a.value for a in thermoorder.default_alpha_grid())
    if workload == "cli":
        import cli_workload
        return cli_workload.build(seed, rundir, alphas)
    if workload == "verdicts":
        ops = workloads.verdicts(seed, alphas)
    else:
        ops = getattr(workloads, workload)(seed)
    return ops, ops


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "thermoorder", "__init__.py")):
        print(f"no library sources at {SRC}: run from the root of a thermoorder checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import thermoorder
    if not os.path.abspath(thermoorder.__file__).startswith(SRC + os.sep):
        print(f"imported thermoorder from {thermoorder.__file__}, not {SRC}", file=sys.stderr)
        return 2

    rundir = os.path.join(HERE, "_run", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(rundir, exist_ok=True)
    try:
        return measure(args, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def measure(args, rundir):
    cli = args.workload == "cli"
    round_ops, warm_ops = build(args.workload, args.seed, rundir)
    spec_path = write_spec(setup_spec(args.workload, round_ops), rundir)
    setup_samples = [setup_sample(spec_path)]

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    def run(op, op_id):
        if cli:
            return run_process(op, rundir)
        return run_in_process(op, tracer, op_id)

    for op in warm_ops:  # untimed: lazy imports, file cache
        run(op, -1)
    if tracer is not None:
        tracer.reset()
    # the benchmark's own inputs and expectations stay out of the collector's
    # way while the library runs
    gc.collect()
    gc.freeze()

    # The other set-up samples are spread over the measured span, so that
    # their median does not hang on one moment's machine speed; the loop's
    # clock stops while they run.
    records, peak_child = [], 0
    rounds, op_id, paused = 0, 0, 0.0
    start = time.perf_counter()

    def elapsed():
        return time.perf_counter() - start - paused

    while rounds == 0 or elapsed() < args.seconds:
        for index, op in enumerate(round_ops):
            if len(setup_samples) < SETUP_SAMPLES and \
                    elapsed() >= len(setup_samples) * args.seconds / SETUP_SAMPLES:
                began = time.perf_counter()
                setup_samples.append(setup_sample(spec_path))
                paused += time.perf_counter() - began
            record, rss = run(op, op_id)
            record.group = (op.kind, op.mode) if cli else index
            records.append(record)
            peak_child = max(peak_child, rss)
            op_id += 1
        rounds += 1

    while len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(setup_sample(spec_path))
    setup_s = statistics.median(setup_samples)
    failed = sum(not r.ok for r in records)
    correct = all(r.ok or r.fault for r in records)
    peak = peak_child if cli else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is None:
        metrics = end_to_end(records, setup_s, peak)
        units = E2E_UNITS
    else:
        from spans import layer_metrics
        traced_e2e = end_to_end(records, setup_s, peak)
        print("traced end-to-end: " + json.dumps(traced_e2e), file=sys.stderr)
        if cli:
            cli_metrics = cli_layer(round_ops, tracer)
            metrics = layer_metrics(tracer, 1)
            metrics.update(cli_metrics)
        else:
            metrics = layer_metrics(tracer, rounds)
            metrics.update(cli_layer(None, tracer))
        tracer.write(os.path.join(HERE, "_run", f"trace-{args.workload}-{args.seed}.json"))
        units = {k: layer_unit(k) for k in metrics}
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
