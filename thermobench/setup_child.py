"""Set-up probe, run in a fresh interpreter: python3 setup_child.py SPEC.

SPEC is a JSON file written by run.py: either {"calls": [[kind, instance],
...]} for an in-process workload or {"argv": [[...], ...]} for the CLI. The
probe reads it first, then times ``import thermoorder`` (or
``thermoorder.cli``) plus the first call of each operation kind, and prints
{"setup_s": seconds}. Interpreter start-up and input reading are outside
the timed span.
"""

import contextlib
import io
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import inputs  # noqa: E402  (pure Python, no library import)


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = inputs.decode(json.load(fh))
    start = time.perf_counter()
    if "argv" in spec:
        from thermoorder import cli
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in spec["argv"]:
                cli.main(list(argv))
    else:
        import ops
        for kind, inst in spec["calls"]:
            ops.KINDS[kind](inst)
    took = time.perf_counter() - start
    print(json.dumps({"setup_s": took}))


if __name__ == "__main__":
    main(sys.argv[1])
