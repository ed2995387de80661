"""One repetition of a workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --result PATH
                                [--traced] [--smoke] [--probe] --workdir DIR

The clock for ``setup_s`` starts before ``import cubelap`` and stops when
every input is built. The result goes to PATH as JSON; ``run.py`` starts this
script and aggregates the repetitions.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    if sys.flags.optimize or not __debug__:
        print("refusing to run under python -O", file=sys.stderr)
        return 2
    workdir = Path(args.workdir)
    os.chdir(workdir)

    import cubelap

    tracer = None
    if args.traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload]
        inputs = workload.build(cubelap, args.seed, args.smoke, workdir)
        setup_s = time.perf_counter() - T_START
        t0 = time.perf_counter()
        ops = workload.run(cubelap, inputs)
        timed_s = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    probe = workload.probe(cubelap, inputs) if args.probe else None

    import numpy
    import scipy

    result = {
        "setup_s": setup_s,
        "timed_s": timed_s,
        "solve_s": sum(op["solve_s"] for op in ops),
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                     "cubelap": cubelap.__version__},
        "cubelap_file": cubelap.__file__,
        "probe": probe,
    }
    if tracer is not None:
        result["per_layer"], result["absent"] = tracer.layer_metrics()
        result["spans"] = len(tracer.spans)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
