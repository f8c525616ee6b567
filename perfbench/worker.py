"""One process of an in-process workload (catalog or spectral).

    PYTHONPATH=src python3 perfbench/worker.py --workload catalog --seed 1 --seconds 30 --trace 0

Timing starts before flickerfloor is imported, so ``setup_s`` is the cold
import plus catalog load and warm-up.  The last stdout line is a JSON object
with the setup time, the latency of every op (one pass), the failures, and
with --trace 1 the per-layer statistics.  run.py starts this process and reads
its peak RSS from outside.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import passes  # noqa: E402  (imports flickerfloor)


def _one_pass(work, tracer, ops: list, failures: list) -> float:
    start = time.perf_counter()
    try:
        bad = work.run_pass(tracer)
    except Exception:  # a program error fails this op; the run goes on
        bad = [traceback.format_exc(limit=3).strip().splitlines()[-1]]
    elapsed = time.perf_counter() - start
    ops.append(elapsed)
    if bad:
        failures.append(bad[:5])
    return elapsed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(passes.WORKS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--passes", type=int, default=0,
                    help="run this many traced passes instead of --seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(passes.workbench.__file__).resolve().parents:
        print(f"flickerfloor was not imported from {src}", file=sys.stderr)
        return 2
    work = passes.WORKS[args.workload](args.seed)
    work.warm_up()
    setup_s = time.perf_counter() - _T0

    if hasattr(work, "compute_references"):
        work.compute_references()
    ops, failures = [], []
    out = {"setup_s": setup_s}
    if args.trace:
        # traced and untraced passes in alternating pairs: the traced ones give
        # the per-layer numbers, the pairs give the tracing overhead
        tracer = passes.Tracer("time")
        ratios = []
        deadline = time.perf_counter() + args.seconds
        pair = 0
        while (pair < args.passes) if args.passes else (time.perf_counter() < deadline):
            tracer.pass_id = pair
            if pair % 2:
                untraced = _one_pass(work, passes.Tracer(), ops, failures)
                traced = _one_pass(work, tracer, ops, failures)
            else:
                traced = _one_pass(work, tracer, ops, failures)
                untraced = _one_pass(work, passes.Tracer(), ops, failures)
            ratios.append(traced / untraced)
            pair += 1
        layers = tracer.layer_stats()
        if args.workload == "spectral":
            memory = passes.Tracer("memory")
            tracemalloc.start()
            _one_pass(work, memory, [], failures)
            tracemalloc.stop()
            for layer, stats in memory.layer_stats().items():
                layers.setdefault(layer, {}).update(stats)
        ratios.sort()
        out["layers"] = layers
        out["overhead_frac"] = ratios[len(ratios) // 2] - 1.0
    else:
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline:
            _one_pass(work, passes.Tracer(), ops, failures)
    out.update(ops=ops, failures=failures)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
