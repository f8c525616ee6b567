"""flickerfloor benchmark: one workload per run, checked against references.

    python3 perfbench/run.py --workload cli|catalog|spectral|all --seed N \
        --seconds 30 --trace 0|1 [--record results.jsonl]

Run from anywhere inside a checkout; the program is imported from its src/
directory, not from an installed copy.  Workloads (why each exists: README.md):

- cli: cold ``python -m flickerfloor.cli`` processes, one question each, one
  client in a closed loop.  An op is one invocation.
- catalog, spectral: passes of public-function calls in one worker process.
  An op is one pass.

With --trace 0 the last stdout line holds the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics.  Lines before it give
the metrics as a table, with the median op latency, the tail percentile and
sample count, the failures and the environment.  --record appends the whole
result to a JSON-lines file for compare.py.  The exit code is 0 when a
result was printed, even when some ops failed (they are counted in
"failed"); 1 when a worker crashed; 2 when there is no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# A run is cut into segments, each starting with one set-up in a fresh process,
# so the set-up samples and the processes that run the ops are spread over the
# run rather than bunched at its start.
SEGMENTS = 5
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 150
COVERAGE_PASSES = 2  # traced pairs of the other in-process workload, in a traced run

# the CLI's subcommands, each with its own per-layer p50
SUBCOMMANDS = ("factor", "kappa", "delta", "spectrum", "estimate", "verify-wk", "report")
INPROC = ("catalog", "spectral")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


ENV = _child_env()


@dataclass
class Child:
    code: int
    out: str
    err: str
    seconds: float
    maxrss_mb: float


def run_child(argv: list[str], timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run a process to its end; its wall time and peak RSS are read from outside."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=ENV, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    streams = {}
    readers = [threading.Thread(target=lambda k=k, f=f: streams.__setitem__(k, f.read()))
               for k, f in (("out", proc.stdout), ("err", proc.stderr))]
    for t in readers:
        t.start()
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    for t in readers:
        t.join()
    proc.stdout.close()
    proc.stderr.close()
    return Child(proc.returncode, streams["out"], streams["err"], seconds, usage.ru_maxrss / 1024)


def last_json(child: Child, what: str) -> dict:
    if child.code != 0 or not child.out.strip():
        raise RuntimeError(f"{what} exited {child.code}: {child.err.strip()[-2000:]}")
    return json.loads(child.out.strip().splitlines()[-1])


def python(*args: str) -> list[str]:
    return [sys.executable, *args]


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least 10 samples beyond it, and its label."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max of {n}"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.0f} of {n}, 10 beyond"


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def import_seconds() -> float:
    code = ("import time; t = time.perf_counter(); import flickerfloor.cli; "
            "print(time.perf_counter() - t)")
    return float(last_json(run_child(python("-c", code)), "import flickerfloor.cli"))


PACKAGES = ("scipy", "numpy")


def import_breakdown() -> dict[str, float]:
    """ms of importing scipy and numpy, from -X importtime.

    A package's figure is the cumulative time of its outermost imports, the
    ones not made from inside either package, so it includes whatever else
    the package pulls in first and nothing is counted twice.
    """
    runs = defaultdict(list)
    for _ in range(IMPORTTIME_REPEATS):
        child = run_child(python("-X", "importtime", "-c", "import flickerfloor.cli"))
        entries = []   # (depth, module, cumulative us), children before parents
        for line in child.err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                name = parts[2].rstrip()
                depth = (len(name) - len(name.lstrip()) - 1) // 2
                entries.append((depth, name.strip(), int(parts[1])))
        totals = defaultdict(float)
        ancestors: list[str] = []
        for depth, name, cumulative in reversed(entries):
            del ancestors[depth:]
            top = name.split(".")[0]
            if top in PACKAGES and not any(a.split(".")[0] in PACKAGES for a in ancestors):
                totals[top] += cumulative / 1e3
            ancestors.append(name)
        for top in PACKAGES:
            runs[top].append(totals[top])
    return {top: statistics.median(v) for top, v in runs.items()}


class CliClient:
    """One client asking questions in a closed loop, one cold process each."""

    def __init__(self, seed: int):
        import questions   # only now is src/ on sys.path
        self.asker = questions.Asker(random.Random(seed), ROOT)
        self.queue = []
        self.ops, self.failures = [], []
        self.by_sub = defaultdict(list)
        self.peak_rss_mb = 0.0

    def step(self) -> None:
        """Ask the next question of the current round."""
        if not self.queue:
            self.queue = self.asker.round()
        q = self.queue.pop()
        child = run_child(python("-m", "flickerfloor.cli", *q.argv))
        self.ops.append(child.seconds)
        self.by_sub[q.subcommand].append(child.seconds)
        self.peak_rss_mb = max(self.peak_rss_mb, child.maxrss_mb)
        try:
            bad = q.check(child.code, child.out, child.err)
        except (KeyError, ValueError) as err:   # unparseable answer
            bad = [f"unreadable answer ({type(err).__name__}: {err}): {child.out[:200]!r}"]
        if bad:
            self.failures.append([" ".join(q.argv)] + bad[:4])

    def run(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self.step()

    def finish_round(self) -> None:
        while self.queue:
            self.step()


def cli_workload(seed: int, seconds: float, trace: bool) -> dict:
    client = CliClient(seed)
    setups = []
    if trace:
        # a cli span is a process's wall time, read from outside, so tracing
        # changes nothing in the processes and the run needs no untraced twin
        setups = [import_seconds() for _ in range(SEGMENTS)]
        client.run(seconds)
        client.finish_round()   # so that every subcommand is asked
    else:
        for _ in range(SEGMENTS):
            setups.append(import_seconds())
            client.run(seconds / SEGMENTS)
    res = {"ops": client.ops, "failures": client.failures, "setups": setups,
           "peak_rss_mb": client.peak_rss_mb}
    if trace:
        res["layers"] = cli_layers(client, setups)
    return res


def cli_layers(client: CliClient, import_samples: list[float]) -> dict[str, float]:
    layers = {"cli.import_ms": statistics.median(import_samples) * 1e3}
    for top, ms in import_breakdown().items():
        layers[f"cli.import.{top}_ms"] = ms
    for sub in SUBCOMMANDS:
        layers[f"cli.{sub}.p50_ms"] = statistics.median(client.by_sub[sub]) * 1e3
    return layers


def worker(workload: str, *args: str) -> Child:
    return run_child(python(str(HERE / "worker.py"), "--workload", workload, *args))


def inproc_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        child = worker(name, "--seed", str(seed), "--seconds", str(seconds), "--trace", "1")
        res = last_json(child, f"{name} worker")
        res["peak_rss_mb"] = child.maxrss_mb
        return res
    res = {"ops": [], "failures": [], "setups": [], "peak_rss_mb": 0.0}
    for k in range(SEGMENTS):
        child = worker(name, "--seed", str(seed * SEGMENTS + k), "--seconds",
                       str(seconds / SEGMENTS), "--trace", "0")
        part = last_json(child, f"{name} worker")
        res["ops"] += part["ops"]
        res["failures"] += part["failures"]
        res["setups"].append(part["setup_s"])
        res["peak_rss_mb"] = max(res["peak_rss_mb"], child.maxrss_mb)
    return res


def inproc_layers(layers: dict) -> dict[str, float]:
    flat = {}
    for layer, stats in layers.items():
        for key, value in stats.items():
            flat[f"{layer}.{key}"] = value
    import passes   # only now is src/ on sys.path
    flat.update({f"spectral.power_spectrum_estimate.n{n}.phase_bytes": passes.psd_phase_bytes(n)
                 for n in passes.PSD_SIZES})
    return flat


# ---------------------------------------------------------------------------
# result
# ---------------------------------------------------------------------------

def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "machine": platform.machine(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload == "cli":
        res = cli_workload(seed, seconds, trace)
    else:
        res = inproc_workload(workload, seed, seconds, trace)
    accuracy = last_json(run_child(python(str(HERE / "accuracy.py"))), "accuracy probe")
    res["accuracy"] = accuracy
    if trace:
        flat = dict(res["layers"]) if workload == "cli" else inproc_layers(res["layers"])
        # layers this workload does not exercise come from a short coverage run;
        # its ops count as attempted (and failed) ops of this run.  On cli the
        # tracing overhead is that of the coverage runs, the only spans it records.
        coverage_overheads = []
        for other in INPROC:
            if other == workload:
                continue
            cov = last_json(worker(other, "--seed", str(seed), "--passes",
                                   str(COVERAGE_PASSES), "--trace", "1"), f"{other} coverage")
            flat.update({k: v for k, v in inproc_layers(cov["layers"]).items() if k not in flat})
            res["ops"] += cov["ops"]
            res["failures"] += cov["failures"]
            coverage_overheads.append(cov["overhead_frac"])
        if workload != "cli":
            client = CliClient(seed)
            client.step()
            client.finish_round()
            flat.update(cli_layers(client, [import_seconds() for _ in range(3)]))
            res["ops"] += client.ops
            res["failures"] += client.failures
        flat["trace.overhead_frac"] = (statistics.median(coverage_overheads)
                                       if workload == "cli" else res["overhead_frac"])
        res["per_layer"] = flat
    return res


def result_line(workload: str, res: dict, trace: bool, spec: dict) -> tuple[dict, list[str]]:
    ops = res["ops"]
    failed = len(res["failures"])
    acc = res["accuracy"]
    p_tail, tail_label = tail(ops)
    notes = {"latency_tail_ms": tail_label}
    if trace:
        wanted, values = spec["per_layer"], res["per_layer"]
    else:
        wanted = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(res["setups"]),
            "throughput_ops_s": len(ops) / sum(ops),
            "latency_tail_ms": p_tail * 1e3,
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_frac": (len(ops) - failed) / len(ops),
            **{k: v for k, v in acc.items() if k != "within_tolerance"},
        }
    shown = (("latency_p50_ms", statistics.median(ops) * 1e3, "ms"),
             ("failed_frac", failed / len(ops), "ratio"))
    lines = [] if trace else [f"{workload:9s} {name + ' (shown, not gated)':48s} {v:14.6g} {unit}"
                              for name, v, unit in shown]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise RuntimeError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        note = f"  ({notes[m['name']]})" if m["name"] in notes else ""
        lines.append(f"{workload:9s} {m['name']:48s} {values[m['name']]:14.6g} {m['unit']}{note}")
    correct = failed == 0 and all(acc["within_tolerance"].values())
    return {"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}, lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=("cli", "catalog", "spectral", "all"), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the full result to this JSON-lines file")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "flickerfloor" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no flickerfloor sources under {SRC} (or no {spec_path.name})", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    # compile the sources once, so no timed process pays for writing bytecode
    run_child(python("-c", "import flickerfloor.cli"))

    env = environment()
    workloads = ("cli", "catalog", "spectral") if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        try:
            res = measure(workload, args.seed, args.seconds, bool(args.trace))
            line, table = result_line(workload, res, bool(args.trace), spec)
        except RuntimeError as err:
            print(f"{workload}: {err}", file=sys.stderr)
            return 1
        print("\n".join(table))
        for failure in res["failures"][:10]:
            print(f"{workload} FAILED: {failure}")
        if args.record:
            with open(args.record, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": args.seed,
                                     "seconds": args.seconds, "trace": args.trace,
                                     "result": line, "env": env,
                                     "tail": tail(res["ops"])[1],
                                     "latency_p50_ms": statistics.median(res["ops"]) * 1e3,
                                     "ops_ms": [round(x * 1e3, 3) for x in res["ops"]],
                                     "failures": res["failures"][:10]}) + "\n")
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        combined["metrics"].update({f"{workload}.{k}" if len(workloads) > 1 else k: v
                                    for k, v in line["metrics"].items()})
    print("env: " + json.dumps(env))
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
