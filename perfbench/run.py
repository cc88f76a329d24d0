"""q2pc benchmark: seeded closed-loop workloads with oracle-checked outputs.

    python3 perfbench/run.py --workload oqfe|exact --seed N \
        --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of the outside-in tracer (see README.md).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import time

SETUP_START = time.perf_counter()   # before any heavy import: setup_s counts them

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 5        # this process plus four fresh interpreters
HARD_LIMIT_S = 170       # a hung session must not keep the process alive
TAIL_BEYOND = 10         # tail = highest percentile with 10 samples beyond it

E2E_UNITS = {
    "setup_s": "s", "sessions_per_s": "1/s", "session_p50_ms": "ms",
    "session_tail_ms": "ms", "wall_s": "s", "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("oqfe", "exact"))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up, then print the set-up time (internal)")
    return ap.parse_args(argv)


def load_package():
    if not (SRC / "q2pc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no q2pc sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads
    return workloads


# ------------------------------------------------------------ measuring

class Tally:
    def __init__(self):
        self.latencies: list[float] = []
        self.by_kind: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}

    def record(self, kind: str, seconds: float) -> None:
        self.latencies.append(seconds)
        self.by_kind.setdefault(kind, []).append(seconds)

    def fail(self, kind: str) -> None:
        self.failed += 1
        self.failures[kind] = self.failures.get(kind, 0) + 1


def run_ops(ops, tally: Tally, tracer=None) -> float:
    """Run ops in order, closed loop; returns the wall time of the list.
    A raising or wrong operation is a failed one and keeps its latency."""
    start_all = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op += 1
        tally.attempted += 1
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception:
            tally.record(op.kind, time.perf_counter() - start)
            traceback.print_exc(file=sys.stderr)
            tally.fail(op.kind)
            continue
        tally.record(op.kind, time.perf_counter() - start)
        try:
            ok = bool(op.check(out))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            tally.fail(op.kind)
    return time.perf_counter() - start_all


def set_up(workloads, name: str) -> tuple[bool, float]:
    """Import, input generation and one warm-up operation whose seed is not
    one of the timed ones.  The package's caches are neither cleared nor
    pre-filled: every timed session pays for its own fresh keys."""
    tally = Tally()
    run_ops(workloads.WORKLOADS[name][1](), tally)
    return tally.failed == 0, time.perf_counter() - SETUP_START


def setup_probe(name: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it; the maximum when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop that does not touch q2pc;
    recorded, never gated, so a run on a slow host can be recognised."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(times)


def run_context(args) -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "q2pc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy
    return {
        "git_revision": rev,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(workloads, args) -> tuple[Tally, dict, dict]:
    build = workloads.WORKLOADS[args.workload][0]
    tally = Tally()
    walls = []
    pass_lat = []
    start = time.perf_counter()
    index = 0
    while True:
        first = len(tally.latencies)
        walls.append(run_ops(build(args.seed, index), tally))
        pass_lat.append(tally.latencies[first:])
        index += 1
        if time.perf_counter() - start + statistics.median(walls) > args.seconds:
            break
    value, pct = tail(tally.latencies)
    metrics = {
        "sessions_per_s": tally.attempted / sum(walls),
        "session_p50_ms": 1000.0 * statistics.median(tally.latencies),
        "session_tail_ms": 1000.0 * value,
        "wall_s": sum(walls) / len(walls),
    }
    info = {"passes": index, "sessions": tally.attempted,
            "tail_percentile": round(pct, 2), "pass_walls_s": walls,
            "pass_latencies_s": pass_lat,
            "kind_p50_ms": {k: 1000.0 * statistics.median(v)
                            for k, v in sorted(tally.by_kind.items())}}
    return tally, metrics, info


def measure_traced(workloads, args, tracer_mod) -> tuple[Tally, dict, dict]:
    """Each pass runs traced, then again untraced on the same seeds; the
    per-layer metrics come from the traced runs only."""
    build = workloads.WORKLOADS[args.workload][0]
    tracer = tracer_mod.Tracer()
    tally = Tally()
    traced, plain = [], []
    start = time.perf_counter()
    index = 0
    while True:
        ops = build(args.seed, index)
        tracer.install()
        try:
            traced.append(run_ops(ops, tally, tracer))
        finally:
            tracer.uninstall()
        tracer.account_channel()
        plain.append(run_ops(build(args.seed, index), tally))
        index += 1
        if time.perf_counter() - start + traced[-1] + plain[-1] > args.seconds:
            break
    traced_ops = tracer.op
    metrics = tracer_mod.layer_metrics(tracer, traced_ops)
    metrics["trace.overhead_frac"] = (sum(traced) / sum(plain) - 1.0, "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl.gz"
    tracer.write(trace_path)
    info = {"passes": index, "traced_ops": traced_ops, "spans": len(tracer.spans),
            "trace_file": str(trace_path.relative_to(ROOT))}
    return tally, metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = load_package()
    warm_ok, own_setup = set_up(workloads, args.workload)
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup, "warmup_ok": warm_ok}))
        return 0 if warm_ok else 1
    watchdog = threading.Timer(HARD_LIMIT_S, os._exit, args=(3,))
    watchdog.daemon = True
    watchdog.start()

    context = run_context(args)
    context["calibration_ms_before"] = calibration_ms()
    if args.trace:
        import tracer as tracer_mod
        tally, layer, info = measure_traced(workloads, args, tracer_mod)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        setups = [own_setup] + [setup_probe(args.workload, args.seed)
                                for _ in range(SETUP_SAMPLES - 1)]
        tally, values, info = measure(workloads, args)
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        info["setup_samples_s"] = setups
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
    context["calibration_ms_after"] = calibration_ms()
    failed_frac = tally.failed / tally.attempted
    info.update(failed_frac=failed_frac, failures=tally.failures, warmup_ok=warm_ok)

    for name, m in metrics.items():
        print(f"{args.workload:6s} {name:44s} {m['value']:14.4f} {m['unit']}")
    print(f"{args.workload:6s} {'failed_frac':44s} {failed_frac:14.4f} ratio")
    print(json.dumps({"context": context, "info": info}, sort_keys=True))
    result = {"correct": warm_ok and tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "context": context, "info": info}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
