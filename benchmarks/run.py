"""grbell benchmark: one workload per process, closed loop, checked outputs.

    python3 benchmarks/run.py --workload scenario_batch --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20

With --trace 0 the run measures the end-to-end metrics named in
BENCHMARK.json with tracing off. Operation times are reported in nominal
seconds: wall seconds scaled by how fast this machine ran a fixed reference
job, timed between operations, against that job's nominal time (see
REFERENCE_NOMINAL_S). Wall-clock values are printed beside them.
With --trace 1 it runs a fixed pass of the
workload's operations untraced and then traced, and reports the per-layer
metrics of the traced pass plus the difference of the two wall times. The
last line of standard output is one JSON object: correct, attempted,
failed and metrics. `--workload all` runs every workload in its own child
process and merges their results.

The package is imported from src/ next to this directory; the run fails
without a result when that source tree is absent.
"""
import time

START = time.perf_counter()

import os  # noqa: E402

# pin native thread pools before numpy is imported, so a run uses one core
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

# set-up is measured in this process and in this many more fresh ones
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 170

# On a 2-vCPU Xeon virtual machine shared with other tenants, interpreter-
# bound code ran up to 1.7 times slower for seconds to minutes at a time,
# and in such a spell the medians of ten 25-second runs spread by 20% to 28%
# (interquartile range over median). Timing a fixed reference job after each
# operation, for about PROBE_SHARE of its time, measures that slowdown in
# the same run: over six runs of scenario_batch in one such spell, the p50
# ranged over 26% of its median in wall time and over 8% in nominal time.
# REFERENCE_NOMINAL_S is a round figure near the reference job's time on
# that machine and only sets the unit.
REFERENCE_NOMINAL_S = 4.0e-4
PROBE_SHARE = 0.05
# an operation's speed comes from the reference jobs started within this
# many seconds of it, so a slow spell in the middle of a run is matched
PROBE_WINDOW_S = 1.0


def reference_job() -> float:
    """Fixed interpreter and small-array work, like one integrator step's."""
    total = 0.0
    for i in range(2000):
        total += (i * 0.5) % 7.0
    v = np.arange(64.0)
    for _ in range(30):
        v = np.sqrt(v * v + 1.0)
    return total + float(v[0])


def probe_speed(op_s: float, probes: list[tuple[float, float]]) -> None:
    """Time reference jobs for PROBE_SHARE of op_s, at least one; append (start, duration)."""
    spent = 0.0
    while spent < PROBE_SHARE * op_s or not spent:
        t0 = time.perf_counter()
        reference_job()
        probes.append((t0, time.perf_counter() - t0))
        spent += probes[-1][1]


def nominal_times(walls: list[float], ends: list[float], probes) -> list[float]:
    """Each operation's wall time scaled by the reference jobs run near it."""
    starts = [t for t, _ in probes]
    out = []
    for wall, end in zip(walls, ends):
        lo = bisect.bisect_left(starts, end - wall - PROBE_WINDOW_S)
        hi = bisect.bisect_right(starts, end + PROBE_WINDOW_S)
        out.append(wall * REFERENCE_NOMINAL_S / statistics.median(d for _, d in probes[lo:hi]))
    return out


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def import_package():
    import grbell

    if not os.path.abspath(grbell.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"grbell imported from {grbell.__file__}, not from {SRC}")
    from grbell.errors import SimulatorError

    import workloads

    return workloads, SimulatorError


class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, errors: list[str], label: str) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"{label}: {'; '.join(errors)}")


def run_op(workload, inp, tally, label, simulator_error) -> float:
    """Time one operation, check its output, return its wall time."""
    t0 = time.perf_counter()
    try:
        out = workload.run(inp)
    except simulator_error as e:
        dt = time.perf_counter() - t0
        tally.record([f"{type(e).__name__}: {e}"], label)
        return dt
    dt = time.perf_counter() - t0
    tally.record(workload.check(inp, out), label)
    return dt


def set_up(args, tally):
    """Import, make inputs, run one warm-up operation; returns the live state.

    The set-up time is returned in wall and nominal seconds, the latter from
    reference jobs timed right after it.
    """
    workloads, simulator_error = import_package()
    tmp = tempfile.TemporaryDirectory(prefix="tmp-", dir=HERE)
    workload = workloads.WORKLOADS[args.workload](args.seed, tmp.name)
    run_op(workload, workload.inputs(0), tally, "warm-up", simulator_error)
    wall = time.perf_counter() - START
    probes: list[tuple[float, float]] = []
    probe_speed(wall, probes)
    setup = {"wall": wall, "nominal": nominal_times([wall], [START + wall], probes)[0]}
    return workload, tmp, simulator_error, setup


def p90(values: list[float]) -> float:
    """Linearly interpolated 90th percentile (the value itself for one sample)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def probe_setup(args, tally) -> list[dict]:
    """Set-up times of SETUP_PROBES fresh processes, run one after another."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        samples.append(probe["setup"])
        tally.attempted += probe["attempted"]
        tally.failed += probe["failed"]
        tally.messages.extend(probe["messages"])
    return samples


def measure(args, workload, simulator_error, tally, setup):
    """Closed loop until --seconds have passed; end-to-end metrics."""
    latencies, ends, probes = [], [], []
    k = 1
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        inp = workload.inputs(k)
        latencies.append(run_op(workload, inp, tally, f"op {k}", simulator_error))
        ends.append(time.perf_counter())
        probe_speed(latencies[-1], probes)
        k += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup] + probe_setup(args, tally)
    n = len(latencies)
    wall = {
        "latency_p50": statistics.median(latencies),
        "latency_p90": p90(latencies),
        "items_per": workload.items_per_op * n / sum(latencies),
    }
    nominal = nominal_times(latencies, ends, probes)
    metrics = {
        "setup_s": statistics.median(s["nominal"] for s in setups),
        "latency_p50_nominal_s": statistics.median(nominal),
        "latency_p90_nominal_s": p90(nominal),
        "items_per_nominal_s": workload.items_per_op * n / sum(nominal),
        "peak_rss_mb": peak_rss_mb,
    }
    count = f"n={n}" + ("" if n >= 100 else ", under 100 operations so near the slowest")
    notes = {
        "setup_s": f"median of {len(setups)} set-ups; wall " + ", ".join(f"{s['wall']:.3f}" for s in setups) + " s",
        "latency_p50_nominal_s": f"wall {wall['latency_p50']:.6g} s, n={n}",
        "latency_p90_nominal_s": f"wall {wall['latency_p90']:.6g} s, {count}",
        "items_per_nominal_s": f"{workload.item}; wall {wall['items_per']:.6g} per s of operation time",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    print(f"# reference job: median {statistics.median(d for _, d in probes):.6g} s over {len(probes)} runs, "
          f"nominal {REFERENCE_NOMINAL_S:g} s")
    return metrics, notes


def trace_pass(workload, simulator_error, tally):
    """Untraced then traced pass over the same fixed operations."""
    import spans

    ops = [workload.inputs(k) for k in range(1, workload.trace_ops + 1)]
    untraced = sum(
        run_op(workload, inp, tally, f"untraced op {k}", simulator_error)
        for k, inp in enumerate(ops, 1)
    )
    tracer = spans.Tracer()
    with spans.tracing(tracer):
        traced = sum(
            run_op(workload, inp, tally, f"traced op {k}", simulator_error)
            for k, inp in enumerate(ops, 1)
        )
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = traced - untraced
    notes = {"trace.overhead_s": f"pass of {len(ops)} operations: traced {traced:.4f} s, untraced {untraced:.4f} s"}
    return metrics, notes


def header(args) -> None:
    import numpy
    import scipy

    print(f"# grbell benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# python {platform.python_version()}, numpy {numpy.__version__}, "
          f"scipy {scipy.__version__}, nproc {len(os.sched_getaffinity(0))}, "
          f"OMP/OPENBLAS/MKL threads 1, workers=1, one client")


def report(spec, args, metrics, notes, tally) -> None:
    """Print the metrics BENCHMARK.json names for this mode and the result line."""
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    selected = {}
    for entry in listed:
        value = metrics[entry["name"]]
        selected[entry["name"]] = {"value": value, "unit": entry["unit"]}
        note = notes.get(entry["name"], "")
        print(f"{entry['name']:<34} {value:>14.6g} {entry['unit']:<14} {note}")
    if not args.trace:
        fail_frac = tally.failed / tally.attempted
        print(f"{'fail_frac':<34} {fail_frac:>14.6g} {'ratio':<14} "
              f"{tally.failed} failed of {tally.attempted} attempted")
    for message in tally.messages:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": selected,
    }))


def run_all(args, spec) -> int:
    """Each workload in its own child process; merged result line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for entry in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", entry["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {entry['name']} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{entry['name']}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args, spec)

    tally = Tally()
    workload, tmp, simulator_error, setup = set_up(args, tally)
    with tmp:
        if args.setup_probe:
            print(json.dumps({"setup": setup, "attempted": tally.attempted,
                              "failed": tally.failed, "messages": tally.messages}))
            return 0
        header(args)
        if args.trace:
            metrics, notes = trace_pass(workload, simulator_error, tally)
        else:
            metrics, notes = measure(args, workload, simulator_error, tally, setup)
        report(spec, args, metrics, notes, tally)
    return 0


if __name__ == "__main__":
    sys.exit(main())
