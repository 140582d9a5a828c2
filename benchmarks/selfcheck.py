"""Self-check of the traced run.

    python3 benchmarks/selfcheck.py [--seed 0]

1. Tracing the Schwarzschild demo config (LHV audit off) attributes its
   Christoffel evaluations to the layers that make them: 76 from geodesics
   and 536 from transport, the counts of the package when this benchmark
   was defined. A change to either layer that moves them on purpose reports
   the new counts as its evidence.
2. Tracing changes no result: the demo's JSON report is byte-identical with
   and without the hooks.
3. Two traced runs of each workload with the same seed give identical
   counts for every *.calls metric, geodesics.steps and lhv.samples_drawn.

Exits 0 when every check passes.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spans  # noqa: E402
from grbell import scenario  # noqa: E402

DEMO_BASELINE = {
    "geodesics.christoffel.calls": 76,
    "transport.christoffel.calls": 536,
    "geometry.christoffel.calls": 612,
}
EXACT_SUFFIXES = (".calls",)
EXACT_NAMES = ("geodesics.steps", "lhv.samples_drawn")


def check_demo() -> list[tuple[str, bool, str]]:
    data = scenario.schwarzschild_demo_config()
    data["lhv_audit"] = False
    cfg = scenario.config_from_dict(data)
    plain = scenario.report_to_json(scenario.run_scenario(cfg))
    tracer = spans.Tracer()
    with spans.tracing(tracer):
        traced = scenario.report_to_json(scenario.run_scenario(cfg))
    counts = tracer.metrics()
    results = [
        (f"demo {name}", counts[name] == want, f"{counts[name]} (expected {want})")
        for name, want in DEMO_BASELINE.items()
    ]
    results.append(("demo report unchanged by tracing", plain == traced, ""))
    return results


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {
        name: m["value"] for name, m in metrics.items()
        if name.endswith(EXACT_SUFFIXES) or name in EXACT_NAMES
    }


def check_repeat(seed: int) -> list[tuple[str, bool, str]]:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    results = []
    for workload in names:
        first, second = traced_counts(workload, seed), traced_counts(workload, seed)
        differ = sorted(k for k in first if first[k] != second.get(k))
        results.append(
            (f"{workload} counts repeat", not differ and bool(first),
             f"{len(first)} counts" + (f", differ: {differ}" if differ else ""))
        )
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description="self-check of the traced benchmark run")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    results = check_demo() + check_repeat(args.seed)
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    return 0 if all(ok for _, ok, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
