"""Run two checkouts of grbell on the same commands and compare every output byte for byte.

    python3 tools/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are repository checkouts, each with src/ and configs/.
Each tree runs its own package, from its own directory, on:

- every bundled config: `run` as JSON, CSV and text (the text report
  without its wall-clock `elapsed_s` line), and `lhv-audit`;
- `sweep` on every bundled config that has a sweep block;
- `selftest`;
- `horizon` from 10 M at 40 steps to 2.01, 2.000003 and 1.5 M, and at
  2,000 steps to 2.000003 M;
- `run` as JSON on two long legs, the README's bound orbit from 30 M and
  its mirror image, each 48,662 steps to tau = 4e5 M.

Each command's exit code is kept as one more file. The script prints one
verdict per file, then a count, and exits 1 if any file differs or is
missing on one side.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HORIZONS = [("2.01", 40), ("2.000003", 40), ("1.5", 40), ("2.000003", 2000)]
OUT = "{out}"  # stands for the command's output file
LONG = "{long}"  # stands for the long legs' config, which run_tree writes beside its outputs
_BOUND_ORBIT = [1.0556733370402644, 0.04926475572854568, 0.0, 0.006459223131359831]
LONG_LEGS = {
    "metric": {"kind": "schwarzschild", "mass": 1.0},
    "origin": [0.0, 30.0, 1.5707963267948966, 0.0],
    "u1": _BOUND_ORBIT,
    "u2": [*_BOUND_ORBIT[:3], -_BOUND_ORBIT[3]],
    "stop1": {"kind": "proper_time", "value": 4e5},
    "stop2": {"kind": "proper_time", "value": 4e5},
    "settings": {"a_deg": 0.0, "b_deg": 60.0, "c_deg": 120.0},
    "lhv_audit": False,
}


def commands(tree: Path) -> list[tuple[str, list[str]]]:
    """(file name, CLI arguments) of every output; a command without OUT writes to stdout."""
    found = []
    for config in sorted((tree / "configs").glob("*.json")):
        path, name = f"configs/{config.name}", config.stem
        for fmt in ("json", "csv", "text"):
            found.append((f"run-{name}.{fmt}", ["run", "--config", path, "--format", fmt, "--out", OUT]))
        found.append((f"lhv-audit-{name}.txt", ["lhv-audit", "--config", path]))
        if "sweep" in json.loads(config.read_text(encoding="utf-8")):
            found.append((f"sweep-{name}.csv", ["--quiet", "sweep", "--config", path, "--out", OUT]))
    found.append(("selftest.txt", ["selftest"]))
    for r_end, steps in HORIZONS:
        found.append((
            f"horizon-{r_end}-{steps}.csv",
            ["--quiet", "horizon", "--mass", "1", "--r-start", "10", "--r-end", r_end, "--steps", str(steps), "--out", OUT],
        ))
    found.append(("run-long_legs.json", ["run", "--config", LONG, "--format", "json", "--out", OUT]))
    return found


def run_tree(tree: Path, dest: Path) -> None:
    """Write every output of tree's commands into dest, and each exit code as NAME.exit."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    long_legs = dest.parent / "long_legs.json"
    long_legs.write_text(json.dumps(LONG_LEGS), encoding="utf-8")
    for name, args in commands(tree):
        out = dest / name
        argv = [str(out) if arg == OUT else str(long_legs) if arg == LONG else arg for arg in args]
        with open(out if OUT not in args else os.devnull, "w", encoding="utf-8") as stdout:
            code = subprocess.run(
                [sys.executable, "-m", "grbell.cli", *argv],
                cwd=tree, env=env, stdout=stdout, stderr=subprocess.DEVNULL,
            ).returncode
        (dest / f"{name}.exit").write_text(f"{code}\n", encoding="utf-8")
        if name.endswith(".text") and out.exists():
            lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
            out.write_text("".join(x for x in lines if not x.startswith("elapsed_s")), encoding="utf-8")


def compare_dirs(parent: Path, change: Path) -> list[tuple[str, str]]:
    """(verdict, file name) for every file in either directory, sorted by name."""
    verdicts = []
    for name in sorted({p.name for p in parent.iterdir()} | {p.name for p in change.iterdir()}):
        a, b = parent / name, change / name
        if not a.exists():
            verdicts.append(("only in CHANGE", name))
        elif not b.exists():
            verdicts.append(("only in PARENT", name))
        else:
            verdicts.append(("identical" if a.read_bytes() == b.read_bytes() else "DIFFERENT", name))
    return verdicts


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/compare_outputs.py PARENT CHANGE", file=sys.stderr)
        return 2
    parent, change = (Path(arg).resolve() for arg in argv)
    with tempfile.TemporaryDirectory() as scratch:
        outputs = Path(scratch, "parent"), Path(scratch, "change")
        for tree, dest in zip((parent, change), outputs):
            dest.mkdir()
            run_tree(tree, dest)
        verdicts = compare_dirs(*outputs)
    for verdict, name in verdicts:
        print(f"{verdict:<15} {name}")
    differing = sum(verdict != "identical" for verdict, _ in verdicts)
    print(f"{len(verdicts)} files, {len(verdicts) - differing} identical, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
