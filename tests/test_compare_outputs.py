import importlib.util
import os
from pathlib import Path

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_spec = importlib.util.spec_from_file_location(
    "compare_outputs", os.path.join(ROOT, "tools", "compare_outputs.py")
)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def test_every_file_gets_one_verdict(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for tree in (parent, change):
        tree.mkdir()
        (tree / "same.csv").write_bytes(b"1,2\n")
    (parent / "moved.json").write_bytes(b"0.1")
    (change / "moved.json").write_bytes(b"0.10000000000000001")
    (parent / "gone.txt").write_bytes(b"")
    (change / "new.txt").write_bytes(b"")
    assert compare_outputs.compare_dirs(parent, change) == [
        ("only in PARENT", "gone.txt"),
        ("DIFFERENT", "moved.json"),
        ("only in CHANGE", "new.txt"),
        ("identical", "same.csv"),
    ]


def test_the_commands_cover_every_bundled_config_sweep_and_study():
    commands = compare_outputs.commands(Path(ROOT))
    names = [name for name, _ in commands]
    configs = sorted(name[:-5] for name in os.listdir(os.path.join(ROOT, "configs")))
    for config in configs:
        assert {f"run-{config}.{fmt}" for fmt in ("json", "csv", "text")} <= set(names)
        assert f"lhv-audit-{config}.txt" in names
    assert sorted(name for name in names if name.startswith("sweep-")) == [
        "sweep-flat_a_sweep.csv", "sweep-schwarzschild_b_sweep.csv", "sweep-synthetic_w_sweep.csv",
    ]
    assert "selftest.txt" in names
    assert sum(name.startswith("horizon-") for name in names) == 4
    # two legs of 48,662 steps each, the README's bound orbit and its mirror image, to tau = 4e5 M
    assert ("run-long_legs.json", ["run", "--config", compare_outputs.LONG, "--format", "json",
                                   "--out", compare_outputs.OUT]) in commands
    legs = compare_outputs.LONG_LEGS
    assert legs["u1"] == [1.0556733370402644, 0.04926475572854568, 0.0, 0.006459223131359831]
    assert legs["u2"] == [*legs["u1"][:3], -legs["u1"][3]] and legs["origin"][1] == 30.0
    assert legs["stop1"] == legs["stop2"] == {"kind": "proper_time", "value": 4e5}
    assert len(names) == len(set(names)) == 4 * len(configs) + 9
