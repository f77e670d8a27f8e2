"""A smoke test of `bitwise.py`'s measure on this checkout.

    python -m pytest -q bench

One child interpreter runs `measure` the way `ab.py` does.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

sys.path.insert(0, str(BENCH))
import bitwise  # noqa: E402


def test_measure_hashes_every_item_of_this_checkout(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH / "bitwise.py"), "--measure", str(ROOT / "src"),
         "--run", "0", "--work", str(tmp_path)],
        stdout=subprocess.PIPE, text=True, check=True)
    hashes = json.loads(done.stdout)["hashes"]
    reports = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert "summary.txt" in reports
    assert sorted(name for name in hashes if name.startswith("cli/")) == [
        f"cli/{name}" for name in reports]
    assert sum(name.startswith("ensemble_n2/") for name in hashes) == 2 * bitwise.MEMBERS
    assert sum(name.startswith("n3_abp/") for name in hashes) == 3 * len(bitwise.N3_NODES)
    assert all(len(value) == 64 for value in hashes.values())
    # the members differ, so their hashes do
    members = {value for name, value in hashes.items() if name.endswith("/values")}
    assert len(members) == bitwise.MEMBERS + len(bitwise.N3_NODES)


def test_compare_names_a_changed_or_missing_item_unequal():
    before = {"hashes": {"a": "0", "b": "1", "c": "2"}}
    after = {"hashes": {"a": "0", "b": "9", "d": "3"}}
    row = bitwise.compare(0, before, after, None)
    assert row["items"] == {"a": "equal", "b": "unequal", "c": "unequal", "d": "unequal"}
    summary = bitwise.summarize({}, [row])
    assert not summary["all_equal"] and summary["unequal_items"] == ["b", "c", "d"]
