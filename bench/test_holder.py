"""A smoke test of `holder.py`'s measure on this checkout.

    python -m pytest -q bench

One child interpreter runs `measure` the way `ab.py` does, so the wrapped
kernel functions stay out of this process.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

sys.path.insert(0, str(BENCH))
import holder  # noqa: E402


def test_measure_times_the_kernel_of_this_checkout(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH / "holder.py"), "--measure", str(ROOT / "src"),
         "--run", "0", "--work", str(tmp_path)],
        stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(done.stdout)
    assert set(holder.KEYS) <= set(result)
    assert result["kernel_s"] > 0
    # the two boxes' walks overlap in time, so their summed seconds exceed
    # the time during which one of them runs
    assert 0 < result["kernel_wall_s"] < result["kernel_s"]
    # the walk holds one block of pairs: a few MB, where the sampled set's
    # index arrays alone took 16 MB
    assert 0 < result["kernel_traced_peak_mb"] < 8
    # the inner box and the unit box each take one kernel pass
    assert result["kernel_passes"] == 2
    assert result["fields_walked"] == len(result["values"]["ratio_max"]) > 0
    assert any((tmp_path / "out").iterdir())


def test_summarize_leaves_a_speedup_over_no_time_empty():
    run = dict.fromkeys(holder.KEYS, 1.0)
    results = {"before": [run] * 3, "after": [{**run, "kernel_s": 0.0}] * 3}
    rows = [{"max_abs_value_diff": 0.0, "values_bitwise_equal": True,
             "report_files_identical": True}] * 3
    speedup = holder.summarize(results, rows)["speedup"]
    assert speedup["kernel_s"] is None and speedup["op_s"] == 1.0


def test_covered_seconds_counts_overlapping_time_once():
    assert holder.covered_seconds([]) == 0.0
    assert holder.covered_seconds([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert holder.covered_seconds([(1.0, 4.0), (0.0, 5.0), (2.0, 3.0)]) == 5.0
