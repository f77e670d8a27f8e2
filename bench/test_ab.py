"""Tests of the before/after driver `ab.py` on a fake benchmark script.

    python -m pytest -q bench

The fake script measures nothing: each run logs which checkout it was
given and leaves a marker file in its work directory, so the tests need no
library solve.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

FAKE = '''"""Fake benchmark: writes BENCH_fake.json.

    python fake.py --before PATH

Each run logs its checkout.
"""

import sys

sys.path.insert(0, {bench!r})
import ab  # noqa: E402


def measure(src, run, work):
    with open({log!r}, "a") as fh:
        fh.write(f"{{run}} {{src}}\\n")
    (work / "mark").write_text(src)
    return {{"run": run, "src": src}}


def compare(run, before, after, work):
    return {{"run": run, "marks": [(work / side / "mark").read_text() for side in ab.SIDES]}}


def summarize(results, rows):
    return {{"results": results, "rows": rows}}


if __name__ == "__main__":
    sys.exit(ab.main(__doc__, measure, compare, summarize))
'''


@pytest.fixture
def fake(tmp_path):
    before = tmp_path / "before_checkout"
    (before / "src" / "degenpde").mkdir(parents=True)
    (before / "src" / "degenpde" / "__init__.py").write_text("")
    script = tmp_path / "fake.py"
    script.write_text(FAKE.format(bench=str(BENCH), log=str(tmp_path / "log")))

    def run(*args):
        return subprocess.run([sys.executable, str(script), "--before", str(before), *args],
                              capture_output=True, text=True)
    return run, tmp_path, before


def test_runs_alternate_which_side_goes_first(fake):
    run, tmp_path, before = fake
    assert run("--runs", "4", "--out", str(tmp_path / "out.json")).returncode == 0
    log = [line.split(" ", 1) for line in (tmp_path / "log").read_text().splitlines()]
    sides = {str(before / "src"): "before", str(ROOT / "src"): "after"}
    order = [(int(r), sides[src]) for r, src in log]
    assert order == [(0, "before"), (0, "after"), (1, "after"), (1, "before"),
                     (2, "before"), (2, "after"), (3, "after"), (3, "before")]


def test_fewer_than_three_runs_are_refused(fake):
    run, tmp_path, _ = fake
    done = run("--runs", "2", "--out", str(tmp_path / "out.json"))
    assert done.returncode == 2
    assert "--runs must be >= 3" in done.stderr
    assert not (tmp_path / "log").exists() and not (tmp_path / "out.json").exists()


def test_report_is_the_framing_plus_the_summary(fake):
    run, tmp_path, before = fake
    assert run("--runs", "3", "--out", str(tmp_path / "out.json")).returncode == 0
    report = json.loads((tmp_path / "out.json").read_text())
    assert list(report) == ["about", "runs_per_side", "platform", "revisions",
                            "results", "rows"]
    assert report["about"] == "Each run logs its checkout."
    assert report["runs_per_side"] == 3
    assert set(report["platform"]) == {"nproc", "python", "numpy", "scipy"}
    assert set(report["revisions"]) == {"before", "after"}
    assert all(set(rev) == {"git", "source_sha256"} and len(rev["source_sha256"]) == 64
               for rev in report["revisions"].values())
    for side, src in (("before", before / "src"), ("after", ROOT / "src")):
        assert report["results"][side] == [{"run": r, "src": str(src)} for r in range(3)]
    assert report["rows"] == [{"run": r, "marks": [str(before / "src"), str(ROOT / "src")]}
                              for r in range(3)]
