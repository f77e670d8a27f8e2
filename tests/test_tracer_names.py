"""Every library name the benchmark tracer patches exists.

`perfbench/tracing.py` wraps library functions by module and attribute
name, so deleting or renaming one of them breaks only the traced benchmark
run.  Here the file is read and executed without being changed or
compiled to disk, and each name is resolved the way the tracer does.
"""

import types
from pathlib import Path

from degenpde.geometry import ParabolicCube

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_name_the_benchmark_tracer_patches_resolves():
    tracing = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing.__dict__)
    targets = [(mod, attr) for mod, attr, *_ in tracing._spans(ParabolicCube.node_mask)]
    targets.append(("degenpde.solver", "bicgstab"))
    missing = []
    for mod, attr in targets:
        try:
            owner, name = tracing._owner(mod, attr)
        except AttributeError:  # a class on the attribute's path is gone
            missing.append(f"{mod}.{attr}")
            continue
        if not callable(getattr(owner, name, None)):
            missing.append(f"{mod}.{attr}")
    assert not missing
    assert len(targets) > 30
