"""The benchmark's own self-tests, run with the suite.

They pin that the kernel reaches `act` and `rref` through `certify`'s
names, and a finite group's CLI job reaches `finite_closure` through
`group_elements`, which the benchmark's per-layer trace wraps.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from classinv import groups
from classinv.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_self_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def _load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reynolds_job_traces_the_closure_below_group_elements(capsys):
    # the per-layer metric groups.closure_s reads the finite_closure
    # spans; a reynolds job, with the caches cleared as the benchmark
    # clears them before each job, must record one under group_elements
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    groups.group_elements.cache_clear()
    groups.group_elements_matrices.cache_clear()
    with tracing.patched(tracer):
        code = main([
            "reynolds", "--group", "finite", "--group-file",
            str(ROOT / "perfbench" / "groups" / "a2.txt"), "--vectors", "1",
            "--expr", "x[1,1]^2", "--format", "json",
        ])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["order"] == 6
    spans = tracer.take()
    names = [s[tracing.NAME] for s in spans]
    span = spans[names.index("finite_closure")]
    ancestors = []
    while span[tracing.PARENT] != -1:
        span = spans[span[tracing.PARENT]]
        ancestors.append(span[tracing.NAME])
    assert "group_elements" in ancestors
    assert tracing.layer_metrics(spans)["groups.closure_s"] > 0
