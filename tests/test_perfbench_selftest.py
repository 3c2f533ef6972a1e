"""The benchmark's own self-tests, run with the suite.

They pin that the kernel reaches `act` and `rref` through `certify`'s
names, a finite group's CLI job reaches `finite_closure` through
`group_elements`, and a `check` job reaches `parse_expression`,
`is_invariant` and, below it, `act`, which the benchmark's per-layer
trace wraps.
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


def test_check_job_traces_parse_and_invariance_with_the_rotation_below(capsys):
    # the per-layer metrics expr.parse_calls, action.is_invariant_s and
    # action.act_s read these spans; the o(2) rotation is the one
    # element is_invariant still imposes through act
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        code = main([
            "check", "--group", "o", "--n", "2", "--vectors", "2",
            "--expr", "s(1,1)*s(2,2) - 1/3*s(1,2)^2", "--format", "json",
        ])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["invariant"] is True
    spans = tracer.take()
    names = [s[tracing.NAME] for s in spans]
    assert "parse_expression" in names
    check = names.index("is_invariant")
    below = [s for s in spans if s[tracing.NAME] == "act" and s[tracing.PARENT] == check]
    assert len(below) == 1
    metrics = tracing.layer_metrics(spans)
    assert metrics["expr.parse_calls"] == 1 and metrics["action.act_calls"] == 1
