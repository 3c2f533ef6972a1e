"""Benchmark of classinv: one command per workload, outputs checked.

    python3 perfbench/run.py --workload {fft-heavy,expr-cli}
                             --seed N --seconds S --trace {0,1}

Load model: a closed loop with one client in one process and one thread.
A pass runs the workload's jobs back to back; passes repeat while one
more, at the mean pass cost so far, still ends within ``--seconds`` (at
least one pass).  Each pass draws its own inputs from the seed, so the
medians average over inputs as well as over timing noise.  Every job of
every pass goes through the correctness gate after the timed region.

``--trace 0`` prints the end-to-end metrics: median pass time
(``wall_s``), median over passes of the slowest job (``slowest_job_s``),
median set-up time over fresh interpreters (``setup_s``), peak resident
memory (``peak_rss_mb``) and the share of jobs that passed the gate
(``ops_ok_frac``, which is 1 - ops_failed_frac).

``--trace 1`` spends half the time on untraced passes and half on passes
traced from the outside (see ``tracing.py``), and prints the per-layer
metrics of the traced passes plus ``trace.overhead_frac``: traced pass
``i`` reruns the inputs of untraced pass ``i``, and the overhead is the
median over those pairs of traced over untraced pass time, minus one.
Spans are written to ``perfbench/out/``.

The finite-group caches of ``classinv.groups`` are cleared before every
job, so each job pays its own closure as a fresh CLI process does.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
SETUP_PROBES = 7
WORKLOADS = ("fft-heavy", "expr-cli")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_classinv():
    """Import classinv from this checkout's src/, never from elsewhere."""
    if not (SRC / "classinv" / "__init__.py").is_file():
        sys.exit(f"error: no classinv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import classinv

    if Path(classinv.__file__).resolve().parent != (SRC / "classinv").resolve():
        sys.exit(f"error: classinv was imported from {classinv.__file__}, not {SRC}")


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters, after one untimed
    probe that leaves compiled bytecode behind as an installed copy has."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    times = []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
        if i:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Runner:
    """Runs passes of one workload and keeps what the gate needs.

    ``build(i)`` gives the job list of pass ``i``; it is called outside
    the timed region.
    """

    def __init__(self, build, tracer=None):
        from classinv import groups
        from gate import Failed, summarize

        self.build = build
        self.tracer = tracer
        self._caches = (groups.group_elements, groups.group_elements_matrices)
        self._failed = Failed
        self._summarize = summarize
        self.walls: list[float] = []
        self.slowest: list[float] = []
        self.job_times: list[float] = []
        self.passes: list[tuple[list, list]] = []  # (jobs, summaries)

    def _call(self, job):
        for cache in self._caches:
            cache.cache_clear()
        try:
            if self.tracer is None:
                return job.call()
            with self.tracer.job_span(job.id):
                return job.call()
        except Exception as exc:  # a job that raises is a failed job
            return self._failed(exc)

    def one_pass(self) -> None:
        jobs = self.build(len(self.passes))
        gc.collect()
        answers = []
        times = []
        start = time.perf_counter()
        for job in jobs:
            t0 = time.perf_counter()
            answers.append(self._call(job))
            times.append(time.perf_counter() - t0)
        self.walls.append(time.perf_counter() - start)
        self.slowest.append(max(times))
        self.job_times.extend(times)
        self.passes.append((jobs, [self._summarize(j, a) for j, a in zip(jobs, answers)]))

    def run_for(self, seconds: float, after_pass=None, max_passes=None) -> None:
        """Run passes within `seconds` (at least one pass): stop when one
        more pass, at the mean cost so far, would end past the deadline."""
        start = time.perf_counter()
        done = 0
        while True:
            self.one_pass()
            if after_pass is not None:
                after_pass()
            done += 1
            elapsed = time.perf_counter() - start
            if elapsed * (done + 1) / done > seconds or len(self.passes) == max_passes:
                return


def tally(runners):
    """(attempted, failed, wrong, gate) over every job of every pass."""
    from gate import Gate

    gate = Gate()
    attempted = failed = wrong = 0
    for runner in runners:
        for jobs, summaries in runner.passes:
            for job, summary in zip(jobs, summaries):
                attempted += 1
                found = gate.verdict(job, summary)
                if found is not None:
                    failed += 1
                    wrong += found[1]
    return attempted, failed, wrong, gate


def latency_line(times: list[float]) -> str:
    """Median job time and the highest percentile with ten samples above it."""
    ordered = sorted(times)
    line = f"job latency over {len(ordered)} untraced jobs: median {statistics.median(ordered) * 1e3:.3f} ms"
    if len(ordered) <= 10:
        return line + f", max {ordered[-1] * 1e3:.3f} ms"
    k = len(ordered) - 11
    return line + f", p{100.0 * k / (len(ordered) - 1):.1f} {ordered[k] * 1e3:.3f} ms"


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_classinv()
    import jobs as jobs_mod
    import tracing

    def build(pass_index):
        return jobs_mod.build(args.workload, args.seed, pass_index)

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)

    plain = Runner(build)
    plain.run_for(args.seconds / 2 if args.trace else args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runners = [plain]

    if args.trace:
        tracer = tracing.Tracer()
        traced = Runner(build, tracer)
        per_pass, spans = [], []

        def collect():
            spans.append(tracer.take())
            per_pass.append(tracing.layer_metrics(spans[-1]))

        with tracing.patched(tracer):
            traced.run_for(args.seconds / 2, collect, max_passes=len(plain.walls))
        runners.append(traced)
        tracing.write_spans(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl", spans)

    attempted, failed, wrong, gate = tally(runners)

    if args.trace:
        units = {"_s": "s", "_calls": "count", "_bits": "bits", "_frac": "ratio", "_ratio": "ratio"}
        layer = tracing.median_metrics(per_pass)
        layer["trace.overhead_frac"] = statistics.median(
            t / p - 1.0 for t, p in zip(traced.walls, plain.walls)
        )
        metrics = {}
        for name, value in layer.items():
            unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
            metrics[name] = metric(value, unit)
    else:
        metrics = {
            "wall_s": metric(statistics.median(plain.walls), "s"),
            "slowest_job_s": metric(statistics.median(plain.slowest), "s"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "ops_ok_frac": metric(1.0 - failed / attempted, "ratio"),
        }

    print(f"workload {args.workload}  seed {args.seed}  jobs/pass {len(plain.passes[0][0])}")
    for runner, label in zip(runners, ("untraced", "traced")):
        print(f"{label} pass times (s): " + " ".join(f"{w:.4f}" for w in runner.walls))
        print(f"{label} slowest jobs (s): " + " ".join(f"{w:.4f}" for w in runner.slowest))
    print(latency_line(plain.job_times))
    print(f"ops_failed_frac {failed / attempted:.6f} ({failed} of {attempted}, {wrong} wrong)")
    for line in gate.failures:
        print(line)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
