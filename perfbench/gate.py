"""Correctness gate, run after the timed region and outside tracing.

It checks mathematical content only: certification, the recorded span
and kernel dimensions, CLI exit codes, decompositions that re-expand to
their input, Reynolds outputs that are invariant and idempotent, and
finite-group invariant dimensions and generator degrees.  It never
compares ``samples_used`` or ``stabilized``: a different sampling
strategy may change them and still be right.

A failed job is either wrong, when its answer asserts something false,
or merely failed, when the program's own contract allows the outcome: a
call that raised, a certificate left uncertified (inconclusive, never a
refutation), or a CLI error exit.  Both kinds count as failed; only a
wrong answer makes the run incorrect.

``summarize`` reduces an answer to a small hashable value right after a
pass; ``Gate`` checks each distinct summary once per job.
"""

from __future__ import annotations

import json

from classinv.action import ActionContext, is_invariant, reynolds
from classinv.cli import read_matrix_file
from classinv.expr import parse_expression
from classinv.groups import finite_group
from classinv.poly import SpaceSignature

from jobs import GROUP_DIR, Job


class Failed:
    """Stands in for the answer of a job that raised."""

    def __init__(self, exc: BaseException):
        self.reason = f"raised {type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Failed) and other.reason == self.reason

    def __hash__(self):
        return hash(self.reason)


def summarize(job: Job, answer):
    if isinstance(answer, Failed):
        return answer
    if job.kind == "fft":
        return (answer.certified, answer.dim_span, answer.dim_kernel)
    return answer  # (exit code, stdout) of a CLI job


def _count_monomials(degrees, total: int) -> int:
    """Number of exponent vectors e with sum(e_i * degrees_i) == total:
    the invariant dimension of a reflection group with these basic degrees."""
    ways = [1] + [0] * total
    for w in degrees:
        for t in range(w, total + 1):
            ways[t] += ways[t - w]
    return ways[total]


def _terms_to_text(terms: list) -> str:
    """Rebuild expression syntax from a JSON term list of the CLI."""
    parts = []
    for term in terms:
        factors = [f"({term['coeff']})"]
        factors += [name if e == 1 else f"{name}^{e}" for name, e in term["monomial"]]
        parts.append("*".join(factors))
    return " + ".join(parts) if parts else "0"


def _finite_context(expect: dict) -> ActionContext:
    _, n, k, m = expect["session"]
    spec = finite_group(read_matrix_file(str(GROUP_DIR / expect["group"])))
    return ActionContext(spec, SpaceSignature(n, k, m))


def _check_cli(expect: dict, code: int, stdout: str):
    if code != expect["exit"]:
        return f"exit code {code}, expected {expect['exit']}", code != 1
    out = json.loads(stdout)
    kind = expect["check"]
    if kind in ("invariant", "perturbed"):
        if out["invariant"] != (expect["exit"] == 0):
            return f"invariant flag {out['invariant']} contradicts the exit code", True
        return None
    if kind == "decompose":
        family, n, k, m = expect["session"]
        sig = SpaceSignature(n, k, m)
        given = parse_expression(expect["expr"], sig, family)
        back = parse_expression(_terms_to_text(out["decomposition"]), sig, family)
        return None if back == given else ("decomposition does not re-expand to the input", True)
    if kind == "reynolds":
        ctx = _finite_context(expect)
        if out["order"] != expect["order"]:
            return f"group order {out['order']}, expected {expect['order']}", True
        r = parse_expression(_terms_to_text(out["result"]), ctx.sig, "finite")
        if not is_invariant(ctx, r):
            return "Reynolds output is not invariant", True
        if reynolds(ctx, r) != r:
            return "Reynolds output is not idempotent", True
        return None
    if kind == "finite-basis":
        want = _count_monomials(expect["degrees"], expect["degree"])
        if out["dim_kernel"] != want or len(out["basis"]) != want:
            return f"basis dimension {out['dim_kernel']}, expected {want}", True
        return None
    if kind == "finite-gendeg":
        if out["degrees"] != expect["degrees"]:
            return f"degrees {out['degrees']}, expected {expect['degrees']}", True
        return None
    raise ValueError(f"unknown check {kind!r}")


def check(job: Job, summary):
    """None when the answer is right, else (reason, wrong)."""
    if isinstance(summary, Failed):
        return summary.reason, False
    want = job.expect
    if job.kind == "fft":
        # certified means dim_kernel == dim_span, so this pins both
        certified, dim_span, dim_kernel = summary
        if dim_span != want["dim_span"] or dim_kernel < want["dim_kernel"]:
            return f"dims span {dim_span} kernel {dim_kernel}, expected {want}", True
        if not certified:
            return f"not certified: span {dim_span} < kernel {dim_kernel}", False
        return None
    return _check_cli(want, *summary)


class Gate:
    """Checks answers, each distinct (job, summary) pair once."""

    def __init__(self):
        self._verdicts: dict = {}
        self.failures: list[str] = []

    def verdict(self, job: Job, summary):
        """None for a right answer, else (reason, wrong)."""
        key = (job.id, summary)
        if key not in self._verdicts:
            try:
                found = check(job, summary)
            except Exception as exc:  # a malformed answer is a wrong answer
                found = f"check raised {type(exc).__name__}: {exc}", True
            self._verdicts[key] = found
            if found is not None:
                reason, wrong = found
                self.failures.append(f"{'WRONG' if wrong else 'FAILED'} {job.id}: {reason}")
        return self._verdicts[key]
