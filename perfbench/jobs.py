"""Seeded job lists for the benchmark workloads.

A job is one call a user waits for: a library call for ``fft-heavy``,
one in-process ``classinv.cli.main`` invocation for ``expr-cli``.
Every job carries what the correctness gate needs to check its answer.
Calls look names up on the ``classinv`` modules at call time, so the
traced run sees them through its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import Counter
from dataclasses import dataclass, replace
from itertools import combinations_with_replacement
from pathlib import Path
from random import Random

from classinv import certify, cli
from classinv.groups import GroupSpec
from classinv.poly import SpaceSignature

HERE = Path(__file__).resolve().parent
GROUP_DIR = HERE / "groups"
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Job:
    id: str
    kind: str  # "fft" or "cli"
    call: object  # no-argument callable returning the raw answer
    expect: dict


def _fft_job(family: str, n: int, k: int, m: int, d: int, seed: int) -> Job:
    spec = GroupSpec(family, n)
    sig = SpaceSignature(n, k, m)
    key = f"{family}:n{n}:k{k}:m{m}:d{d}"
    return Job(
        f"fft/{key}/seed{seed}",
        "fft",
        lambda: certify.fft_verify(spec, sig, d, seed),
        EXPECTED[key],
    )


# -- fft-heavy -------------------------------------------------------------

# (family, n, covectors, vectors, degree); cells whose cost barely depends
# on the sample seed (README.md, "Changed cells of fft-heavy")
HEAVY_CELLS = (
    ("o", 4, 0, 3, 4),
    ("sp", 4, 0, 4, 4),
    ("sp", 4, 0, 2, 8),
    ("gl", 3, 2, 2, 6),
)


def fft_heavy(rng: Random) -> list[Job]:
    return [_fft_job(*cell, rng.randrange(2**32)) for cell in HEAVY_CELLS]


# -- expr-cli --------------------------------------------------------------

# (family, n, covectors, vectors, degree) of the classical CLI sessions
CLI_SESSIONS = (
    ("o", 3, 0, 2, 4),
    ("o", 2, 0, 3, 6),
    ("sp", 4, 0, 3, 4),
    ("gl", 2, 2, 2, 4),
)
# integer reflection groups: file, n, degrees of the basic invariants, order
FINITE_GROUPS = (
    ("a2.txt", 2, (2, 3), 6),
    ("g2.txt", 2, (2, 6), 12),
    ("b3.txt", 3, (2, 4, 6), 48),
)
FINITE_DEGREE = 6
REYNOLDS_PER_GROUP = 2
REYNOLDS_DEGREE = 4


def _symbols(family: str, k: int, m: int) -> list[str]:
    if family == "gl":
        return [f"c({i},{j})" for i in range(1, k + 1) for j in range(1, m + 1)]
    if family == "o":
        return [f"s({i},{j})" for i in range(1, m + 1) for j in range(i, m + 1)]
    return [f"w({i},{j})" for i in range(1, m + 1) for j in range(i + 1, m + 1)]


def _variables(n: int, k: int, m: int) -> list[str]:
    return [f"u[{i},{a}]" for i in range(1, k + 1) for a in range(1, n + 1)] + [
        f"x[{j},{a}]" for j in range(1, m + 1) for a in range(1, n + 1)
    ]


def _coefficient(rng: Random) -> str:
    return f"{rng.choice([-9, -7, -5, -3, -2, -1, 1, 2, 3, 4, 6, 8])}/{rng.randint(1, 9)}"


def _product(names) -> str:
    counts = Counter(names)
    return "*".join(s if e == 1 else f"{s}^{e}" for s, e in sorted(counts.items()))


def _full_form(rng: Random, names: list[str], factors: int) -> str:
    """Every product of `factors` names, each with a random rational
    coefficient: the seed moves the coefficients, not the support, so
    the work per expression barely depends on the seed."""
    return " + ".join(
        f"{_coefficient(rng)}*{_product(p)}"
        for p in combinations_with_replacement(names, factors)
    )


def _random_form(rng: Random, names: list[str], factors: int, terms: int) -> str:
    """Sum of `terms` random products of `factors` names with rational coefficients."""
    return " + ".join(
        f"{_coefficient(rng)}*{_product(rng.choice(names) for _ in range(factors))}"
        for _ in range(terms)
    )


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_job(job_id: str, argv: list[str], expect: dict) -> Job:
    return Job(job_id, "cli", lambda: _run_cli(argv), expect)


def expr_cli(rng: Random) -> list[Job]:
    # CLI jobs keep the default --seed 0, as a user who gives none does;
    # the workload seed moves the expressions
    jobs = []
    for family, n, k, m, d in CLI_SESSIONS:
        session = ["--group", family, "--n", str(n), "--covectors", str(k),
                   "--vectors", str(m), "--format", "json"]
        tag = f"{family}:n{n}:k{k}:m{m}:d{d}"
        inv = _full_form(rng, _symbols(family, k, m), d // 2)
        pert = f"{inv} + {_random_form(rng, _variables(n, k, m), d, 1)}"
        base = {"session": [family, n, k, m]}
        jobs.append(_cli_job(
            f"check/{tag}", ["check", *session, "--expr", inv],
            {**base, "check": "invariant", "exit": 0},
        ))
        jobs.append(_cli_job(
            f"check-perturbed/{tag}", ["check", *session, "--expr", pert],
            {**base, "check": "perturbed", "exit": 2},
        ))
        jobs.append(_cli_job(
            f"decompose/{tag}", ["decompose", *session, "--expr", inv],
            {**base, "check": "decompose", "exit": 0, "expr": inv},
        ))
    for name, n, degrees, order in FINITE_GROUPS:
        path = str(GROUP_DIR / name)
        for copies in (1, 2):
            session = ["--group", "finite", "--group-file", path, "--vectors", str(copies),
                       "--format", "json"]
            for r in range(REYNOLDS_PER_GROUP):
                f = _random_form(rng, _variables(n, 0, copies), REYNOLDS_DEGREE, 3)
                jobs.append(_cli_job(
                    f"reynolds/{name}/m{copies}/r{r}", ["reynolds", *session, "--expr", f],
                    {"check": "reynolds", "exit": 0, "group": name,
                     "session": ["finite", n, 0, copies], "order": order},
                ))
        session = ["--group", "finite", "--group-file", path, "--vectors", "1", "--format", "json"]
        jobs.append(_cli_job(
            f"basis/{name}", ["basis", *session, "--degree", str(FINITE_DEGREE)],
            {"check": "finite-basis", "exit": 0, "degrees": list(degrees), "degree": FINITE_DEGREE},
        ))
        jobs.append(_cli_job(
            f"gendeg/{name}", ["gendeg", *session, "--degree-bound", str(FINITE_DEGREE)],
            {"check": "finite-gendeg", "exit": 0, "degrees": list(degrees)},
        ))
    return jobs


BUILDERS = {"fft-heavy": fft_heavy, "expr-cli": expr_cli}


def build(workload: str, seed: int, pass_index: int = 0) -> list[Job]:
    """The job list of one pass of a workload.  The same seed gives the
    same passes; each pass draws its own inputs, so a run averages over
    several sets of inputs as well as over timing noise."""
    jobs = BUILDERS[workload](Random(f"{workload}/{seed}/{pass_index}"))
    return [replace(j, id=f"p{pass_index}/{j.id}") for j in jobs]
