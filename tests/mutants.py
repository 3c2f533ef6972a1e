"""Soundness mutants: small edits to `src/classinv`, each of which breaks
a guarantee that a `certified: true` result or a printed basis rests on,
and a runner that checks that every one of them fails a test.

    python tests/mutants.py [name ...]

The runner copies src/, tests/ and perfbench/groups/ to a temporary
directory and, one mutant at a time, applies it there, runs FAST_TESTS
against the copy and restores the file.  It prints one line per mutant
and exits 1 if any mutant survives (the subset passes) or breaks the run
itself (a collection error is no kill).  The repository is never edited.
`tests/test_mutants.py` checks in tier 1 that each mutant's source text
occurs exactly once in its file and nowhere else in src/, so a refactor
that moves a guarded line must update this list.

Only mutants that change an answer belong here: an equivalent mutant
(such as a derivation D replaced by -D, which has D's kernel) would
always survive.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "classinv"
COPIED = ("src", "tests", "perfbench/groups")
FAST_TESTS = (
    "tests/test_fft.py",
    "tests/test_dimension_formula.py",
    "tests/test_integral_kernel.py",
    "tests/test_closure_reference.py",
    "tests/test_reynolds_reference.py",
    "tests/test_parse_reference.py",
    "tests/test_invariance_reference.py",
)


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/classinv
    source: str
    replacement: str
    breaks: str


MUTANTS = (
    Mutant(
        "kernel-class-weight",
        "certify.py",
        "return sum(len(b) * len(classes[rep]) for rep, b in zip(reps, bases))",
        "return sum(len(b) for b in bases)",
        "the kernel dimension counts every block of a class, not only its representative",
    ),
    Mutant(
        "span-class-weight",
        "certify.py",
        "dim_span = sum(size * rank for _, size, rank in by_class)",
        "dim_span = sum(rank for _, size, rank in by_class)",
        "the span dimension counts every block of a class",
    ),
    Mutant(
        "drop-reflection",
        "groups.py",
        "out = [_reflection(n)] + [_swap(n, (a, a + 1)) for a in range(n - 1)]",
        "out = [_swap(n, (a, a + 1)) for a in range(n - 1)]",
        "o(n) imposes determinant -1 (for n = 1 nothing else does)",
    ),
    Mutant(
        "drop-transvection",
        "groups.py",
        "out.append(_unit(n, {(a, b): -ONE for a in (1, 3) for b in (0, 2)}))",
        "pass",
        "sp(n), n >= 4, is cut by its transvection",
    ),
    Mutant(
        "orbit-weight-conflict",
        "certify.py",
        "elif seen != c:\n                    alive = False",
        "elif seen != c:\n                    pass",
        "an orbit reached twice with two weights is killed",
    ),
    Mutant(
        "sp-weight-zero",
        "certify.py",
        'digits = e if family == "gl" else [e[a] - e[a + 1] for a in range(0, n, 2)]',
        'digits = e if family == "gl" else [0 for a in range(0, n, 2)]',
        "the sp torus filter keeps only monomials of weight zero",
    ),
    Mutant(
        "tagged-row-seed",
        "exact.py",
        "combo = None if tag is None else {tag: den}",
        "combo = None if tag is None else {tag: 1}",
        "a tagged row scaled to integers carries its scale into its relations",
    ),
    Mutant(
        "pattern-by-class",
        "certify.py",
        "return tuple(at[c] for c, dc in enumerate(block) if dc), _picker(src)",
        "return (), _picker(src)",
        "blocks that share a reduced form visit the positive copies in one order",
    ),
    Mutant(
        "pattern-by-copy-set",
        "certify.py",
        "return tuple(at[c] for c, dc in enumerate(block) if dc), _picker(src)",
        "return tuple(c for c, dc in enumerate(block) if dc), _picker(src)",
        "the same, not merely on the same set of positive copies",
    ),
    Mutant(
        "product-block",
        "certify.py",
        "block[c] += e * x",
        "block[c] += x",
        "a product's block is its exponents times its factors' copy degrees",
    ),
    Mutant(
        "orbit-sign",
        "action.py",
        "if s != 1",
        "if abs(s) != 1",
        "an orbit move carries the sign of its negated variables",
    ),
    Mutant(
        "closure-inverse-order",
        "groups.py",
        "inverse_of[p] = times(inv_rows, inv_q, [xinv[j::n] for j in range(n)], xq)",
        "inverse_of[p] = times([xinv[i : i + n] for i in starts], xq, list(zip(*inv_rows)), inv_q)",
        "the inverse of x s is inv(s) inv(x), which differs from inv(x) inv(s) in a non-abelian group",
    ),
    Mutant(
        "reynolds-common-denominator",
        "poly.py",
        "p *= common // scale**deg",
        "p *= scale ** (top - deg)",
        "every element's images are brought to the common denominator before they are summed",
    ),
    Mutant(
        "invariant-skips-derive",
        "action.py",
        "if _derive(payload, ints):",
        "if False:",
        "is_invariant imposes the shears and the sp transvection through their derivations",
    ),
    Mutant(
        "parse-product-denominator",
        "expr.py",
        "acc = _reduced(mul_terms(acc[0], factor[0]), acc[1] * factor[1])",
        "acc = _reduced(mul_terms(acc[0], factor[0]), acc[1])",
        "a parsed product's denominator is the product of its factors' denominators",
    ),
    Mutant(
        "decompose-relation-scale",
        "certify.py",
        "Fraction(-c, a)",
        "Fraction(-c)",
        "f's relation a f + sum c_i product_i = 0 gives the coefficients -c_i / a",
    ),
    Mutant(
        "finite-weight-zero",
        "certify.py",
        "weigh, combine, cancel = (lambda vector, e: 0), add, neg",
        "weigh, combine, cancel = (lambda vector, e: 1), add, neg",
        "a finite group has no torus, so its kernel starts from every block monomial",
    ),
)


def _run_one(tmp: Path, mutant: Mutant) -> str:
    path = tmp / "src" / "classinv" / mutant.file
    original = path.read_text(encoding="utf-8")
    if original.count(mutant.source) != 1:
        return "stale"
    path.write_text(original.replace(mutant.source, mutant.replacement), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(tmp / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *FAST_TESTS],
            cwd=tmp,
            env=env,
            capture_output=True,
            text=True,
        )
    finally:
        path.write_text(original, encoding="utf-8")
    # pytest exits 1 when a test failed; 0 means the mutant survived, and
    # any other code means the run itself broke
    return {0: "survived", 1: "killed"}.get(proc.returncode, f"broken (pytest exit {proc.returncode})")


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    bad = 0
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="classinv-mutants-") as name:
        tmp = Path(name)
        for part in COPIED:
            shutil.copytree(
                REPO / part, tmp / part, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis")
            )
        for mutant in chosen:
            t0 = time.monotonic()
            verdict = _run_one(tmp, mutant)
            bad += verdict != "killed"
            print(f"{mutant.name:<28} {verdict:<10} {time.monotonic() - t0:6.1f} s  ({mutant.breaks})")
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed in {time.monotonic() - started:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
