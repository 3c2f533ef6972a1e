"""Closed-form dimensions of the classical invariants, whole and per block.

Cauchy's decomposition C[V^m] = sum over partitions λ of S_λ(V) ⊗ S_λ(C^m)
(ℓ(λ) <= n) reduces invariants to one question per λ.  S_λ(V) holds a
one-dimensional O(n)-invariant line when every part of λ is even, a
one-dimensional Sp(n)-invariant line when every column of λ has even
length, and no invariant line otherwise.  For GL(n) on k covector and m
vector copies, S_α(V*) ⊗ S_β(V) holds one invariant line when α = β.
The block of per-copy multidegree μ takes the μ-weight space of S_λ(C^m),
whose dimension is the Kostka number K_{λμ}.  (Procesi, *Lie Groups*;
Goodman and Wallach, *Symmetry, Representations, and Invariants*.)

Nothing here is shared with the package code.
"""

from math import prod


def partitions(d, max_len):
    """Partitions of d with at most max_len parts, parts descending."""

    def rec(rest, cap, slots):
        if rest == 0:
            yield ()
        elif slots:
            for part in range(min(rest, cap), 0, -1):
                for tail in rec(rest - part, part, slots - 1):
                    yield (part,) + tail

    return list(rec(d, d, max_len))


def conjugate(lam):
    return tuple(sum(1 for part in lam if part > j) for j in range(lam[0] if lam else 0))


def schur_dim(lam, N):
    """dim S_λ(C^N) by the hook-content formula."""
    cols = conjugate(lam)
    cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]
    num = prod(N + j - i for i, j in cells)
    den = prod(lam[i] - j + cols[j] - i - 1 for i, j in cells)
    return num // den


def _strips(lam, size):
    """Every ν inside λ with λ/ν a horizontal strip of the given size:
    λ_{i+1} <= ν_i <= λ_i row by row."""

    def rec(i, left):
        if i == len(lam):
            if left == 0:
                yield ()
            return
        floor = lam[i + 1] if i + 1 < len(lam) else 0
        for nu_i in range(lam[i], max(floor, lam[i] - left) - 1, -1):
            for tail in rec(i + 1, left - (lam[i] - nu_i)):
                yield (nu_i,) + tail

    for nu in rec(0, size):
        yield tuple(part for part in nu if part)


def kostka(lam, mu):
    """K_{λμ}, the number of semistandard tableaux of shape λ and content
    μ: the boxes holding the largest entry form a horizontal strip."""
    mu = [c for c in mu if c]
    if not mu:
        return 0 if lam else 1
    return sum(kostka(nu, mu[:-1]) for nu in _strips(lam, mu[-1]))


def _shapes(family, n, d):
    """The λ that carry an invariant line, with ℓ(λ) <= n."""
    if family == "gl":
        return partitions(d // 2, n) if d % 2 == 0 else []
    if family == "o":
        return [lam for lam in partitions(d, n) if all(p % 2 == 0 for p in lam)]
    return [lam for lam in partitions(d, n) if all(c % 2 == 0 for c in conjugate(lam))]


def invariant_dim(family, n, k, m, d):
    """dim of the degree-d invariants of k covector and m vector copies."""
    if family == "gl":
        return sum(schur_dim(lam, k) * schur_dim(lam, m) for lam in _shapes(family, n, d))
    return sum(schur_dim(lam, m) for lam in _shapes(family, n, d))


def block_dim(family, n, k, comp):
    """dim of the invariants of per-copy multidegree comp, covectors first."""
    cov, vec = comp[:k], comp[k:]
    d = sum(comp)
    if family == "gl":
        if sum(cov) != sum(vec):
            return 0
        return sum(kostka(lam, cov) * kostka(lam, vec) for lam in _shapes(family, n, d))
    return sum(kostka(lam, vec) for lam in _shapes(family, n, d))
