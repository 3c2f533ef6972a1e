"""Naive reference computation of graded invariant dimensions.

Written from scratch on sympy and deliberately slow: enumerate the full
monomial basis in degree d, stack the coefficient rows of (g . mono - mono)
over a batch of group elements, and return the corank.  Nothing here is
shared with the package code, so agreement is meaningful.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import sympy as sp


def det(m):
    """Exact determinant of a classinv Matrix, as a Fraction."""
    entries = [sp.Rational(x.numerator, x.denominator) for x in m.entries]
    d = sp.Matrix(m.rows, m.cols, entries).det()
    return Fraction(int(d.p), int(d.q))


def _symbols(n, covectors, vectors):
    syms = []
    for i in range(1, covectors + 1):
        for a in range(1, n + 1):
            syms.append(sp.Symbol(f"uu_{i}_{a}"))
    for j in range(1, vectors + 1):
        for a in range(1, n + 1):
            syms.append(sp.Symbol(f"xx_{j}_{a}"))
    return syms


def _exponent_vectors(nvars, degree):
    vecs = []
    for combo in combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for idx in combo:
            e[idx] += 1
        vecs.append(tuple(e))
    return vecs


def _reflection(n):
    m = sp.eye(n)
    m[0, 0] = -1
    return m


def _j_matrix(n):
    m = sp.zeros(n, n)
    for p in range(n // 2):
        m[2 * p, 2 * p + 1] = 1
        m[2 * p + 1, 2 * p] = -1
    return m


def _cayley(s):
    n = s.rows
    return (sp.eye(n) - s) * (sp.eye(n) + s).inv()


def sample_matrix(family, n, rng):
    """One random element of the chosen group, as an exact sympy Matrix."""
    if family == "o":
        s = sp.zeros(n, n)
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.randint(-3, 3)
                s[i, j] = v
                s[j, i] = -v
        g = _cayley(s)
        if rng.random() < 0.5:
            g = g * _reflection(n)
        return g
    if family == "sp":
        jm = _j_matrix(n)
        while True:
            m = sp.zeros(n, n)
            for i in range(n):
                for j in range(i, n):
                    v = rng.randint(-3, 3)
                    m[i, j] = v
                    m[j, i] = v
            s = jm * m
            if (sp.eye(n) + s).det() != 0:
                return _cayley(s)
    while True:
        g = sp.Matrix(n, n, lambda i, j: rng.randint(-3, 3))
        if g.det() != 0:
            return g


def _elements(family, n, seed, count):
    rng = random.Random(seed)
    out = []
    if family == "o":
        out.append(_reflection(n))
        out.append(-sp.eye(n))
    elif family == "sp":
        out.append(_j_matrix(n))
    else:
        d = sp.eye(n)
        d[0, 0] = 2
        out.append(d)
    while len(out) < count:
        out.append(sample_matrix(family, n, rng))
    return out


def apply_element(g, syms, n, covectors, vectors, expr):
    """Substitution action: g^T on covector copies, g^{-1} on vector copies."""
    gt = g.T
    ginv = g.inv()
    subs = {}
    pos = 0
    for _ in range(covectors):
        copy = syms[pos:pos + n]
        for a in range(n):
            subs[copy[a]] = sum(gt[a, b] * copy[b] for b in range(n))
        pos += n
    for _ in range(vectors):
        copy = syms[pos:pos + n]
        for a in range(n):
            subs[copy[a]] = sum(ginv[a, b] * copy[b] for b in range(n))
        pos += n
    return sp.expand(expr.xreplace(subs))


def invariant_dimension(family, n, covectors, vectors, degree, seed=0, elements=10):
    """dim of the degree-d polynomials fixed by a batch of group elements.

    An over-approximation of the true invariant dimension for continuous
    families; with the deterministic elements used here it is exact on the
    small instances the tests run it on.
    """
    syms = _symbols(n, covectors, vectors)
    nvars = len(syms)
    basis = _exponent_vectors(nvars, degree)
    index = {e: pos for pos, e in enumerate(basis)}
    rows = []
    for g in _elements(family, n, seed, elements):
        for e in basis:
            mono = sp.Integer(1)
            for sym, p in zip(syms, e):
                if p:
                    mono *= sym ** p
            diff = apply_element(g, syms, n, covectors, vectors, mono) - mono
            row = [sp.Integer(0)] * len(basis)
            as_dict = sp.Poly(diff, *syms).as_dict()
            for exps, coeff in as_dict.items():
                row[index[tuple(exps)]] = coeff
            rows.append(row)
    if not rows:
        return len(basis)
    return len(basis) - sp.Matrix(rows).rank()
