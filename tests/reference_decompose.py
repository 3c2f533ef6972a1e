"""Decomposition into the contractions by one elimination over every product.

Every degree-d product of the contraction generators is expanded, in
graded-lex order of its exponent vector, and inserted with its index as
tag into one `Echelon`; f is reduced against all of them.  This is how
`decompose_in_generators` worked before it expanded only the products
in the blocks of f's monomials.  It enumerates the products itself, so
the library's block filter is checked against a path that has none.
"""

from __future__ import annotations

from functools import lru_cache

from classinv.certify import contraction, generators_for
from classinv.exact import Echelon
from classinv.poly import Polynomial, _exponents_desc, grlex_key


@lru_cache(maxsize=4)  # a test asks for one cell several times in a row
def all_products(spec, sig, d: int):
    """(exponent vectors, expanded products, tagged Echelon of them) for
    every degree-d product of the contractions, in graded-lex order."""
    gens = generators_for(spec, sig)
    expansions = [contraction(g, sig) for g in gens]
    if d % 2:
        exponents = []
    elif not gens:
        exponents = [()] if d == 0 else []
    else:
        exponents = list(_exponents_desc(len(gens), d // 2))
    products = []
    echelon = Echelon()
    for idx, exps in enumerate(exponents):
        p = Polynomial.constant(sig, 1)
        for g, e in zip(expansions, exps):
            p = p * g**e
        products.append(p)
        echelon.insert(p.terms, idx)
    return exponents, products, echelon


def decompose_globally(spec, sig, f: Polynomial):
    """The terms of f's decomposition, as `GeneratorCombination.terms`;
    None when f is outside the span of the products."""
    exponents, _, echelon = all_products(spec, sig, f.degree())
    residual, combo = echelon.reduce(f.terms, {})
    if residual:
        return None
    return tuple(
        sorted(
            ((exponents[i], -c) for i, c in combo.items()),
            key=lambda t: grlex_key(t[0]),
            reverse=True,
        )
    )
