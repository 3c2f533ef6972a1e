"""Decomposition block by block, and the kernel's rows per class.

`decompose_in_generators` expands only the products in the blocks of
f's monomials.  Blocks share no monomial and the elimination pivots on
a row's largest monomial, so this must give exactly the terms of one
elimination over every product (`reference_decompose`), relations and
first-wins choice included.
"""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from classinv import certify
from classinv.certify import decompose_in_generators, fft_verify, invariant_subspace_basis
from classinv.expr import parse_expression
from classinv.groups import general_linear, orthogonal, symplectic
from classinv.poly import Polynomial, SpaceSignature

from reference_decompose import all_products, decompose_globally


def _grid():
    # o n <= 4, sp n <= 6, gl n <= 3 with k <= 2, all with m <= 4 and
    # even d <= 8 (odd degrees hold no product), where the elimination
    # over every product has at most 120 products in at most 12 variables
    cells = [(orthogonal(n), SpaceSignature(n, 0, m)) for n in range(1, 5) for m in range(1, 5)]
    cells += [(symplectic(n), SpaceSignature(n, 0, m)) for n in (2, 4, 6) for m in range(1, 5)]
    cells += [
        (general_linear(n), SpaceSignature(n, k, m))
        for n in range(1, 4)
        for k in (1, 2)
        for m in range(1, 5)
    ]
    for spec, sig in cells:
        gens = len(certify.generators_for(spec, sig))
        for d in (2, 4, 6, 8):
            if gens and comb(gens + d // 2 - 1, d // 2) <= 120 and sig.num_vars <= 12:
                yield pytest.param(
                    spec, sig, d, id=f"{spec.family}{sig.n}k{sig.k}m{sig.m}d{d}"
                )


def _combination(rng, products, blocks):
    # a random rational combination of some products of each given block
    f = Polynomial.zero(products[0].sig)
    for block in blocks:
        members = [p for p in products if p.copy_degrees() == block]
        for p in rng.sample(members, rng.randint(1, min(3, len(members)))):
            f = f + p.scale(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7)))
    return f


@pytest.mark.parametrize("spec,sig,d", list(_grid()))
def test_blocks_give_the_terms_of_one_global_elimination(spec, sig, d):
    _, products, _ = all_products(spec, sig, d)
    blocks = sorted({p.copy_degrees() for p in products})
    rng = random.Random(f"{spec.family}{sig}{d}")
    draws = [[rng.choice(blocks)], rng.sample(blocks, min(2, len(blocks))), blocks]
    for chosen in draws:
        f = _combination(rng, products, chosen)
        if not f:
            continue
        combo = decompose_in_generators(spec, sig, f)
        assert combo.terms == decompose_globally(spec, sig, f)
        assert combo.expand() == f


def test_first_wins_on_the_gram_relation():
    # o n=2, three vectors, d=6: the 3x3 Gram determinant is a relation
    # among the products of block (2,2,2), so the sum of all of them has
    # more than one expression and the first-wins one drops a product
    spec, sig = orthogonal(2), SpaceSignature(2, 0, 3)
    exponents, products, _ = all_products(spec, sig, 6)
    members = [i for i, p in enumerate(products) if p.copy_degrees() == (2, 2, 2)]
    f = Polynomial.zero(sig)
    for i in members:
        f = f + products[i]
    combo = decompose_in_generators(spec, sig, f)
    assert combo.terms == decompose_globally(spec, sig, f)
    assert len(combo.terms) < len(members)
    assert {exps for exps, _ in combo.terms} < {exponents[i] for i in members}
    assert combo.expand() == f


def _count_expansions(monkeypatch) -> list:
    # the exponents of every product the product stream expands
    expanded = []
    term_product = certify._term_product

    def counting(*args, **kwargs):
        expanded.append(args[2])
        return term_product(*args, **kwargs)

    monkeypatch.setattr(certify, "_term_product", counting)
    return expanded


def test_only_the_products_in_fs_blocks_are_expanded(monkeypatch):
    expanded = _count_expansions(monkeypatch)
    spec, sig = orthogonal(3), SpaceSignature(3, 0, 4)
    f = parse_expression("s(1,1)^4", sig, "o")
    combo = decompose_in_generators(spec, sig, f)
    assert expanded == [(4,) + (0,) * 9]
    assert combo.terms == (((4,) + (0,) * 9, Fraction(1)),)
    expanded.clear()
    f = parse_expression("s(1,1)^4 + s(1,2)^2*s(3,4)^2", sig, "o")
    decompose_in_generators(spec, sig, f)
    assert len(expanded) == 1 + 17  # the blocks (8,0,0,0) and (2,2,2,2)


@pytest.mark.parametrize(
    "spec,sig,d",
    [
        (orthogonal(3), SpaceSignature(3, 0, 4), 4),
        (general_linear(2), SpaceSignature(2, 2, 3), 4),
    ],
    ids=["o3m4d4", "gl2k2m3d4"],
)
def test_fft_verify_expands_only_the_representatives_products(monkeypatch, spec, sig, d):
    expanded = _count_expansions(monkeypatch)
    fft_verify(spec, sig, d)
    gens = certify.generators_for(spec, sig)
    k = sig.k
    expected = []
    for exps in itertools.product(range(d // 2 + 1), repeat=len(gens)):
        if 2 * sum(exps) != d:
            continue
        block = [0] * sig.num_copies
        for g, e in zip(gens, exps):
            block[g.i - 1 if g.family == "gl" else k + g.i - 1] += e
            block[k + g.j - 1] += e
        # a class representative: covector and vector degrees each descending
        if block[:k] == sorted(block[:k], reverse=True) and block[k:] == sorted(
            block[k:], reverse=True
        ):
            expected.append(exps)
    assert sorted(expanded) == sorted(expected)
    assert 0 < len(expected) < comb(len(gens) + d // 2 - 1, d // 2)


@pytest.mark.parametrize(
    "spec,sig,d",
    [
        (orthogonal(2), SpaceSignature(2, 0, 3), 4),
        (orthogonal(3), SpaceSignature(3, 0, 3), 6),
        (symplectic(4), SpaceSignature(4, 0, 3), 4),
        (general_linear(2), SpaceSignature(2, 2, 2), 4),
        (general_linear(3), SpaceSignature(3, 1, 2), 6),
    ],
    ids=["o2m3d4", "o3m3d6", "sp4m3d4", "gl2k2m2d4", "gl3k1m2d6"],
)
def test_class_rows_add_up_to_the_kernel(spec, sig, d):
    kr = invariant_subspace_basis(spec, sig, d)
    assert sum(size * dim for _, size, dim in kr.by_class) == kr.dim
    assert sum(size for _, size, _ in kr.by_class) == comb(sig.num_copies + d - 1, d)
    at = [b.copy_degrees() for b in kr.basis]
    assert [dim for _, _, dim in kr.by_class] == [at.count(rep) for rep, _, _ in kr.by_class]
    rep = fft_verify(spec, sig, d)
    assert [row[:2] for row in rep.span_by_class] == [row[:2] for row in kr.by_class]
