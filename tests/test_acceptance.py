"""End-to-end acceptance checks, one test per criterion.

Each test contributes a single PASS/FAIL verdict line; conftest prints
the collected lines in the terminal summary where capture cannot hide
them.
"""

import functools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from classinv.action import ActionContext, act, is_invariant, reynolds
from classinv.certify import (
    fft_verify,
    invariant_subspace_basis,
    minimal_generator_degrees,
)
from classinv.exact import Matrix
from classinv.expr import format_polynomial, parse_expression
from classinv.groups import (
    GroupElement,
    finite_group,
    general_linear,
    group_elements,
    orthogonal,
    sample_element,
    symplectic,
    symplectic_form_matrix,
)
from classinv.poly import Polynomial, SpaceSignature, VarKind

from oracle import det, invariant_dimension
from points import evaluate, transform_point
from test_poly import rand_poly

VERDICTS: list[str] = []


def criterion(num: int, name: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                VERDICTS.append(f"criterion {num} ({name}): FAIL")
                raise
            VERDICTS.append(f"criterion {num} ({name}): PASS")

        return wrapper

    return deco


def mat(rows):
    return Matrix.from_rows([[Fraction(v) for v in row] for row in rows])


GRID = (
    [("o", orthogonal(n), SpaceSignature(n=n, k=0, m=k), d)
     for n in (1, 2, 3) for k in (1, 2, 3) for d in (2, 4)]
    + [("sp", symplectic(n), SpaceSignature(n=n, k=0, m=k), d)
       for n in (2, 4) for k in (2, 3) for d in (2, 4)]
    + [("gl", general_linear(n), SpaceSignature(n=n, k=k, m=m), d)
       for n in (1, 2) for (k, m) in ((1, 1), (2, 1), (2, 2)) for d in (2, 4)]
)


@criterion(1, "certification grid under 60s")
def test_criterion_1_certification_grid():
    t0 = time.monotonic()
    for _, spec, sig, d in GRID:
        rep = fft_verify(spec, sig, d, seed=0)
        assert rep.certified, (spec.family, sig, d)
        assert rep.dim_span == rep.dim_kernel
    elapsed = time.monotonic() - t0
    assert len(GRID) == 38
    assert elapsed < 60.0, f"grid took {elapsed:.1f}s"


@criterion(2, "brute-force oracle spot dimensions")
def test_criterion_2_oracle_spot_dimensions():
    cases = [
        ("o", orthogonal(2), SpaceSignature(n=2, k=0, m=2), 2, 3),
        ("sp", symplectic(2), SpaceSignature(n=2, k=0, m=2), 2, 1),
        ("gl", general_linear(2), SpaceSignature(n=2, k=1, m=1), 2, 1),
        ("o", orthogonal(2), SpaceSignature(n=2, k=0, m=1), 1, 0),
    ]
    for family, spec, sig, d, expected in cases:
        dim = invariant_subspace_basis(spec, sig, d).dim
        ref = invariant_dimension(family, sig.n, sig.k, sig.m, d, seed=1)
        assert dim == ref == expected, (family, sig, d, dim, ref)


@criterion(3, "relation robustness, span below free count")
def test_criterion_3_relation_robustness():
    rep = fft_verify(orthogonal(2), SpaceSignature(n=2, k=0, m=3), 6, seed=0)
    assert rep.certified
    assert rep.dim_span < rep.free_products
    assert rep.dim_span == 55
    assert rep.free_products == 56


def _check_reynolds_group(spec, sig, rng):
    ctx = ActionContext(spec, sig)
    for _ in range(50):
        phi = reynolds(ctx, rand_poly(rng, sig, max_deg=2, terms=3))
        f = rand_poly(rng, sig, max_deg=2, terms=3)
        favg = reynolds(ctx, f)
        assert reynolds(ctx, favg) == favg
        assert is_invariant(ctx, favg)
        assert reynolds(ctx, phi * f) == phi * favg


@criterion(4, "group averaging: idempotent, invariant, module property")
def test_criterion_4_reynolds_suite():
    rng = random.Random(404)
    sign1 = finite_group([mat([[-1]])])
    sign2 = finite_group([mat([[-1, 0], [0, 1]]), mat([[1, 0], [0, -1]])])
    sym3 = finite_group(
        [
            mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
            mat([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
        ]
    )
    assert len(group_elements(sign2)) == 4
    assert len(group_elements(sym3)) == 6
    _check_reynolds_group(sign1, SpaceSignature(n=1, k=0, m=1), rng)
    _check_reynolds_group(sign2, SpaceSignature(n=2, k=0, m=1), rng)
    _check_reynolds_group(sym3, SpaceSignature(n=3, k=0, m=1), rng)


def _check_action_family(spec, sig, draw_element, rng):
    ctx = ActionContext(spec, sig)
    for trial in range(100):
        f = rand_poly(rng, sig, max_deg=2, terms=2)
        a = draw_element(2 * trial)
        b = draw_element(2 * trial + 1)
        ab = GroupElement(a.g @ b.g, b.g_inv @ a.g_inv)
        assert act(ctx, a, act(ctx, b, f)) == act(ctx, ab, f)
        mono = Polynomial.constant(sig, Fraction(1))
        for copy in range(1, sig.num_copies + 1):
            kind = VarKind.COVECTOR if copy <= sig.k else VarKind.VECTOR
            idx = copy if copy <= sig.k else copy - sig.k
            for _ in range(rng.randint(0, 2)):
                mono = mono * Polynomial.variable(sig, kind, idx, rng.randint(1, sig.n))
        assert act(ctx, a, mono).copy_degrees() == mono.copy_degrees()
        point = [Fraction(rng.randint(-3, 3)) for _ in range(sig.num_vars)]
        ainv = GroupElement(a.g_inv, a.g)
        assert evaluate(act(ctx, a, f), point) == evaluate(
            f, transform_point(ctx, ainv, point)
        )


@criterion(5, "action laws, 100 exact checks per family")
def test_criterion_5_action_suite():
    rng = random.Random(505)
    sym3 = finite_group(
        [
            mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
            mat([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
        ]
    )
    sym3_elements = group_elements(sym3)
    families = [
        (general_linear(2), SpaceSignature(n=2, k=1, m=1),
         lambda s: sample_element(general_linear(2), s)),
        (orthogonal(2), SpaceSignature(n=2, k=0, m=2),
         lambda s: sample_element(orthogonal(2), s)),
        (symplectic(2), SpaceSignature(n=2, k=0, m=2),
         lambda s: sample_element(symplectic(2), s)),
        (sym3, SpaceSignature(n=3, k=0, m=1),
         lambda s: sym3_elements[s % len(sym3_elements)]),
    ]
    for spec, sig, draw in families:
        _check_action_family(spec, sig, draw, rng)


@criterion(6, "exact orthogonal and symplectic samplers")
def test_criterion_6_sampler_suite():
    for n in (2, 3, 4):
        spec = orthogonal(n)
        dets = set()
        for seed in range(100):
            g = sample_element(spec, seed).g
            assert g.transpose() @ g == Matrix.identity(n)
            dets.add(det(g))
        assert dets == {Fraction(1), Fraction(-1)}
    for n in (2, 4):
        spec = symplectic(n)
        j = symplectic_form_matrix(n)
        for seed in range(100):
            g = sample_element(spec, seed).g
            assert g.transpose() @ j @ g == j


@criterion(7, "generator degree multiset stable over seeds")
def test_criterion_7_generator_degree_uniqueness():
    sig = SpaceSignature(n=2, k=0, m=1)
    multisets = {
        minimal_generator_degrees(orthogonal(2), sig, 6, seed=seed).degrees
        for seed in range(5)
    }
    assert multisets == {(2,)}


ROUND_TRIP_CORPUS = [
    # orthogonal session, two plane vectors
    ("o", SpaceSignature(n=2, k=0, m=2), "x[1,1]"),
    ("o", SpaceSignature(n=2, k=0, m=2), "-x[2,2]"),
    ("o", SpaceSignature(n=2, k=0, m=2), "x[1,1] + x[1,2]"),
    ("o", SpaceSignature(n=2, k=0, m=2), "x[1,1]^2 - x[2,1]^2"),
    ("o", SpaceSignature(n=2, k=0, m=2), "3/4*x[1,1]*x[2,2]"),
    ("o", SpaceSignature(n=2, k=0, m=2), "s(1,1)"),
    ("o", SpaceSignature(n=2, k=0, m=2), "s(1,2) + 3/4 * x[1,1]^2"),
    ("o", SpaceSignature(n=2, k=0, m=2), "s(1,1)*s(2,2) - s(1,2)^2"),
    ("o", SpaceSignature(n=2, k=0, m=2), "(x[1,1] + x[2,1])^2"),
    ("o", SpaceSignature(n=2, k=0, m=2), "7"),
    ("o", SpaceSignature(n=2, k=0, m=2), "-7/3"),
    ("o", SpaceSignature(n=2, k=0, m=2), "0"),
    ("o", SpaceSignature(n=3, k=0, m=1), "s(1,1)^3 - 2*x[1,3]^6"),
    ("o", SpaceSignature(n=1, k=0, m=2), "x[1,1]*x[2,1] - 5"),
    ("sp", SpaceSignature(n=2, k=0, m=2), "w(1,2)"),
    ("sp", SpaceSignature(n=2, k=0, m=2), "w(1,2)^2 - 1/2"),
    ("sp", SpaceSignature(n=2, k=0, m=2), "w(1,1)"),
    ("sp", SpaceSignature(n=2, k=0, m=3), "w(1,2)*w(1,3)"),
    ("sp", SpaceSignature(n=4, k=0, m=2), "w(1,2) + x[1,4]^2"),
    ("sp", SpaceSignature(n=2, k=0, m=2), "2*x[1,1]*x[2,2] - 2*x[1,2]*x[2,1]"),
    ("gl", SpaceSignature(n=2, k=1, m=1), "c(1,1)"),
    ("gl", SpaceSignature(n=2, k=1, m=1), "u[1,1]*x[1,1] + u[1,2]*x[1,2]"),
    ("gl", SpaceSignature(n=2, k=1, m=1), "c(1,1)^2 - c(1,1) + 1"),
    ("gl", SpaceSignature(n=2, k=2, m=2), "c(1,2)*c(2,1) - c(1,1)*c(2,2)"),
    ("gl", SpaceSignature(n=1, k=1, m=1), "u[1,1]^2*x[1,1]^2"),
    ("gl", SpaceSignature(n=1, k=2, m=1), "u[2,1] - u[1,1]"),
    ("gl", SpaceSignature(n=3, k=1, m=2), "c(1,2) - c(1,1)"),
    ("gl", SpaceSignature(n=2, k=1, m=2), "1/3*c(1,1)*c(1,2)"),
    ("gl", SpaceSignature(n=2, k=1, m=1), "-u[1,2]"),
    ("gl", SpaceSignature(n=2, k=1, m=1), "(c(1,1) + 1)^2"),
]


@criterion(8, "CLI byte determinism and 30 round-trips")
def test_criterion_8_cli_determinism_and_round_trip():
    argv = [
        sys.executable, "-m", "classinv.cli",
        "fft-verify", "--group", "o", "--n", "2", "--vectors", "3",
        "--degree", "4", "--seed", "31", "--format", "json",
    ]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["certified"] is True

    assert len(ROUND_TRIP_CORPUS) == 30
    for family, sig, text in ROUND_TRIP_CORPUS:
        f = parse_expression(text, sig, family)
        printed = format_polynomial(f)
        assert parse_expression(printed, sig, family) == f, text
