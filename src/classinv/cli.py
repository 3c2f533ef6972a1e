"""Command-line front door.

Subcommands: check, basis, generators, fft-verify, decompose, gendeg,
reynolds.  Exit code 0 means success (or a certificate), 2 means an
inconclusive outcome (an uncertified verification or a refuted
invariance check), 1 means an error.

Every answer is exact: kernels, bases, certificates, generator degrees
and the invariance decisions of check and decompose all use the same
fixed group elements, so none depends on --seed, which is only echoed
in the reports.  Reports are deterministic: the same command line produces
byte-identical output.  Timing is therefore opt-in via --timing, which
appends an elapsed_ms field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .action import ActionContext, is_invariant, reynolds
from .certify import (
    NotInSpan,
    NotInvariant,
    contraction,
    decompose_in_generators,
    fft_verify,
    generators_for,
    invariant_subspace_basis,
    minimal_generator_degrees,
)
from .exact import Matrix
from .expr import (
    ExprSyntaxError,
    format_generator_combination,
    format_polynomial,
    parse_expression,
)
from .groups import (
    ClosureCapExceeded,
    GroupSpec,
    finite_group,
    group_elements,
    small_integer_elements,
)
from .poly import (
    DEFAULT_DIM_CAP,
    DegreeCapExceeded,
    Polynomial,
    SpaceSignature,
    space_dimension,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2

MAX_SEED = 2**64


class CliError(ValueError):
    pass


def _add_session_flags(sp, *, finite_ok: bool = True):
    sp.add_argument("--group", required=True,
                    choices=["gl", "o", "sp", "finite"] if finite_ok else ["gl", "o", "sp"])
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--covectors", type=int, default=0)
    sp.add_argument("--vectors", type=int, default=0)
    sp.add_argument("--group-file", default=None)
    sp.add_argument("--max-order", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--dim-cap", type=int, default=DEFAULT_DIM_CAP)
    sp.add_argument("--format", choices=["text", "json"], default="text")
    sp.add_argument("--timing", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="classinv",
        description="Exact construction and certification of the basic "
        "invariants of the classical groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="test an expression for invariance")
    _add_session_flags(sp)
    sp.add_argument("--expr", required=True)
    sp.set_defaults(handler=cmd_check)

    sp = sub.add_parser("basis", help="basis of the invariants of one degree")
    _add_session_flags(sp)
    sp.add_argument("--degree", type=int, required=True)
    sp.set_defaults(handler=cmd_basis)

    sp = sub.add_parser("generators", help="list the contraction generators")
    _add_session_flags(sp, finite_ok=False)
    sp.set_defaults(handler=cmd_generators)

    sp = sub.add_parser(
        "fft-verify",
        help="certify that contraction products span the invariants of one degree",
    )
    _add_session_flags(sp, finite_ok=False)
    sp.add_argument("--degree", type=int, required=True)
    sp.set_defaults(handler=cmd_fft_verify)

    sp = sub.add_parser("decompose", help="write an invariant in the generators")
    _add_session_flags(sp, finite_ok=False)
    sp.add_argument("--expr", required=True)
    sp.set_defaults(handler=cmd_decompose)

    sp = sub.add_parser("gendeg", help="minimal generator degrees up to a bound")
    _add_session_flags(sp)
    sp.add_argument("--degree-bound", type=int, required=True)
    sp.set_defaults(handler=cmd_gendeg)

    sp = sub.add_parser("reynolds", help="project onto invariants of a finite group")
    _add_session_flags(sp)
    sp.add_argument("--expr", required=True)
    sp.set_defaults(handler=cmd_reynolds)

    return parser


# ---------------------------------------------------------------------------
# session assembly


def read_matrix_file(path: str) -> list[Matrix]:
    """One matrix per block: rows of space-separated rationals, matrices
    separated by blank lines."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    mats = []
    block: list[list[Fraction]] = []
    for raw in text.splitlines() + [""]:
        line = raw.strip()
        if not line:
            if block:
                mats.append(_block_to_matrix(block, path))
                block = []
            continue
        row = []
        for tok in line.split():
            try:
                row.append(Fraction(tok))
            except (ValueError, ZeroDivisionError):
                raise CliError(f"bad matrix entry {tok!r} in {path}") from None
        block.append(row)
    if not mats:
        raise CliError(f"no matrices found in {path}")
    n = mats[0].rows
    for m in mats:
        if m.rows != n:
            raise CliError(f"matrices of mixed sizes in {path}")
    return mats


def _block_to_matrix(block: list[list[Fraction]], path: str) -> Matrix:
    width = len(block[0])
    if any(len(r) != width for r in block):
        raise CliError(f"ragged matrix rows in {path}")
    if width != len(block):
        raise CliError(f"matrices in {path} must be square")
    return Matrix.from_rows(block)


def make_session(args) -> tuple[GroupSpec, SpaceSignature]:
    if not 0 <= args.seed < MAX_SEED:
        raise CliError("--seed must be an unsigned 64-bit integer")
    if args.group == "finite":
        if not args.group_file:
            raise CliError("--group-file is required for finite groups")
        mats = read_matrix_file(args.group_file)
        n = mats[0].rows
        if args.n is not None and args.n != n:
            raise CliError(
                f"--n {args.n} contradicts the {n}x{n} matrices in {args.group_file}"
            )
        spec = finite_group(mats, cap=args.max_order)
    else:
        if args.group_file:
            raise CliError("--group-file only applies to finite groups")
        if args.n is None:
            raise CliError("--n is required")
        spec = GroupSpec(args.group, args.n)
        n = args.n
    if args.group in ("o", "sp") and args.covectors:
        raise CliError(
            "orthogonal and symplectic sessions use vector copies only"
        )
    if args.covectors < 0 or args.vectors < 0:
        raise CliError("copy counts must be nonnegative")
    if args.covectors + args.vectors < 1:
        raise CliError("need at least one copy (--vectors and/or --covectors)")
    sig = SpaceSignature(n, args.covectors, args.vectors)
    return spec, sig


# ---------------------------------------------------------------------------
# report rendering


def poly_json(f: Polynomial) -> list:
    return [
        {
            "monomial": [[f.sig.var_name(v), e] for v, e in enumerate(mono) if e],
            "coeff": str(coeff),
        }
        for mono, coeff in f.terms_sorted()
    ]


def combination_json(comb) -> list:
    return [
        {
            "monomial": [
                [comb.generators[i].symbol(), e] for i, e in enumerate(exps) if e
            ],
            "coeff": str(coeff),
        }
        for exps, coeff in comb.terms
    ]


def _prefix(spec: GroupSpec, sig: SpaceSignature) -> dict:
    return {
        "group": spec.family,
        "n": sig.n,
        "covectors": sig.k,
        "vectors": sig.m,
    }


def emit(out: dict, args, text_overrides: dict | None = None) -> None:
    if args.format == "json":
        print(json.dumps(out, indent=2))
        return
    text_overrides = text_overrides or {}
    width = max(len(k) for k in out)
    for key, value in out.items():
        if key in text_overrides:
            value = text_overrides[key]
        if isinstance(value, bool):
            value = "true" if value else "false"
        if isinstance(value, list) and value and isinstance(value[0], str):
            print(f"{key:<{width}} :")
            for line in value:
                print(f"  {line}")
            continue
        if isinstance(value, list):
            value = " ".join(str(v) for v in value)
        if isinstance(value, dict):
            value = " ".join(f"{k}:{v}" for k, v in value.items())
        print(f"{key:<{width}} : {value}")


# ---------------------------------------------------------------------------
# handlers


def cmd_check(args) -> int:
    spec, sig = make_session(args)
    f = parse_expression(args.expr, sig, spec.family, dim_cap=args.dim_cap)
    ctx = ActionContext(spec, sig)
    t0 = time.monotonic()
    invariant = is_invariant(ctx, f)
    elapsed = int((time.monotonic() - t0) * 1000)
    out = {
        **_prefix(spec, sig),
        "expression": format_polynomial(f),
        "invariant": invariant,
        "samples_used": len(small_integer_elements(spec)),
        "seed": args.seed,
    }
    if args.timing:
        out["elapsed_ms"] = elapsed
    emit(out, args)
    return EXIT_OK if invariant else EXIT_INCONCLUSIVE


def cmd_basis(args) -> int:
    spec, sig = make_session(args)
    if spec.family in ("o", "sp") and sig.k:
        raise CliError("orthogonal and symplectic sessions use vector copies only")
    t0 = time.monotonic()
    kr = invariant_subspace_basis(spec, sig, args.degree, dim_cap=args.dim_cap)
    elapsed = int((time.monotonic() - t0) * 1000)
    out = {
        **_prefix(spec, sig),
        "degree": args.degree,
        "dim_space": space_dimension(sig, args.degree),
        "dim_kernel": kr.dim,
        "basis": [poly_json(p) for p in kr.basis],
        "samples_used": kr.samples_used,
        "seed": args.seed,
    }
    if args.timing:
        out["elapsed_ms"] = elapsed
    emit(out, args, {"basis": [format_polynomial(p) for p in kr.basis]})
    return EXIT_OK


def cmd_generators(args) -> int:
    spec, sig = make_session(args)
    if spec.family in ("o", "sp") and sig.k:
        raise CliError("orthogonal and symplectic sessions use vector copies only")
    gens = generators_for(spec, sig)
    out = {
        **_prefix(spec, sig),
        "count": len(gens),
        "generators": [
            {"id": g.symbol(), "polynomial": poly_json(contraction(g, sig))}
            for g in gens
        ],
    }
    emit(
        out,
        args,
        {
            "generators": [
                f"{g.symbol()} = {format_polynomial(contraction(g, sig))}"
                for g in gens
            ]
        },
    )
    return EXIT_OK


def cmd_fft_verify(args) -> int:
    spec, sig = make_session(args)
    t0 = time.monotonic()
    rep = fft_verify(spec, sig, args.degree, args.seed, dim_cap=args.dim_cap)
    elapsed = int((time.monotonic() - t0) * 1000)
    out = {
        **_prefix(spec, sig),
        "degree": rep.degree,
        "dim_space": rep.dim_space,
        "dim_kernel": rep.dim_kernel,
        "dim_span": rep.dim_span,
        "certified": rep.certified,
        "samples_used": rep.samples_used,
        "seed": rep.seed,
        "free_products": rep.free_products,
    }
    if args.timing:
        out["elapsed_ms"] = elapsed
    emit(out, args)
    return EXIT_OK if rep.certified else EXIT_INCONCLUSIVE


def cmd_decompose(args) -> int:
    spec, sig = make_session(args)
    f = parse_expression(args.expr, sig, spec.family, dim_cap=args.dim_cap)
    comb = decompose_in_generators(spec, sig, f)
    out = {
        **_prefix(spec, sig),
        "degree": 0 if f.degree() is None else f.degree(),
        "decomposition": combination_json(comb),
        "seed": args.seed,
    }
    emit(out, args, {"decomposition": [format_generator_combination(comb)]})
    return EXIT_OK


def cmd_gendeg(args) -> int:
    spec, sig = make_session(args)
    if spec.family in ("o", "sp") and sig.k:
        raise CliError("orthogonal and symplectic sessions use vector copies only")
    t0 = time.monotonic()
    rep = minimal_generator_degrees(
        spec, sig, args.degree_bound, args.seed, dim_cap=args.dim_cap
    )
    elapsed = int((time.monotonic() - t0) * 1000)
    out = {
        **_prefix(spec, sig),
        "degree_bound": rep.bound,
        "degrees": list(rep.degrees),
        "new_by_degree": {str(d): c for d, c in sorted(rep.new_by_degree.items())},
        "seed": rep.seed,
    }
    if args.timing:
        out["elapsed_ms"] = elapsed
    emit(out, args)
    return EXIT_OK


def cmd_reynolds(args) -> int:
    spec, sig = make_session(args)
    if spec.family != "finite":
        raise CliError("the projection onto invariants needs a finite group")
    f = parse_expression(args.expr, sig, spec.family, dim_cap=args.dim_cap)
    ctx = ActionContext(spec, sig)
    result = reynolds(ctx, f)
    out = {
        **_prefix(spec, sig),
        "order": len(group_elements(spec)),
        "result": poly_json(result),
    }
    emit(out, args, {"result": [format_polynomial(result)]})
    return EXIT_OK


def main(argv=None) -> int:
    try:
        # the parser (~100 KB of cycles) must die young: held through the
        # command it ages into the oldest GC generation and piles up in-process
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; that code is reserved for
        # inconclusive outcomes here, so fold usage problems into 1
        return EXIT_OK if e.code == 0 else EXIT_ERROR
    try:
        return args.handler(args)
    except (
        CliError,
        ExprSyntaxError,
        NotInSpan,
        NotInvariant,
        DegreeCapExceeded,
        ClosureCapExceeded,
        ValueError,
        OSError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
