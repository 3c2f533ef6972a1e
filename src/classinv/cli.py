"""Command-line front door.

Subcommands: check, basis, generators, fft-verify, decompose, gendeg,
reynolds.  A subcommand is one row of COMMANDS plus its handler: every
subcommand takes the same session flags, and `main` builds the session,
puts it in front of the handler's report and prints it.  Exit code 0
means success (or a certificate), 2 means an inconclusive outcome (an
uncertified verification or a refuted invariance check), 1 means an
error.

Every answer is exact: kernels, bases, certificates, generator degrees
and the invariance decisions of check and decompose all use the same
fixed group elements, so none depends on --seed, which is only echoed
in the reports.  Reports are deterministic: the same command line produces
byte-identical output.  Timing is therefore opt-in via --timing, which
appends an elapsed_ms field covering the whole command.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .action import ActionContext, is_invariant, reynolds
from .certify import (
    contraction,
    decompose_in_generators,
    fft_verify,
    generators_for,
    invariant_subspace_basis,
    minimal_generator_degrees,
)
from .exact import Matrix
from .expr import (
    coefficient_text,
    combination_terms,
    format_generator_combination,
    format_polynomial,
    literal_digit_limit,
    parse_expression,
    polynomial_terms,
)
from .groups import (
    ClosureCapExceeded,
    GroupSpec,
    finite_group,
    group_elements,
    small_integer_elements,
)
from .poly import DEFAULT_DIM_CAP, SpaceSignature, space_dimension

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2

MAX_SEED = 2**64


class CliError(ValueError):
    pass


# ---------------------------------------------------------------------------
# session assembly


def read_matrix_file(path: str, bit_cap: int = DEFAULT_DIM_CAP) -> list[Matrix]:
    """One matrix per block: rows of space-separated rationals, matrices
    separated by blank lines.

    An entry with a character other than ASCII `0-9 + - / . e E` (such as
    another script's digit) is refused before `Fraction` reads it.  So
    is one whose digits and exponent give it more than bit_cap bits,
    before `Fraction` expands it (1e99999999 has about 3.3e8), and one
    with a number longer than Python's digit limit of integer
    conversion, before `int` or `Fraction` reads it.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    limit = literal_digit_limit()
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
            if set(tok) - set("0123456789+-/.eE"):
                raise CliError(f"bad matrix entry {tok[:40]!r} in {path}")
            mantissa, _, exp = tok.lower().partition("e")
            # Fraction reads the numerator, the denominator or the
            # decimals, and the exponent each as one integer
            parts = (*mantissa.replace("/", ".").split("."), exp)
            digits = max(sum(map(str.isdigit, part)) for part in parts)
            if limit and digits > limit:
                raise CliError(
                    f"matrix entry {tok[:40]!r} in {path} has a number of {digits} digits, "
                    f"longer than the {limit}-digit limit of integer conversion"
                )
            try:
                # a decimal digit or a power of ten is log2(10) < 3.322 bits
                bits = (sum(map(str.isdigit, mantissa)) + abs(int(exp or 0))) * 3322 // 1000
                entry = Fraction(tok) if bits <= bit_cap else None
            except (ValueError, ZeroDivisionError):
                raise CliError(f"bad matrix entry {tok[:40]!r} in {path}") from None
            if entry is None:
                raise CliError(
                    f"matrix entry {tok[:40]!r} in {path} has about {bits} bits, above the cap {bit_cap}"
                )
            row.append(entry)
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
    if args.max_order < 1:
        raise CliError("--max-order must be at least 1")
    if args.group == "finite":
        if not args.group_file:
            raise CliError("--group-file is required for finite groups")
        mats = read_matrix_file(args.group_file, args.dim_cap)
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


def terms_json(items) -> list:
    """A term list of `expr.polynomial_terms` or `expr.combination_terms`
    as JSON objects."""
    return [
        {"monomial": [[name, e] for name, e in powers], "coeff": coefficient_text(coeff)}
        for powers, coeff in items
    ]


def emit(out: dict, as_json: bool) -> None:
    """Print the report as JSON, or as one `key : value` line per field,
    a list of strings one line each under its key."""
    if as_json:
        print(json.dumps(out, indent=2))
        return
    width = max(len(k) for k in out)
    for key, value in out.items():
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
# handlers: each returns (report, exit code); main puts the session in
# front of the report and prints it.  A handler renders each polynomial
# once, in the format that is printed: a JSON term list, or a text line.


def cmd_check(args, spec, sig):
    f = parse_expression(args.expr, sig, spec.family, dim_cap=args.dim_cap)
    invariant = is_invariant(ActionContext(spec, sig), f)
    out = {
        "expression": format_polynomial(f),
        "invariant": invariant,
        "samples_used": len(small_integer_elements(spec)),
        "seed": args.seed,
    }
    return out, EXIT_OK if invariant else EXIT_INCONCLUSIVE


def cmd_basis(args, spec, sig):
    kr = invariant_subspace_basis(spec, sig, args.degree, dim_cap=args.dim_cap)
    if args.format == "json":
        basis = [terms_json(polynomial_terms(p)) for p in kr.basis]
    else:
        basis = [format_polynomial(p) for p in kr.basis]
    out = {
        "degree": args.degree,
        "dim_space": space_dimension(sig, args.degree),
        "dim_kernel": kr.dim,
        "basis": basis,
        "samples_used": kr.samples_used,
        "seed": args.seed,
    }
    return out, EXIT_OK


def cmd_generators(args, spec, sig):
    gens = [(g.symbol(), contraction(g, sig)) for g in generators_for(spec, sig)]
    if args.format == "json":
        listed = [{"id": sym, "polynomial": terms_json(polynomial_terms(p))} for sym, p in gens]
    else:
        listed = [f"{sym} = {format_polynomial(p)}" for sym, p in gens]
    return {"count": len(gens), "generators": listed}, EXIT_OK


def cmd_fft_verify(args, spec, sig):
    rep = fft_verify(spec, sig, args.degree, args.seed, dim_cap=args.dim_cap)
    out = {
        "degree": rep.degree,
        "dim_space": rep.dim_space,
        "dim_kernel": rep.dim_kernel,
        "dim_span": rep.dim_span,
        "certified": rep.certified,
        "samples_used": rep.samples_used,
        "seed": rep.seed,
        "free_products": rep.free_products,
    }
    return out, EXIT_OK if rep.certified else EXIT_INCONCLUSIVE


def cmd_decompose(args, spec, sig):
    f = parse_expression(args.expr, sig, spec.family, dim_cap=args.dim_cap)
    comb = decompose_in_generators(spec, sig, f, dim_cap=args.dim_cap)
    if args.format == "json":
        decomposition = terms_json(combination_terms(comb))
    else:
        decomposition = [format_generator_combination(comb)]
    out = {
        "degree": 0 if f.degree() is None else f.degree(),
        "decomposition": decomposition,
        "seed": args.seed,
    }
    return out, EXIT_OK


def cmd_gendeg(args, spec, sig):
    rep = minimal_generator_degrees(
        spec, sig, args.degree_bound, args.seed, dim_cap=args.dim_cap
    )
    out = {
        "degree_bound": rep.bound,
        "degrees": list(rep.degrees),
        "new_by_degree": {str(d): c for d, c in sorted(rep.new_by_degree.items())},
        "seed": rep.seed,
    }
    return out, EXIT_OK


def cmd_reynolds(args, spec, sig):
    if spec.family != "finite":
        raise CliError("the projection onto invariants needs a finite group")
    f = parse_expression(args.expr, sig, spec.family, dim_cap=args.dim_cap)
    result = reynolds(ActionContext(spec, sig), f)
    if args.format == "json":
        rendered = terms_json(polynomial_terms(result))
    else:
        rendered = [format_polynomial(result)]
    return {"order": len(group_elements(spec)), "result": rendered}, EXIT_OK


# ---------------------------------------------------------------------------
# the subcommand table

CLASSICAL = ["gl", "o", "sp"]
ANY_GROUP = [*CLASSICAL, "finite"]

# name: (help, handler, --group choices, own argument and its type)
COMMANDS = {
    "check": ("test an expression for invariance", cmd_check, ANY_GROUP, ("--expr", str)),
    "basis": ("basis of the invariants of one degree", cmd_basis, ANY_GROUP, ("--degree", int)),
    "generators": ("list the contraction generators", cmd_generators, CLASSICAL, None),
    "fft-verify": ("certify that contraction products span the invariants of one degree",
                   cmd_fft_verify, CLASSICAL, ("--degree", int)),
    "decompose": ("write an invariant in the generators",
                  cmd_decompose, CLASSICAL, ("--expr", str)),
    "gendeg": ("minimal generator degrees up to a bound",
               cmd_gendeg, ANY_GROUP, ("--degree-bound", int)),
    "reynolds": ("project onto invariants of a finite group",
                 cmd_reynolds, ANY_GROUP, ("--expr", str)),
}


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser of `command` alone, or, when the first token names no
    command (`--help`, a typo, nothing), the table of commands, which
    builds no command's arguments."""
    if command not in COMMANDS:
        parser = argparse.ArgumentParser(
            prog="classinv",
            description="Exact construction and certification of the basic "
            "invariants of the classical groups.",
        )
        sub = parser.add_subparsers(dest="command", required=True)
        for name, (help_text, *_) in COMMANDS.items():
            sub.add_parser(name, help=help_text)
        return parser
    _, handler, groups, own = COMMANDS[command]
    parser = argparse.ArgumentParser(prog=f"classinv {command}")
    parser.add_argument("--group", required=True, choices=groups)
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--covectors", type=int, default=0)
    parser.add_argument("--vectors", type=int, default=0)
    parser.add_argument("--group-file", default=None)
    parser.add_argument("--max-order", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dim-cap", type=int, default=DEFAULT_DIM_CAP)
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("--timing", action="store_true")
    if own:
        parser.add_argument(own[0], type=own[1], required=True)
    parser.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    started = time.monotonic()
    # argparse takes a lone token that starts with '-' for a flag, so an
    # expression such as -5/7*s(1,1) is joined to its flag
    tokens = []
    for tok in sys.argv[1:] if argv is None else argv:
        if tokens and tokens[-1] == "--expr":
            tokens[-1] = f"--expr={tok}"
        else:
            tokens.append(tok)
    try:
        # the parser must die young: held through the command it ages
        # into the oldest GC generation and piles up in-process
        command = tokens[0] if tokens else None
        if command in COMMANDS:
            args = build_parser(command).parse_args(tokens[1:])
        else:
            # the table prints its help or a usage error, and runs nothing
            table = build_parser(command)
            table.parse_args(tokens)
            table.error("the command must come first")
    except SystemExit as e:
        # argparse exits 2 on usage errors; that code is reserved for
        # inconclusive outcomes here, so fold usage problems into 1
        return EXIT_OK if e.code == 0 else EXIT_ERROR
    try:
        spec, sig = make_session(args)
        out, code = args.handler(args, spec, sig)
        out = {"group": spec.family, "n": sig.n, "covectors": sig.k, "vectors": sig.m, **out}
        if args.timing:
            out["elapsed_ms"] = int((time.monotonic() - started) * 1000)
        emit(out, args.format == "json")
        return code
    except (ValueError, ClosureCapExceeded, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
