import json
import time
from pathlib import Path

import pytest

from classinv.cli import main
from classinv.expr import parse_expression
from classinv.poly import SpaceSignature


# the 384 signed permutations of 4 coordinates: a finite group whose
# closure passes every trace test and outgrows --max-order 100
SIGNED_PERMUTATIONS_4 = "\n\n".join(
    [
        "-1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1",
        "0 1 0 0\n1 0 0 0\n0 0 1 0\n0 0 0 1",
        "1 0 0 0\n0 0 1 0\n0 1 0 0\n0 0 0 1",
        "1 0 0 0\n0 1 0 0\n0 0 0 1\n0 0 1 0",
    ]
) + "\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


class TestFftVerify:
    def test_certified_cell(self, capsys):
        code, data, _ = run_json(
            capsys,
            "fft-verify", "--group", "o", "--n", "2", "--vectors", "2",
            "--degree", "2",
        )
        assert code == 0
        assert data["group"] == "o"
        assert data["n"] == 2
        assert data["covectors"] == 0
        assert data["vectors"] == 2
        assert data["degree"] == 2
        assert data["dim_space"] == 10
        assert data["dim_kernel"] == 3
        assert data["dim_span"] == 3
        assert data["certified"] is True
        assert data["free_products"] == 3

    def test_field_order(self, capsys):
        code, out, _ = run(
            capsys,
            "fft-verify", "--group", "sp", "--n", "2", "--vectors", "2",
            "--degree", "2", "--format", "json",
        )
        assert code == 0
        keys = list(json.loads(out).keys())
        assert keys == [
            "group", "n", "covectors", "vectors", "degree", "dim_space",
            "dim_kernel", "dim_span", "certified", "samples_used", "seed",
            "free_products",
        ]

    def test_gl_needs_both_copy_kinds(self, capsys):
        code, data, _ = run_json(
            capsys,
            "fft-verify", "--group", "gl", "--n", "2", "--covectors", "1",
            "--vectors", "1", "--degree", "2",
        )
        assert code == 0
        assert data["dim_kernel"] == 1

    def test_byte_identical_repeats(self, capsys):
        argv = (
            "fft-verify", "--group", "o", "--n", "2", "--vectors", "3",
            "--degree", "4", "--seed", "9", "--format", "json",
        )
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_timing_appends_field(self, capsys, tmp_path):
        signs = tmp_path / "signs.txt"
        signs.write_text("-1\n")
        o1 = ("--group", "o", "--n", "1", "--vectors", "1")
        finite = ("--group", "finite", "--group-file", str(signs), "--vectors", "1")
        for argv in [
            ("check", *o1, "--expr", "s(1,1)"),
            ("basis", *o1, "--degree", "2"),
            ("generators", *o1),
            ("fft-verify", *o1, "--degree", "2"),
            ("decompose", *o1, "--expr", "s(1,1)"),
            ("gendeg", *o1, "--degree-bound", "2"),
            ("reynolds", *finite, "--expr", "x[1,1]^2"),
        ]:
            code, data, _ = run_json(capsys, *argv, "--timing")
            assert code == 0, argv
            assert list(data)[-1] == "elapsed_ms", argv
            assert isinstance(data["elapsed_ms"], int)

    def test_odd_n_symplectic_is_an_error(self, capsys):
        code, out, err = run(
            capsys,
            "fft-verify", "--group", "sp", "--n", "3", "--vectors", "2",
            "--degree", "2",
        )
        assert code == 1
        assert "n must be even" in err

    def test_covectors_rejected_outside_gl(self, capsys):
        code, _, err = run(
            capsys,
            "fft-verify", "--group", "o", "--n", "2", "--covectors", "1",
            "--vectors", "1", "--degree", "2",
        )
        assert code == 1
        assert "vector copies only" in err


class TestCheck:
    def test_invariant_passes(self, capsys):
        code, data, _ = run_json(
            capsys,
            "check", "--group", "o", "--n", "2", "--vectors", "2",
            "--expr", "s(1,2)",
        )
        assert code == 0
        assert data["invariant"] is True

    def test_non_invariant_is_inconclusive_exit(self, capsys):
        code, data, _ = run_json(
            capsys,
            "check", "--group", "o", "--n", "2", "--vectors", "1",
            "--expr", "x[1,1]",
        )
        assert code == 2
        assert data["invariant"] is False

    def test_syntax_error_exit(self, capsys):
        code, _, err = run(
            capsys,
            "check", "--group", "o", "--n", "2", "--vectors", "1",
            "--expr", "x[0,1]",
        )
        assert code == 1
        assert "error:" in err
        assert "at byte" in err

    def test_literal_longer_than_the_digit_limit_refused(self, capsys):
        code, _, err = run(
            capsys,
            "check", "--group", "o", "--n", "2", "--vectors", "1",
            "--expr", f"x[1,2] + 1{'0' * 5000}*x[1,1]",
        )
        assert code == 1
        assert "5001 digits" in err and "4300-digit limit" in err
        assert "(at byte 9)" in err and "Exceeds the limit" not in err

    def test_wrong_shorthand_family(self, capsys):
        code, _, err = run(
            capsys,
            "check", "--group", "o", "--n", "2", "--vectors", "2",
            "--expr", "w(1,2)",
        )
        assert code == 1

    # powers whose expansion would not finish: the cap rejects them
    # before anything is expanded
    @pytest.mark.parametrize("expr", ["x[1,1]^99999999999", "s(1,1)^200"])
    def test_huge_power_hits_the_dim_cap(self, capsys, expr):
        code, _, err = run(
            capsys,
            "check", "--group", "o", "--n", "2", "--vectors", "2",
            "--expr", expr,
        )
        assert code == 1
        assert "above the cap" in err

    # degree-0 powers and products pass the dimension cap; their
    # coefficient bits do not
    @pytest.mark.parametrize(
        "expr", ["2^99999999999", "(2^200000)^200000", "2^99000*2^99000*2^99000"]
    )
    def test_huge_constant_hits_the_bit_cap(self, capsys, expr):
        t0 = time.monotonic()
        code, _, err = run(
            capsys,
            "check", "--group", "o", "--n", "2", "--vectors", "2",
            "--expr", expr,
        )
        assert time.monotonic() - t0 < 1
        assert code == 1
        assert "bits, above the cap 200000" in err

    def test_reports_the_element_count_of_basis(self, capsys):
        session = ("--group", "o", "--n", "3", "--vectors", "2")
        _, checked, _ = run_json(capsys, "check", *session, "--expr", "s(1,2)")
        _, basis, _ = run_json(capsys, "basis", *session, "--degree", "2")
        assert checked["samples_used"] == basis["samples_used"]

    def test_samples_flag_is_gone(self, capsys):
        code, _, err = run(
            capsys,
            "check", "--group", "o", "--n", "2", "--vectors", "2",
            "--expr", "s(1,2)", "--samples", "8",
        )
        assert code == 1
        assert "--samples" in err

    @pytest.mark.parametrize("command", ["check", "decompose"])
    def test_dim_cap_flag_bounds_products(self, capsys, command):
        code, _, err = run(
            capsys,
            command, "--group", "o", "--n", "2", "--vectors", "2",
            "--expr", "s(1,1)*s(2,2)*s(1,2)", "--dim-cap", "50",
        )
        assert code == 1
        assert "above the cap 50" in err



class TestProductCap:
    """Generator products are counted before any is expanded: a count
    above --dim-cap is an error at once, as is a graded piece above it."""

    # o n=1 with six vectors: 6188 monomials of degree 12, but 230230
    # products of the 21 contractions s(i,j)
    SESSION = ("--group", "o", "--n", "1", "--vectors", "6")

    @pytest.mark.parametrize(
        "argv,reason",
        [
            (
                ("fft-verify", "--group", "o", "--n", "1", "--vectors", "10", "--degree", "20"),
                "graded piece has dimension 10015005, above the cap 200000",
            ),
            (
                ("fft-verify", *SESSION, "--degree", "12", "--dim-cap", "10000"),
                "degree 12 has 230230 generator products, above the cap 10000",
            ),
            (
                ("decompose", *SESSION, "--expr", "s(1,1)^6", "--dim-cap", "10000"),
                "degree 12 has 230230 generator products, above the cap 10000",
            ),
            # degree 8 has 1287 monomials but 10626 products of degree-2 generators
            (
                ("gendeg", *SESSION, "--degree-bound", "12", "--dim-cap", "10000"),
                "degree 8 has 10626 generator products, above the cap 10000",
            ),
        ],
        ids=["fft-verify-space", "fft-verify-products", "decompose", "gendeg"],
    )
    def test_refused_at_once(self, capsys, argv, reason):
        t0 = time.monotonic()
        code, _, err = run(capsys, *argv)
        assert time.monotonic() - t0 < 2
        assert code == 1
        assert err == f"error: {reason}\n"


class TestBasis:
    def test_sum_of_squares(self, capsys):
        code, data, _ = run_json(
            capsys,
            "basis", "--group", "o", "--n", "2", "--vectors", "1",
            "--degree", "2",
        )
        assert code == 0
        assert data["dim_kernel"] == 1
        (b,) = data["basis"]
        assert b == [
            {"monomial": [["x[1,1]", 2]], "coeff": "1"},
            {"monomial": [["x[1,2]", 2]], "coeff": "1"},
        ]

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys,
            "basis", "--group", "o", "--n", "2", "--vectors", "1",
            "--degree", "2",
        )
        assert code == 0
        assert "x[1,1]^2 + x[1,2]^2" in out
        assert "dim_kernel" in out

    @pytest.mark.parametrize(
        "session",
        [
            ["--group", "o", "--n", "3", "--vectors", "2"],
            ["--group", "sp", "--n", "4", "--vectors", "3"],
            ["--group", "gl", "--n", "2", "--covectors", "2", "--vectors", "2"],
        ],
        ids=["o3-m2", "sp4-m3", "gl2-k2-m2"],
    )
    def test_seed_does_not_change_the_report(self, capsys, session):
        outputs = []
        for seed in ("0", "12345"):
            code, out, _ = run(capsys, "basis", *session, "--degree", "4", "--seed", seed)
            assert code == 0
            outputs.append([line for line in out.splitlines() if not line.startswith("seed ")])
        assert outputs[0] == outputs[1]


class TestGenerators:
    def test_orthogonal_list(self, capsys):
        code, data, _ = run_json(
            capsys,
            "generators", "--group", "o", "--n", "2", "--vectors", "2",
        )
        assert code == 0
        assert data["count"] == 3
        ids = [g["id"] for g in data["generators"]]
        assert ids == ["s(1,1)", "s(1,2)", "s(2,2)"]

    def test_symplectic_list(self, capsys):
        code, data, _ = run_json(
            capsys,
            "generators", "--group", "sp", "--n", "2", "--vectors", "3",
        )
        assert code == 0
        assert [g["id"] for g in data["generators"]] == [
            "w(1,2)", "w(1,3)", "w(2,3)"
        ]

    def test_gl_grid(self, capsys):
        code, data, _ = run_json(
            capsys,
            "generators", "--group", "gl", "--n", "1", "--covectors", "2",
            "--vectors", "2",
        )
        assert code == 0
        assert [g["id"] for g in data["generators"]] == [
            "c(1,1)", "c(1,2)", "c(2,1)", "c(2,2)"
        ]


class TestDecompose:
    def test_squared_generator(self, capsys):
        code, data, _ = run_json(
            capsys,
            "decompose", "--group", "o", "--n", "2", "--vectors", "1",
            "--expr", "s(1,1)^2",
        )
        assert code == 0
        assert data["decomposition"] == [
            {"monomial": [["s(1,1)", 2]], "coeff": "1"}
        ]

    @pytest.mark.parametrize("command", ["decompose", "check"])
    def test_expr_may_start_with_minus(self, capsys, command):
        # argparse alone reads a lone '-5/7*...' token as a flag
        session = (command, "--group", "o", "--n", "1", "--vectors", "1")
        split = run(capsys, *session, "--expr", "-5/7*s(1,1)")
        joined = run(capsys, *session, "--expr=-5/7*s(1,1)")
        assert split[:2] == joined[:2]
        assert split[0] == 0
        assert "-5/7" in split[1]

    def test_not_invariant_error(self, capsys):
        code, _, err = run(
            capsys,
            "decompose", "--group", "o", "--n", "2", "--vectors", "1",
            "--expr", "x[1,1]^2",
        )
        assert code == 1
        assert "error:" in err


class TestGendeg:
    def test_quadric_only(self, capsys):
        code, data, _ = run_json(
            capsys,
            "gendeg", "--group", "o", "--n", "2", "--vectors", "1",
            "--degree-bound", "6",
        )
        assert code == 0
        assert data["degrees"] == [2]
        assert data["new_by_degree"]["2"] == 1
        assert all(v == 0 for d, v in data["new_by_degree"].items() if d != "2")


class TestOrthogonalPlaneSeeds:
    # seeds whose O(2) sample streams once drew quarter turns and
    # identities, leaving an oversized kernel behind the stop rule
    @pytest.mark.parametrize("seed", ["96", "128"])
    def test_gendeg_two_copies_bound_8(self, capsys, seed):
        code, data, _ = run_json(
            capsys,
            "gendeg", "--group", "o", "--n", "2", "--vectors", "2",
            "--degree-bound", "8", "--seed", seed,
        )
        assert code == 0
        assert data["degrees"] == [2, 2, 2]

    def test_fft_verify_one_copy_degree_4(self, capsys):
        code, data, _ = run_json(
            capsys,
            "fft-verify", "--group", "o", "--n", "2", "--vectors", "1",
            "--degree", "4", "--seed", "1688614853",
        )
        assert code == 0
        assert data["certified"] is True


class TestFiniteGroups:
    @pytest.fixture
    def sign_file(self, tmp_path):
        path = tmp_path / "signs.txt"
        path.write_text("-1\n")
        return str(path)

    @pytest.fixture
    def swap_file(self, tmp_path):
        path = tmp_path / "swap.txt"
        path.write_text("0 1\n1 0\n")
        return str(path)

    def test_reynolds_kills_odd(self, capsys, sign_file):
        code, data, _ = run_json(
            capsys,
            "reynolds", "--group", "finite", "--group-file", sign_file,
            "--vectors", "1", "--expr", "x[1,1]",
        )
        assert code == 0
        assert data["order"] == 2
        assert data["result"] == []

    def test_reynolds_keeps_even(self, capsys, sign_file):
        code, data, _ = run_json(
            capsys,
            "reynolds", "--group", "finite", "--group-file", sign_file,
            "--vectors", "1", "--expr", "x[1,1]^2",
        )
        assert code == 0
        assert data["result"] == [{"monomial": [["x[1,1]", 2]], "coeff": "1"}]

    def test_basis_for_swap_group(self, capsys, swap_file):
        code, data, _ = run_json(
            capsys,
            "basis", "--group", "finite", "--group-file", swap_file,
            "--vectors", "1", "--degree", "1",
        )
        assert code == 0
        assert data["dim_kernel"] == 1  # x + y

    def test_multi_block_file(self, capsys, tmp_path):
        path = tmp_path / "klein.txt"
        path.write_text("-1 0\n0 1\n\n1 0\n0 -1\n")
        code, data, _ = run_json(
            capsys,
            "basis", "--group", "finite", "--group-file", str(path),
            "--vectors", "1", "--degree", "2",
        )
        assert code == 0
        assert data["dim_kernel"] == 2  # x^2 and y^2

    def test_rational_entries_infinite_order(self, capsys, tmp_path):
        # the signed permutations conjugated by diag(2, 1, 1, 1): a finite
        # group with rational entries whose closure only the cap stops
        path = tmp_path / "conjugate.txt"
        path.write_text(SIGNED_PERMUTATIONS_4.replace("0 1 0 0\n1 0 0 0", "0 2 0 0\n1/2 0 0 0"))
        code, _, err = run(
            capsys,
            "check", "--group", "finite", "--group-file", str(path),
            "--vectors", "1", "--expr", "x[1,1]^2 + x[1,2]^2", "--max-order", "100",
        )
        assert code == 1
        assert err == "error: group closure exceeded 100 elements\n"

    @pytest.mark.parametrize(
        "text",
        [
            "2\n",
            "1e300 0\n0 1\n",
            "3/5 -4/5\n4/5 3/5\n",
            "1 1\n0 1\n",
            "1 1/2\n0 1\n",
        ],
        ids=["2", "diag(10^300,1)", "rotation-3-4-5", "shear", "rational-shear"],
    )
    def test_infinite_order_refused_at_once(self, capsys, tmp_path, text):
        # the first element's trace is not an integer in [-n, n), so the
        # closure stops there instead of walking to --max-order: only the
        # identity has finite order and trace n
        path = tmp_path / "diag.txt"
        path.write_text(text)
        started = time.monotonic()
        code, _, err = run(
            capsys,
            "check", "--group", "finite", "--group-file", str(path),
            "--vectors", "1", "--expr", "x[1,1]",
        )
        assert time.monotonic() - started < 1
        assert code == 1
        assert "infinite order" in err

    @pytest.mark.parametrize(
        "text,cap",
        [
            ("1e99999999\n", None),
            ("1e-99999999\n", None),
            ("1 0\n0 2.5e-99999999\n", None),
            ("1e300 0\n0 1\n", "900"),
        ],
        ids=["1e99999999", "1e-99999999", "decimal", "1e300-cap-900"],
    )
    def test_huge_entry_refused_before_it_is_built(self, capsys, tmp_path, text, cap):
        # Fraction would expand the exponent in full; --dim-cap bounds the
        # bits of a matrix entry as it bounds an --expr coefficient's
        path = tmp_path / "huge.txt"
        path.write_text(text)
        started = time.monotonic()
        code, _, err = run(
            capsys,
            "check", "--group", "finite", "--group-file", str(path),
            "--vectors", "1", "--expr", "x[1,1]", *(["--dim-cap", cap] if cap else []),
        )
        assert time.monotonic() - started < 1
        assert code == 1
        assert f"bits, above the cap {cap or 200000}" in err

    def test_entry_longer_than_the_digit_limit_refused(self, capsys, tmp_path):
        # Python refuses to read an integer of more than 4300 digits; the
        # file is refused with a message of our own that names the limit
        path = tmp_path / "long.txt"
        path.write_text(f"1{'0' * 5000} 0\n0 1\n")
        code, _, err = run(
            capsys,
            "check", "--group", "finite", "--group-file", str(path),
            "--vectors", "1", "--expr", "x[1,1]",
        )
        assert code == 1
        assert "5001 digits" in err and "4300-digit limit" in err
        assert str(path) in err and "Exceeds the limit" not in err

    @pytest.mark.parametrize(
        "text,token",
        [
            ("-\u0661\n", "-\u0661"),
            ("\u0663\n", "\u0663"),
            ("\uff11\n", "\uff11"),
            ("1_0 0\n0 1\n", "1_0"),
        ],
        ids=["arabic-indic-minus-one", "arabic-indic-three", "fullwidth-one", "underscore"],
    )
    def test_entry_with_non_ascii_digits_refused(self, capsys, tmp_path, text, token):
        # Fraction reads other scripts' digits and underscores between
        # digits; a group file, like --expr, takes ASCII digits only
        path = tmp_path / "digits.txt"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(
            capsys,
            "reynolds", "--group", "finite", "--group-file", str(path),
            "--vectors", "1", "--expr", "x[1,1]",
        )
        assert code == 1
        assert out == ""
        assert err == f"error: bad matrix entry {token!r} in {path}\n"

    # kernels and check impose only the generators, so the closure that
    # proves the group finite must still run before any of them
    @pytest.mark.parametrize(
        "command",
        [("basis", "--degree", "2"), ("gendeg", "--degree-bound", "2")],
        ids=["basis", "gendeg"],
    )
    def test_infinite_order_rejected(self, capsys, tmp_path, command):
        # a group larger than --max-order is refused like an infinite one
        path = tmp_path / "signed.txt"
        path.write_text(SIGNED_PERMUTATIONS_4)
        code, _, err = run(
            capsys,
            command[0], "--group", "finite", "--group-file", str(path),
            "--vectors", "1", *command[1:], "--max-order", "100",
        )
        assert code == 1
        assert err == "error: group closure exceeded 100 elements\n"

    @pytest.mark.parametrize(
        "command",
        [
            ("check", "--expr", "x[1,1]^2"),
            ("basis", "--degree", "2"),
            ("gendeg", "--degree-bound", "2"),
        ],
        ids=["check", "basis", "gendeg"],
    )
    def test_singular_generator_rejected(self, capsys, tmp_path, command):
        path = tmp_path / "singular.txt"
        path.write_text("-1 0\n0 1\n\n1 1\n1 1\n")
        code, _, err = run(
            capsys,
            command[0], "--group", "finite", "--group-file", str(path),
            "--vectors", "1", *command[1:],
        )
        assert code == 1
        assert "generators must be invertible" in err

    def test_rational_entries_finite_order(self, capsys, tmp_path):
        path = tmp_path / "half_turn.txt"
        path.write_text("-1 0\n0 -1\n")
        code, data, _ = run_json(
            capsys,
            "check", "--group", "finite", "--group-file", str(path),
            "--vectors", "1", "--expr", "x[1,1]^2 + x[1,2]^2",
        )
        assert code == 0
        assert data["invariant"] is True

    def test_reynolds_needs_finite(self, capsys):
        code, _, err = run(
            capsys,
            "reynolds", "--group", "o", "--n", "2", "--vectors", "1",
            "--expr", "x[1,1]",
        )
        assert code == 1
        assert "finite" in err

    def test_finite_needs_file(self, capsys):
        code, _, err = run(
            capsys,
            "basis", "--group", "finite", "--vectors", "1", "--degree", "2",
        )
        assert code == 1

    def test_ragged_file_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 0\n0\n")
        code, _, err = run(
            capsys,
            "basis", "--group", "finite", "--group-file", str(path),
            "--vectors", "1", "--degree", "2",
        )
        assert code == 1

    def test_n_mismatch_rejected(self, capsys, sign_file):
        code, _, err = run(
            capsys,
            "basis", "--group", "finite", "--group-file", sign_file,
            "--n", "2", "--vectors", "1", "--degree", "2",
        )
        assert code == 1
        assert "contradicts" in err


B3 = str(Path(__file__).resolve().parents[1] / "perfbench" / "groups" / "b3.txt")
SESSIONS = {
    "gl": ("gl", ["--group", "gl", "--n", "2", "--covectors", "2", "--vectors", "1"]),
    "o": ("o", ["--group", "o", "--n", "2", "--vectors", "3"]),
    "sp": ("sp", ["--group", "sp", "--n", "4", "--vectors", "3"]),
    "b3": ("finite", ["--group", "finite", "--group-file", B3, "--vectors", "1"]),
}


def terms_to_text(terms: list) -> str:
    """Expression syntax rebuilt from a JSON term list."""
    parts = [
        "*".join([f"({t['coeff']})"] + [n if e == 1 else f"{n}^{e}" for n, e in t["monomial"]])
        for t in terms
    ]
    return " + ".join(parts) or "0"


def text_block(stdout: str, key: str) -> list[str]:
    """The indented lines under `key` in a text report."""
    lines = stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.split(" :")[0].rstrip() == key)
    block = []
    for line in lines[start + 1 :]:
        if not line.startswith("  "):
            break
        block.append(line[2:])
    return block


A2 = str(Path(__file__).resolve().parents[1] / "perfbench" / "groups" / "a2.txt")


class TestDigitLimit:
    """No command prints Python's own text for an integer past its digit
    limit of integer conversion (4300 digits by default): the input is
    refused at its byte offset, and an output or a count past it in
    words of our own."""

    @pytest.mark.parametrize("expr,offset", [("²", 0), ("3²", 1)])
    def test_non_ascii_digit(self, capsys, expr, offset):
        code, out, err = run(capsys, "check", "--group", "o", "--n", "2", "--vectors", "1", "--expr", expr)
        assert (code, out) == (1, "")
        assert f"unexpected character '²' (at byte {offset})" in err
        assert "invalid literal" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--group", "o", "--n", "2", "--vectors", "1", "--expr", "2^15000*x[1,1]"),
            ("decompose", "--group", "o", "--n", "2", "--vectors", "1", "--expr", "2^15000*s(1,1)"),
            ("reynolds", "--group", "finite", "--group-file", A2, "--vectors", "1",
             "--expr", "2^15000*x[1,1]^2"),
        ],
        ids=["check", "decompose", "reynolds"],
    )
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_coefficient_past_the_limit_refused_at_its_offset(self, capsys, argv, fmt):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, out) == (1, "")
        assert "15001 bits, above 14280 bits" in err and "4300-digit limit" in err
        assert "(at byte 0)" in err and "Exceeds the limit" not in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_output_past_the_limit_refused(self, capsys, fmt):
        # the input prints, but (x[1,1] - x[1,2])^20 under a2 adds binomial
        # coefficients to it
        code, out, err = run(
            capsys, "reynolds", "--group", "finite", "--group-file", A2, "--vectors", "1",
            "--expr", "2^14279*x[1,1]^20", "--format", fmt,
        )
        assert (code, out) == (1, "")
        assert "bits has more digits than the 4300-digit limit" in err
        assert "Exceeds the limit" not in err

    @pytest.mark.parametrize("command", ["fft-verify", "basis"])
    def test_huge_graded_piece(self, capsys, command):
        code, out, err = run(capsys, command, "--group", "o", "--n", "1000", "--vectors", "1000",
                             "--degree", "3000")
        assert (code, out) == (1, "")
        assert "graded piece has dimension at least 10^8870, above the cap 200000" in err


class TestJsonAndTextAgree:
    """The JSON term lists and the text lines of a report parse to the
    same polynomials."""

    @pytest.mark.parametrize(
        "session,command",
        [
            ("gl", ("basis", "--degree", "2")),
            ("o", ("basis", "--degree", "4")),
            ("sp", ("basis", "--degree", "4")),
            ("b3", ("basis", "--degree", "6")),
            ("gl", ("decompose", "--expr", "c(1,1)*c(2,1) - 3/2*c(2,1)^2")),
            ("o", ("decompose", "--expr", "s(1,1)*s(2,2)*s(3,3) - 2/7*s(1,2)^2*s(3,3) + s(1,3)^3")),
            ("sp", ("decompose", "--expr", "w(1,2)*w(1,3) - 2/3*w(2,3)^2")),
            ("b3", ("reynolds", "--expr", "x[1,1]^4 - 5/3*x[1,2]*x[1,3] + x[1,2]^2")),
        ],
        ids=lambda v: v if isinstance(v, str) else v[0],
    )
    def test_term_lists(self, capsys, session, command):
        family, flags = SESSIONS[session]
        key = {"basis": "basis", "decompose": "decomposition", "reynolds": "result"}[command[0]]
        code, text, _ = run(capsys, *command, *flags)
        assert code == 0
        code, data, _ = run_json(capsys, *command, *flags)
        assert code == 0
        sig = SpaceSignature(data["n"], data["covectors"], data["vectors"])
        from_json = data[key] if key == "basis" else [data[key]]
        from_text = text_block(text, key)
        assert len(from_text) == len(from_json) > 0
        for terms, line in zip(from_json, from_text):
            want = parse_expression(line, sig, family)
            assert want and parse_expression(terms_to_text(terms), sig, family) == want

    @pytest.mark.parametrize("session", ["gl", "o", "sp"])
    def test_generators(self, capsys, session):
        family, flags = SESSIONS[session]
        _, text, _ = run(capsys, "generators", *flags)
        _, data, _ = run_json(capsys, "generators", *flags)
        sig = SpaceSignature(data["n"], data["covectors"], data["vectors"])
        lines = text_block(text, "generators")
        assert len(lines) == data["count"] == len(data["generators"]) > 0
        for gen, line in zip(data["generators"], lines):
            symbol, poly = line.split(" = ")
            assert symbol == gen["id"]
            want = parse_expression(poly, sig, family)
            assert parse_expression(terms_to_text(gen["polynomial"]), sig, family) == want
            assert parse_expression(symbol, sig, family) == want


class TestArgumentValidation:
    def test_missing_n(self, capsys):
        code, _, err = run(
            capsys, "basis", "--group", "o", "--vectors", "1", "--degree", "2"
        )
        assert code == 1
        assert "--n is required" in err

    def test_no_copies(self, capsys):
        code, _, err = run(
            capsys, "basis", "--group", "o", "--n", "2", "--degree", "2"
        )
        assert code == 1

    def test_seed_range(self, capsys):
        code, _, err = run(
            capsys,
            "basis", "--group", "o", "--n", "2", "--vectors", "1",
            "--degree", "2", "--seed", str(2 ** 64),
        )
        assert code == 1
        assert "seed" in err

    def test_unknown_flag_is_error_exit(self, capsys):
        code, _, _ = run(
            capsys, "fft-verify", "--group", "o", "--no-such-flag"
        )
        assert code == 1

    def test_negative_degree(self, capsys):
        code, _, err = run(
            capsys, "basis", "--group", "o", "--n", "2", "--vectors", "1", "--degree", "-1"
        )
        assert code == 1
        assert err == "error: degree must be nonnegative\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--bogus"],
            ["check", "--group", "o", "--n", "2", "--vectors", "1", "--expr", "s(1,1)", "--bogus"],
        ],
        ids=["bare", "full-session"],
    )
    def test_unknown_flag_prints_the_commands_usage(self, capsys, argv):
        # only the command's parser is built, so its usage is the one printed
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("usage: classinv check ")

    @pytest.mark.parametrize("argv", [["chek", "--group", "o"], []], ids=["unknown", "none"])
    def test_missing_or_unknown_command(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("usage: classinv [-h]")

    @pytest.mark.parametrize("order", ["0", "-3"])
    def test_max_order_below_one(self, capsys, tmp_path, order):
        # a cap below 1 would accept no group, or report a negative cap
        path = tmp_path / "signs.txt"
        path.write_text("-1\n")
        code, out, err = run(
            capsys,
            "check", "--group", "finite", "--group-file", str(path),
            "--vectors", "1", "--expr", "x[1,1]^2", "--max-order", order,
        )
        assert code == 1
        assert out == ""
        assert err == "error: --max-order must be at least 1\n"

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_unknown_group(self, capsys):
        code, _, _ = run(
            capsys,
            "basis", "--group", "su", "--n", "2", "--vectors", "1",
            "--degree", "2",
        )
        assert code == 1
