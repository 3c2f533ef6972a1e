import json
import time

import pytest

from classinv.cli import main


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

    def test_timing_appends_field(self, capsys):
        code, data, _ = run_json(
            capsys,
            "fft-verify", "--group", "o", "--n", "1", "--vectors", "1",
            "--degree", "2", "--timing",
        )
        assert code == 0
        assert list(data)[-1] == "elapsed_ms"
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
        path = tmp_path / "rot.txt"
        path.write_text("3/5 -4/5\n4/5 3/5\n")
        code, _, err = run(
            capsys,
            "check", "--group", "finite", "--group-file", str(path),
            "--vectors", "1", "--expr", "x[1,1]^2 + x[1,2]^2", "--max-order", "100",
        )
        # that rotation has infinite order, so the closure walk must give up
        assert code == 1
        assert "error:" in err

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

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_unknown_group(self, capsys):
        code, _, _ = run(
            capsys,
            "basis", "--group", "su", "--n", "2", "--vectors", "1",
            "--degree", "2",
        )
        assert code == 1
