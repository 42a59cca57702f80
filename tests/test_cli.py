"""CLI surface: exit codes, formats, determinism, thin-adapter checks."""

import hashlib
import json
from fractions import Fraction

import pytest

from singmat import certify, errors, exactla, harness
from singmat.bounds import p_even, union_bound_ber
from singmat.cli import EXIT_INTERNAL, main
from singmat.errors import MatrixFormatError, SingmatError
from singmat.harness import SweepConfig, run_sweep
from singmat.matio import format_matrix, parse_matrix, read_matrix, write_matrix
from singmat.matrices import BitMatrix


# -- matrix file format ------------------------------------------------------


def test_matio_round_trip(tmp_path):
    m = BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
    path = tmp_path / "m.txt"
    write_matrix(m, path)
    assert read_matrix(path) == m
    assert format_matrix(m) == "2 3\n101\n011\n"


def test_matio_empty_matrix():
    m = BitMatrix(0, 0, ())
    assert parse_matrix(format_matrix(m)) == m


def test_matio_errors_carry_line_numbers():
    with pytest.raises(MatrixFormatError) as err:
        parse_matrix("2 2\n10\n")
    assert err.value.line == 3
    with pytest.raises(MatrixFormatError) as err:
        parse_matrix("2 2\n10\n1x\n")
    assert err.value.line == 3
    with pytest.raises(MatrixFormatError) as err:
        parse_matrix("2 2\n101\n10\n")
    assert err.value.line == 2
    with pytest.raises(MatrixFormatError) as err:
        parse_matrix("nonsense\n")
    assert err.value.line == 1
    with pytest.raises(MatrixFormatError) as err:
        parse_matrix("2 2\n10\n01\n11\n")
    assert err.value.line == 4
    with pytest.raises(MatrixFormatError) as err:
        parse_matrix("1 1\n1\n\n0\n")
    assert err.value.line == 4
    assert parse_matrix("2 2\n10\n01\n\n  \n") == BitMatrix.identity(2)


# -- sample ------------------------------------------------------------------


def test_cli_sample_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    argv = ["sample", "--model", "bernoulli", "--n", "6", "--p", "1/3", "--seed", "9"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_sample_degenerate(tmp_path):
    out = tmp_path / "z.txt"
    assert main(["sample", "--model", "bernoulli", "--n", "4", "--p", "0",
                 "--out", str(out)]) == 0
    assert read_matrix(out).rows == (0, 0, 0, 0)
    assert main(["sample", "--model", "comb", "--n", "4", "--d", "4",
                 "--out", str(out)]) == 0
    assert read_matrix(out).rows == (15,) * 4


def test_cli_sample_missing_density(tmp_path, capsys):
    rc = main(["sample", "--model", "bernoulli", "--n", "4", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "--p" in capsys.readouterr().err


# -- certify -----------------------------------------------------------------


def test_cli_certify_exit_codes(tmp_path, capsys):
    ident = tmp_path / "id.txt"
    write_matrix(BitMatrix.identity(3), ident)
    assert main(["certify", "--in", str(ident)]) == 0

    dup = tmp_path / "dup.txt"
    write_matrix(BitMatrix.from_rows([[1, 1], [1, 1]]), dup)
    assert main(["certify", "--in", str(dup)]) == 10
    out = capsys.readouterr().out
    assert "singular" in out and "kernel vector" in out
    assert "decided by: structural" in out


def test_cli_certify_rejected_certificate_is_an_internal_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(certify, "verify_certificate", lambda m, cert, factorization=None: False)
    ident = tmp_path / "id.txt"
    write_matrix(BitMatrix.identity(2), ident)
    assert main(["certify", "--in", str(ident)]) == EXIT_INTERNAL
    assert "failed verification" in capsys.readouterr().err


def test_cli_certify_failed_kernel_search_is_an_internal_error(tmp_path, capsys, monkeypatch):
    """A zero row and no column witness send certify to the kernel
    search; with every lift failing, the search stops at its bound on
    unlucky primes, and the CLI reports an internal error."""
    monkeypatch.setattr(exactla, "_padic_kernel_vector", lambda *args: None)
    zero_row = tmp_path / "zero_row.txt"
    write_matrix(BitMatrix.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 0]]), zero_row)
    assert main(["certify", "--in", str(zero_row)]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert "internal error" in captured.err
    assert "verdict" not in captured.out


def test_cli_certify_json(tmp_path, capsys):
    dup = tmp_path / "dup.txt"
    write_matrix(BitMatrix.from_rows([[1, 0], [1, 0]]), dup)
    assert main(["certify", "--in", str(dup), "--json"]) == 10
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "singular"
    assert doc["witness"]["kernel_vector"] == ["0", "1"]


def test_cli_certify_truncated_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 3\n101\n010\n")
    assert main(["certify", "--in", str(bad)]) == 2
    assert "line 4" in capsys.readouterr().err


def test_cli_certify_non_utf8_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"2 2\n10\n0\xff\n")
    assert main(["certify", "--in", str(bad)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_cli_certify_surplus_rows(tmp_path, capsys):
    """A row past the declared count is a format error, not a silently
    dropped row that would leave the identity behind."""
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n10\n01\n11\n")
    assert main(["certify", "--in", str(bad)]) == 2
    captured = capsys.readouterr()
    assert "line 4" in captured.err
    assert "verdict" not in captured.out


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_cli_certify_prime_seed_outside_64_bits_exits_2(tmp_path, capsys, seed):
    """The prime stream reduces its seed mod 2**64, so -1 would draw the
    primes of 2**64 - 1.  The seed is refused before any stage runs: on
    a gf2-decided matrix that never draws a prime, and on a 12 x 12
    matrix that a lift decides."""
    ident = tmp_path / "id.txt"
    write_matrix(BitMatrix.identity(3), ident)
    lift = tmp_path / "lift.txt"
    assert main(["sample", "--model", "bernoulli", "--n", "12", "--p", "1/4", "--seed", "3",
                 "--out", str(lift)]) == 0
    assert main(["certify", "--in", str(lift)]) == 10
    assert "decided by: lift" in capsys.readouterr().out
    for path in (ident, lift):
        assert main(["certify", "--in", str(path), f"--prime-seed={seed}"]) == 2
        captured = capsys.readouterr()
        assert "prime_seed must be a 64-bit unsigned integer" in captured.err
        assert captured.out == ""


# -- bounds ------------------------------------------------------------------


def test_cli_bounds_matches_library(capsys):
    assert main(["bounds", "--formula", "p_even", "--s", "0", "--p", "1/2"]) == 0
    assert capsys.readouterr().out.split()[0] == "1/1"

    assert main(["bounds", "--formula", "p_even", "--s", "3", "--p", "3/10"]) == 0
    got = capsys.readouterr().out.split()[0]
    expect = p_even(3, Fraction(3, 10))
    assert got == f"{expect.numerator}/{expect.denominator}" == "133/250"

    assert main(["bounds", "--formula", "union_ber", "--n", "10", "--p", "1/2",
                 "--smax", "3"]) == 0
    got = capsys.readouterr().out.split()[0]
    expect = union_bound_ber(10, Fraction(1, 2), 3)
    assert got == f"{expect.numerator}/{expect.denominator}" == "175/512"


def test_cli_bounds_budget_exit(capsys):
    xs = ",".join(str(i) for i in range(40))
    assert main(["bounds", "--formula", "atom_comb", "--x", xs, "--d", "20"]) == 3


def test_cli_bounds_missing_flag(capsys):
    assert main(["bounds", "--formula", "p_even", "--s", "3"]) == 2


def test_cli_bounds_union_comb_needs_no_p(capsys):
    """union_bound_comb never reads an entry probability."""
    assert main(["bounds", "--formula", "union_comb", "--n", "8", "--q", "2", "--smax", "3",
                 "--pvalues", "1,1,1"]) == 0
    # sum over s = 1..3 of C(8, s) 2**(s + 1)
    assert capsys.readouterr().out == "1152/1 (1152)\n"


def test_cli_bounds_vector_formulas(capsys):
    assert main(["bounds", "--formula", "atom_comb", "--x", "1,2,3", "--d", "1",
                 "--modulus", "3"]) == 0
    assert capsys.readouterr().out == "1/3 (0.333333333333) at a=0\n"
    assert main(["bounds", "--formula", "atom_ber", "--x", "1,2", "--p", "1/2"]) == 0
    assert capsys.readouterr().out == "1/4 (0.25) at a=0\n"


@pytest.mark.parametrize("argv, message", [
    (["p_even", "--s", "3", "--p", "2"], "not a probability"),
    (["union_ber", "--n", "5", "--p=-1/2", "--smax", "2"], "not a probability"),
    (["atom_ber", "--x", "1,2", "--p", "3/2"], "not a probability"),
    (["binom_pm", "--n", "4", "--p", "5/4", "--d", "2"], "not a probability"),
    (["atom_comb", "--x", "1,2", "--d", "1", "--modulus", "0"], "modulus"),
    (["atom_comb", "--x", "1,2", "--d", "1", "--modulus=-3"], "modulus"),
    (["atom_comb", "--x", "1,1/2", "--d", "1", "--modulus", "3"], "integer entries"),
    (["union_ber", "--n", "8", "--p", "1/2", "--smax=-1"], "s_max"),
    (["union_comb", "--n", "8", "--q", "0", "--smax", "3", "--pvalues", "1,1,1"], "q must be"),
    (["union_comb", "--n", "8", "--q", "1", "--smax", "3", "--pvalues", "1,1,1"], "q must be"),
    (["union_comb", "--n", "8", "--q", "2", "--smax=-1", "--pvalues", "1"], "s_max"),
])
def test_cli_bounds_rejects_invalid_values(capsys, argv, message):
    assert main(["bounds", "--formula", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


# -- sweep -------------------------------------------------------------------


def test_cli_sweep_rerun_identical(tmp_path):
    out = tmp_path / "s.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": "comb", "n_grid": [8], "c_grid": ["1/2", "2"],
        "trials_per_cell": 4, "master_seed": 11, "output": str(out),
    }))
    assert main(["sweep", "--config", str(cfg)]) == 0
    first = out.read_bytes()
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert out.read_bytes() == first


def test_cli_sweep_flag_overrides_config(tmp_path):
    out = tmp_path / "s.csv"
    other = tmp_path / "other.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": "bernoulli", "n_grid": [5], "c_grid": [1],
        "trials_per_cell": 2, "master_seed": 1, "output": str(out),
    }))
    assert main(["sweep", "--config", str(cfg), "--out", str(other)]) == 0
    assert other.exists() and not out.exists()


def test_cli_sweep_prints_the_aggregate_csv(tmp_path, capsys):
    """The sweep's one table format: stdout is the --out file, byte for byte."""
    out = tmp_path / "s.csv"
    args = ["sweep", "--model", "bernoulli", "--n-grid", "6,8", "--c-grid", "1/2,2", "--trials", "3"]
    assert main([*args, "--seed", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def test_cli_sweep_missing_output_dir(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": "bernoulli", "n_grid": [5], "c_grid": [1],
        "trials_per_cell": 2, "master_seed": 1,
        "output": "/definitely/not/here/x.csv",
    }))
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_cli_sweep_incomplete_config(tmp_path, capsys):
    assert main(["sweep", "--model", "bernoulli"]) == 2
    assert "missing configuration" in capsys.readouterr().err


@pytest.mark.parametrize("extra, message", [
    (["--n-grid", "12,12", "--c-grid", "1"], "n_grid repeats a value"),
    (["--n-grid", "12", "--c-grid", "1,2/2"], "c_grid repeats a value"),
    (["--n-grid", "12", "--c-grid", "1", "--jobs", "0"], "jobs must be >= 1"),
])
def test_cli_sweep_repeated_grid_value_or_no_jobs_exits_2(tmp_path, capsys, extra, message):
    out = tmp_path / "s.csv"
    args = ["sweep", "--model", "bernoulli", *extra, "--trials", "5", "--seed", "1"]
    assert main([*args, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config, message", [
    ([1, 2], "config must be a JSON object"),
    ({"n_grid": 5}, "n_grid must be a list"),
    ({"c_grid": 1}, "c_grid must be a list"),
    ({"trials_per_cell": 2.5}, "trials_per_cell must be an integer"),
    ({"master_seed": 1.5}, "master_seed must be an integer"),
    ({"n_grid": [5.5]}, "n_grid holds a non-integral size"),
    ({"output": 5}, "output must be a path"),
    ({"svg": 7}, "invalid configuration"),
    ({"model": "gaussian"}, "unknown model 'gaussian'"),
    ({"model": 5}, "unknown model 5"),
    ({"c_grid": ["1/0"]}, "c_grid holds a non-rational"),
    ({"c_grid": ["abc"]}, "c_grid holds a non-rational"),
])
def test_cli_sweep_malformed_config_exits_2(tmp_path, capsys, config, message):
    """A config that is not an object, a scalar grid, a non-integer
    count, seed or size, a non-string output, an unknown key, a model other than
    the two (and the ``comb`` alias) and a c that is not a rational are
    refused with a message, not a traceback or a Bernoulli sweep."""
    out = tmp_path / "s.csv"
    if isinstance(config, dict):
        config = {"model": "bernoulli", "n_grid": [5], "c_grid": [1], "trials_per_cell": 2,
                  "master_seed": 1, "output": str(out), **config}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_cli_sweep_seed_outside_64_bits_exits_2(tmp_path, capsys, seed):
    """Master seeds are reduced mod 2**64, so -1 would alias 2**64 - 1
    and 2**64 would alias 0: both are refused."""
    out = tmp_path / "s.csv"
    args = ["sweep", "--model", "bernoulli", "--n-grid", "12", "--c-grid", "1", "--trials", "2"]
    assert main([*args, f"--seed={seed}", "--out", str(out)]) == 2
    assert "master_seed must be a 64-bit unsigned integer" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_negative_c_exits_2(tmp_path, capsys):
    """c < 0 would clamp the density to 0 and sweep zero matrices."""
    out = tmp_path / "s.csv"
    args = ["sweep", "--model", "bernoulli", "--n-grid", "3", "--c-grid=-1", "--trials", "1"]
    assert main([*args, "--seed", "1", "--out", str(out)]) == 2
    assert "c_grid holds a negative c" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("out, message", [
    ("", "output must name a file"),
    ("outdir", "is a directory"),
])
def test_cli_sweep_unusable_out_exits_2_before_any_trial(tmp_path, monkeypatch, capsys, out, message):
    """An --out with no file name, or one that is an existing directory,
    exits 2 with a message before the first trial, and leaves no .tmp."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "outdir").mkdir()
    monkeypatch.setattr(harness, "run_trial", lambda *args: pytest.fail("a trial ran"))
    args = ["sweep", "--model", "bernoulli", "--n-grid", "3", "--c-grid", "1", "--trials", "1"]
    assert main([*args, "--seed", "1", "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["outdir"]


def test_cli_and_library_read_a_float_c_alike(tmp_path):
    """A JSON float c and a library float c are both read as their
    decimal, so the two sweeps write the same bytes."""
    cli_out, lib_out = tmp_path / "cli.csv", tmp_path / "lib.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": "bernoulli", "n_grid": [6], "c_grid": [0.1, 1.5],
        "trials_per_cell": 2, "master_seed": 4, "output": str(cli_out),
    }))
    assert main(["sweep", "--config", str(cfg)]) == 0
    run_sweep(SweepConfig("bernoulli", (6,), (0.1, 1.5), 2, 4, str(lib_out)))
    assert cli_out.read_bytes() == lib_out.read_bytes()
    assert b",1/10," in cli_out.read_bytes()


# -- analyze -----------------------------------------------------------------


def test_cli_analyze_duplicate_columns(tmp_path, capsys):
    path = tmp_path / "m.txt"
    write_matrix(BitMatrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 1]]), path)
    assert main(["analyze", "--in", str(path), "--side", "right"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["gf2"]["min_support"] == 2
    assert doc["rational"]["kernel_dim"] == 1
    vec = doc["rational"]["vectors"][0]
    assert vec["support_size"] == 2


def test_cli_analyze_left_side(tmp_path, capsys):
    """Row 2 is row 0 plus row 1, so (-1, -1, 1, 0) spans the left
    kernel; the right kernel is spanned by a different vector."""
    path = tmp_path / "m.txt"
    write_matrix(BitMatrix.from_rows([[1, 0, 0, 0], [0, 1, 1, 0], [1, 1, 1, 0], [0, 0, 1, 1]]), path)
    assert main(["analyze", "--in", str(path), "--side", "left"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "side": "left",
        "gf2": {"kernel_dim": 1, "trivial": False, "min_support": 3, "witness": [1, 1, 1, 0]},
        "rational": {
            "kernel_dim": 1,
            "vectors": [{
                "n": 4,
                "support_size": 3,
                "fibre_histogram": [["-1", 2], ["0", 1], ["1", 1]],
                "largest_fibre_size": 2,
                "s": 2,
                "entries": ["-1", "-1", "1", "0"],
            }],
        },
    }


def test_cli_analyze_identity(tmp_path, capsys):
    path = tmp_path / "id.txt"
    write_matrix(BitMatrix.identity(4), path)
    assert main(["analyze", "--in", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["gf2"]["trivial"] is True
    assert doc["rational"]["kernel_dim"] == 0


def test_cli_analyze_matrix_without_rows(tmp_path, capsys):
    """A 0 x 3 matrix: every vector is in both kernels."""
    path = tmp_path / "empty.txt"
    path.write_text("0 3\n", encoding="utf-8")
    assert main(["analyze", "--in", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["gf2"]["kernel_dim"] == doc["rational"]["kernel_dim"] == 3
    assert [v["entries"] for v in doc["rational"]["vectors"]] == [
        ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"],
    ]


def test_cli_analyze_budget_exit(tmp_path, capsys):
    path = tmp_path / "z.txt"
    write_matrix(BitMatrix.zeros(25, 25), path)
    assert main(["analyze", "--in", str(path)]) == 3


@pytest.mark.parametrize("matrix", [BitMatrix.zeros(2, 2), BitMatrix.identity(2)])
def test_cli_analyze_negative_budget_exits_2(tmp_path, capsys, matrix):
    """A negative --max-dim is refused whether or not the matrix has a
    GF(2) kernel."""
    path = tmp_path / "m.txt"
    write_matrix(matrix, path)
    assert main(["analyze", "--in", str(path), "--max-dim", "-1"]) == 2
    assert "max_dim must be >= 0" in capsys.readouterr().err


def test_cli_analyze_pins_a_fractional_kernel(tmp_path, capsys):
    """A rational kernel of dimension three whose basis vectors (free
    column 1, not cleared) have half-integer entries; the whole JSON
    output is pinned."""
    path = tmp_path / "m.txt"
    rows = [[0, 0, 0, 1, 1, 0, 1], [0, 1, 1, 0, 0, 0, 0], [1, 0, 1, 1, 0, 1, 1], [1, 1, 0, 1, 1, 0, 0]]
    write_matrix(BitMatrix.from_rows(rows), path)
    assert main(["analyze", "--in", str(path)]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["gf2"]["kernel_dim"] == doc["rational"]["kernel_dim"] == 3
    assert [v["entries"] for v in doc["rational"]["vectors"]] == [
        ["1/2", "-1/2", "1/2", "-1", "1", "0", "0"],
        ["-1/2", "1/2", "-1/2", "0", "0", "1", "0"],
        ["1/2", "1/2", "-1/2", "-1", "0", "0", "1"],
    ]
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "7a2a2789ee2ac616"


# -- failure path ------------------------------------------------------------


def _documented_exit_code(cls) -> int:
    if issubclass(cls, (errors.BudgetExceeded, errors.KernelTooLarge)):
        return 3
    if issubclass(cls, (errors.CertificateRejected, errors.KernelLiftFailed, errors.SelfCheckFailed)):
        return 4
    return 2


@pytest.mark.parametrize("cls", [
    cls for cls in vars(errors).values() if isinstance(cls, type) and issubclass(cls, SingmatError)
], ids=lambda cls: cls.__name__)
def test_cli_error_types_carry_their_exit_code(tmp_path, capsys, monkeypatch, cls):
    """Raised inside a command, every SingmatError reaches main's one
    handler and exits with the code the errors module gives its type."""
    def fail(*args, **kwargs):
        raise cls("boom")

    monkeypatch.setattr("singmat.cli.is_singular_exact", fail)
    path = tmp_path / "id.txt"
    write_matrix(BitMatrix.identity(2), path)
    code = _documented_exit_code(cls)
    assert cls.exit_code == code
    assert EXIT_INTERNAL == 4
    assert main(["certify", "--in", str(path)]) == code
    prefix = "internal error: " if code == EXIT_INTERNAL else ""
    assert capsys.readouterr().err == f"singmat: {prefix}boom\n"


def test_cli_bare_value_error_is_a_bug_not_a_usage_error(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr("singmat.cli.is_singular_exact", fail)
    path = tmp_path / "id.txt"
    write_matrix(BitMatrix.identity(2), path)
    with pytest.raises(ValueError, match="boom") as err:
        main(["certify", "--in", str(path)])
    assert type(err.value) is ValueError
