"""End-to-end coverage of the command line interface."""

import json

import pytest

from bernblend import NumericalError, SampleError, basis, cli, harness
from bernblend.cli import main

QUICK_APPROX = ["--r", "1", "--function", "smooth_sin:freq=1",
                "--n-list", "64,128", "--grid", "401"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = [ln for ln in text.split("\r\n") if ln]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class TestTableCommands:
    def test_coeffs_order_three(self, capsys):
        code, out, _ = run(capsys, ["coeffs", "--r", "3", "--n", "32"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "i,degree,coefficient"
        assert lines[1] == "0,32,0.5"
        assert lines[2] == "1,64,-4.0"
        assert lines[3] == "2,96,4.5"

    def test_psi_order_one(self, capsys):
        code, out, _ = run(capsys, ["psi", "--r", "1"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "power,coefficient"
        assert lines[1:] == ["3,10.0", "4,-15.0", "5,6.0"]


class TestApprox:
    def test_polynomial_rows_are_exact(self, capsys):
        code, out, _ = run(capsys, [
            "approx", "--r", "1", "--function", "smooth_poly:coeffs=0;1",
            "--n-list", "36,64", "--grid", "401"])
        assert code == 0
        rows = csv_rows(out)
        assert [r["n"] for r in rows] == ["36", "64"]
        assert all(float(r["value"]) <= 1e-9 for r in rows)
        assert all(r["slope"] == "" for r in rows)

    def test_exactness_is_relative_to_weighted_norm(self, capsys):
        # a strong weight makes every error tiny (about 1e-20), yet the
        # singular sweep still decays like a power of n and gets a slope
        code, out, _ = run(capsys, ["approx", "--alpha", "50"])
        assert code == 0
        rows = csv_rows(out)
        assert all(float(r["value"]) < 1e-9 for r in rows)
        assert all(r["slope"] != "" and float(r["slope"]) < 0.0 for r in rows)
        # a quadratic is reproduced: its errors are roundoff of the norm
        code, out, _ = run(capsys, ["approx", "--function", "smooth_poly:coeffs=0;1;2",
                                    "--alpha", "50"])
        assert code == 0
        assert all(r["slope"] == "" for r in csv_rows(out))

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, ["approx", "--format", "json"] + QUICK_APPROX)
        assert code == 0
        payload = json.loads(out)
        assert [row[0] for row in payload["rows"]] == [64, 128]
        assert payload["slope"] < 0.0

    def test_deterministic_bytes(self, capsys):
        _, first, _ = run(capsys, ["approx"] + QUICK_APPROX)
        _, second, _ = run(capsys, ["approx"] + QUICK_APPROX)
        assert first == second


class TestCompare:
    def test_stdout_has_both_blocks(self, capsys):
        code, out, _ = run(capsys, ["compare"] + QUICK_APPROX)
        assert code == 0
        assert out.count("n,value,slope,r_squared,gamma_hat") == 2
        plain_at = out.index("# plain\n")
        modified_at = out.index("# modified\n")
        assert plain_at < modified_at

    def test_out_writes_sibling_files(self, capsys, tmp_path):
        target = tmp_path / "cmp.csv"
        code, out, _ = run(capsys, ["compare", "--out", str(target)] + QUICK_APPROX)
        assert code == 0
        assert out == ""
        sibling = tmp_path / "cmp.plain.csv"
        for path in (target, sibling):
            raw = path.read_bytes()
            assert raw.startswith(b"n,value,slope,r_squared,gamma_hat\r\n")
            assert raw.count(b"\r\n") == 3
        assert target.read_bytes() != sibling.read_bytes()


class TestOtherCommands:
    def test_bernstein_ineq(self, capsys):
        code, out, _ = run(capsys, [
            "bernstein-ineq", "--lambda", "0.5", "--function",
            "singular_power:beta=0.5", "--r", "1",
            "--n-list", "64,128", "--grid", "401"])
        assert code == 0
        assert len(csv_rows(out)) == 2

    def test_modulus_halving_table(self, capsys):
        code, out, _ = run(capsys, [
            "modulus", "--r", "1", "--function", "smooth_sin:freq=1",
            "--t", "0.125", "--grid", "401"])
        assert code == 0
        rows = csv_rows(out)
        assert [r["n"] for r in rows] == [str(2 ** k) for k in range(8)]
        values = [float(r["value"]) for r in rows]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_lemma1_trivial_bound(self, capsys):
        code, out, _ = run(capsys, [
            "lemma", "1", "--u", "0", "--v", "0",
            "--n-list", "64,256", "--grid", "401"])
        assert code == 0
        assert all(float(r["value"]) <= 1.0 + 1e-12 for r in csv_rows(out))


class TestConfigFile:
    def test_config_supplies_values(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 3, "n": 100}))
        code, out, _ = run(capsys, ["coeffs", "--config", str(cfg)])
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert [r.split(",")[1] for r in rows] == ["100", "200", "300"]

    def test_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 3, "n": 100}))
        code, out, _ = run(capsys, ["coeffs", "--config", str(cfg), "--n", "32"])
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert [r.split(",")[1] for r in rows] == ["32", "64", "96"]
        assert [r.split(",")[2] for r in rows] == ["0.5", "-4.0", "4.5"]

    def test_lambda_key_spelling(self, capsys, tmp_path):
        # the JSON file may say "lambda" even though the flag attribute is lam
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "lambda": 1.0, "r": 1, "function": "smooth_poly:coeffs=1",
            "n_list": "64", "grid": 401}))
        code, out, _ = run(capsys, ["bernstein-ineq", "--config", str(cfg)])
        assert code == 0
        assert len(csv_rows(out)) == 1


class TestExitCodes:
    def test_degree_too_small(self, capsys):
        code, _, err = run(capsys, [
            "approx", "--r", "1", "--function", "smooth_sin:freq=1",
            "--n-list", "8", "--grid", "401"])
        assert code == 2
        assert "need n >= 21" in err

    def test_centered_compare_hits_singularity(self, capsys):
        code, _, err = run(capsys, [
            "compare", "--xi", "0.5", "--r", "1", "--function",
            "singular_power:beta=0.5", "--n-list", "64", "--grid", "401"])
        assert code == 3
        assert "error:" in err

    def test_modulus_step_too_large(self, capsys):
        code, _, err = run(capsys, [
            "modulus", "--r", "1", "--function", "smooth_sin:freq=1",
            "--t", "0.2", "--grid", "401"])
        assert code == 2

    @pytest.mark.parametrize("command", ["approx", "modulus", "lemma"])
    def test_grid_size_capped(self, capsys, command):
        argv = [command, "--grid", "100000000"]
        if command == "lemma":
            argv.insert(1, "1")
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "grid size must be at most 1000000" in err

    @pytest.mark.parametrize("argv", [
        ["lemma", "1", "--n-list", "10000000"],
        ["approx", "--n-list", "64,1000001"],
        ["compare", "--n-list", "1000001"],
    ])
    def test_degree_capped(self, capsys, monkeypatch, argv):
        # a 2001 x 10^7 basis would need 160 GB; the cap refuses it before
        # any basis value is built
        def refuse(*args):
            raise AssertionError("basis built past the degree cap")

        monkeypatch.setattr(harness, "basis_matrix", refuse)
        monkeypatch.setattr(basis, "basis_matrix", refuse)
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "degree n must be at most 1000000" in err

    def test_lemma3_degree_uncapped(self, capsys):
        # interpolation builds no basis, so the sweep cap does not apply
        code, out, _ = run(capsys, ["lemma", "3", "--n-list", "2000000",
                                    "--grid", "401"])
        assert code == 0
        assert [row["n"] for row in csv_rows(out)] == ["2000000"]

    @pytest.mark.parametrize("exc, text", [
        (MemoryError("Unable to allocate 149. GiB"),
         "error: out of memory: Unable to allocate 149. GiB\n"),
        (OverflowError("math range error"), "error: overflow: math range error\n"),
        (NumericalError("non-finite sweep value"), "error: non-finite sweep value\n"),
        (SampleError("non-finite sample at k/n = 1/2", 0.5),
         "error: non-finite sample at k/n = 1/2\n"),
    ])
    def test_numerical_failures_exit_3(self, capsys, monkeypatch, exc, text):
        def fail(*args):
            raise exc

        monkeypatch.setattr(cli, "lemma1_scan", fail)
        code, out, err = run(capsys, ["lemma", "1"])
        assert (code, out, err) == (3, "", text)

    @pytest.mark.parametrize("argv", [
        ["lemma", "1", "--n-list", "0"],
        ["lemma", "5", "--n-list", "-4"],
        ["approx", "--function", "smooth_sin:freq=1;2"],
        ["approx", "--function", "smooth_sin:bogus=3"],
        ["approx", "--function", "singular_power:beta=inf"],
        ["approx", "--alpha", "inf"],
        ["approx", "--alpha", "nan"],
        ["approx", "--xi", "1e-5", "--n-list", "32"],
        ["lemma", "1", "--u", "nan"],
        ["lemma", "1", "--v", "inf"],
        ["lemma", "6", "--beta", "inf"],
        ["lemma", "6", "--beta", "nan"],
    ])
    def test_bad_numeric_config(self, capsys, argv):
        # non-finite values, catalog misuse and out-of-reach degrees are
        # configuration errors: exit 2, nothing on stdout, no traceback
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_bad_format_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "yaml"}))
        code, _, err = run(capsys, ["approx", "--config", str(cfg)] + QUICK_APPROX)
        assert code == 2

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _, err = run(capsys, ["approx", "--config", str(cfg)] + QUICK_APPROX)
        assert code == 2
        assert "config keys not used" in err

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unwritable_out_path(self, capsys, tmp_path):
        code, _, err = run(capsys, [
            "approx", "--out", str(tmp_path / "no_dir" / "x.csv")] + QUICK_APPROX)
        assert code == 1
