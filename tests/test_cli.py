"""End-to-end coverage of the command line interface."""

import contextlib
import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings

try:
    import resource
except ImportError:  # not on Windows
    resource = None
from hypothesis import strategies as st

import bernblend
from bernblend import NumericalError, SampleError, basis, cli, harness
from bernblend.cli import main

QUICK_APPROX = ["--r", "1", "--function", "smooth_sin:freq=1",
                "--n-list", "64,128", "--grid", "401"]
ROOT = pathlib.Path(__file__).resolve().parents[1]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_or_exit(capsys, argv):
    """``run``, also when argparse refuses ``argv`` and exits."""
    try:
        return run(capsys, argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


def load_by_path(monkeypatch, path):
    """The module in ``path``, imported without writing bytecode beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"_loaded_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


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

    def test_same_bytes_at_any_thread_count(self):
        # every sum runs in numpy's own single-threaded reduction, so the
        # size of the BLAS thread pool moves no printed byte
        src = pathlib.Path(bernblend.__file__).resolve().parents[1]
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-m", "bernblend", "approx", *QUICK_APPROX],
                                  capture_output=True, text=True, timeout=60, env=env)
            assert (proc.returncode, proc.stderr) == (0, ""), threads
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


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

    def test_modulus_on_smallest_grid(self, capsys):
        # the 16-point grid at xi = 0.5 once failed a refinement count that
        # rounding put one point short of
        code, out, err = run(capsys, [
            "modulus", "--xi", "0.5", "--grid", "16", "--function", "smooth_sin:freq=1"])
        assert (code, err) == (0, "")
        assert len(csv_rows(out)) == 8

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

    def test_config_values_parse_like_flags(self, capsys, tmp_path):
        # numbers may be given as JSON numbers or as flag text, and the
        # degrees as flag text or a list of integers
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "r": 1, "function": "smooth_sin:freq=1", "n_list": [64, 128],
            "grid": "401", "xi": 0.513, "alpha": "1"}))
        code, out, _ = run(capsys, ["approx", "--config", str(cfg)])
        assert code == 0
        assert out == run(capsys, ["approx"] + QUICK_APPROX)[1]

    @pytest.mark.parametrize("content", [None, "directory", b"{", b"[1, 2]", b"\xff\xfe{"],
                             ids=["missing", "directory", "invalid", "list", "not-utf8"])
    def test_unusable_config_file(self, capsys, tmp_path, content):
        # bad configuration: exit 2, nothing on stdout, and one error line
        # that names the file
        cfg = tmp_path / "cfg.json"
        if content == "directory":
            cfg.mkdir()
        elif content is not None:
            cfg.write_bytes(content)
        code, out, err = run(capsys, ["coeffs", "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1 and repr(str(cfg)) in err


class TestExitCodes:
    def test_degree_too_small(self, capsys):
        code, _, err = run(capsys, [
            "approx", "--r", "1", "--function", "smooth_sin:freq=1",
            "--n-list", "8", "--grid", "401"])
        assert code == 2
        assert "need n >= 21" in err

    @pytest.mark.parametrize("argv", [
        ["lemma", "3", "--r", "1"],  # the nodes fit at 19, the window at 21
        ["approx", "--r", "8"],  # the window fits at 21, the nodes at 51
    ])
    def test_named_degree_runs(self, capsys, argv):
        argv = argv + ["--function", "smooth_sin:freq=1", "--grid", "401"]
        code, _, err = run(capsys, argv + ["--n-list", "8"])
        assert code == 2
        n_min = int(err.rsplit("need n >= ", 1)[1])
        code, _, err = run(capsys, argv + ["--n-list", str(n_min)])
        assert (code, err) == (0, "")
        code, _, err = run(capsys, argv + ["--n-list", str(n_min - 1)])
        assert code == 2 and f"need n >= {n_min}" in err

    @pytest.mark.parametrize("xi", ["0.998", "0.9985", "0.999"])
    def test_degree_hint_within_cap(self, capsys, xi):
        # the smallest-degree search stops at the n-list's cap, so it never
        # names a degree that the cap then refuses
        code, out, err = run(capsys, ["approx", "--xi", xi, "--n-list", "1000000"])
        assert (code, out, err) == (2, "", "error: no admissible degree up to 1000000\n")

    def test_centered_compare_hits_singularity(self, capsys):
        code, _, err = run(capsys, [
            "compare", "--xi", "0.5", "--r", "1", "--function",
            "singular_power:beta=0.5", "--n-list", "64", "--grid", "401"])
        assert code == 3
        assert "error:" in err

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
    def test_centered_approx_runs(self, capsys):
        # the blend never samples xi, but the weighted modulus's t = 1/8
        # forward strip stencil from x = 0 reaches 4 * (1/8) = xi exactly
        code, _, err = run(capsys, [
            "approx", "--xi", "0.5", "--n-list", "64,128", "--grid", "401"])
        assert (code, err) == (0, "")

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
        ["lemma", "3", "--n-list", "2000000", "--grid", "401"],
        ["lemma", "5", "--n-list", "100000000"],
        ["lemma", "6", "--n-list", "1000001"],
    ])
    def test_degree_capped(self, capsys, monkeypatch, argv):
        # a 2001 x 10^7 basis would need 160 GB; the cap refuses it before
        # any basis value is built
        def refuse(*args):
            raise AssertionError("basis built past the degree cap")

        monkeypatch.setattr(harness, "basis_matrix", refuse)
        monkeypatch.setattr(basis, "basis_matrix", refuse)
        monkeypatch.setattr(basis, "_band_blocks", refuse)
        monkeypatch.setattr(harness, "_band_blocks", refuse)
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "degree n must be at most 1000000" in err

    @pytest.mark.parametrize("argv", [
        ["lemma", "1", "--n-list", "1"],
        ["lemma", "1", "--n-list", "2"],
        ["lemma", "6", "--n-list", "1"],
        ["lemma", "6", "--n-list", "2"],
    ])
    def test_empty_lemma_window(self, capsys, argv):
        # no grid point lies in [1/n, 1 - 1/n]; the error names n and the window
        code, out, err = run(capsys, argv)
        n = argv[-1]
        assert (code, out) == (2, "")
        assert err.startswith("error: no grid point lies in the window [1/n, 1 - 1/n]")
        assert err.endswith(f"for n = {n}\n")

    @pytest.mark.parametrize("argv", [
        ["approx", "--r", "100000000"],
        ["coeffs", "--r", "3000"],
        ["lemma", "3", "--r", "100000000"],
        ["modulus", "--r", "9"],
        ["approx", "--xi", "1e-160"],
    ])
    def test_order_and_degree_search_bounded(self, argv):
        # r is capped at 8 before any ladder, weight product or patch
        # node is built, and the search for the smallest admissible degree
        # gives up cleanly however close xi lies to 0; in a child process,
        # so an unbounded run fails by its timeout instead of hanging
        src = pathlib.Path(bernblend.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "bernblend", *argv], capture_output=True,
            text=True, timeout=20, env=dict(os.environ, PYTHONPATH=str(src)))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
        if "--xi" in argv:
            assert proc.stderr == "error: no admissible degree up to 1000000\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("which, flag, value", [
        ("1", "u", "1e308"), ("1", "v", "1e308"), ("6", "beta", "1000"),
        ("6", "alpha", "1000"),
    ])
    def test_lemma_overflow(self, capsys, which, flag, value):
        # a power that leaves double range is bad configuration, reported
        # in one line that names it and n, with no numpy warning before it
        code, out, err = run(capsys, ["lemma", which, f"--{flag}", value,
                                      "--grid", "401", "--n-list", "64"])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{flag}={float(value)!r}" in err and "n=64" in err

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
        ["lemma", "1", "--xi", "1e-13"],
        ["modulus", "--xi", "0.9999999999999"],
        ["approx", "--function", "singular_power:beta=0.5,beta=0.6"],
        ["approx", "--function", "smooth_poly:coeffs=1;;2"],
        ["approx", "--function", "singular_osc:beta=x"],
    ])
    def test_bad_numeric_config(self, capsys, argv):
        # non-finite values, catalog misuse and out-of-reach degrees are
        # configuration errors: exit 2, nothing on stdout, no traceback
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("argv, spelled", [
        (["lemma", "1", "--u", "-1e3"], ["lemma", "1", "--u", "-1000"]),
        (["lemma", "1", "--v", "-2.5E-1"], ["lemma", "1", "--v", "-0.25"]),
        (["lemma", "5", "--alpha", "-1e308"], ["lemma", "5", "--alpha=-1e308"]),
        (["approx", "--xi", "-.5e-2"], ["approx", "--xi", "-0.005"]),
        (["lemma", "1", "--u", "-inf"], ["lemma", "1", "--u=-inf"]),
        (["lemma", "1", "--u", "-nan"], ["lemma", "1", "--u=-nan"]),
        (["lemma", "1", "--u", "-1_000"], ["lemma", "1", "--u", "-1000"]),
        (["lemma", "1", "--v", "-Infinity"], ["lemma", "1", "--v=-inf"]),
    ])
    def test_negative_number_with_exponent(self, capsys, argv, spelled):
        # a negative value in any spelling float() reads (an exponent, inf,
        # nan, digit groups) reaches its flag's own check, as the plain
        # spelling does, instead of argparse's usage error
        code, out, err = run(capsys, argv + ["--grid", "401", "--n-list", "64"])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert run(capsys, spelled + ["--grid", "401", "--n-list", "64"]) == (code, out, err)

    @pytest.mark.parametrize("argv", [
        ["approx", "--alpha", "1000", "--function", "singular_power:beta=500"],
        ["compare", "--alpha", "1000", "--function", "singular_power:beta=500"],
        ["approx", "--function", "smooth_poly:coeffs=1e308;1e308"],
        ["modulus", "--function", "smooth_poly:coeffs=1e308;1e308"],
        ["lemma", "3", "--function", "smooth_poly:coeffs=1e308;1e308"],
        ["modulus", "--function", "smooth_poly:coeffs=1e308"],
    ])
    def test_function_overflow(self, capsys, argv):
        # f or its differences overflow: a numerical failure in one line,
        # with no numpy warning (an error in this suite) before it
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_lemma3_interpolant_overflow(self, capsys):
        # f is finite at the nodes, but the interpolant overflows on the
        # window: one line naming the x, no numpy warning (an error here)
        code, out, err = run(capsys, [
            "lemma", "3", "--function", "smooth_poly:coeffs=1e307;1e307"])
        assert (code, out) == (3, "")
        assert err.startswith("error: non-finite weighted value at x=")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, config, named", [
        (["lemma", "1", "--function", "bogus"], None, "--function"),
        (["lemma", "5", "--beta", "3"], None, "--beta"),
        (["lemma", "6", "--u", "1"], None, "--u"),
        (["lemma", "3", "--v", "0"], None, "--v"),
        (["approx", "--t", "0.1"], None, "--t"),
        (["approx", "--n", "32"], None, "--n"),  # not read as --n-list
        (["lemma", "1"], {"beta": 2}, "'beta'"),
    ])
    def test_unread_flag_or_key(self, capsys, tmp_path, argv, config, named):
        # a value the command (for lemma, its scan) would ignore is bad
        # configuration, named in one error line of one shape for every
        # command, with no usage block
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv = argv + ["--config", str(tmp_path / "cfg.json")]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        name = " ".join(argv[:2]) if argv[0] == "lemma" else argv[0]
        kind = "config keys" if config else "arguments"
        assert err.startswith(f"error: {kind} not used by {name!r}: [") and err.endswith("]\n")
        assert err.count("\n") == 1 and named in err, err

    @pytest.mark.parametrize("argv, line", [
        (["lemma", "1", "--function", "bogus"], "'lemma 1': ['--function']"),
        (["approx", "--t", "0.1"], "'approx': ['--t', '0.1']"),
        (["approx", "--t=0.1", "5"], "'approx': ['--t=0.1', '5']"),
        (["coeffs", "--xi", "0.3", "--u", "1"], "'coeffs': ['--xi', '0.3', '--u', '1']"),
    ])
    def test_unread_arguments_listed(self, capsys, argv, line):
        # flags of another command or scan are named, and whatever no flag
        # of the command takes is listed as given
        assert run(capsys, argv) == (2, "", f"error: arguments not used by {line}\n")

    @pytest.mark.parametrize("argv, line", [
        (["approx", "--r", "x"], "--r: invalid int value 'x'"),
        (["approx", "--format", "yaml"], "--format: 'yaml' is not in ['csv', 'json']"),
        (["approx", "--xi", "abc"], "--xi: invalid float value 'abc'"),
        (["lemma", "6", "--beta", "x"], "--beta: invalid float value 'x'"),
    ], ids=["approx-r", "approx-format", "approx-xi", "lemma6-beta"])
    def test_malformed_flag_value(self, capsys, tmp_path, argv, line):
        # one error line naming the flag, of the same shape as for the same
        # value from a config file, which names the key
        assert run(capsys, argv) == (2, "", f"error: flag {line}\n")
        flag, value = argv[-2:]
        key = flag.lstrip("-")
        (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
        got = run(capsys, argv[:-2] + ["--config", str(tmp_path / "cfg.json")])
        assert got == (2, "", f"error: config key {key!r}{line.removeprefix(flag)}\n")

    @pytest.mark.parametrize("argv, line", [
        (["approx", "--r"], "argument --r: expected one argument"),
        (["lemma", "9"], "argument which: invalid choice: '9'"),
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
    ], ids=["flag-without-value", "unknown-scan", "no-command", "unknown-command"])
    def test_usage_error(self, capsys, argv, line):
        # what the parser refuses is bad configuration in one error line,
        # with no usage block
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {line}") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--help"], ["lemma", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        # help is no usage error: argparse prints it to stdout and exits 0
        code, out, err = run_or_exit(capsys, argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: bernblend")

    @pytest.mark.skipif(resource is None, reason="needs the resource module")
    def test_out_of_memory_exits_3(self):
        # under a 300 MiB address-space limit the degree-10^6 sweep fails
        # its first large allocation: exit 3 and one line, no traceback;
        # the allocation's size moves with the limit, so it is not checked
        limit = 300 * 2 ** 20
        src = pathlib.Path(bernblend.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "bernblend", "approx", "--r", "3", "--n-list", "1000000"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1"),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: out of memory:")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")

    @pytest.mark.parametrize("workload", ["singular-sweep", "basis-layer"])
    def test_benchmark_commands_run(self, capsys, monkeypatch, workload):
        # the benchmark's own CLI runs read only flags of their command
        inputs = load_by_path(monkeypatch, ROOT / "perfbench" / "inputs.py")
        argvs = inputs.cli_commands(inputs.make_inputs(workload, 0))
        for argv in argvs.values():
            code, out, err = run(capsys, argv)
            assert (code, err) == (0, ""), argv
            assert out

    @pytest.mark.parametrize("argv", [["approx"], ["modulus"], ["lemma", "5"]])
    def test_weight_underflow(self, capsys, argv):
        # |x - xi|^alpha is 0.0 on all of [0, 1]: bad configuration, not a
        # table of zeros
        code, out, err = run(capsys, argv + ["--alpha", "1e308"])
        assert (code, out) == (2, "")
        assert err == "error: weight |x - 0.513|^1e+308 underflows to 0 on all of [0,1]\n"

    def test_bad_format_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "yaml"}))
        code, _, err = run(capsys, ["approx", "--config", str(cfg)] + QUICK_APPROX)
        assert code == 2

    @pytest.mark.parametrize("command, text", [
        ("approx", '{"n_list": 5}'),
        ("approx", '{"n_list": null}'),
        ("approx", '{"n_list": [64, 128.5]}'),
        ("approx", '{"n_list": [64, true]}'),
        ("approx", '{"xi": [1]}'),
        ("approx", '{"grid": null}'),
        ("approx", '{"grid": 1e400}'),
        ("approx", '{"r": 2.7}'),
        ("lemma 1", '{"u": "x"}'),
        ("coeffs", '{"n": true}'),
        ("coeffs", '{"r": 2.7}'),
    ])
    def test_bad_config_value(self, capsys, tmp_path, command, text):
        # each value is parsed as its flag's text would be: never truncated,
        # never a traceback
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, out, err = run(capsys, command.split() + ["--config", str(cfg)])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "Traceback" not in err

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _, err = run(capsys, ["approx", "--config", str(cfg)] + QUICK_APPROX)
        assert code == 2
        assert "config keys not used" in err

    def test_missing_subcommand(self, capsys):
        assert run(capsys, []) == (
            2, "", "error: the following arguments are required: command\n")

    def test_unwritable_out_path(self, capsys, tmp_path):
        code, _, err = run(capsys, [
            "approx", "--out", str(tmp_path / "no_dir" / "x.csv")] + QUICK_APPROX)
        assert code == 1


# values the fuzz test draws for each flag read, as (good, bad): good values
# are in range and small, so a run that does work stays quick; bad ones sit
# at the edges, past the caps, or are non-finite or malformed
_VALUES = {
    "r": (["1", "2", "3", "8"],
          ["0", "-1", "9", "3000", "100000000", "2.5", "nan", "inf", ""]),
    "n": (["32", "1", "1000000000000"], ["0", "-5", "64.5", "nan", "inf"]),
    "n_list": (["64,128", "32", "96"],
               ["128,64", "64,64", "0", "-4", "64.5", "nan", "inf", "", ",",
                "64,,128", "x", "1000001", "64,100000000", "1e9"]),
    "grid": (["401", "16"],
             ["15", "0", "-1", "401.5", "nan", "inf", "2000000", "100000000"]),
    "xi": (["0.513", "0.5", "0.3"],
           ["1e-160", "1e-5", "0", "1", "-0.1", "nan", "inf"]),
    "alpha": (["1", "2", "0.5"], ["0", "-1", "nan", "inf", "1e308"]),
    "function": (["smooth_sin:freq=1", "smooth_poly:coeffs=0;1",
                  "singular_power:beta=0.5", "singular_osc:beta=0.5,freq=1"],
                 ["singular_power:beta=nan", "singular_power:beta=5", "bogus",
                  "smooth_sin:", ":", "smooth_sin:freq", "smooth_sin:freq=x", ""]),
    "t": (["0.125", "0.01", "1e-300"], ["0", "-1", "0.2", "nan", "inf"]),
    "lam": (["0", "1", "0.5"], ["-0.1", "2", "nan", "inf"]),
    "u": (["1", "0", "2"], ["-1", "nan", "inf", "1e308"]),
    "beta": (["2", "1", "0.5"], ["0", "-1", "nan", "inf", "1e308"]),
    "format": (["csv", "json"], ["xml"]),
}
_VALUES["v"] = _VALUES["u"]
# past the caps (r <= 8, n <= 10^6, grid <= 10^6): these must exit 2
_PAST_CAP = {"9", "3000", "100000000", "1000001", "64,100000000", "2000000"}
# huge finite values, drawn alone so a run reaches the numerical path
_HUGE = ["1e308", "-1e308", "1e300"]
_HUGE_KEYS = {"u", "v", "beta", "alpha"}
_COMMON_KEYS = ["xi", "alpha", "grid", "format", "out"]
# the flags each command reads; a spec of the test's own, apart from cli.py
_READS = {
    ("coeffs",): ["r", "n"],
    ("psi",): ["r"],
    ("approx",): _COMMON_KEYS + ["r", "function", "n_list"],
    ("compare",): _COMMON_KEYS + ["r", "function", "n_list"],
    ("bernstein-ineq",): _COMMON_KEYS + ["r", "function", "n_list", "lam"],
    ("modulus",): _COMMON_KEYS + ["r", "function", "t"],
    ("lemma", "1"): _COMMON_KEYS + ["n_list", "u", "v"],
    ("lemma", "3"): _COMMON_KEYS + ["n_list", "r", "function"],
    ("lemma", "5"): _COMMON_KEYS + ["n_list"],
    ("lemma", "6"): _COMMON_KEYS + ["n_list", "beta"],
}
_FLAG = {"n_list": "--n-list", "lam": "--lambda"}


def _json_values(text):
    """Config file values for flag text: the text itself, or a JSON number."""
    for kind in (int, float):
        try:
            return [text, kind(text)]
        except ValueError:
            pass
    return [text]


@st.composite
def _invocations(draw):
    """(argv, config or None, whether some value read is past a cap,
    the spelling of a flag the command does not read or None).

    At most two of the values read are bad, so most runs get past the
    first check; the rest are good or left to their defaults.  Or one
    value is huge and all others are good or defaults, with no config
    file, so no NaN or cap exits first.  In about one draw in five a good
    value for a flag the command does not read is added.  ``--out`` is
    never drawn: the runs write to stdout.
    """
    command = draw(st.sampled_from(sorted(_READS)))
    keys = [key for key in _READS[command] if key in _VALUES]
    huge = sorted(_HUGE_KEYS.intersection(keys))
    huge = draw(st.sampled_from(huge)) if huge and draw(st.booleans()) else None
    bad = [] if huge else draw(st.lists(st.sampled_from(keys), unique=True, max_size=2))
    flags = {}
    for key in keys:
        good, wrong = _VALUES[key]
        flags[key] = draw(st.sampled_from(_HUGE) if key == huge
                          else st.sampled_from(wrong) if key in bad
                          else st.none() | st.sampled_from(good))
    argv = list(command)
    for key, text in flags.items():
        if text is not None:
            argv += [_FLAG.get(key, "--" + key), text]
    past_cap = any(flags[key] in _PAST_CAP for key in keys if key != "format")
    config = None
    if not huge and draw(st.booleans()):
        config = {}
        for key in draw(st.lists(st.sampled_from(keys), unique=True, max_size=3)):
            text = draw(st.sampled_from(sum(_VALUES[key], [])))
            config[key] = draw(st.sampled_from(
                _json_values(text) + [None, True, [64, 128], {}]))
            # a flag's value wins over the file's, which is then not read
            if flags[key] is None and str(config[key]) in _PAST_CAP:
                past_cap = True
        if draw(st.booleans()):
            config["bogus"] = 1
    unread = None
    if draw(st.integers(0, 4)) == 0:
        key = draw(st.sampled_from(sorted(set(_VALUES) - set(keys))))
        unread = _FLAG.get(key, "--" + key)
        argv += [unread, draw(st.sampled_from(_VALUES[key][0]))]
    return argv, config, past_cap, unread


class TestFuzz:
    @settings(max_examples=400)
    @given(case=_invocations())
    def test_every_invocation_exits_cleanly(self, case, tmp_path_factory):
        # any mix of flag and config values gives exit 0, 2 or 3 with no
        # traceback, and a value past a cap or a flag the command does not
        # read exits 2 before any work
        argv, config, past_cap, unread = case
        if config is not None:
            path = tmp_path_factory.getbasetemp() / "fuzz.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            # a numpy warning on the way to an exit is an error of its own
            warnings.simplefilter("error", RuntimeWarning)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        err = err.getvalue()
        assert code in (0, 2, 3), (argv, config, err)
        assert "Traceback" not in err
        if code:
            assert err.startswith(("error:", "usage:")), (argv, config, err)
        if past_cap or unread:
            assert code == 2, (argv, config, err)


def _quick_argv(command, tmp_path):
    """``command`` with a quick good value for every flag it reads, per
    ``_READS``, and an empty config file."""
    (tmp_path / "empty.json").write_text("{}")
    argv = list(command) + ["--config", str(tmp_path / "empty.json")]
    for key in _READS[command]:
        value = str(tmp_path / "out.csv") if key == "out" else _VALUES[key][0][0]
        argv += [_FLAG.get(key, "--" + key), value]
    return argv


@pytest.mark.parametrize("command", sorted(_READS), ids=" ".join)
def test_parser_reads_exactly_the_spec(capsys, tmp_path, command):
    # every flag of _READS plus --config is taken together, and each other
    # flag, added alone, exits 2 naming itself
    argv = _quick_argv(command, tmp_path)
    assert run(capsys, argv)[::2] == (0, "")
    for key in sorted((set(_VALUES) | {"out"}) - set(_READS[command])):
        flag = _FLAG.get(key, "--" + key)
        code, out, err = run_or_exit(capsys, argv + [flag, "1"])
        assert (code, out) == (2, ""), flag
        errors = [ln for ln in err.splitlines() if "error:" in ln]
        assert len(errors) == 1 and flag in errors[0], err


def test_digest_runs_every_command(monkeypatch):
    # scripts/cli_digest.py guards the printed bytes of each subcommand and
    # lemma scan only if it runs them all
    digest = load_by_path(monkeypatch, ROOT / "scripts" / "cli_digest.py")
    runs = {" ".join(argv) for argv in digest.RUNS}
    assert set(cli._COMMANDS) <= runs
