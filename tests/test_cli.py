import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from weiltrace import (ExpressionError, LogBump, LogGaussian, parse_function,
                       traces)
from weiltrace import cli
from weiltrace.cli import _jsonable, main
from weiltrace.exprs import _BUILTINS, _CONSTRUCTORS


# ---------------------------------------------------------------------------
# expression parsing
# ---------------------------------------------------------------------------

def test_parse_loggauss_positional_and_named():
    f = parse_function("loggauss(1,0,1)")
    assert isinstance(f, LogGaussian)
    assert (f.amplitude, f.center, f.width) == (1.0, 0.0, 1.0)
    g = parse_function("loggauss(a=2, mu=-0.5, sigma=1.5)")
    assert (g.amplitude, g.center, g.width) == (2.0, -0.5, 1.5)
    h = parse_function("loggauss(2, sigma=3)")
    assert (h.amplitude, h.center, h.width) == (2.0, 0.0, 3.0)


def test_parse_logbump():
    f = parse_function("logbump(a=1, lo=0.5, hi=2)")
    assert isinstance(f, LogBump)
    assert (f.lo, f.hi) == (0.5, 2.0)


def test_parse_builtins():
    g = parse_function("gauss2")
    assert g(0.0) == pytest.approx(2.0)
    xg = parse_function("xgauss2")
    assert xg(1.0) == pytest.approx(2.0 * math.exp(-math.pi))


def test_parse_defaults_roundtrip():
    f = parse_function("loggauss(a=1,mu=0,sigma=1)")
    assert parse_function("loggauss()") == f


@pytest.mark.parametrize("bad", [
    "loggauss(1,0,1,4)", "loggauss(q=3)", "unknown(1)", "nope",
    "loggauss(1,0,-1)", "loggauss(1,0,1) + 2", "__import__('os')",
    "loggauss(a=1, a=2)",
    # non-finite parameters, and a width whose 2 sigma^2 underflows
    "loggauss(1,0,1e-300)", "loggauss(1e309,0,1)", "loggauss(1,1e309,1)",
    "logbump(1e309,0.5,2,1)", "logbump(1,0.5,1e309,1)",
    "logbump(1,0.5,2,1e309)",
])
def test_parse_rejects(bad):
    with pytest.raises(ExpressionError):
        parse_function(bad)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _strict_constant(name):
    raise ValueError(f"report is not strict JSON: bare {name}")


def _run(tmp_path, *argv):
    out = tmp_path / "report.json"
    status = main([*argv, "--out", str(out)])
    return status, json.loads(out.read_text(),
                              parse_constant=_strict_constant)


def test_cli_zeta(tmp_path):
    status, report = _run(tmp_path, "zeta", "--s", "2,0")
    assert status == 0
    assert report["outputs"]["value"]["re"] == pytest.approx(
        math.pi ** 2 / 6, rel=1e-12)
    assert report["passed"] is True
    assert "wall_time_s" in report
    assert report["inputs"]["s"] == "2,0"


def test_cli_mellin(tmp_path):
    status, report = _run(tmp_path, "mellin", "--f", "loggauss(1,0,1)",
                          "--s", "2,3")
    assert status == 0
    v = report["outputs"]["value"]
    assert complex(v["re"], v["im"]) == pytest.approx(
        complex(0.19756135293330209, -0.0574915768819384821), abs=1e-10)
    assert report["outputs"]["est_error"] >= 0.0


def test_cli_check_poisson(tmp_path):
    status, report = _run(tmp_path, "check-poisson", "--f", "gauss2")
    assert status == 0
    assert report["outputs"]["max_residual"] < 1e-10


def test_cli_check_zspectral_has_no_trunc_flag(tmp_path):
    # The identity has no lattice sum to truncate, so --trunc is not
    # a flag of check-zspectral.
    status, _ = _run(tmp_path, "check-zspectral", "--f", "loggauss(1,0,1)")
    assert status == 0
    assert main(["check-zspectral", "--f", "loggauss(1,0,1)",
                 "--trunc", "n_max=2"]) == 2


def test_cli_verify_has_no_trunc_flag():
    # n_max and tail_tol never reach the prime sum, and p_max and e_max
    # are --primes and --e-max
    assert main(["verify-explicit-formula", "--f", "loggauss(1,0,1)",
                 "--zeros", "auto:60", "--trunc", "n_max=3"]) == 2


@pytest.mark.parametrize("command, lines, status", [
    ("check-zspectral", "f = loggauss(1,0,1)", 2),
    ("check-phi-identity", "", 2),
    ("zeta", "s = 2,0", 2),
    # read where --trunc is a flag: two terms cannot certify the tail
    ("check-poisson", "f = gauss2", 3),
    ("check-twisted-poisson", "f = xgauss2\nmodulus = 5\nindex = 1", 3),
    # the prime cut is set by --primes and --e-max, not by trunc
    ("verify-explicit-formula", "f = loggauss(1,0,1)\nzeros = auto:60", 2),
])
def test_cli_trunc_in_config_file(tmp_path, command, lines, status):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{lines}\ntrunc = n_max=2\n")
    got, report = _run(tmp_path, command, "--config", str(cfg))
    assert got == status
    if status == 2:
        assert report["error_type"] == "ConfigError"
        assert "trunc" in report["error"]
    else:
        assert report["inputs"]["trunc"] == "n_max=2"
        assert report["outputs"]["error_type"] == "TailBoundError"


def test_cli_lchi_catalan(tmp_path):
    status, report = _run(tmp_path, "lchi", "--modulus", "4",
                          "--index", "1", "--s", "2,0")
    assert status == 0
    assert report["outputs"]["value"]["re"] == pytest.approx(
        0.915965594177219015, abs=1e-10)


def test_cli_zeros_and_table(tmp_path):
    table = tmp_path / "zeros.txt"
    status, report = _run(tmp_path, "zeros", "--max-height", "30",
                          "--table-out", str(table))
    assert status == 0
    assert report["outputs"]["count"] == 3
    assert table.exists()


def test_cli_missing_zero_file(tmp_path):
    status, report = _run(tmp_path, "verify-explicit-formula",
                          "--f", "loggauss(1,0,1)",
                          "--zeros", str(tmp_path / "nope.txt"))
    assert status == 2
    assert "error" in report["outputs"]


def test_cli_bad_expression(tmp_path):
    status, report = _run(tmp_path, "check-poisson", "--f", "bogus(1)")
    assert status == 2


def test_cli_config_file_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("s = 3,0\n# a comment\n")
    out = tmp_path / "r1.json"
    assert main(["zeta", "--config", str(cfg), "--out", str(out)]) == 0
    r1 = json.loads(out.read_text())
    assert r1["outputs"]["value"]["re"] == pytest.approx(1.2020569031595943)
    # flag overrides the file value
    assert main(["zeta", "--config", str(cfg), "--s", "2,0",
                 "--out", str(out)]) == 0
    r2 = json.loads(out.read_text())
    assert r2["outputs"]["value"]["re"] == pytest.approx(math.pi ** 2 / 6)


def test_cli_deterministic(tmp_path):
    _, r1 = _run(tmp_path, "check-phi-identity")
    _, r2 = _run(tmp_path, "check-phi-identity")
    r1.pop("wall_time_s"), r2.pop("wall_time_s")
    assert r1 == r2


def test_cli_auto_zero_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("WEILTRACE_CACHE", str(tmp_path))
    status, report = _run(tmp_path, "verify-explicit-formula",
                          "--f", "loggauss(1,0,1)", "--zeros", "auto:30",
                          "--primes", "2000")
    assert status == 0
    cache = tmp_path / "zeros_auto_30.txt"
    assert cache.exists()
    assert report["outputs"]["residual"] < report["outputs"]["total_budget"]
    # second run reuses the cached table
    before = cache.stat().st_mtime_ns
    status, _ = _run(tmp_path, "verify-explicit-formula",
                     "--f", "loggauss(1,0,1)", "--zeros", "auto:30",
                     "--primes", "2000")
    assert status == 0
    assert cache.stat().st_mtime_ns == before


@pytest.mark.parametrize("expr", [f"{name}()" for name in _CONSTRUCTORS]
                         + sorted(_BUILTINS))
def test_cli_verify_every_parsable_function(tmp_path, monkeypatch, expr):
    monkeypatch.setenv("WEILTRACE_CACHE", str(tmp_path))
    status, report = _run(tmp_path, "verify-explicit-formula",
                          "--f", expr, "--zeros", "auto:60")
    assert status in (0, 1, 2, 3)
    assert report["command"] == "verify-explicit-formula"
    assert "outputs" in report


def test_cli_verify_logbump(tmp_path, monkeypatch):
    monkeypatch.setenv("WEILTRACE_CACHE", str(tmp_path))
    status, report = _run(tmp_path, "verify-explicit-formula",
                          "--f", "logbump(1,0.5,2,1)", "--zeros", "auto:60",
                          "--primes", "10000")
    assert status == 0
    assert report["outputs"]["residual"] <= report["outputs"]["total_budget"]


@pytest.mark.parametrize("expr", ["loggauss(1,0,0.04)", "loggauss(1,0.5,0.03)",
                                  "loggauss(1,0,0.02)",
                                  "loggauss(1,0.5,0.015)"])
def test_cli_verify_narrow_log_gaussian(tmp_path, monkeypatch, expr):
    # The zeros above height 60 still matter for these widths, so the
    # budget exceeds the tolerance (exit 1); the archimedean routes agree.
    monkeypatch.setenv("WEILTRACE_CACHE", str(tmp_path))
    status, report = _run(tmp_path, "verify-explicit-formula",
                          "--f", expr, "--zeros", "auto:60",
                          "--primes", "10000")
    assert status == 1
    outputs = report["outputs"]
    assert "error" not in outputs
    assert outputs["residual"] <= outputs["total_budget"]
    assert outputs["budgets"]["route_disagreement"] < 1e-9
    assert outputs["budgets"]["archimedean_quadrature"] < 2e-9


@pytest.mark.parametrize("expr", ["loggauss(1,-5,1)", "loggauss(1,-4,0.15)"])
def test_cli_verify_mass_near_zero(tmp_path, monkeypatch, expr):
    # f's mass near x = 0 used to make the archimedean routes disagree
    monkeypatch.setenv("WEILTRACE_CACHE", str(tmp_path))
    status, report = _run(tmp_path, "verify-explicit-formula",
                          "--f", expr, "--zeros", "auto:60",
                          "--primes", "10000")
    assert status == 0
    assert report["outputs"]["budgets"]["route_disagreement"] < 1e-6


def test_cli_stage_timings_and_work(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("WEILTRACE_CACHE", str(tmp_path))
    status, report = _run(tmp_path, "verify-explicit-formula",
                          "--f", "loggauss(1,0,1)", "--zeros", "auto:60",
                          "--primes", "10000", "-v")
    assert status == 0
    timings, work = report["timings"], report["work"]
    assert set(timings) == {"find_zeros", "spectral", "primes",
                            "archimedean"}
    assert sum(timings.values()) <= report["wall_time_s"]
    assert work["primes"] == 1229
    table = tmp_path / "zeros_auto_60.txt"
    zeros = [line for line in table.read_text().splitlines()
             if line and not line.startswith("#")]
    assert work["zeros_summed"] == len(zeros) == 13
    err = capsys.readouterr().err
    assert "archimedean" in err and "prime_powers" in err
    # a cached table is not recomputed, and the stages start from zero
    _, again = _run(tmp_path, "verify-explicit-formula",
                    "--f", "loggauss(1,0,1)", "--zeros", "auto:60",
                    "--primes", "10000")
    assert "find_zeros" not in again["timings"]
    assert sum(again["timings"].values()) <= again["wall_time_s"]

    status, report = _run(tmp_path, "check-trace-lemma",
                          "--f0", "loggauss(1,0,0.7)",
                          "--f1", "loggauss(1,0.3,0.9)", "--n", "1024")
    assert status == 0
    assert list(report["timings"]) == ["trace_kernel", "trace_rhs"]
    assert sum(report["timings"].values()) <= report["wall_time_s"]
    assert report["work"] == {"trace_n": 1024, "trace_rhs_points": 1721}

    status, report = _run(tmp_path, "zeros", "--max-height", "60")
    assert status == 0
    assert list(report["timings"]) == ["find_zeros"]
    work = report["work"]
    assert work["scan_points"] == 1201
    # the scan's partial sums are one (64 x 60) @ (60 x 19) product
    assert (work["scan_blocks"], work["scan_terms"]) == (19, 60)
    # secant rounds close a 0.05 scan bracket below the 1e-9 precision,
    # probing each of the 13 brackets at two points per round
    assert work["refine_rounds"] <= 4
    assert (work["scan_points"] < work["hardy_z_points"]
            <= work["scan_points"] + 2 * 13 * 4)


def test_cli_closed_pipe_no_traceback():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "weiltrace.cli", "zeros", "--max-height", "60"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()         # the reader is gone before any output
    err = proc.stderr.read().decode()
    assert proc.wait() == 0
    assert "Traceback" not in err


def _cli_process(*argv, timeout=60):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run([sys.executable, "-m", "weiltrace.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


@pytest.mark.parametrize("argv", [
    ("lchi", "--modulus", "0", "--index", "0", "--s", "2"),
    ("check-twisted-poisson", "--f", "gauss2", "--modulus", "0",
     "--index", "0"),
])
def test_cli_zero_modulus_is_config_error(argv):
    # In a subprocess with a timeout, so that a hang fails the test.
    proc = _cli_process(*argv)
    assert proc.returncode == 2
    outputs = json.loads(proc.stdout)["outputs"]
    assert outputs["error_type"] == "ValueError"
    assert "modulus must be a positive integer" in outputs["error"]


def test_cli_parser_keeps_no_state(tmp_path, capsys):
    # one call's flags, config file or error leave nothing for the next
    out = tmp_path / "r.json"

    def call(*argv):
        status = main([*argv, "--out", str(out)])
        report = json.loads(out.read_text())
        return status, report, capsys.readouterr()

    _, _, loud = call("zeta", "--s", "2,0", "-v")
    assert "wall_time_s" in loud.err
    _, quiet, streams = call("zeta", "--s", "3,0")
    assert streams.out == streams.err == ""
    assert "verbose" not in quiet["inputs"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("s = 3,0\ntol = 1e-3\n")
    _, with_cfg, _ = call("zeta", "--config", str(cfg))
    assert with_cfg["inputs"]["tol"] == "1e-3"
    _, without, _ = call("zeta", "--s", "2,0")
    assert without["inputs"] == {"command": "zeta", "s": "2,0"}
    assert main(["zeta", "--bogus"]) == 2
    capsys.readouterr()
    status, again, _ = call("check-phi-identity")
    assert status == 0
    proc = _cli_process("check-phi-identity")
    assert proc.returncode == 0
    assert again["outputs"] == json.loads(proc.stdout)["outputs"]


# argv with a required flag left out -> the flag the error must name
_MISSING_FLAG = {
    ("lchi", "--index", "0", "--s", "2"): "--modulus",
    ("check-twisted-poisson", "--f", "gauss2", "--modulus", "5"): "--index",
    ("zeta",): "--s",
    ("xi",): "--s",
    ("mellin", "--f", "gauss2"): "--s",
}

# argv with a --trunc field no lattice sum reads -> the field it names
# (the prime cut of verify-explicit-formula is --primes and --e-max)
_UNKNOWN_FIELD = {
    ("check-poisson", "--f", "gauss2", "--trunc", "p_max=5"): "'p_max'",
}


@pytest.mark.parametrize("argv", [
    ("zeros", "--max-height", "150"),
    ("check-trace-lemma", "--f0", "loggauss(1,0,0.7)",
     "--f1", "loggauss(1,0.3,0.9)", "--n", "8"),
    ("lchi", "--modulus", "4", "--index", "9", "--s", "2,0"),
    ("check-zspectral", "--f", "loggauss(1,0,1)", "--s", "0.5,0"),
    ("check-trace-lemma", "--f0", "loggauss(1,0,0.7)",
     "--f1", "loggauss(1,0.3,0.9)", "--n", "0"),
    ("check-trace-lemma", "--f0", "loggauss(1,0,0.7)",
     "--f1", "loggauss(1,0.3,0.9)", "--window", "0"),
    ("check-trace-lemma", "--f0", "loggauss(1,0,0.7)",
     "--f1", "loggauss(1,0.3,0.9)", "--phi-width", "0"),
    ("check-trace-lemma", "--f0", "loggauss(1,0,0.7)",
     "--f1", "loggauss(1,0.3,0.9)", "--window", "nan"),
    ("check-trace-lemma", "--f0", "loggauss(1,0,0.7)",
     "--f1", "loggauss(1,0.3,0.9)", "--window", "inf"),
    ("check-trace-lemma", "--f0", "loggauss(1,0,0.7)",
     "--f1", "loggauss(1,0.3,0.9)", "--phi-width", "nan"),
    ("check-phi-identity", "--phi-width", "0"),
    ("check-poisson", "--f", "gauss2", "--x", "0"),
    ("check-poisson", "--f", "gauss2", "--x", "inf"),
    ("check-poisson", "--f", "gauss2", "--x", "-1"),
    ("check-twisted-poisson", "--f", "gauss2", "--modulus", "5",
     "--index", "2", "--x", "0"),
    ("lchi", "--modulus", "-3", "--index", "0", "--s", "2"),
    *_MISSING_FLAG,
    # non-finite points, which used to pass with NaN values
    ("zeta", "--s", "nan"),
    ("zeta", "--s", "inf,0"),
    ("mellin", "--f", "loggauss(1,0,1)", "--s", "nan"),
    ("lchi", "--modulus", "3", "--index", "1", "--s", "nan"),
    ("xi", "--s", "1,inf"),
    # a NaN or negative tol fails every check, an infinite one none
    ("check-poisson", "--f", "gauss2", "--tol", "nan"),
    ("check-poisson", "--f", "gauss2", "--tol", "-1"),
    ("check-zspectral", "--f", "loggauss(1,0,1)", "--tol", "inf"),
    ("verify-explicit-formula", "--f", "loggauss(1,0,1)",
     "--zeros", "auto:60", "--tol", "0"),
    # a NaN tail_tol certified nothing, an infinite one every tail
    ("check-poisson", "--f", "gauss2", "--trunc", "tail_tol=nan"),
    ("check-poisson", "--f", "gauss2", "--trunc", "tail_tol=inf"),
    *_UNKNOWN_FIELD,
])
def test_cli_out_of_range_value_is_config_error(tmp_path, argv):
    status, report = _run(tmp_path, *argv)
    assert status == 2
    outputs = report["outputs"]
    if argv in _MISSING_FLAG:
        assert outputs["error_type"] == "ConfigError"
        assert f"requires {_MISSING_FLAG[argv]}" in outputs["error"]
    elif argv in _UNKNOWN_FIELD:
        assert outputs["error_type"] == "ConfigError"
        assert _UNKNOWN_FIELD[argv] in outputs["error"]
    else:
        assert outputs["error_type"] == "ValueError"


@pytest.mark.parametrize("x", ["nan", "inf"])
def test_cli_phi_identity_names_a_non_finite_x(tmp_path, x):
    # the message was the grid's "bad grid spec"
    status, report = _run(tmp_path, "check-phi-identity", "--x", x)
    assert status == 2
    assert (report["outputs"]["error"]
            == f"x must be positive and finite, got {x}")


def test_cli_error_outside_config_checks_gives_full_report(tmp_path):
    # An unordered zero table raises OrderViolationError, which is
    # neither a ConfigError nor a certification failure: exit 2, and the
    # report still carries the command, inputs, verdict and timings.
    table = tmp_path / "zeros.txt"
    table.write_text("21.0\n14.1\n")
    status, report = _run(tmp_path, "verify-explicit-formula",
                          "--f", "loggauss(1,0,1)", "--zeros", str(table))
    assert status == 2
    assert report["command"] == "verify-explicit-formula"
    assert report["inputs"]["zeros"] == str(table)
    assert report["passed"] is False
    assert "timings" in report
    assert report["outputs"]["error_type"] == "OrderViolationError"


# argv whose first lattice rung overflows a float: a subnormal x ended in
# an OverflowError traceback (exit 1)
_TAIL_BOUND = (
    ("check-poisson", "--f", "gauss2", "--x", "1e-310"),
    ("check-twisted-poisson", "--f", "xgauss2", "--modulus", "7",
     "--index", "1", "--x", "1e-310"),
)


@pytest.mark.parametrize("argv", [
    ("mellin", "--f", "loggauss(1,0,4)", "--s", "3"),
    ("check-trace-lemma", "--f0", "loggauss(1,0,0.7)",
     "--f1", "loggauss(1,0.3,0.9)", "--window", "2"),
    # one function has no mass on the lag window: both sides would be 0
    ("check-trace-lemma", "--f0", "loggauss(1,0,1)",
     "--f1", "loggauss(1,700,1)"),
    ("check-trace-lemma", "--f0", "logbump(1,1e10,1e11,1)",
     "--f1", "loggauss(1,0,1)"),
    # f1 is one nonzero lag sample: both sides would be 0 for any f0
    ("check-trace-lemma", "--f0", "loggauss(1,0,1)",
     "--f1", "loggauss(1,0,1e-10)"),
    # e^{s u} overflows: the samples were NaN, and mellin passed with a
    # NaN value
    ("mellin", "--f", "loggauss(1,0,1)", "--s", "1e300"),
    ("check-zspectral", "--f", "loggauss(1,0,1)", "--s", "1e300"),
    # the products overflow: the residual was NaN, with five warnings
    ("check-trace-lemma", "--f0", "loggauss(1e200,0,1)",
     "--f1", "loggauss(1e200,0.3,0.9)"),
    # phi's transition is wider than the window
    ("check-trace-lemma", "--f0", "loggauss(1,0,0.7)",
     "--f1", "loggauss(1,0.3,0.9)", "--window", "8", "--phi-width", "12"),
    # f0(x) f1(1/x) is visible past |ln x| = 60
    ("check-trace-lemma", "--f0", "loggauss(1,55,1)",
     "--f1", "loggauss(1,-55,1)", "--window", "70", "--n", "16384"),
    # 1e-200 * 1e-200 underflows: both sides were 0 and the check passed
    ("check-trace-lemma", "--f0", "loggauss(1e-200,0,0.7)",
     "--f1", "loggauss(1e-200,0.3,0.9)"),
    # every sample is finite, but the closed-form Mellin transform
    # overflows at s = 1: the residual was inf, with a warning
    ("verify-explicit-formula", "--f", "loggauss(1e300,20,1)",
     "--zeros", "auto:60", "--primes", "10000"),
    *_TAIL_BOUND,
])
@pytest.mark.filterwarnings("error")
def test_cli_window_error_is_certification_failure(tmp_path, capfd, argv):
    status, report = _run(tmp_path, *argv)
    assert status == 3
    assert report["outputs"]["error_type"] == (
        "TailBoundError" if argv in _TAIL_BOUND else "WindowError")
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("wrong_sign, status", [(False, 0), (True, 1)])
def test_cli_trace_tolerance_scales_with_amplitude(tmp_path, monkeypatch,
                                                  wrong_sign, status):
    # with amplitudes 1e-4, |tau| ~ 1e-9 is below the 1e-6 tolerance, so
    # a right-hand side of the wrong sign, trace_rhs(f1, f0) = -tau, passed
    if wrong_sign:
        rhs = traces.trace_rhs
        monkeypatch.setattr(traces, "trace_rhs", lambda f0, f1: rhs(f1, f0))
    got, report = _run(tmp_path, "check-trace-lemma",
                       "--f0", "loggauss(1e-4,0,0.7)",
                       "--f1", "loggauss(1e-4,0.3,0.9)")
    assert got == status
    out = report["outputs"]
    assert out["tolerance"] <= 1e-6 * 1e-8
    assert (out["residual"] < 1e-20) is not wrong_sign


@pytest.mark.parametrize("argv", [
    ("mellin", "--f", "loggauss(1,800,1)", "--s", "0.5,1"),
    ("verify-explicit-formula", "--f", "loggauss(1,800,1)",
     "--zeros", "auto:60", "--primes", "10000"),
    ("verify-explicit-formula", "--f", "logbump(1,1e30,1e31,1)",
     "--zeros", "auto:60", "--primes", "10000"),
])
def test_cli_mass_outside_mellin_window(tmp_path, monkeypatch, argv):
    # every sample in the Mellin window is 0, which used to read as a
    # transform of 0 with no error (and W_infty = 0)
    monkeypatch.setenv("WEILTRACE_CACHE", str(tmp_path))
    status, report = _run(tmp_path, *argv)
    assert status == 3
    assert report["outputs"]["error_type"] == "WindowError"
    assert "no mass" in report["outputs"]["error"]


@pytest.mark.filterwarnings("error")
def test_cli_mass_outside_mellin_window_warns_nothing(tmp_path, monkeypatch):
    # W_infty's window check runs before the spectral side, whose closed
    # form Mellin transform would overflow for this f
    monkeypatch.setenv("WEILTRACE_CACHE", str(tmp_path))
    status, report = _run(tmp_path, "verify-explicit-formula",
                          "--f", "loggauss(1,800,1)", "--zeros", "auto:60",
                          "--primes", "10000")
    assert status == 3
    assert report["outputs"]["error_type"] == "WindowError"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, reason", [
    (("verify-explicit-formula", "--f", "loggauss(1,0.3,1e-160)",
      "--zeros", "auto:60"), "holds no mass"),
    (("mellin", "--f", "loggauss(1,0.3,1e-160)", "--s", "0.5,1"),
     "holds no mass"),
    (("check-trace-lemma", "--f0", "loggauss(1,0,1)",
      "--f1", "loggauss(1,0.3,1e-160)"), "holds no mass"),
    (("check-trace-lemma", "--f0", "loggauss(1,0,1)",
      "--f1", "loggauss(1,0,1e-160)"), "point mass"),
])
def test_cli_tiny_width_warns_nothing(tmp_path, monkeypatch, argv, reason):
    # (u - mu)^2 / 2 sigma^2 overflows for sigma below about 1e-150
    monkeypatch.setenv("WEILTRACE_CACHE", str(tmp_path))
    status, report = _run(tmp_path, *argv)
    assert status == 3
    assert report["outputs"]["error_type"] == "WindowError"
    assert reason in report["outputs"]["error"]


@pytest.mark.parametrize("argv", [
    ("verify-explicit-formula", "--zeros", "auto:60", "--f"),
    ("check-trace-lemma", "--f1", "loggauss(1,0.3,0.9)", "--f0"),
])
@pytest.mark.parametrize("name", sorted(_BUILTINS))
def test_cli_rejects_function_on_real_line(tmp_path, monkeypatch, argv,
                                           name):
    monkeypatch.setenv("WEILTRACE_CACHE", str(tmp_path))
    status, report = _run(tmp_path, *argv, name)
    assert status == 2
    assert report["outputs"]["error_type"] == "ConfigError"
    assert "(0, inf)" in report["outputs"]["error"]


def test_report_values_are_strict_json(tmp_path):
    # np.float64 is a float, whose repr was "np.float64(nan)", and the
    # parts of a complex were written as bare NaN / Infinity
    nan, inf = float("nan"), float("inf")
    report = {"a": np.float64(nan), "b": complex(nan, 1.0),
              "c": np.complex128(complex(1.0, -inf)), "d": [inf, 2.5]}
    text = json.dumps(_jsonable(report))
    assert json.loads(text, parse_constant=_strict_constant) == {
        "a": "nan", "b": {"re": "nan", "im": 1.0},
        "c": {"re": 1.0, "im": "-inf"}, "d": ["inf", 2.5]}
    # a rejected non-finite input is echoed as a string
    status, report = _run(tmp_path, "check-trace-lemma",
                          "--f0", "loggauss(1,0,0.7)",
                          "--f1", "loggauss(1,0.3,0.9)", "--window", "nan")
    assert status == 2
    assert report["inputs"]["window"] == "nan"


# ---------------------------------------------------------------------------
# the flag table and its one-pass parser
# ---------------------------------------------------------------------------

# (argv, the inputs echo argparse gave): README's examples and one argv of
# each benchmark workload's shape.  The echo keeps the flag table's key
# order, --modulus, --index, --n and --primes as ints, --window and
# --max-height as floats, and every other value as typed.
_INPUTS_ECHO = [
    (("zeta", "--s", "2,0"), '{"command": "zeta", "s": "2,0"}'),
    (("xi", "--s", "0.5,14.134725"),
     '{"command": "xi", "s": "0.5,14.134725"}'),
    (("lchi", "--modulus", "4", "--index", "1", "--s", "2,0"),
     '{"command": "lchi", "modulus": 4, "index": 1, "s": "2,0"}'),
    (("mellin", "--f", "loggauss(a=1,mu=0,sigma=1)", "--s", "2,3"),
     '{"command": "mellin", "f": "loggauss(a=1,mu=0,sigma=1)", '
     '"s": "2,3"}'),
    (("zeros", "--max-height", "60", "--table-out", "zeros60.txt"),
     '{"command": "zeros", "max_height": 60.0, '
     '"table_out": "zeros60.txt"}'),
    (("check-poisson", "--f", "gauss2"),
     '{"command": "check-poisson", "f": "gauss2"}'),
    (("check-zspectral", "--f", "loggauss(1,0,1)", "--s", "2,5"),
     '{"command": "check-zspectral", "f": "loggauss(1,0,1)", "s": "2,5"}'),
    (("check-twisted-poisson", "--f", "xgauss2", "--modulus", "4",
      "--index", "1"),
     '{"command": "check-twisted-poisson", "f": "xgauss2", "modulus": 4, '
     '"index": 1}'),
    (("check-trace-lemma", "--f0", "loggauss(1,0,0.7)",
      "--f1", "loggauss(1,0.3,0.9)", "--n", "2048", "--window", "8"),
     '{"command": "check-trace-lemma", "f0": "loggauss(1,0,0.7)", '
     '"f1": "loggauss(1,0.3,0.9)", "n": 2048, "window": 8.0}'),
    (("check-phi-identity", "--x", "0.5,1,2.718"),
     '{"command": "check-phi-identity", "x": "0.5,1,2.718"}'),
    (("verify-explicit-formula", "--f", "loggauss(1,0,1)",
      "--zeros", "auto:60", "--primes", "10000"),
     '{"command": "verify-explicit-formula", "f": "loggauss(1,0,1)", '
     '"zeros": "auto:60", "primes": 10000}'),
    # the explicit, trace and lattice workloads
    (("verify-explicit-formula", "--f", "loggauss(1.0,0.339,0.1811)",
      "--zeros", "auto:120", "--primes", "10000"),
     '{"command": "verify-explicit-formula", '
     '"f": "loggauss(1.0,0.339,0.1811)", "zeros": "auto:120", '
     '"primes": 10000}'),
    (("check-trace-lemma", "--f0", "loggauss(1.0,-0.2194,1.0932)",
      "--f1", "loggauss(1.0,0.1583,0.6785)", "--n", "4096",
      "--window", "8"),
     '{"command": "check-trace-lemma", "f0": "loggauss(1.0,-0.2194,1.0932)"'
     ', "f1": "loggauss(1.0,0.1583,0.6785)", "n": 4096, "window": 8.0}'),
    (("zeros", "--max-height", "60.733"),
     '{"command": "zeros", "max_height": 60.733}'),
    (("lchi", "--modulus", "7", "--index", "5", "--s", "1.7406,-11.6926"),
     '{"command": "lchi", "modulus": 7, "index": 5, '
     '"s": "1.7406,-11.6926"}'),
    (("check-twisted-poisson", "--f", "gauss2", "--modulus", "5",
      "--index", "2", "--x", "1.1742,1.2432,1.4774"),
     '{"command": "check-twisted-poisson", "f": "gauss2", "modulus": 5, '
     '"index": 2, "x": "1.1742,1.2432,1.4774"}'),
    (("check-zspectral", "--f", "loggauss(1,0,1)", "--s", "3.4718,-16.2456"),
     '{"command": "check-zspectral", "f": "loggauss(1,0,1)", '
     '"s": "3.4718,-16.2456"}'),
    (("check-poisson", "--f", "gauss2",
      "--x", "0.2579,0.3563,1.8729,3.1086,3.3841"),
     '{"command": "check-poisson", "f": "gauss2", '
     '"x": "0.2579,0.3563,1.8729,3.1086,3.3841"}'),
]


@pytest.mark.parametrize("argv, echo", _INPUTS_ECHO,
                         ids=[" ".join(a[:1]) for a, _ in _INPUTS_ECHO])
def test_cli_inputs_echo_is_frozen(tmp_path, monkeypatch, argv, echo):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("WEILTRACE_CACHE", str(tmp_path))
    status, report = _run(tmp_path, *argv)
    assert status == 0
    assert json.dumps(report["inputs"]) == echo


@pytest.mark.parametrize("argv, key, value", [
    (("zeta", "--s=2,0"), "s", "2,0"),
    (("zeros", "--max", "30"), "max_height", 30.0),
    (("zeros", "--max=30"), "max_height", 30.0),
    (("check-trace-lemma", "--f0", "loggauss(1,0,0.7)", "--f1",
      "loggauss(1,0.3,0.9)", "--wi", "6", "--n", "8", "--n", "512"),
     "n", 512),
    (("zeta", "--s", "2,0", "--s", "3,0"), "s", "3,0"),
    (("--config", "missing.cfg", "--config", "{cfg}", "zeta"), "s", "3,0"),
])
def test_cli_flag_forms(tmp_path, argv, key, value):
    # --flag=value, a unique prefix, the last of repeated flags, and the
    # common flags before the command
    cfg = tmp_path / "run.cfg"
    cfg.write_text("s = 3,0\n")
    argv = [a.replace("{cfg}", str(cfg)) for a in argv]
    status, report = _run(tmp_path, *argv)
    assert status == 0
    assert report["inputs"][key] == value
    assert type(report["inputs"][key]) is type(value)


@pytest.mark.parametrize("argv", [
    ("-v", "zeta", "--s", "2,0"), ("-vv", "zeta", "--s", "2,0"),
    ("zeta", "--verbose", "--s", "2,0"), ("zeta", "--s", "2,0", "-v", "-v"),
])
def test_cli_verbose_on_either_side_of_the_command(tmp_path, capsys, argv):
    out = tmp_path / "r.json"
    assert main(["--out", str(out), *argv]) == 0
    streams = capsys.readouterr()
    assert json.loads(streams.out) == json.loads(out.read_text())
    assert streams.err.splitlines()[0].split() == ["stage", "seconds"]
    assert "verbose" not in json.loads(streams.out)["inputs"]


def test_cli_negative_point_is_a_value():
    # argparse read '-1,0' as a flag, and printed usage text
    proc = _cli_process("zeta", "--s", "-1,0")
    assert proc.returncode == 0
    value = json.loads(proc.stdout)["outputs"]["value"]
    assert abs(value["re"] + 1 / 12) < 1e-12 and value["im"] == 0.0


@pytest.mark.parametrize("argv, named", [
    (("frobnicate", "--s", "2,0"), "'frobnicate'"),
    ((), "no command"),
    (("--s", "2,0"), "'--s'"),
    (("zeta", "--bogus"), "'--bogus'"),
    (("zeta", "--bogus=1", "--s", "2,0"), "'--bogus'"),
    (("zeta", "-s", "2,0"), "'-s'"),
    (("zeta", "--s", "2,0", "xi"), "'xi'"),
    (("check-trace-lemma", "--f", "loggauss(1,0,1)"), "'--f'"),
    (("zeta", "--s"), "--s"),
    (("zeta", "--s", "--out", "r.json"), "--s"),
    (("check-trace-lemma", "--f0", "loggauss(1,0,1)", "--n", "abc"), "--n"),
    (("lchi", "--modulus", "4.0", "--index", "1", "--s", "2"), "--modulus"),
    (("zeros", "--max-height", "high"), "--max-height"),
])
def test_cli_parse_error_is_a_config_error_report(capsys, argv, named):
    # exit 2 with one JSON report on stdout, the shape of a config-file
    # error, naming the argument; argparse printed usage text on stderr
    assert main(list(argv)) == 2
    streams = capsys.readouterr()
    report = json.loads(streams.out, parse_constant=_strict_constant)
    assert list(report) == ["error", "error_type"]
    assert report["error_type"] == "ConfigError"
    assert named in report["error"]
    assert streams.err == ""


def test_cli_parse_error_exits_2_from_the_console():
    proc = _cli_process("zeta", "--bogus")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error_type"] == "ConfigError"
    assert proc.stderr == ""


@pytest.mark.parametrize("argv", [("-h",), ("--help",), ("-v", "-h", "zeta")])
def test_cli_help_lists_every_command(capsys, argv):
    assert main(list(argv)) == 0
    lines = capsys.readouterr().out.splitlines()
    for command, (_, about, _) in cli._COMMANDS.items():
        assert any(line.split() == [command, *about.split()]
                   for line in lines)
    for flag in ("--config", "--out", "--verbose", "--help"):
        assert any(flag in line for line in lines)


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_cli_command_help_lists_every_flag(capsys, command):
    assert main([command, "-h"]) == 0
    lines = capsys.readouterr().out.splitlines()
    flags = cli._COMMANDS[command][2].split()
    flags += ["--config", "--out", "-v, --verbose", "-h, --help"]
    for flag in flags:
        about = cli._FLAG_TABLE[flag][1]
        assert any(line.strip().startswith(flag) and line.endswith(about)
                   for line in lines), flag
