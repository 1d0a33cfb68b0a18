import json
import math

import pytest

from weiltrace import ExpressionError, LogBump, LogGaussian, parse_function
from weiltrace.cli import main
from weiltrace.exprs import _BUILTINS, _CONSTRUCTORS, format_function


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
    assert parse_function(format_function(f)) == f


@pytest.mark.parametrize("bad", [
    "loggauss(1,0,1,4)", "loggauss(q=3)", "unknown(1)", "nope",
    "loggauss(1,0,-1)", "loggauss(1,0,1) + 2", "__import__('os')",
    "loggauss(a=1, a=2)",
])
def test_parse_rejects(bad):
    with pytest.raises(ExpressionError):
        parse_function(bad)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _run(tmp_path, *argv):
    out = tmp_path / "report.json"
    status = main([*argv, "--out", str(out)])
    return status, json.loads(out.read_text())


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
    ("check-phi-identity", "--phi-width", "0"),
])
def test_cli_out_of_range_value_is_config_error(tmp_path, argv):
    status, report = _run(tmp_path, *argv)
    assert status == 2
    assert report["outputs"]["error_type"] == "ValueError"


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
