"""Command-line entry point.

Every command writes a single JSON report (inputs echoed, outputs with
their error estimates, wall time, seconds per stage and work counts) to
``--out`` or stdout; ``-v`` also prints the stages and work counts as a
table on stderr.  Exit status:

* 0 — all residuals within their declared tolerances
* 1 — tolerance failure
* 2 — configuration error (bad flags, unreadable files, bad expressions,
  out-of-range values)
* 3 — numerical-certification failure (tail or window could not certify)

A plain-text config file of ``key = value`` lines may be supplied with
``--config``; command-line flags override file entries.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import sys
import time

import numpy as np

from . import stages
from .errors import (ConfigError, DisagreementError, ToleranceError,
                     WeiltraceError, WindowError)
from .exprs import parse_function
from .explicit import verify_explicit_formula
from .operators import (TruncationSpec, character, poisson_check,
                        twisted_poisson_check, zspectral_check)
from .special import l_chi, xi, zeta
from .traces import AuxiliaryPhi, LogGridSpec, phi_log_identity, \
    toeplitz_trace_check
from .transforms import mellin
from .families import ParityFunction, TestFunction
from .zeros import find_zeros, load_zeros, save_zeros

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_CERTIFICATION = 3

CACHE_ENV = "WEILTRACE_CACHE"


def _jsonable(v):
    """v with every non-finite float, np.float64 and the parts of a
    complex included, as its repr ("nan", "inf"), so reports are strict
    JSON."""
    if isinstance(v, complex):
        return {"re": _jsonable(v.real), "im": _jsonable(v.imag)}
    if isinstance(v, float) and not math.isfinite(v):
        return repr(float(v))
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def _parse_complex(text: str) -> complex:
    """'re' or 're,im' as a complex; ValueError for a non-finite part."""
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) not in (1, 2):
        raise ConfigError(f"cannot parse {text!r} as 're,im'")
    if not all(map(math.isfinite, parts)):
        raise ValueError(f"point {text!r} must be finite")
    return complex(*parts)


def _parse_trunc(text: str | None) -> TruncationSpec:
    kwargs = {}
    if text:
        for item in text.split(","):
            key, _, val = item.partition("=")
            key = key.strip()
            if key not in ("n_max", "tail_tol"):
                raise ConfigError(f"unknown truncation field {key!r}")
            kwargs[key] = float(val) if key == "tail_tol" else int(val)
    return TruncationSpec(**kwargs)


def _required(cfg: dict, key: str):
    """cfg[key]; ConfigError naming the flag when it is unset."""
    value = cfg.get(key)
    if value is None:
        flag = "--" + key.replace("_", "-")
        raise ConfigError(f"{cfg['command']} requires {flag}")
    return value


def _parse_function_on(cfg: dict, key: str, family: type):
    """The function under key; one outside family (TestFunction, on
    (0, inf), or ParityFunction, on R) is a config error."""
    text = _required(cfg, key)
    f = parse_function(text)
    if not isinstance(f, family):
        line = "(0, inf)" if family is TestFunction else "R"
        raise ConfigError(f"{cfg['command']} needs a test function on "
                          f"{line}; {text!r} is not one")
    return f


def _character(cfg: dict):
    return character(int(_required(cfg, "modulus")),
                     int(_required(cfg, "index")))


def _value(cfg: dict, key: str, default):
    """cfg[key], or default when the key is unset (None), so that a 0
    reaches validation instead of turning into the default."""
    value = cfg.get(key)
    return default if value is None else value


def _tolerance(cfg: dict, default: float) -> float:
    """cfg's tol, or default; ValueError unless 0 < tol < inf (a NaN or
    negative tol fails every check, an infinite one passes every one)."""
    tol = float(_value(cfg, "tol", default))
    if not 0 < tol < math.inf:
        raise ValueError(f"--tol must be positive and finite, got {tol!r}")
    return tol


def _resolve_zeros(source: str, out_path: str | None):
    """Zero table from a file path or 'auto:T' with file caching."""
    if source.startswith("auto:"):
        try:
            height = float(source[len("auto:"):])
        except ValueError:
            raise ConfigError(f"bad zero source {source!r}") from None
        cache_dir = os.environ.get(CACHE_ENV) or (
            os.path.dirname(os.path.abspath(out_path)) if out_path
            else os.getcwd())
        cache = os.path.join(cache_dir, f"zeros_auto_{height:g}.txt")
        if os.path.exists(cache):
            table = load_zeros(cache)
            if table.height_bound >= height:
                return table, cache
        table = find_zeros(height)
        os.makedirs(cache_dir, exist_ok=True)
        save_zeros(table, cache)
        return table, cache
    if not os.path.isfile(source):
        raise ConfigError(f"zero file not found: {source}")
    return load_zeros(source), source


def _values_command(cfg: dict) -> tuple[dict, bool]:
    """The command's values at s; WindowError unless each is finite."""
    cmd, s = cfg["command"], _parse_complex(_required(cfg, "s"))
    try:
        with np.errstate(all="ignore"):
            if cmd == "mellin":
                mv = mellin(parse_function(_required(cfg, "f")), s)
                out = {"value": mv.value, "est_error": mv.est_error}
            elif cmd == "xi":    # xi, zeta and gamma_factor
                out = {k: v for k, v in vars(xi(s)).items() if k != "s"}
            else:
                out = {"value": zeta(s) if cmd == "zeta"
                       else l_chi(_character(cfg), s)}
        finite = all(map(cmath.isfinite, out.values()))
    except OverflowError:
        finite = False
    if not finite:
        raise WindowError(f"{cmd} overflows or is not finite at s = {s}")
    return out, True


def _check_command(cfg: dict) -> tuple[dict, bool]:
    cmd = cfg["command"]
    if cmd == "check-poisson":
        tr = _parse_trunc(cfg.get("trunc"))
        f = _parse_function_on(cfg, "f", ParityFunction)
        xs = [float(t) for t in _value(cfg, "x", "0.25,0.5,1,2,4").split(",")]
        tol = _tolerance(cfg, 1e-10)
        residuals = dict(zip(map(str, xs),
                             poisson_check(f, xs, tr).tolist()))
        worst = max(residuals.values())
        return {"residuals": residuals, "max_residual": worst,
                "tolerance": tol}, worst < tol
    if cmd == "check-zspectral":
        f = _parse_function_on(cfg, "f", TestFunction)
        s = _parse_complex(_value(cfg, "s", "2,0"))
        tol = _tolerance(cfg, 1e-8)
        res = zspectral_check(f, s)
        return {"residual": res, "tolerance": tol}, res < tol
    if cmd == "check-twisted-poisson":
        f = _parse_function_on(cfg, "f", ParityFunction)
        chi = _character(cfg)
        tr = _parse_trunc(cfg.get("trunc"))
        xs = [float(t) for t in _value(cfg, "x", "0.5,1,2").split(",")]
        tol = _tolerance(cfg, 1e-7)
        res, kappa = twisted_poisson_check(chi, f, xs, tr)
        residuals = dict(zip(map(str, xs), res.tolist()))
        kappas = dict.fromkeys(residuals, kappa)
        worst = max(residuals.values())
        kappa_defect = max(abs(abs(k) - 1.0) for k in kappas.values())
        ok = worst < tol and kappa_defect < 1e-12
        return {"residuals": residuals, "kappa": kappas,
                "max_residual": worst, "kappa_modulus_defect": kappa_defect,
                "tolerance": tol}, ok
    if cmd == "check-trace-lemma":
        f0 = _parse_function_on(cfg, "f0", TestFunction)
        f1 = _parse_function_on(cfg, "f1", TestFunction)
        phi = AuxiliaryPhi(float(_value(cfg, "phi_width", 1.0)))
        grid = LogGridSpec(n_points=int(_value(cfg, "n", 2048)),
                           half_width=float(_value(cfg, "window", 8.0)))
        tol = _tolerance(cfg, 1e-6)
        res, scale = toeplitz_trace_check(f0, f1, phi, grid)
        tol *= scale
        return {"residual": res, "tolerance": tol}, res < tol
    phi = AuxiliaryPhi(float(_value(cfg, "phi_width", 1.0)))  # phi-identity
    xs = [float(t) for t in _value(cfg, "x", "0.5,1,2.718281828459045"
                                ).split(",")]
    tol = _tolerance(cfg, 1e-10)
    residuals = {str(x): phi_log_identity(phi, x) for x in xs}
    worst = max(residuals.values())
    return {"residuals": residuals, "max_residual": worst,
            "tolerance": tol}, worst < tol


def _zeros_command(cfg: dict) -> tuple[dict, bool]:
    height = float(cfg.get("max_height") or 0.0)
    if not height > 0:
        raise ConfigError("zeros requires --max-height T > 0")
    table = find_zeros(height)
    out = cfg.get("table_out")
    if out:
        try:
            save_zeros(table, out)
        except OSError as exc:
            raise ConfigError(f"cannot write the zero table {out}: "
                              f"{exc.strerror}") from None
    return {"count": len(table.ordinates),
            "ordinates": list(table.ordinates),
            "precision": table.precision,
            "table_path": out}, True


def _verify_command(cfg: dict) -> tuple[dict, bool]:
    f = _parse_function_on(cfg, "f", TestFunction)
    tol = _tolerance(cfg, 1e-4)
    table, table_path = _resolve_zeros(_required(cfg, "zeros"),
                                       cfg.get("out"))
    cuts = {"p_max": cfg.get("primes"), "e_max": cfg.get("e_max")}
    tr = TruncationSpec(**{k: int(v) for k, v in cuts.items()
                           if v is not None})
    report = verify_explicit_formula(f, table, tr, budget_check=False)
    out = report.as_dict()
    out["zero_table"] = table_path
    out["tolerance"] = tol
    ok = report.residual < tol and report.residual < report.total_budget
    return out, ok


# The flag table: each flag's type and help (its config key is its name
# with '_' for '-'), and each command's handler, help and own flags.
_FLAG_TABLE = {
    "--f": (str, "function, e.g. 'loggauss(1,0,1)' or gauss2"),
    "--f0": (str, "test function on (0, inf)"),
    "--f1": (str, "test function on (0, inf)"),
    "--s": (str, "point as 're,im' (or 're')"),
    "--modulus": (int, "modulus d of the Dirichlet character"),
    "--index": (int, "index of the character in characters(d)"),
    "--x": (str, "comma list of x > 0"),
    "--max-height": (float, "height T > 0 of the zero search"),
    "--table-out": (str, "zero table output path"),
    "--n": (int, "log-grid points (default 2048)"),
    "--window": (float, "log-grid half width (default 8)"),
    "--phi-width": (float, "transition width of phi (default 1)"),
    "--zeros": (str, "zero table path or auto:T"),
    "--primes": (int, "prime cut p_max"),
    "--e-max": (int, "prime-power cut e_max"),
    "--trunc": (str, "lattice cut 'n_max=..,tail_tol=..'"),
    "--tol": (str, "tolerance of the residual"),
    "--config": (str, "plain-text 'key = value' file; flags override it"),
    "--out": (str, "report output path (default stdout)"),
    "-v, --verbose": (None, "also print the stage table on stderr"),
    "-h, --help": (None, "print this help and exit"),
}   # every command also takes the last four
_COMMANDS = {
    "mellin": (_values_command, "Mellin transform of f at s", "--f --s"),
    "zeta": (_values_command, "Riemann zeta at s", "--s"),
    "xi": (_values_command, "xi(s), zeta(s) and its gamma factor", "--s"),
    "lchi": (_values_command, "Dirichlet L(s, chi)", "--modulus --index --s"),
    "zeros": (_zeros_command, "zeros of zeta", "--max-height --table-out"),
    "check-poisson": (_check_command, "Poisson summation, f even on R",
                      "--f --x --trunc --tol"),
    "check-zspectral": (_check_command, "M(Z f) = zeta M f", "--f --s --tol"),
    "check-twisted-poisson": (_check_command, "twisted Poisson summation",
                              "--f --modulus --index --x --trunc --tol"),
    "check-trace-lemma": (_check_command, "the commutator trace lemma",
                          "--f0 --f1 --n --window --phi-width --tol"),
    "check-phi-identity": (_check_command, "phi's log identity at each x",
                           "--x --phi-width --tol"),
    "verify-explicit-formula": (_verify_command, "the explicit formula for f",
                                "--f --zeros --primes --e-max --tol"),
}


def _read_config_file(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    values = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            key, eq, val = line.split("#", 1)[0].partition("=")
            if eq:
                values[key.strip().replace("-", "_")] = val.strip()
            elif key.strip():
                raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
    return values


def _help(command: str | None) -> str:
    """-h: every command, or the command's flags, with its help."""
    _, about, flags = _COMMANDS.get(command, (None, "commands", ""))
    rows = [] if command else [(c, a) for c, (_, a, _) in _COMMANDS.items()]
    rows += [(flag, _FLAG_TABLE[flag][1])
             for flag in flags.split() + list(_FLAG_TABLE)[-4:]]
    width = max(len(name) for name, _ in rows)
    return (f"usage: weiltrace [flags] {command or 'COMMAND'} [flags]\n\n"
            f"{about}:" + "".join(f"\n  {k:<{width}}  {v}" for k, v in rows))


def _parse_args(argv) -> dict | str:
    """argv in one pass against the flag table: the common keys, the
    command and each key it reads (None unless given; the last one wins),
    or the help text for -h."""
    args = {"config": None, "out": None, "verbose": 0, "command": None}
    flags, tokens = ["--config", "--out"], iter(argv)
    for tok in tokens:
        if tok in ("-h", "--help"):
            return _help(args["command"])
        if tok == "--verbose" or tok.strip("v") == "-" != tok:  # -v, -vv
            args["verbose"] += tok.count("v")
            continue
        if tok in _COMMANDS and not args["command"]:
            args["command"], flags = tok, _COMMANDS[tok][2].split() + flags
            args.update((f[2:].replace("-", "_"), None) for f in flags[:-2])
            continue
        name, eq, value = tok.partition("=")
        match = [name] if name in flags else [
            f for f in flags if name[:2] == "--" and f.startswith(name)]
        if len(match) != 1:
            raise ConfigError(f"ambiguous flag {name!r}: {', '.join(match)}"
                              if match else f"unknown argument {name!r}")
        flag, value = match[0], value if eq else next(tokens, "--")
        if value.startswith("--"):
            raise ConfigError(f"{flag} expects a value")
        try:
            args[flag[2:].replace("-", "_")] = _FLAG_TABLE[flag][0](value)
        except ValueError:
            raise ConfigError(f"{flag}: bad value {value!r}") from None
    if not args["command"]:
        raise ConfigError("no command; commands: " + ", ".join(_COMMANDS))
    return args


def _merge_config(args: dict) -> dict:
    """Config-file values overridden by the flags that were given."""
    cfg = _read_config_file(args["config"]) if args["config"] else {}
    if cfg.get("trunc") is not None and "trunc" not in args:
        raise ConfigError(f"{args['command']} takes no trunc")
    for key, val in args.items():
        if key != "config" and (val is not None or key not in cfg):
            cfg[key] = val
    return cfg


def run(cfg: dict) -> tuple[int, dict]:
    """Execute one command; returns (exit_status, report_dict)."""
    start = time.perf_counter()
    stages.reset()
    inputs = {k: v for k, v in cfg.items()
              if k not in ("out", "verbose") and v is not None}
    try:
        outputs, ok = _COMMANDS[cfg["command"]][0](cfg)
        status = EXIT_OK if ok else EXIT_TOLERANCE
    except (WeiltraceError, ValueError) as exc:
        outputs, ok = {"error": str(exc),
                       "error_type": type(exc).__name__}, False
        status = (EXIT_CERTIFICATION
                  if isinstance(exc, (ToleranceError, DisagreementError))
                  else EXIT_CONFIG)
    report = {
        "command": cfg["command"],
        "inputs": _jsonable(inputs),
        "outputs": _jsonable(outputs),
        "passed": ok,
        "wall_time_s": time.perf_counter() - start,
        "timings": dict(stages.TIMINGS),
        "work": _jsonable(stages.WORK),
    }
    return status, report


def _stage_table(report: dict) -> str:
    """The report's stage seconds, wall time and work counts as text."""
    rows = [("stage", "seconds")]
    rows += [(k, f"{v:.6f}") for k, v in report.get("timings", {}).items()]
    rows += [("wall_time_s", f"{report.get('wall_time_s', 0.0):.6f}"),
             ("work", "count")]
    rows += [(k, str(v)) for k, v in report.get("work", {}).items()]
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def main(argv=None) -> int:
    args, text = {}, None
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):                       # -h
            args, text, status = {}, args, EXIT_OK
        else:
            status, report = run(_merge_config(args))
    except ConfigError as exc:
        report = {"error": str(exc), "error_type": type(exc).__name__}
        status = EXIT_CONFIG
    text = text or json.dumps(report)
    out, verbose = args.get("out"), args.get("verbose", 0)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    try:
        if verbose or not out:
            print(text)
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (e.g. `| head`): send the rest of
        # stdout, and Python's flush at exit, to devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    if verbose:
        print(_stage_table(report), file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
