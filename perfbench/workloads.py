"""The three workloads: their seeded inputs, their operations and the
checks of every output against the references in ``references.py``.

A workload is a cycle of operations built from the seed.  Runs execute
whole cycles, so every run completes the whole input set.  Each
operation drives the program through ``weiltrace.cli.main`` with the
argv a user would type (the lattice workload also calls the Moebius
inversion functions directly).  ``run`` is what gets timed; ``check``
parses and verifies the outcome afterwards and returns a ``Verdict``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field

import references as ref
from weiltrace import cli, families, operators, traces

# A residual that is exactly zero counts as this one, so that the digit
# metrics stay finite.
RESIDUAL_FLOOR = 1e-17


@dataclass
class Verdict:
    """Outcome of checking one operation.  ``failed`` marks an operation
    whose command exited non-zero or printed no report; its problems
    then say why, and it counts as failed rather than incorrect."""
    problems: list = field(default_factory=list)
    failed: bool = False
    residual: float = 0.0     # worst residual, scaled by max(1, |value|)
    bound: float = 0.0        # largest error bound the reports state

    def residual_of(self, residual: float, value: float = 1.0) -> None:
        self.residual = max(self.residual,
                            abs(residual) / max(1.0, abs(value)))

    def bound_of(self, bound: float) -> None:
        self.bound = max(self.bound, bound)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


@dataclass
class Op:
    label: str
    run: object               # () -> outcome; the timed part


def run_cli(argv: list) -> tuple:
    """One CLI invocation as a user types it: (exit status, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(list(argv))
    return status, buf.getvalue()


def _report(verdict: Verdict, argv: list, status: int, text: str):
    """Parse one CLI report; a non-zero exit or a missing report fails
    the operation.  Returns the outputs dict (or None)."""
    label = " ".join(argv[:1])
    try:
        report = json.loads(text)
    except ValueError:
        report = {}
    if status != 0 or report.get("passed") is not True:
        verdict.failed = True
        verdict.problems.append(f"{label}: exit {status}, outputs "
                                f"{report.get('outputs')}")
    return report.get("outputs")


def _num(x: float) -> str:
    return repr(float(x))


def _loggauss(params: tuple) -> str:
    a, mu, sigma = params
    return f"loggauss({_num(a)},{_num(mu)},{_num(sigma)})"


def _complex_arg(s: complex) -> str:
    return f"{_num(s.real)},{_num(s.imag)}"


def _value(v) -> complex:
    """A complex number as the CLI prints it ({'re', 'im'} or float)."""
    if isinstance(v, dict):
        return complex(v["re"], v["im"])
    return complex(v)


# ---------------------------------------------------------------------------
# explicit: verify-explicit-formula on wide and narrow log-Gaussians
# ---------------------------------------------------------------------------

class Explicit:
    """Six log-Gaussians, alternating wide and narrow.  The wide ones
    have sigma = 1 and mu = -0.5, 0.5 (both ends of the range, where the
    archimedean error is largest) and one mu drawn from [-0.5, 0.5]; the
    narrow ones draw sigma from [0.12, 0.2] and mu from [0, 0.4]."""

    name = "explicit"
    height = 120.0
    p_max = 10000
    min_zero_part = 1e-3      # |zero sum| of every narrow input

    def __init__(self, seed: int):
        rng = random.Random(seed)
        ordinates = ref.zeta_ordinates(self.height)
        wide = [(1.0, -0.5, 1.0), (1.0, 0.5, 1.0),
                (1.0, round(rng.uniform(-0.5, 0.5), 4), 1.0)]
        narrow = []
        while len(narrow) < 3:
            # The zero sum oscillates with mu and sigma; draw again where
            # it cancels, so that every narrow input depends on the zeros.
            params = (1.0, round(rng.uniform(0.0, 0.4), 4),
                      round(rng.uniform(0.12, 0.2), 4))
            if abs(ref.zero_sum(*params, ordinates)) >= self.min_zero_part:
                narrow.append(params)
        self.inputs = [p for pair in zip(wide, narrow) for p in pair]
        self.cycle = [Op(_loggauss(p), self._op(p)) for p in self.inputs]
        self.refs = None

    def argv(self, params: tuple) -> list:
        return ["verify-explicit-formula", "--f", _loggauss(params),
                "--zeros", f"auto:{self.height:g}",
                "--primes", str(self.p_max)]

    def _op(self, params: tuple):
        argv = self.argv(params)
        return lambda: run_cli(argv)

    def reference(self, params: tuple) -> dict:
        return {
            "pole": ref.pole_term(*params),
            "zeros": ref.zero_sum(*params, ref.zeta_ordinates(self.height)),
            "primes": ref.prime_sum(*params, self.p_max),
            "archimedean": ref.archimedean_term(*params),
        }

    def prepare(self) -> list:
        self.refs = [self.reference(p) for p in self.inputs]
        return []

    def check(self, index: int, outcome) -> Verdict:
        params, want = self.inputs[index], self.refs[index]
        verdict = Verdict()
        out = _report(verdict, self.argv(params), *outcome)
        if out is None or "total_budget" not in out:
            verdict.problems.append(f"{_loggauss(params)}: no report")
            return verdict
        budget = out["total_budget"]
        label = _loggauss(params)
        for key, got in (("pole", out["pole_contribution"]),
                         ("zeros", out["zero_contribution"]),
                         ("primes", out["W_p_total"]),
                         ("archimedean", out["W_infty"])):
            verdict.require(abs(got - want[key]) <= budget,
                            f"{label}: {key} part {got!r} differs from "
                            f"the reference {want[key]!r} by more than "
                            f"the total budget {budget:.3e}")
        verdict.require(out["residual"] <= budget,
                        f"{label}: residual {out['residual']:.3e} above "
                        f"the total budget {budget:.3e}")
        if params[2] < 1.0:
            verdict.require(
                abs(out["zero_contribution"]) >= self.min_zero_part,
                f"{label}: zero contribution "
                f"{out['zero_contribution']:.3e} too small to matter")
        verdict.residual_of(out["residual"], out["spectral_side"])
        verdict.bound_of(budget)
        return verdict


# ---------------------------------------------------------------------------
# trace: check-trace-lemma at n = 2048 and 4096
# ---------------------------------------------------------------------------

class Trace:
    """Four seeded pairs of log-Gaussians (sigma in [0.5, 1.2], mu in
    [-0.3, 0.3]) and criterion 8's pair with sigma = 0.008, which is
    under-resolved at n = 2048.  The under-resolved pair takes about
    twice as long as the others, so the median operation of the cycle
    is a seeded one."""

    name = "trace"
    sizes = (2048, 4096)
    window = 8.0
    under_resolved = ((1.0, 0.0, 1.0), (1.0, -0.2, 0.008))
    rhs_tolerance = 1e-10

    def __init__(self, seed: int):
        rng = random.Random(seed)

        def draw():
            return (1.0, round(rng.uniform(-0.3, 0.3), 4),
                    round(rng.uniform(0.5, 1.2), 4))

        seeded = [(draw(), draw()) for _ in range(4)]
        self.inputs = seeded[:2] + [self.under_resolved] + seeded[2:]
        self.cycle = [Op(f"{_loggauss(a)} {_loggauss(b)}", self._op(a, b))
                      for a, b in self.inputs]
        self.refs = None

    def argv(self, f0: tuple, f1: tuple, n: int) -> list:
        return ["check-trace-lemma", "--f0", _loggauss(f0),
                "--f1", _loggauss(f1), "--n", str(n),
                "--window", f"{self.window:g}"]

    def _op(self, f0: tuple, f1: tuple):
        argvs = [self.argv(f0, f1, n) for n in self.sizes]
        return lambda: [run_cli(a) for a in argvs]

    def prepare(self) -> list:
        """Closed-form right-hand sides, and the package's trace_rhs
        checked against them."""
        self.refs, problems = [], []
        for f0, f1 in self.inputs:
            want = ref.trace_closed_form(f0, f1)
            got = traces.trace_rhs(families.LogGaussian(*f0),
                                   families.LogGaussian(*f1))
            if abs(got - want) > self.rhs_tolerance * max(1.0, abs(want)):
                problems.append(
                    f"trace_rhs {got!r} vs closed form {want!r} for "
                    f"{_loggauss(f0)}, {_loggauss(f1)}")
            self.refs.append(want)
        return problems

    def check(self, index: int, outcome) -> Verdict:
        f0, f1 = self.inputs[index]
        verdict = Verdict()
        residuals = []
        for n, (status, text) in zip(self.sizes, outcome):
            out = _report(verdict, self.argv(f0, f1, n), status, text)
            if out is None or "residual" not in out:
                return verdict
            verdict.require(out["residual"] < out["tolerance"],
                            f"n={n}: residual {out['residual']:.3e} above "
                            f"tolerance {out['tolerance']:.1e}")
            verdict.residual_of(out["residual"], self.refs[index])
            verdict.bound_of(out["tolerance"])
            residuals.append(out["residual"])
        if (f0, f1) == self.under_resolved:
            verdict.require(residuals[1] <= residuals[0],
                            f"refinement raised the residual: "
                            f"{residuals[0]:.3e} -> {residuals[1]:.3e}")
        return verdict


# ---------------------------------------------------------------------------
# lattice: zeros, L-values, twisted and plain Poisson, Z-spectral, Moebius
# ---------------------------------------------------------------------------

class Lattice:
    """Twelve rounds per cycle.  Round k finds the zeros up to T_k,
    drawn from the k-th of eleven equal strata of [60, 120] for k < 11
    and T = 120 for the last round, so the cycle's cost barely depends
    on the seed and every run covers all zeros up to 120.  It evaluates
    L(s_k, chi) and the twisted Poisson identity for the ten primitive
    characters mod 3, 4, 5 and 7, checks the Z-spectral and Poisson
    identities, and applies Z^-1 Z to criterion 4's two functions at two
    points each."""

    name = "lattice"
    moduli = (3, 4, 5, 7)
    strata = 11
    mobius_functions = ((1.0, 0.0, 1.0), (2.0, 0.4, 0.7))
    mobius_tail_tol = 3e-12
    mobius_tolerance = 1e-10
    lchi_tolerance = 1e-10
    kappa_tolerance = 1e-12

    def __init__(self, seed: int):
        rng = random.Random(seed)
        ordinates = ref.zeta_ordinates(120.0)
        self.characters = self._character_indices()
        self.rounds = []
        edges = [60.0 + 60.0 * k / self.strata for k in range(self.strata + 1)]
        for lo, hi in list(zip(edges, edges[1:])) + [(120.0, 120.0)]:
            height = round(rng.uniform(lo, hi), 3)
            while min(abs(height - g) for g in ordinates) < 1e-2:
                height = round(rng.uniform(lo, hi), 3)
            self.rounds.append({
                "height": height,
                "s_l": complex(round(rng.uniform(0.3, 2.0), 4),
                               round(rng.choice((-1, 1))
                                     * rng.uniform(2.0, 40.0), 4)),
                "x_twisted": sorted(round(rng.uniform(0.5, 2.0), 4)
                                    for _ in range(3)),
                "s_z": complex(round(rng.uniform(1.5, 4.0), 4),
                               round(rng.uniform(-20.0, 20.0), 4)),
                "x_poisson": sorted(round(rng.uniform(0.25, 4.0), 4)
                                    for _ in range(5)),
                "x_mobius": [[round(math.exp(rng.uniform(-0.2, 1.8)), 6)
                              for _ in range(2)]
                             for _ in self.mobius_functions],
            })
        self.cycle = [Op(f"round T={r['height']:g}", self._op(r))
                      for r in self.rounds]
        self.refs = None

    def _character_indices(self) -> list:
        """(modulus, CLI index, parity, value table) of the primitive
        characters, matched by value table to the independent ones.
        The program's list only supplies the index a user would type."""
        found = []
        for d in self.moduli:
            tables = ref.dirichlet_characters(d)
            program = operators.characters(d)
            for table in tables:
                matches = [i for i, chi in enumerate(program)
                           if all(abs(complex(chi.value(n)) - table[n])
                                  < 1e-12 for n in range(d))]
                if len(matches) != 1:
                    raise RuntimeError(
                        f"character table mod {d} not found once in the "
                        f"program's list: {matches}")
                parity = 1 if abs(table[d - 1] - 1) < 1e-12 else -1
                found.append((d, matches[0], parity, table))
        return found

    def argvs(self, r: dict) -> list:
        out = [["zeros", "--max-height", _num(r["height"])]]
        for d, index, parity, _ in self.characters:
            out.append(["lchi", "--modulus", str(d), "--index", str(index),
                        "--s", _complex_arg(r["s_l"])])
            out.append(["check-twisted-poisson",
                        "--f", "gauss2" if parity == 1 else "xgauss2",
                        "--modulus", str(d), "--index", str(index),
                        "--x", ",".join(map(_num, r["x_twisted"]))])
        out.append(["check-zspectral", "--f", "loggauss(1,0,1)",
                    "--s", _complex_arg(r["s_z"])])
        out.append(["check-poisson", "--f", "gauss2",
                    "--x", ",".join(map(_num, r["x_poisson"]))])
        return out

    def _op(self, r: dict):
        argvs = self.argvs(r)
        tr = operators.TruncationSpec(tail_tol=self.mobius_tail_tol)

        def run():
            reports = [run_cli(a) for a in argvs]
            mobius = []
            for params, xs in zip(self.mobius_functions, r["x_mobius"]):
                image = operators.z_image(families.LogGaussian(*params), tr)
                mobius.append([operators.apply_Z_inverse(image, x, tr)
                               for x in xs])
            return reports, mobius
        return run

    def prepare(self) -> list:
        self.refs = [{
            "ordinates": ref.zeta_ordinates(r["height"]),
            "lchi": [ref.dirichlet_l(table, r["s_l"])
                     for _, _, _, table in self.characters],
        } for r in self.rounds]
        return []

    def check(self, index: int, outcome) -> Verdict:
        r, want = self.rounds[index], self.refs[index]
        verdict = Verdict()
        reports, mobius = outcome
        outs = [_report(verdict, a, *rep)
                for a, rep in zip(self.argvs(r), reports)]
        if any(o is None for o in outs):
            return verdict
        zeros, rest = outs[0], outs[1:]
        got = zeros.get("ordinates", [])
        verdict.require(len(got) == len(want["ordinates"]),
                        f"zeros below {r['height']}: {len(got)} found, "
                        f"{len(want['ordinates'])} expected")
        for g, w in zip(got, want["ordinates"]):
            verdict.require(abs(g - w) <= zeros["precision"],
                            f"ordinate {g!r} vs {w!r} beyond the table "
                            f"precision {zeros['precision']:.1e}")
            verdict.residual_of(g - w, w)
        verdict.bound_of(zeros["precision"])
        for k, (d, index_, _, _) in enumerate(self.characters):
            lval, twisted = rest[2 * k], rest[2 * k + 1]
            got_l, want_l = _value(lval["value"]), want["lchi"][k]
            err = abs(got_l - want_l)
            verdict.require(err <= self.lchi_tolerance * max(1.0, abs(want_l)),
                            f"L(s, chi_{d},{index_}) = {got_l!r}, "
                            f"mpmath gives {want_l!r}")
            verdict.residual_of(err, abs(want_l))
            for kappa in twisted["kappa"].values():
                verdict.require(
                    abs(abs(_value(kappa)) - 1.0) <= self.kappa_tolerance,
                    f"|kappa| = {abs(_value(kappa))!r} for chi_{d},{index_}")
            verdict.residual_of(twisted["max_residual"])
            verdict.bound_of(twisted["tolerance"])
        for out in rest[-2:]:
            verdict.residual_of(out.get("residual",
                                        out.get("max_residual", 0.0)))
            verdict.bound_of(out["tolerance"])
        for (a, mu, sigma), xs, values in zip(self.mobius_functions,
                                              r["x_mobius"], mobius):
            for x, v in zip(xs, values):
                f_x = a * math.exp(-(math.log(x) - mu) ** 2
                                   / (2.0 * sigma * sigma))
                err = abs(complex(v) - f_x)
                verdict.require(err < self.mobius_tolerance,
                                f"|Z^-1 Z f - f| = {err:.3e} at x = {x}")
                verdict.residual_of(err, f_x)
        return verdict


WORKLOADS = {cls.name: cls for cls in (Explicit, Trace, Lattice)}
