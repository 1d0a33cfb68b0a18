"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

The checks must reject corrupted outputs, the references must agree
with themselves and with known constants, and a short run of every
workload must complete with zero failed operations.  Takes about three
minutes on two cores.  Not named test_*.py, so the package's own pytest
run does not collect it.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import references as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from weiltrace.zeros import ZeroTable, find_zeros, save_zeros  # noqa: E402


def _edit(outcome, edit):
    """A CLI outcome with its report's outputs changed by ``edit``."""
    status, text = outcome
    report = json.loads(text)
    edit(report["outputs"])
    return status, json.dumps(report)


def _bench(*args, cwd=ROOT, timeout=600):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


class Scratch(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(OUT, exist_ok=True)
        cls.tmp = tempfile.mkdtemp(prefix="selftest-", dir=OUT)
        os.environ["WEILTRACE_CACHE"] = os.path.join(cls.tmp, "cache")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)


class ExplicitChecks(Scratch):
    """A narrow function, where the zeros matter."""

    @classmethod
    def setUpClass(cls):
        super().setUpClass()
        cls.w = workloads.Explicit(seed=1)
        cls.index = 1
        cls.params = cls.w.inputs[cls.index]
        cls.w.refs = [None] * len(cls.w.inputs)
        cls.w.refs[cls.index] = cls.w.reference(cls.params)
        cls.good = workloads.run_cli(cls.w.argv(cls.params))

    def problems(self, outcome):
        return self.w.check(self.index, outcome).problems

    def test_correct_report_passes(self):
        self.assertEqual(self.problems(self.good), [])

    def test_report_with_a_zero_dropped_is_rejected(self):
        table = find_zeros(self.w.height)
        path = os.path.join(self.tmp, "dropped.txt")
        save_zeros(ZeroTable(table.ordinates[1:], table.height_bound,
                             table.precision, "one zero dropped"), path)
        argv = self.w.argv(self.params)
        argv[argv.index("--zeros") + 1] = path
        problems = self.problems(workloads.run_cli(argv))
        self.assertTrue(any("zeros part" in p for p in problems), problems)

    def test_moved_w_infty_is_rejected(self):
        def move(out):
            out["W_infty"] += 2.0 * out["total_budget"]
        problems = self.problems(_edit(self.good, move))
        self.assertTrue(any("archimedean part" in p for p in problems),
                        problems)

    def test_failed_exit_counts_as_failed(self):
        self.assertTrue(self.w.check(self.index, (1, self.good[1])).failed)


class TraceChecks(Scratch):
    @classmethod
    def setUpClass(cls):
        super().setUpClass()
        cls.w = workloads.Trace(seed=1)
        cls.prepare_problems = cls.w.prepare()
        cls.good = cls.w.cycle[0].run()

    def test_trace_rhs_matches_closed_form(self):
        self.assertEqual(self.prepare_problems, [])

    def test_correct_outcome_passes(self):
        self.assertEqual(self.w.check(0, self.good).problems, [])

    def test_residual_above_tolerance_is_rejected(self):
        def spoil(out):
            out["residual"] = 2.0 * out["tolerance"]
        bad = [_edit(self.good[0], spoil), self.good[1]]
        problems = self.w.check(0, bad).problems
        self.assertTrue(any("above tolerance" in p for p in problems),
                        problems)

    def test_refinement_that_raises_the_residual_is_rejected(self):
        under = self.w.inputs.index(self.w.under_resolved)
        coarse = json.loads(self.good[0][1])["outputs"]["residual"]

        def spoil(out):
            out["residual"] = 10.0 * coarse
        bad = [self.good[0], _edit(self.good[1], spoil)]
        problems = self.w.check(under, bad).problems
        self.assertTrue(any("refinement" in p for p in problems), problems)


class LatticeChecks(Scratch):
    @classmethod
    def setUpClass(cls):
        super().setUpClass()
        cls.w = workloads.Lattice(seed=1)
        cls.w.prepare()
        cls.good = cls.w.cycle[0].run()

    def problems(self, reports=None, mobius=None):
        reports = reports or self.good[0]
        return self.w.check(0, (reports, mobius or self.good[1])).problems

    def edited(self, position, edit):
        reports = list(self.good[0])
        reports[position] = _edit(reports[position], edit)
        return reports

    def test_correct_outcome_passes(self):
        self.assertEqual(self.problems(), [])

    def test_shifted_ordinate_is_rejected(self):
        def shift(out):
            out["ordinates"][3] += 1e-8
        self.assertTrue(self.problems(self.edited(0, shift)))

    def test_missing_ordinate_is_rejected(self):
        def drop(out):
            del out["ordinates"][0]
        self.assertTrue(self.problems(self.edited(0, drop)))

    def test_wrong_l_value_is_rejected(self):
        def nudge(out):
            out["value"]["re"] += 1e-8
        self.assertTrue(self.problems(self.edited(1, nudge)))

    def test_kappa_off_the_unit_circle_is_rejected(self):
        def scale(out):
            for k in out["kappa"].values():
                k["re"] *= 1.0 + 1e-9
                k["im"] *= 1.0 + 1e-9
        self.assertTrue(self.problems(self.edited(2, scale)))

    def test_wrong_moebius_inversion_is_rejected(self):
        mobius = [list(v) for v in self.good[1]]
        mobius[0][0] += 1e-9
        self.assertTrue(self.problems(mobius=mobius))


class References(unittest.TestCase):
    def test_archimedean_term_is_converged(self):
        coarse = ref.archimedean_term(1.0, 0.3, 0.15)
        fine = ref.archimedean_term(1.0, 0.3, 0.15, dps=40, pieces=16)
        self.assertAlmostEqual(coarse, fine, delta=1e-15)

    def test_trace_closed_form_against_quadrature(self):
        f0, f1 = (1.0, 0.1, 0.7), (2.0, -0.3, 0.9)
        g = ref.mp.quad(lambda u: -u * f0[0] * ref.mp.exp(
            -(u - f0[1]) ** 2 / (2 * f0[2] ** 2)) * f1[0] * ref.mp.exp(
            -(-u - f1[1]) ** 2 / (2 * f1[2] ** 2)), [-ref.mp.inf, 0,
                                                     ref.mp.inf])
        self.assertAlmostEqual(ref.trace_closed_form(f0, f1), float(g),
                               delta=1e-14)

    def test_catalan_constant(self):
        (table,) = ref.dirichlet_characters(4)
        self.assertAlmostEqual(ref.dirichlet_l(table, complex(2.0)).real,
                               0.915965594177219015, delta=1e-15)

    def test_stored_ordinates(self):
        zs = ref.zeta_ordinates(120.0)
        self.assertEqual(len(zs), 38)
        self.assertAlmostEqual(zs[0], 14.134725141734693790, delta=1e-14)


class Tracing(unittest.TestCase):
    def test_removed_function_is_reported_absent(self):
        import weiltrace.explicit as explicit
        original = explicit.archimedean_constant
        del explicit.archimedean_constant
        try:
            tracer = tracing.Tracer()
            tracer.install()
            tracer.uninstall()
        finally:
            explicit.archimedean_constant = original
        metrics, absent = tracer.per_layer(1)
        self.assertIn("explicit.archimedean_constant", absent)
        self.assertEqual(
            metrics["explicit.archimedean_constant.s"]["value"], 0.0)

    def test_spans_nest_and_count_calls(self):
        from weiltrace import special
        tracer = tracing.Tracer()
        tracer.phase = "run"
        tracer.install()
        try:
            special.hardy_z(20.0)
        finally:
            tracer.uninstall()
        self.assertFalse(hasattr(special.hardy_z, "__wrapped__"))
        by_name = {span[2]: span for span in tracer.spans}
        self.assertEqual(by_name["special.zeta"][1],
                         by_name["special.hardy_z"][0])
        metrics, _ = tracer.per_layer(1)
        self.assertEqual(metrics["special.hardy_z.calls"]["value"], 1)
        self.assertEqual(metrics["special.zeta.calls"]["value"], 1)


class Runs(unittest.TestCase):
    """Short runs of the benchmark command itself."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            cls.spec = json.load(fh)

    def result(self, proc):
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_short_runs_have_no_failures(self):
        names = [m["name"] for m in self.spec["end_to_end"]]
        for spec in self.spec["workloads"]:
            with self.subTest(workload=spec["name"]):
                cycle = len(workloads.WORKLOADS[spec["name"]](3).cycle)
                result = self.result(_bench("--workload", spec["name"],
                                            "--seed", "3", "--seconds", "1",
                                            "--trace", "0"))
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(result["attempted"] % cycle, 0)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(sorted(result["metrics"]), sorted(names))

    def test_traced_run_reports_every_layer_metric(self):
        result = self.result(_bench("--workload", "lattice", "--seed", "3",
                                    "--seconds", "1", "--trace", "1"))
        self.assertTrue(result["correct"])
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in self.spec["per_layer"]))
        self.assertGreater(result["metrics"]["special.hardy_z.calls"]
                           ["value"], 0)

    def test_per_layer_list_matches_the_tracer(self):
        self.assertEqual(
            [m["name"] for m in self.spec["per_layer"]],
            [m[0] for m in tracing.PER_LAYER + tracing.RUN_METRICS])

    def test_fails_without_the_program(self):
        bare = tempfile.mkdtemp(prefix="bare-", dir=OUT)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out",
                                                          "__pycache__"))
            proc = _bench("--workload", "lattice", "--seed", "1",
                          "--seconds", "1", "--trace", "0", cwd=bare,
                          timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
