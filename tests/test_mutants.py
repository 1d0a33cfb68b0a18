"""Mutation table for the acceptance gate: every check must be able to fail.

Each row patches one function where its callers look it up, runs an
acceptance test under the patch and expects that test's AssertionError
(mutation testing: DeMillo, Lipton & Sayward, IEEE Computer 11, 1978).
"""

import importlib

import pytest

import test_acceptance
import test_operators
from weiltrace import LogGaussian


def _plus(delta):
    return lambda fn: lambda *args: fn(*args) + delta


def _times(factor):
    return lambda fn: lambda *args: fn(*args) * factor


def _zspectral_on(f):
    check = test_operators.test_zspectral_residual_does_not_shrink_with_f
    return lambda: check(f)


# (id, module, name, mutation, acceptance test that must fail)
MUTANTS = (
    ("c_inf+1e-7", "weiltrace.explicit", "archimedean_constant", _plus(1e-7),
     test_acceptance.test_criterion_10_fourier_log_constant),
    ("zeta*(1+1e-3)-small-amplitude", "weiltrace.operators", "zeta",
     _times(1.0 + 1e-3), _zspectral_on(LogGaussian(1e-10, 0.0, 1.0))),
    ("zeta*(1+1e-3)-tiny-width", "weiltrace.operators", "zeta",
     _times(1.0 + 1e-3), _zspectral_on(LogGaussian(1.0, 0.3, 1e-160))),
    ("gamma*1.0001", "weiltrace.special", "gamma", _times(1.0001),
     test_acceptance.test_criterion_03_functional_equation),
    ("zeta*1.0001", "weiltrace.special", "zeta", _times(1.0001),
     test_acceptance.test_criterion_03_functional_equation),
)


@pytest.mark.parametrize("module, name, mutate, check",
                         [row[1:] for row in MUTANTS],
                         ids=[row[0] for row in MUTANTS])
def test_mutant_fails_its_acceptance_test(monkeypatch, module, name, mutate,
                                          check):
    target = importlib.import_module(module)
    monkeypatch.setattr(target, name, mutate(getattr(target, name)))
    with pytest.raises(AssertionError):
        check()
