"""Bit parity of ``repro.util.roots.brentq`` with ``scipy.optimize.brentq``.

The port replaces scipy on every run path, so every TDP grant depends on
it returning exactly scipy's bits. Results are compared with ``==``.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from repro.pcu import turbo
from repro.pcu.turbo import TdpLimiter
from repro.power import model
from repro.power.model import PowerModel
from repro.specs.cpu import E5_2670_SNB, E5_2680_V3, X5670_WSM
from repro.util.roots import brentq

SPECS = (E5_2680_V3, E5_2670_SNB, X5670_WSM)


def _outcome(solver, f, a, b, **kw):
    try:
        return solver(f, a, b, **kw)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


@pytest.fixture
def paired(monkeypatch):
    """Route the production solves through both solvers and record
    each pair of results."""
    pairs = []

    def both(f, a, b, **kw):
        got = brentq(f, a, b, **kw)
        pairs.append((got, scipy_brentq(f, a, b, **kw)))
        return got

    monkeypatch.setattr(model, "brentq", both)
    monkeypatch.setattr(turbo, "brentq", both)
    return pairs


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.model)
def test_production_solves_match_scipy(spec, paired):
    pm = PowerModel(spec)
    limiter = TdpLimiter(spec, pm)
    f_grid = np.linspace(spec.min_hz, spec.turbo.max_hz, 9)
    ufs_grid = np.linspace(spec.uncore_min_hz, spec.uncore_max_hz, 3)
    for budget in np.linspace(0.25, 1.0, 6) * spec.tdp_w:
        budget = float(budget)
        for activity in (0.5, 2.0, 6.0, 12.0, 24.0):
            pm.solve_core_for_budget(activity, budget)
            for f_common in f_grid:
                pm.solve_uncore_for_budget(float(f_common), activity, budget)
                for ufs_cap in ufs_grid:
                    limiter._solve(float(f_common), activity, float(ufs_cap),
                                   budget)
    assert len(paired) > 50
    assert [got for got, _ in paired] == [want for _, want in paired]


def _monotone_case(rng):
    """A seeded monotone function with a root drawn inside [lo, hi]."""
    lo = float(rng.uniform(-1e10, 1e10))
    hi = lo + float(10.0 ** rng.uniform(-3, 10))
    root = float(rng.uniform(lo, hi))
    scale = (hi - lo) / 2
    k = float(10.0 ** rng.uniform(-2, 2)) * float(rng.choice((-1.0, 1.0)))
    family = [
        lambda x: k * (x - root),
        lambda x: k * ((x - root) / scale) ** 3 + 1e-3 * (x - root),
        lambda x: k * math.expm1((x - root) / scale),
        lambda x: k * math.atan(50 * (x - root) / scale),
        lambda x: k * min(max((x - root) / scale * 8, -1.0), 1.0),
        lambda x: k * math.floor(4 * (x - root) / scale + 0.5),
    ]
    return family[int(rng.integers(len(family)))], lo, hi


@pytest.mark.parametrize("xtol", [1e5, 2e-12, 1.0])
def test_random_monotone_corpus_matches_scipy(xtol):
    rng = np.random.default_rng(20150525)
    got, want = [], []
    for _ in range(1500):
        f, lo, hi = _monotone_case(rng)
        got.append(_outcome(brentq, f, lo, hi, xtol=xtol))
        want.append(_outcome(scipy_brentq, f, lo, hi, xtol=xtol))
    assert sum(isinstance(r, float) for r in want) > 1000
    assert got == want


@pytest.mark.parametrize("scale", [1e-150, 1e-300, 1e-310])
def test_underflowing_interpolation_matches_scipy(scale):
    """Tiny values underflow the interpolation's denominator to zero:
    C gets inf or NaN and bisects, and the port must do the same."""
    for root in (0.1234, 0.3, 0.77):
        def f(x):
            return scale * ((x - root) ** 3 + 0.01 * (x - root))
        assert brentq(f, 0.0, 1.0) == scipy_brentq(f, 0.0, 1.0)


def test_same_sign_bracket_raises():
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)


def test_nan_raises():
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0)


def test_too_few_iterations_raise():
    with pytest.raises(RuntimeError, match="converge"):
        brentq(lambda x: x ** 3 - 2.0, 0.0, 2.0, maxiter=2)
