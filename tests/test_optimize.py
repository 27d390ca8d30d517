import math

import numpy as np
import pytest

import diamondfwm as dfm
from diamondfwm import BoundsError, ConfigValidationError, ObjectiveError, optimize_eta
from diamondfwm.optimize import (PARAM_NAMES, SPREAD_TOL, _initial_simplex, _latin_hypercube,
                                 _lockstep, default_bounds)


def test_default_bounds_shape():
    b = default_bounds()
    assert b.shape == (5, 2)
    assert list(b[0]) == [0.0, 30.0]
    assert list(b[4]) == [-15.0, 15.0]


def test_latin_hypercube_is_deterministic_and_stratified():
    b = default_bounds()
    pts1 = _latin_hypercube(b, 16, seed=5)
    pts2 = _latin_hypercube(b, 16, seed=5)
    assert np.array_equal(pts1, pts2)
    assert not np.array_equal(pts1, _latin_hypercube(b, 16, seed=6))
    # one sample per stratum along every axis
    for dim in range(5):
        strata = np.floor((pts1[:, dim] - b[dim, 0]) / (b[dim, 1] - b[dim, 0]) * 16)
        assert sorted(strata) == list(range(16))


def test_no_medium_means_no_conversion():
    result = optimize_eta(0.0, starts=2, seed=1, max_evals=40, n_z=50)
    assert result.eta_s == 0.0
    assert result.n_evaluations <= 80
    assert result.stop_reasons == ("spread", "spread")   # a flat landscape


def test_bad_bounds_rejected():
    with pytest.raises(BoundsError):
        optimize_eta(10.0, bounds=[(0, 1)] * 4, starts=1)
    with pytest.raises(BoundsError):
        optimize_eta(10.0, bounds=[(1, 0)] * 5, starts=1)
    with pytest.raises(BoundsError):
        optimize_eta(10.0, bounds=[(0, np.inf)] * 5, starts=1)
    with pytest.raises(BoundsError):
        optimize_eta(-1.0)
    with pytest.raises(BoundsError, match="optimize.od"):
        optimize_eta(np.nan)
    with pytest.raises(BoundsError, match="optimize.seed"):
        optimize_eta(10.0, seed=1.5)
    for key, value in (("starts", 2.5), ("starts", True), ("max_evals", 2.5),
                       ("max_evals", True), ("seed", True)):
        with pytest.raises(BoundsError, match=f"optimize.{key}"):
            optimize_eta(10.0, **{key: value})
    with pytest.raises(BoundsError, match="optimize.bounds"):   # a negative Rabi frequency
        optimize_eta(10.0, bounds=[(-5.0, 5.0), *default_bounds()[1:]], starts=1)


@pytest.mark.parametrize("od", ["75", None, True, math.nan])
def test_od_is_a_number_in_the_domain(od):
    with pytest.raises(BoundsError, match="^optimize.od: must be a number"):
        optimize_eta(od, starts=1, max_evals=1)


def test_zero_width_bound_keeps_its_parameter():
    # no Rabi frequency is allowed: the initial simplex steps off the bound
    # and the search clips it back
    r = optimize_eta(75, bounds=default_bounds(0.0, 15.0), starts=2, max_evals=20)
    assert r.params[:2] == (0.0, 0.0)
    assert r.eta_s == 0.0


def test_deterministic_for_fixed_seed():
    r1 = optimize_eta(20.0, starts=3, seed=11, max_evals=150, n_z=200)
    r2 = optimize_eta(20.0, starts=3, seed=11, max_evals=150, n_z=200)
    assert r1.params == r2.params
    assert r1.eta_s == r2.eta_s
    assert r1.traces == r2.traces
    assert r1.n_evaluations == r2.n_evaluations


def test_best_is_max_over_traces():
    r = optimize_eta(30.0, starts=3, seed=2, max_evals=200, n_z=200)
    trace_max = max(eta for trace in r.traces for _, eta in trace)
    assert r.eta_s >= trace_max - 1e-12
    assert r.eta_s == trace_max
    assert 0.0 <= r.eta_s <= 1.0


def test_budget_cap_reports_best_so_far():
    r = optimize_eta(30.0, starts=2, seed=4, max_evals=25, n_z=200)
    assert all(len(trace) <= 25 for trace in r.traces)
    assert r.n_evaluations <= 50
    assert np.isfinite(r.eta_s) and r.eta_s > 0.0
    assert r.stop_reasons == ("evaluations", "evaluations")
    assert r.as_dict()["stop_reasons"] == ["evaluations", "evaluations"]


def test_result_respects_bounds():
    r = optimize_eta(40.0, starts=4, seed=9, max_evals=250, n_z=200)
    for value, (lo, hi) in zip(r.params, r.bounds):
        assert lo - 1e-12 <= value <= hi + 1e-12


def test_detuning_sign_flip_is_degenerate():
    # reversing all detuning signs leaves eta_s unchanged
    r = optimize_eta(40.0, starts=3, seed=8, max_evals=250, n_z=300)
    objective = dfm.make_objective(40.0, n_z=300)
    wc, wd, dc, dd, dp = r.params
    flipped = objective((wc, wd, -dc, -dd, -dp))
    assert flipped == pytest.approx(r.eta_s, abs=1e-9)


def test_objective_error_carries_parameters():
    # gamma41 = 0 with all resonances coincident makes the response singular
    rates = dfm.RateTable(gamma41=0.0)
    objective = dfm.make_objective(5.0, rates=rates, n_z=50)
    with pytest.raises(ObjectiveError) as err:
        objective((0.0, 0.0, 0.0, 0.0, 0.0))
    assert err.value.params == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_converges_on_smooth_landscape():
    # at moderate OD the surface near the optimum is smooth enough for a
    # seeded multistart to find a reproducible high-quality optimum
    r = optimize_eta(75.0, starts=6, seed=7, max_evals=600, n_z=800)
    assert r.eta_s >= 0.66 - 0.08
    drive = r.drive
    assert drive.omega_c >= 0 and drive.omega_d >= 0


def test_result_dict_roundtrips_to_json():
    import json
    r = optimize_eta(10.0, starts=2, seed=1, max_evals=60, n_z=100)
    doc = json.loads(json.dumps(r.as_dict()))
    assert doc["eta_s"] == r.eta_s
    assert doc["best"]["omega_c"] == r.params[0]


def test_latin_hypercube_matches_scipy():
    from scipy.stats import qmc
    unit = np.array([(0.0, 1.0)] * 5)
    for seed in [*range(50), 2 ** 31, 2 ** 32 - 1]:
        for n in (1, 10, 32):
            want = qmc.LatinHypercube(d=5, seed=seed).random(n)
            assert np.array_equal(_latin_hypercube(unit, n, seed), want), (seed, n)


# a cheap rippled bowl whose optimum lies on the omega_c bound (36 > 30);
# the ripples make the simplex contract and, from the first start below,
# shrink, so every kind of step is taken
_BOWL_CENTER = (36.0, 11.0, -3.0, 4.0, 1.5)
_BOWL_WEIGHTS = (1.0, 0.5, 2.0, 1.0, 0.25)


def _bowl(X, step=0.0):
    """eta for each row of X, one row at a time in Python floats; a
    ``step`` > 0 rounds it down to terraces, whose ties test the orderings."""
    etas = [-sum(w * (v - c) ** 2 + 40.0 * math.cos(v)
                 for v, c, w in zip(row, _BOWL_CENTER, _BOWL_WEIGHTS))
            for row in np.asarray(X).tolist()]
    return np.array([step * math.floor(eta / step) if step else eta for eta in etas])


def _scipy_start(x0, bounds, max_evals, step):
    """scipy's Nelder-Mead on -_bowl: the points it evaluated, their eta
    and the stop reason."""
    from scipy.optimize import minimize
    seen = []

    def fun(x):
        seen.append((tuple(x.tolist()), float(_bowl(x[None], step)[0])))
        return -seen[-1][1]

    res = minimize(fun, x0, method="Nelder-Mead", bounds=[tuple(b) for b in bounds],
                   options={"initial_simplex": _initial_simplex(x0, bounds),
                            "fatol": SPREAD_TOL, "xatol": np.inf, "maxfev": max_evals,
                            "adaptive": False})
    return seen, {0: "spread", 1: "evaluations"}[res.status]


@pytest.mark.parametrize("step", [0.0, 20.0])
def test_lockstep_nelder_mead_matches_scipy(step):
    b = default_bounds()
    x0s = _latin_hypercube(b, 3, seed=0)
    sizes = []

    def bowl(X):
        sizes.append(len(X))
        return _bowl(X, step)

    def check(x0s, max_evals):
        records, reasons = _lockstep(bowl, x0s, b, max_evals)
        for x0, recs, why in zip(x0s, records, reasons):
            seen, want = _scipy_start(x0, b, max_evals, step)
            assert recs == seen, max_evals
            assert why == want, max_evals
        return reasons

    # the three starts in lockstep until each stops on the spread
    assert check(x0s, 10 ** 6) == ("spread",) * 3
    # every budget up to the first start's spread stop: the runs end inside
    # the initial simplex (budget < 6), after reflections, expansions and
    # contractions, and part-way through a shrink
    full, _ = _scipy_start(x0s[0], b, 10 ** 6, step)
    for max_evals in range(1, len(full) + 1):
        assert check(x0s[:1], max_evals) == ("evaluations",)
    sizes.clear()
    assert check(x0s[:1], len(full) + 1) == ("spread",)
    assert 5 in sizes[1:]   # a round of 5 points from one start is a shrink


@pytest.fixture(scope="module")
def od200_objective():
    return dfm.make_objective(200.0)


@pytest.mark.parametrize("k", [1, 7, 32])
def test_batched_objective_matches_single_points_bitwise(od200_objective, k):
    b = default_bounds()
    rng = np.random.default_rng(k)
    X = b[:, 0] + rng.uniform(size=(k, 5)) * (b[:, 1] - b[:, 0])
    X[0, 2] = -13.952544085020115   # C's pow(d, 2) and d * d round apart here
    X[1:2, 0] = 0.0                 # no coupling beam: a constant profile row
    got = od200_objective(X)
    assert got.shape == (k,)
    rates = dfm.RateTable()
    medium = dfm.MediumConfig.derive(rates, od=200.0)
    for row, eta in zip(X, got):
        assert eta == od200_objective(row)
        drive = dfm.DriveConfig(**dict(zip(PARAM_NAMES, row.tolist())))
        assert eta == dfm.observables_at(dfm.ConfigBundle(rates=rates, medium=medium,
                                                          drive=drive)).eta_s


@pytest.mark.parametrize("omega_c", [np.nan, -1.0])
def test_bad_point_raises_keyed_error(od200_objective, omega_c):
    point = np.array((omega_c, 5.0, 3.0, -2.0, 1.0))
    X = np.array([(10.0, 5.0, 3.0, -2.0, 1.0), point, (12.0, 4.0, -1.0, 2.0, 0.5)])
    for x in (point, X):
        with pytest.raises(ConfigValidationError) as err:
            od200_objective(x)
        assert err.value.key == "fields.omega_c"


def test_batched_objective_error_carries_failing_row():
    # the middle row is singular as in test_objective_error_carries_parameters
    objective = dfm.make_objective(5.0, rates=dfm.RateTable(gamma41=0.0), n_z=50)
    X = np.array([(10.0, 5.0, 3.0, -2.0, 1.0), (0.0,) * 5, (12.0, 4.0, -1.0, 2.0, 0.5)])
    objective(X[[0, 2]])   # the other rows alone are fine
    with pytest.raises(ObjectiveError) as err:
        objective(X)
    assert err.value.params == (0.0, 0.0, 0.0, 0.0, 0.0)
