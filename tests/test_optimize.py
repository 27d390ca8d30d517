import numpy as np
import pytest

import diamondfwm as dfm
from diamondfwm import BoundsError, ObjectiveError, optimize_eta
from diamondfwm.optimize import PARAM_NAMES, _latin_hypercube, default_bounds


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
