"""Classical loop: transfer functions, spectra, gain conversions, stability,
and the Monte Carlo loop against the analytic spectra."""

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from inloop import loop
from inloop.errors import InstabilityError, ParameterError
from inloop.loop import (
    LoopConfig,
    LoopFilter,
    assert_discrete_stable,
    assert_stable,
    band_average,
    discrete_loop_transfer,
    gain_from_lambda,
    homodyne_spectrum,
    in_loop_spectrum,
    is_stable,
    lambda_from_gain,
    loop_recursion_poles,
    optimal_gain,
    simulate_classical_loop,
    squeezing_from_lambda,
    stable_gain_interval,
    welch_spectrum,
)
from inloop.squeezed_bath import free_rates, photon_parameters
from oracles import lfilter_loop, schur_cohn_stable, two_sided_welch, uncached_crossing_excess

RECT = LoopFilter.rectangular(1.0)
EXP7 = LoopFilter.from_samples(1.0, np.exp(-np.linspace(0.0, 1.0, 7) / 0.25))
# samples concentrated at s = tau approximate a pure delay, which is
# unstable for |g| > 1
DELAY64 = LoopFilter.from_samples(1.0, np.r_[np.zeros(56), np.ones(8)])


def fig2_loop(g=-19.0):
    return LoopConfig(g=g, eps=0.95, eta=0.8, filter=RECT)


# -- filters ----------------------------------------------------------------


def test_transfer_normalization_all_kinds():
    filters = [
        RECT,
        LoopFilter.exponential(1.0),
        LoopFilter.single_pole(1.0),
        LoopFilter.from_samples(1.0, np.linspace(1.0, 0.2, 33)),
    ]
    for f in filters:
        assert abs(f.transfer(0.0) - 1.0) < 1e-12
        w = np.linspace(0.0, 40.0, 300)
        assert np.all(np.abs(f.transfer(w)) <= 1.0 + 1e-9)


def test_rectangular_transfer_zero_and_closed_form():
    assert abs(RECT.transfer(2.0 * np.pi)) < 1e-14
    w = np.array([0.3, 1.7, 9.2])
    expected = (np.exp(1j * w) - 1.0) / (1j * w)
    assert np.allclose(RECT.transfer(w), expected, atol=1e-12)


def test_transfer_decays_at_high_frequency():
    for f in [RECT, LoopFilter.exponential(1.0), LoopFilter.single_pole(1.0), EXP7]:
        assert abs(f.transfer(1e4)) < 0.01


@pytest.mark.parametrize(
    "filt",
    [
        EXP7,
        LoopFilter.from_samples(2.0, np.linspace(1.0, 0.2, 33)),
        LoopFilter.from_samples(0.5, [0.0, 3.0, 1.0, 2.0]),
    ],
    ids=["exp7", "ramp33", "uneven4"],
)
def test_sampled_transfer_is_transform_of_density(filt):
    # dense quadrature of the piecewise-linear density, from below the
    # series switch at theta = 1e-2 to far above the sample rate
    s = np.linspace(0.0, filt.tau, 400001)
    h = filt.density(s)
    for wt in (-300.0, -5.0, 1e-4, 3e-3, 0.5, 5.0, 40.0, 97.0, 1000.0):
        w = wt / filt.tau
        quad = np.trapezoid(h * np.exp(1j * w * s), s)
        assert abs(filt.transfer(w) - quad) < 1e-8, wt
    assert abs(filt.transfer(0.0) - 1.0) < 1e-12
    assert np.abs(filt.transfer(np.array([1e-12, -1e-9])) - 1.0).max() < 1e-8


def test_sampled_transfer_memory_does_not_grow_with_sample_count():
    # no (frequencies x samples) phase matrix: 2,000 samples at 4,096
    # frequencies would take 131 MB for it alone
    filt = LoopFilter.from_samples(1.0, np.random.default_rng(3).random(2000))
    w = np.linspace(0.0, 1e3, 4096)
    tracemalloc.start()
    try:
        filt.transfer(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * w.nbytes


def test_sampled_transfer_values():
    # |h~| of the 7-sample exponential at w tau = 5, 40 and 1000
    mags = np.abs(EXP7.transfer(np.array([5.0, 40.0, 1000.0])))
    np.testing.assert_allclose(mags, [0.6334, 0.09525, 0.003891], rtol=1e-3)


def test_filter_density_normalized():
    for f in [RECT, LoopFilter.exponential(1.0, 0.3), LoopFilter.single_pole(0.5)]:
        s = np.linspace(0.0, f.support_duration(), 200001)
        assert abs(np.trapezoid(f.density(s), s) - 1.0) < 1e-6


def test_discretize_weights_sum_to_one():
    for f in [RECT, LoopFilter.exponential(1.0), LoopFilter.single_pole(0.5)]:
        w = f.discretize(0.01)
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.all(w >= 0.0)


def test_filter_validation():
    with pytest.raises(ParameterError):
        LoopFilter.rectangular(0.0)
    with pytest.raises(ParameterError):
        LoopFilter.from_samples(1.0, [-1.0, 2.0])
    with pytest.raises(ParameterError):
        LoopFilter("gaussian", 1.0)
    with pytest.raises(ParameterError, match="a rectangular filter takes no samples"):
        LoopFilter("rectangular", 1.0, samples=[1.0, 2.0])


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: LoopFilter.rectangular(np.nan), "tau must be positive and finite, got nan"),
        (lambda: LoopFilter.rectangular(np.inf), "tau must be positive and finite, got inf"),
        (lambda: LoopFilter.single_pole(np.nan), "tau must be positive and finite, got nan"),
        (lambda: LoopFilter.exponential(1.0, np.nan), "positive, finite time constant, got nan"),
        (lambda: LoopFilter.exponential(1.0, np.inf), "positive, finite time constant, got inf"),
        (lambda: LoopFilter.from_samples(1.0, [1.0, np.nan, 1.0]), "samples must be finite"),
        (lambda: LoopFilter.from_samples(1.0, [1.0, np.inf]), "samples must be finite"),
        (lambda: fig2_loop(np.nan), "gain g must be finite, got nan"),
        (lambda: fig2_loop(np.inf), "gain g must be finite, got inf"),
        (lambda: fig2_loop(-np.inf), "gain g must be finite, got -inf"),
        (lambda: lambda_from_gain(np.nan, 0.8), "gain g must be finite and below 1, got nan"),
        (lambda: lambda_from_gain(-np.inf, 0.8), "gain g must be finite and below 1, got -inf"),
        (lambda: gain_from_lambda(np.nan, 0.8),
         "lam must be finite and exceed -eta = -0.8, got nan"),
        (lambda: squeezing_from_lambda(np.nan, 0.8, 0.95),
         "lam must be finite and exceed -eta = -0.8, got nan"),
        (lambda: free_rates(0.8, np.inf), "level L must be positive and finite, got inf"),
        (lambda: photon_parameters(np.inf), "level L must be positive and finite, got inf"),
        (lambda: simulate_classical_loop(fig2_loop(), dt=0.02, duration=50.0, seed=1.5),
         "seed must be a non-negative integer, got 1.5"),
        (lambda: simulate_classical_loop(fig2_loop(), dt=0.02, duration=50.0, seed=True),
         "seed must be a non-negative integer, got True"),
    ],
    ids=["tau-nan", "tau-inf", "single-pole-nan", "time-constant-nan", "time-constant-inf",
         "sample-nan", "sample-inf", "g-nan", "g-inf", "g-minus-inf", "gain-to-lambda-nan",
         "gain-to-lambda-minus-inf", "lambda-to-gain-nan", "squeezing-nan", "free-rates-inf",
         "photon-parameters-inf", "seed-float", "seed-bool"],
)
def test_non_finite_loop_parameters_are_rejected(make, message):
    with pytest.raises(ParameterError, match=message):
        make()


def test_only_the_exponential_filter_takes_a_time_constant():
    # the exponential default tau/4 stands in for a missing time constant
    # only; 0 is out of domain, and other kinds refuse one
    assert LoopFilter("exponential", 2.0) == LoopFilter.exponential(2.0, 0.5)
    with pytest.raises(ParameterError, match="positive, finite time constant, got 0.0"):
        LoopFilter.exponential(1.0, 0.0)
    for kind, samples in (("rectangular", None), ("single_pole", None), ("sampled", [1.0, 2.0])):
        with pytest.raises(ParameterError, match=f"a {kind} filter takes no time constant"):
            LoopFilter(kind, 1.0, time_constant=0.3, samples=samples)


def test_stability_asserts_fail_on_nan_excess(monkeypatch):
    # a NaN interval edge reads as unstable, so every check must raise
    monkeypatch.setattr(loop, "_gain_interval", lambda filt, weights: (np.nan, np.nan))
    assert not is_stable(fig2_loop())
    with pytest.raises(InstabilityError, match=re.escape("stable interval (nan, nan)")):
        assert_stable(fig2_loop())
    with pytest.raises(InstabilityError, match=re.escape("stable interval (nan, nan)")):
        assert_discrete_stable(RECT, -19.0, 0.02)


@pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0])
def test_discretize_rejects_step_that_is_not_positive_and_finite(dt):
    with pytest.raises(ParameterError, match=f"dt must be positive and finite, got {dt}"):
        RECT.discretize(dt)


# Filters of every kind for the stability-cache sweep.
SWEEP_FILTERS = [
    LoopFilter.rectangular(0.7),
    LoopFilter.exponential(1.3, 0.4),
    LoopFilter.single_pole(0.2),
    LoopFilter.from_samples(2.0, np.random.default_rng(15).random(17)),
]


# Spectrum grids: a scalar, a list, the analysis workload's 2,001-point grid
# twice (the second call hits the cache), and 5,000 points (never cached).
SPECTRUM_GRIDS = [0.0, [0.0, 0.5, 2.0, 7.5], np.linspace(0.0, 50.0, 2001),
                  np.linspace(0.0, 50.0, 2001), np.linspace(0.0, 200.0, 5000)]


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("filt", SWEEP_FILTERS, ids=lambda f: f.kind)
def test_cached_crossing_excess_is_bitwise_the_uncached_scan(filt):
    # verdicts from the cached interval are the per-gain scan's, and the
    # spectra read from the response cache are bitwise the uncached ones
    loop._grid_response.cache_clear()
    loop._gain_interval.cache_clear()
    responses = [filt.transfer(w) for w in SPECTRUM_GRIDS]
    gains = np.random.default_rng(1501).uniform(-40.0, 0.99, 300)
    lo, hi = stable_gain_interval(filt)
    stable = 0
    for g in gains:
        cfg = LoopConfig(g=float(g), eps=0.9, eta=0.8, filter=filt)
        ref = uncached_crossing_excess(cfg)
        assert is_stable(cfg) == (ref < 1.0)
        if ref >= 1.0:
            expected = (f"g = {cfg.g} is outside the stable interval ({lo:.6g}, {hi:.6g}) "
                        f"of the {filt.kind} filter")
            with pytest.raises(InstabilityError, match=re.escape(expected)):
                assert_stable(cfg)
            continue
        stable += 1
        for w, h in zip(SPECTRUM_GRIDS, responses):
            den = np.abs(1.0 - cfg.g * h) ** 2
            s_in = (1.0 + cfg.g**2 * np.abs(h) ** 2 * (1.0 / cfg.eps - 1.0)) / den
            s_hom = 1.0 / den
            got_in, got_hom = in_loop_spectrum(cfg, w), homodyne_spectrum(cfg, w)
            assert _same_bits(got_in, s_in) and _same_bits(got_hom, s_hom)
            if np.ndim(w):
                # fresh arrays: writing into one leaves the next call unchanged
                got_in[:] = -1.0
                got_hom[:] = -1.0
                assert _same_bits(in_loop_spectrum(cfg, w), s_in)
                assert _same_bits(homodyne_spectrum(cfg, w), s_hom)
    assert stable > 0
    # one scan for the filter, however many configs and checks read it
    assert loop._gain_interval.cache_info().misses == 1
    # entries for 0.0, the list and the 2,001-point grid; none for 5,000
    # points.  Per stable gain, two spectra on four cached grids, again on
    # the three arrays
    info = loop._grid_response.cache_info()
    assert (info.misses, info.currsize) == (3, 3)
    assert info.hits == (2 * 4 + 2 * 3) * stable - 3


def test_gain_sweep_computes_one_interval_per_filter_and_step():
    # every check of a sweep over g, eps and eta at one filter and step
    # reads one continuous and one discretized interval, which equal
    # filters share
    loop._gain_interval.cache_clear()
    checks = 0
    for g in np.linspace(-12.0, 0.9, 7):
        for eps in (0.3, 0.95):
            for eta in (0.5, 1.0):
                filt = LoopFilter.exponential(1.0, 0.25)  # a fresh, equal filter each time
                cfg = LoopConfig(g=float(g), eps=eps, eta=eta, filter=filt)
                assert is_stable(cfg)
                in_loop_spectrum(cfg, [0.0, 1.0])
                assert_discrete_stable(filt, cfg.g, 0.025)
                checks += 3
    info = loop._gain_interval.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, checks - 2, 2)


def spectrum_response(filt):
    return loop._spectrum_response(filt, SPECTRUM_GRIDS[2])


def test_cached_spectrum_response_is_read_only():
    resp = spectrum_response(RECT)
    assert not resp.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        resp[0] = 0.0


def test_equal_filters_share_one_stability_response():
    loop._grid_response.cache_clear()
    loop._gain_interval.cache_clear()
    first_filter = LoopFilter.exponential(0.8, 0.2)
    first = spectrum_response(first_filter)
    second = spectrum_response(LoopFilter.exponential(0.8, 0.2))
    assert second is first
    assert loop._grid_response.cache_info()[:2] == (1, 1)  # (hits, misses)
    # same tau, different samples: two entries
    a = spectrum_response(LoopFilter.from_samples(0.8, [1.0, 2.0, 1.0]))
    b = spectrum_response(LoopFilter.from_samples(0.8, [1.0, 0.5, 1.0]))
    assert loop._grid_response.cache_info()[:2] == (1, 3)
    assert not np.array_equal(a, b)
    # the stability checks share one interval per filter and per step
    for dt in (None, 0.02):
        assert stable_gain_interval(first_filter, dt) is stable_gain_interval(
            LoopFilter.exponential(0.8, 0.2), dt)
    assert loop._gain_interval.cache_info()[:2] == (2, 2)


@pytest.mark.parametrize("samples", [[0.0, 3.0, 1, 2.0], np.array([0.0, 3.0, 1.0, 2.0])],
                         ids=["list", "ndarray"])
def test_sampled_filter_built_directly_hashes_like_from_samples(samples):
    filt = LoopFilter("sampled", 0.5, samples=samples)
    ref = LoopFilter.from_samples(0.5, [0.0, 3.0, 1.0, 2.0])
    assert filt == ref and hash(filt) == hash(ref)
    assert type(filt.samples) is tuple and all(type(v) is float for v in filt.samples)
    assert stable_gain_interval(filt) is stable_gain_interval(ref)
    for g in (-2.0, -40.0):
        assert is_stable(LoopConfig(g=g, eps=0.9, eta=0.8, filter=filt)) == (
            uncached_crossing_excess(LoopConfig(g=g, eps=0.9, eta=0.8, filter=ref)) < 1.0
        )


# -- analytic spectra --------------------------------------------------------


def test_in_loop_spectrum_open_loop_is_shot_noise():
    cfg = LoopConfig(g=0.0, eps=0.7, eta=0.8, filter=RECT)
    w = np.linspace(0.0, 20.0, 50)
    assert np.allclose(in_loop_spectrum(cfg, w), 1.0, atol=1e-14)
    assert np.allclose(homodyne_spectrum(cfg, w), 1.0, atol=1e-14)


def test_in_loop_spectrum_optimal_point():
    # optimal gain squeezes the flat band to 1 - eps
    assert abs(in_loop_spectrum(fig2_loop(), 0.0) - 0.05) < 1e-12


def test_in_loop_spectrum_direct_evaluation():
    cfg = fig2_loop(g=-5.0)
    expected = (1.0 + 25.0 * (1.0 / 0.95 - 1.0)) / 36.0
    assert abs(in_loop_spectrum(cfg, 0.0) - expected) < 1e-12
    assert in_loop_spectrum(cfg, 0.0) >= 1.0 - cfg.eps


def test_in_loop_spectrum_bounded_below_by_optimum():
    rng = np.random.default_rng(5)
    w = np.logspace(-2, 2, 101)
    draws = [(rng.uniform(-30.0, 0.99), rng.uniform(0.05, 1.0)) for _ in range(100)]
    for filt in (RECT, LoopFilter.exponential(1.0), LoopFilter.single_pole(1.0)):
        for g, eps in draws:
            cfg = LoopConfig(g=g, eps=eps, eta=0.8, filter=filt)
            if not is_stable(cfg):
                continue
            assert np.all(in_loop_spectrum(cfg, w) >= 1.0 - eps - 1e-12)
            # the analytic responses decay, so the photocurrent returns to
            # shot noise far above the loop bandwidth
            assert abs(homodyne_spectrum(cfg, 1e6 / filt.tau) - 1.0) < 1e-3


def test_homodyne_spectrum_values_and_limits():
    cfg = LoopConfig(g=-19.0, eps=1.0, eta=0.8, filter=RECT)
    assert abs(homodyne_spectrum(cfg, 0.0) - 1.0 / 400.0) < 1e-15
    strong = LoopConfig(g=-1e3, eps=0.9, eta=0.8, filter=RECT)
    assert homodyne_spectrum(strong, 0.0) < 0.01
    assert abs(homodyne_spectrum(cfg, 1e5) - 1.0) < 1e-3


def test_spectrum_rejects_eps_zero():
    with pytest.raises(ParameterError):
        LoopConfig(g=0.0, eps=0.0, eta=0.8, filter=RECT)


# -- gain algebra ------------------------------------------------------------


def test_optimal_gain_values():
    assert abs(optimal_gain(0.95) + 19.0) < 1e-12
    assert abs(optimal_gain(0.5) + 1.0) < 1e-12
    assert abs(optimal_gain(1e-6)) < 2e-6
    with pytest.raises(ParameterError):
        optimal_gain(1.0)


def test_optimal_gain_against_golden_section_scan():
    # independent oracle: golden-section minimization of the flat-band formula
    for eps in (0.3, 0.6, 0.95):
        cfg = lambda g: (1.0 + g * g * (1.0 / eps - 1.0)) / (1.0 - g) ** 2
        lo, hi = -400.0, 0.0
        invphi = (np.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        for _ in range(200):
            if cfg(c) < cfg(d):
                b, d = d, c
                c = b - invphi * (b - a)
            else:
                a, c = c, d
                d = a + invphi * (b - a)
        g_star = 0.5 * (a + b)
        assert abs(g_star - optimal_gain(eps)) < 1e-6
        assert abs(cfg(optimal_gain(eps)) - (1.0 - eps)) < 1e-12


def test_lambda_gain_roundtrip_and_range():
    assert lambda_from_gain(0.0, 0.8) == 0.0
    assert abs(lambda_from_gain(-19.0, 0.8) + 0.76) < 1e-12
    assert abs(lambda_from_gain(-1e9, 0.8) + 0.8) < 1e-6
    rng = np.random.default_rng(9)
    for _ in range(1000):
        g = rng.uniform(-50.0, 0.999)
        eta = rng.uniform(0.05, 1.0)
        lam = lambda_from_gain(g, eta)
        assert -eta < lam
        assert abs(gain_from_lambda(lam, eta) - g) < 1e-12 * max(1.0, abs(g))
    with pytest.raises(ParameterError):
        gain_from_lambda(-0.9, 0.8)
    with pytest.raises(ParameterError):
        lambda_from_gain(1.0, 0.8)


def test_squeezing_consistency_triangle():
    # squeezing_from_lambda o lambda_from_gain == in_loop_spectrum at h~ = 1
    rng = np.random.default_rng(21)
    count = 0
    while count < 1000:
        g = rng.uniform(-40.0, 0.99)
        eps = rng.uniform(0.1, 1.0)
        eta = rng.uniform(0.1, 1.0)
        cfg = LoopConfig(g=g, eps=eps, eta=eta, filter=RECT)
        if not is_stable(cfg):
            continue
        lam = lambda_from_gain(g, eta)
        via_lambda = squeezing_from_lambda(lam, eta, eps)
        direct = in_loop_spectrum(cfg, 0.0)
        assert abs(via_lambda - direct) < 1e-12 * max(1.0, direct)
        count += 1


def test_squeezing_from_lambda_values():
    assert squeezing_from_lambda(0.0, 0.8, 0.95) == 1.0
    assert abs(squeezing_from_lambda(-0.76, 0.8, 0.95) - 0.05) < 1e-12
    assert abs(squeezing_from_lambda(-0.8 * 0.95, 0.8, 0.95) - 0.05) < 1e-12


# -- stability ---------------------------------------------------------------


def test_strong_negative_gain_rectangular_is_stable():
    # the conservative textbook bound g Re h~ < 1 would reject this; the
    # response's real-axis crossings sit at the sinc zeros, so it is stable
    cfg = fig2_loop()
    assert is_stable(cfg)
    assert uncached_crossing_excess(cfg) < 1.0
    assert stable_gain_interval(RECT) == (-np.inf, 1.0)


def test_positive_gain_above_unity_unstable():
    cfg = LoopConfig(g=1.2, eps=0.9, eta=0.8, filter=RECT)
    assert not is_stable(cfg)


def test_delay_like_filter_unstable_at_strong_gain():
    cfg = LoopConfig(g=-3.0, eps=0.9, eta=0.8, filter=DELAY64)
    assert not is_stable(cfg)
    assert is_stable(LoopConfig(g=-0.8, eps=0.9, eta=0.8, filter=DELAY64))


def test_single_pole_stable_for_any_negative_gain():
    f = LoopFilter.single_pole(0.3)
    for g in (-0.5, -5.0, -500.0):
        assert is_stable(LoopConfig(g=g, eps=0.9, eta=0.8, filter=f))


def test_discrete_crossing_matches_dirichlet_sidelobe():
    # m equal taps leak |g|/m at the first phase crossing
    for m in (10, 25, 80):
        lo, hi = stable_gain_interval(RECT, 1.0 / m)
        excess = -19.0 / lo
        assert abs(excess - 19.0 / m) < 0.6 / m
        assert hi == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(InstabilityError):
        assert_discrete_stable(LoopFilter.rectangular(1e-3), -19.0, 1e-4)
    assert_discrete_stable(LoopFilter.rectangular(1e-3), -19.0, 2.5e-5)


def test_discrete_crossing_counts_nyquist_point():
    # a 10-tap filter whose open-loop response meets the real axis only at
    # theta = pi, where im is exactly zero and no sign flip is seen
    s = np.linspace(0.0, 1e-3, 7)
    filt = LoopFilter.from_samples(1e-3, np.exp(-s / 2.5e-4))
    excess = -19.0 / stable_gain_interval(filt, 1e-4)[0]
    assert abs(excess - 3.92) < 0.01
    assert not schur_cohn_stable(-19.0 * filt.discretize(1e-4))
    with pytest.raises(InstabilityError):
        assert_discrete_stable(filt, -19.0, 1e-4)
    # the benchmark's single-pole loop stays stable, with both verdicts agreeing
    sp = LoopFilter.single_pole(1e-3)
    assert abs(-19.0 / stable_gain_interval(sp, 1e-4)[0] - 0.949) < 1e-3
    assert schur_cohn_stable(-19.0 * sp.discretize(1e-4))
    assert_discrete_stable(sp, -19.0, 1e-4)


def test_discrete_poles_inside_unit_circle_when_stable():
    cfg = fig2_loop()
    poles = loop_recursion_poles(cfg, 0.02)
    assert np.max(np.abs(poles)) < 1.0


# A sampled filter whose last taps are zero: np.roots returns them as zero roots.
ZERO_TAIL = LoopFilter.from_samples(1.0, np.r_[np.ones(8), np.zeros(8)])


@pytest.mark.parametrize(
    "filt, dt",
    [(RECT, 0.02), (LoopFilter.exponential(1.0), 0.02), (LoopFilter.single_pole(0.1), 0.01),
     (EXP7, 0.02), (DELAY64, 0.02), (ZERO_TAIL, 0.02)],
    ids=["rectangular", "exponential", "single-pole", "exp7", "delay64", "zero-tail"],
)
def test_recursion_poles_are_np_roots_bitwise(filt, dt):
    w = filt.discretize(dt)
    for g in (-19.0, -0.8, 0.0, 0.5):
        cfg = LoopConfig(g=g, eps=0.9, eta=0.8, filter=filt)
        poles = loop_recursion_poles(cfg, dt)
        assert _same_bits(poles, np.roots(np.concatenate(([1.0], -g * w)))), g
    # at g = 0.5, the last zero taps and only they are zero roots
    trailing = w.size - 1 - np.flatnonzero(w)[-1]
    assert (trailing > 0) == (filt is ZERO_TAIL)
    assert np.array_equal(np.flatnonzero(poles == 0.0), np.arange(w.size - trailing, w.size))


def test_schur_cohn_matches_np_roots_on_small_filters():
    # the exact discrete oracle against the companion-matrix roots, on
    # random recursions of 1 to 12 taps on both sides of the unit circle
    rng = np.random.default_rng(27)
    verdicts = []
    for m in range(1, 13):
        for _ in range(50):
            a = rng.normal(size=m) * rng.uniform(0.05, 1.5) / np.sqrt(m)
            a[rng.random(m) < 0.2] = 0.0
            exact = np.max(np.abs(np.roots(np.concatenate(([1.0], -a)))), initial=0.0) < 1.0
            assert schur_cohn_stable(a) == exact, a
            verdicts.append(exact)
    assert 0.2 < np.mean(verdicts) < 0.8


def test_discrete_crossing_agrees_with_recursion_poles():
    # the interval simulations check against the exact Schur-Cohn verdict,
    # over flat, truncated-exponential, single-pole and sampled filters, and
    # the 1,151-tap single pole that companion-matrix eigenvalues cannot afford
    s = np.linspace(0.0, 1e-3, 7)
    filters = [
        LoopFilter.rectangular(1e-2),
        LoopFilter.exponential(1e-2),
        LoopFilter.single_pole(1e-3),
        LoopFilter.from_samples(1e-3, np.exp(-s / 2.5e-4)),
    ]
    cases = [(f, f.tau / steps) for f in filters for steps in (10, 20, 40)]
    cases.append((LoopFilter.single_pole(1.0), 0.02))
    assert cases[-1][0].discretize(0.02).size == 1151
    verdicts = []
    for filt, dt in cases:
        w = filt.discretize(dt)
        for g in np.linspace(-60.0, 0.95, 25):
            unstable = not schur_cohn_stable(g * w)
            try:
                assert_discrete_stable(filt, g, dt)
                rejected = False
            except InstabilityError:
                rejected = True
            assert rejected == unstable, (filt.kind, dt, g)
            verdicts.append(unstable)
    assert len(verdicts) == 325
    assert 0 < sum(verdicts) < len(verdicts)


EDGE_FILTERS = {
    "rectangular": RECT,
    "exponential": LoopFilter.exponential(1.0),
    "single-pole": LoopFilter.single_pole(0.1),
    "exp7": EXP7,
    "delay64": DELAY64,
    "zero-tail": ZERO_TAIL,
}


@pytest.mark.parametrize("steps", [None, 10, 20, 40], ids=lambda n: f"tau/{n}" if n else "continuous")
@pytest.mark.parametrize("name", EDGE_FILTERS)
def test_interval_edges_match_the_oracles(name, steps):
    # a gain 1e-5 inside each finite edge is stable and one 1e-5 outside is
    # not, by the per-gain scan for the continuous loop and by Schur-Cohn
    # for the discretized one.  The FFT scan's discrete edge sits up to a
    # few 1e-6 (relative) beyond the exact one, so a margin of 1e-6 is too
    # tight for sampled filters.
    filt = EDGE_FILTERS[name]
    dt = None if steps is None else filt.tau / steps
    lo, hi = stable_gain_interval(filt, dt)
    assert lo < 0.0 and hi == pytest.approx(1.0, abs=1e-15)
    for edge in (lo, hi):
        if not np.isfinite(edge):
            continue
        for g, stable in ((edge * (1.0 - 1e-5), True), (edge * (1.0 + 1e-5), False)):
            cfg = LoopConfig(g=g, eps=0.9, eta=0.8, filter=filt)
            if dt is None:
                assert is_stable(cfg) == stable == (uncached_crossing_excess(cfg) < 1.0), g
            else:
                assert schur_cohn_stable(g * filt.discretize(dt)) == stable, g
                if stable:
                    assert_discrete_stable(filt, g, dt)
                    continue
                expected = (f"g = {g} is outside the stable interval ({lo:.3g}, {hi:.3g}) "
                            f"of the {filt.kind} filter at dt = {dt:.3g}")
                with pytest.raises(InstabilityError, match=re.escape(expected)):
                    assert_discrete_stable(filt, g, dt)


# -- Monte Carlo loop --------------------------------------------------------


@pytest.mark.parametrize("nperseg", [None, 3, 256, 333, 4096, 9999, 20000])
@pytest.mark.parametrize("size", [10000, 9999])
def test_welch_spectrum_matches_two_sided_route(size, nperseg):
    # the numpy estimate equals scipy's two-sided one on w > 0;
    # 9999 and 20000 are clamped to the record length, even or odd.  Both
    # routes sum the same squares in another order, so each bin differs by
    # a few ulps of the spectrum's scale, not of its own value: the
    # single-segment cases' most suppressed bins (PSD 1.3e-5 against a
    # median of 0.77) differ by 1.4e-13 relative on the blocked solve's
    # record.  Hence the absolute floor of 1e-13 times the maximum, on the
    # records of the lfilter route and of the blocked solve.
    records = (
        lfilter_loop(fig2_loop(), dt=0.02, duration=200.0, seed=17)[0],
        simulate_classical_loop(fig2_loop(), dt=0.02, duration=200.0, seed=17).x_in,
    )
    for x in (record[:size] for record in records):
        omega, psd = welch_spectrum(x, 0.02, nperseg=nperseg)
        omega_ref, psd_ref = two_sided_welch(x, 0.02, nperseg=nperseg)
        assert np.array_equal(omega, omega_ref)
        np.testing.assert_allclose(psd, psd_ref, rtol=1e-13, atol=1e-13 * np.max(psd_ref))
    assert omega.size == (min(nperseg or 128, size) - 1) // 2


@pytest.mark.parametrize(
    "nperseg, size, clamped",
    [
        (1, 10000, 1), (2, 10000, 2), (1, 9999, 1), (2, 9999, 2),
        (0, 100, 0), (-8, 100, -8), (None, 2, 2), (64, 2, 2),
    ],
)
def test_welch_spectrum_rejects_segments_without_interior_bin(nperseg, size, clamped):
    # segments of 1 or 2 samples, also after the clamp to a short record,
    # leave no bin between zero and Nyquist
    x = np.random.default_rng(0).standard_normal(size)
    with pytest.raises(ParameterError, match=f"nperseg must be at least 3, got {clamped}$"):
        welch_spectrum(x, 0.01, nperseg=nperseg)


@pytest.mark.parametrize("min_segments", [-1, 0, 2.5])
def test_welch_spectrum_rejects_min_segments_that_are_not_positive_integers(min_segments):
    # -1 would divide by zero in the default segment length
    x = np.random.default_rng(0).standard_normal(1000)
    with pytest.raises(ParameterError, match="min_segments must be a positive integer"):
        welch_spectrum(x, 0.01, min_segments=min_segments)


@pytest.mark.parametrize("dt", [-0.01, 0.0, np.nan, np.inf])
def test_welch_spectrum_rejects_a_step_that_is_not_positive_and_finite(dt):
    # -0.01 gave negative frequencies and a negative PSD, nan NaN arrays and
    # 0 a ZeroDivisionError
    x = np.random.default_rng(0).standard_normal(1000)
    with pytest.raises(ParameterError, match="time step dt must be positive and finite"):
        welch_spectrum(x, dt, nperseg=64)


@pytest.mark.parametrize("nperseg", [100.7, 64.0, True, "64"])
def test_welch_spectrum_rejects_segment_lengths_that_are_not_integers(nperseg):
    # 100.7 was truncated to 100
    x = np.random.default_rng(0).standard_normal(1000)
    with pytest.raises(ParameterError, match=f"nperseg must be an integer, got {nperseg!r}$"):
        welch_spectrum(x, 0.01, nperseg=nperseg)
    omega, _ = welch_spectrum(x, 0.01, nperseg=np.int64(64))
    assert omega.size == 31


@pytest.mark.parametrize("rows", [100, 1000])
def test_welch_spectrum_memory_does_not_grow_with_rows(rows):
    # segments are a strided view, transformed one bounded block at a time;
    # a copy of all 6 segments of 8192 samples per row would take 39 MB at
    # 100 rows.  The broadcast input itself holds one row.
    x = np.broadcast_to(np.random.default_rng(5).standard_normal(30000), (rows, 30000))
    tracemalloc.start()
    try:
        welch_spectrum(x, 1e-4, nperseg=8192)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_simulated_white_noise_is_flat():
    cfg = LoopConfig(g=0.0, eps=1.0, eta=0.8, filter=RECT)
    rec = simulate_classical_loop(cfg, dt=0.02, duration=1e4, seed=7)
    omega, psd = welch_spectrum(rec.x_in, rec.dt, nperseg=128)
    assert np.all(np.abs(psd - 1.0) < 0.05)


def test_simulated_squeezing_matches_formula_at_low_frequency():
    cfg = fig2_loop()
    rec = simulate_classical_loop(cfg, dt=0.02, duration=1e4, seed=11)
    omega, psd = welch_spectrum(rec.x_in, rec.dt, nperseg=4096)
    low = band_average(omega, psd, 0.0, 0.6)
    assert 0.04 < low < 0.06
    omega_c, psd_c = welch_spectrum(rec.current, rec.dt, nperseg=4096)
    low_c = band_average(omega_c, psd_c, 0.0, 0.6)
    assert abs(low_c - 0.0025) < 0.0008


def test_simulated_noise_enhancement_at_positive_gain():
    cfg = LoopConfig(g=0.5, eps=0.95, eta=0.8, filter=RECT)
    rec = simulate_classical_loop(cfg, dt=0.02, duration=1e4, seed=3)
    omega, psd = welch_spectrum(rec.x_in, rec.dt, nperseg=4096)
    sel = (omega > 0.0) & (omega < 0.5)
    analytic = np.mean(in_loop_spectrum(cfg, omega[sel]))
    est = np.mean(psd[sel])
    assert abs(est - analytic) / analytic < 0.12
    assert est > 3.0  # noise enhancement well above shot noise


def test_simulated_psd_matches_discrete_spectrum_across_bands():
    # the simulation follows the discretized loop response exactly; compare
    # band averages at ~3 sigma of the Welch estimate
    cfg = LoopConfig(g=-5.0, eps=0.9, eta=0.8, filter=RECT)
    rec = simulate_classical_loop(cfg, dt=0.02, duration=5e3, seed=21)
    nperseg = 1024
    omega, psd = welch_spectrum(rec.x_in, rec.dt, nperseg=nperseg)
    h_d = discrete_loop_transfer(cfg.filter, rec.dt, omega)
    disc = (1.0 + cfg.g**2 * np.abs(h_d) ** 2 * (1.0 / cfg.eps - 1.0)) / np.abs(
        1.0 - cfg.g * h_d
    ) ** 2
    n_seg = (rec.x_in.size - nperseg) // (nperseg // 2) + 1
    for lo, hi in [(0.3, 1.0), (1.0, 3.0), (3.0, 10.0), (10.0, 50.0), (50.0, 150.0)]:
        sel = (omega >= lo) & (omega <= hi)
        est, ref = np.mean(psd[sel]), np.mean(disc[sel])
        tol = 3.0 * ref / np.sqrt(n_seg * max(sel.sum(), 1) / 2.0)
        assert abs(est - ref) < max(tol, 0.02 * ref)
    # at low frequency the discrete and continuous formulas agree
    sel = omega <= 1.0
    cont = in_loop_spectrum(cfg, omega[sel])
    assert np.max(np.abs(disc[sel] - cont) / cont) < 5e-3


def test_simulate_rejects_unstable_and_coarse_dt():
    bad = LoopConfig(g=-3.0, eps=0.9, eta=0.8, filter=DELAY64)
    with pytest.raises(InstabilityError):
        simulate_classical_loop(bad, dt=0.01, duration=100.0, seed=1)
    with pytest.raises(ParameterError):
        simulate_classical_loop(fig2_loop(), dt=0.5, duration=100.0, seed=1)


def test_simulate_rejects_loop_unstable_only_once_discretized():
    # continuous rectangular loops are stable at any g < 1, but 10 equal
    # taps leak 19/10 at the first phase crossing
    cfg = LoopConfig(g=-19.0, eps=0.95, eta=0.8, filter=LoopFilter.rectangular(1e-3))
    assert is_stable(cfg)
    with pytest.raises(InstabilityError, match="discretized loop"):
        simulate_classical_loop(cfg, dt=1e-4, duration=1.0, seed=1)


@pytest.mark.parametrize("dt, duration", [(np.nan, 50.0), (0.0, 50.0), (0.02, np.nan),
                                          (0.02, np.inf)])
def test_simulate_rejects_step_and_duration_that_are_not_positive_and_finite(dt, duration):
    with pytest.raises(ParameterError, match="dt and duration must be positive and finite"):
        simulate_classical_loop(fig2_loop(), dt=dt, duration=duration, seed=1)


def test_simulate_rejects_negative_seed():
    with pytest.raises(ParameterError, match="seed must be a non-negative integer, got -5"):
        simulate_classical_loop(fig2_loop(), dt=0.02, duration=50.0, seed=-5)


@pytest.mark.parametrize("filt", [RECT, EXP7], ids=["rectangular", "sampled"])
def test_simulation_discretizes_once(filt, monkeypatch):
    # the weights assert_discrete_stable checks are the ones simulated
    calls = []
    discretize = LoopFilter.discretize
    monkeypatch.setattr(
        LoopFilter, "discretize", lambda f, dt: calls.append(dt) or discretize(f, dt)
    )
    cfg = LoopConfig(g=-3.0, eps=0.9, eta=0.8, filter=filt)
    assert np.array_equal(assert_discrete_stable(filt, -3.0, 0.02), discretize(filt, 0.02))
    calls.clear()
    simulate_classical_loop(cfg, dt=0.02, duration=50.0, seed=13)
    assert calls == [0.02]


# Filters of LOOP_BLOCK - 1, LOOP_BLOCK and LOOP_BLOCK + 1 taps at dt = 0.02,
# where the batched block heads give way to the full carry.
BLOCK_EDGE_FILTERS = [LoopFilter.rectangular((loop.LOOP_BLOCK - 1) * 0.02),
                      LoopFilter.exponential(loop.LOOP_BLOCK * 0.02),
                      LoopFilter.rectangular((loop.LOOP_BLOCK + 1) * 0.02)]


def test_block_edge_filters_straddle_the_block():
    sizes = [filt.discretize(0.02).size for filt in BLOCK_EDGE_FILTERS]
    assert sizes == [loop.LOOP_BLOCK - 1, loop.LOOP_BLOCK, loop.LOOP_BLOCK + 1]


@pytest.mark.parametrize(
    "size", [200, 2048, 5001, loop.LOOP_CHUNK + 1], ids=["below-block", "blocks", "ragged", "chunk+1"]
)
@pytest.mark.parametrize(
    "filt, g",
    [
        (RECT, -19.0),
        (LoopFilter.exponential(1.0), -19.0),
        (LoopFilter.single_pole(1.0), -19.0),
        (EXP7, -3.0),
        (DELAY64, -0.8),
        (RECT, 0.0),
        *[(filt, -19.0) for filt in BLOCK_EDGE_FILTERS],
    ],
    ids=["rectangular", "exponential", "single-pole", "exp7", "delay64", "open-loop",
         "block-1-taps", "block-taps", "block+1-taps"],
)
def test_simulation_matches_lfilter_oracle(filt, g, size):
    # the blocked solve is the recursion exactly, up to rounding; at
    # dt = 0.02 the single pole has 1,151 taps, more than a block holds
    cfg = LoopConfig(g=g, eps=0.9, eta=0.8, filter=filt)
    rec = simulate_classical_loop(cfg, dt=0.02, duration=size * 0.02, seed=29)
    x_ref, current_ref = lfilter_loop(cfg, dt=0.02, duration=size * 0.02, seed=29)
    assert rec.current.size == size
    for got, ref in ((rec.current, current_ref), (rec.x_in, x_ref)):
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize(
    "filt", [RECT, LoopFilter.single_pole(1.0)], ids=["rectangular", "single-pole"]
)
def test_simulation_memory_is_the_two_records(filt):
    # the noises are drawn into the returned arrays and the recursion runs
    # in bounded chunks: only the two 8 MB records of 1e6 samples stay
    cfg = LoopConfig(g=-19.0, eps=0.95, eta=0.8, filter=filt)
    tracemalloc.start()
    try:
        rec = simulate_classical_loop(cfg, dt=0.02, duration=2e4, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.x_in.size == 10**6
    assert peak <= rec.x_in.nbytes + rec.current.nbytes + 4 * 2**20


def test_records_do_not_depend_on_blas_threads():
    # SHA-256 of the records under one and under two OpenBLAS threads: 128
    # taps make the largest block-head product, 16 x 128 x 128, in each of
    # five 16-block chunks and a ragged sixth
    code = (
        "import hashlib\n"
        "from inloop.loop import LOOP_CHUNK, LoopConfig, LoopFilter, simulate_classical_loop\n"
        "filt = LoopFilter.rectangular(1.28)\n"
        "assert filt.discretize(0.01).size == 128\n"
        "cfg = LoopConfig(g=-19.0, eps=0.95, eta=0.8, filter=filt)\n"
        "rec = simulate_classical_loop(cfg, 0.01, (5 * LOOP_CHUNK + 300) * 0.01, 23)\n"
        "print(rec.current.size, hashlib.sha256(rec.x_in.tobytes() + rec.current.tobytes()).hexdigest())\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(loop.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=dict(env, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads))
        assert r.returncode == 0, r.stderr
        digests.append(r.stdout)
    assert digests[0].split()[0] == str(5 * loop.LOOP_CHUNK + 300)
    assert digests[0] == digests[1]


def test_loop_record_reproducible():
    cfg = fig2_loop()
    a = simulate_classical_loop(cfg, dt=0.02, duration=50.0, seed=13)
    b = simulate_classical_loop(cfg, dt=0.02, duration=50.0, seed=13)
    assert np.array_equal(a.x_in, b.x_in)
    assert np.array_equal(a.current, b.current)
