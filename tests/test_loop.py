"""Classical loop: transfer functions, spectra, gain conversions, stability,
and the Monte Carlo loop against the analytic spectra."""

import re
import tracemalloc

import numpy as np
import pytest

from inloop import loop
from inloop.errors import InstabilityError, ParameterError
from inloop.loop import (
    UNIT_STABILITY_GRID,
    LoopConfig,
    LoopFilter,
    assert_discrete_stable,
    assert_stable,
    band_average,
    discrete_crossing_excess,
    discrete_loop_transfer,
    gain_from_lambda,
    homodyne_spectrum,
    in_loop_spectrum,
    is_stable,
    lambda_from_gain,
    loop_recursion_poles,
    optimal_gain,
    ray_crossing_excess,
    simulate_classical_loop,
    squeezing_from_lambda,
    welch_spectrum,
)
from inloop.squeezed_bath import free_rates, photon_parameters
from oracles import lfilter_loop, two_sided_welch, uncached_crossing_excess

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
    # is_stable says False on a NaN excess, so assert_stable must raise
    monkeypatch.setattr(loop, "ray_crossing_excess", lambda cfg: np.nan)
    assert not is_stable(fig2_loop())
    with pytest.raises(InstabilityError, match="at nan >= 1"):
        assert_stable(fig2_loop())
    monkeypatch.setattr(loop, "discrete_crossing_excess", lambda w, g: np.nan)
    with pytest.raises(InstabilityError, match="at nan >= 1"):
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
    loop._grid_response.cache_clear()
    ray_crossing_excess.cache_clear()
    responses = [filt.transfer(w) for w in SPECTRUM_GRIDS]
    gains = np.random.default_rng(1501).uniform(-40.0, 0.99, 300)
    stable = 0
    for g in gains:
        cfg = LoopConfig(g=float(g), eps=0.9, eta=0.8, filter=filt)
        ref = uncached_crossing_excess(cfg)
        assert ray_crossing_excess(cfg) == ref
        assert is_stable(cfg) == (ref < 1.0)
        if ref >= 1.0:
            expected = f"at {ref:.6g} >= 1 (g = {cfg.g}, filter = {filt.kind})"
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
    # one crossing scan per config, however many checks read it
    assert ray_crossing_excess.cache_info().misses == gains.size
    # entries for the scan grid, 0.0, the list and the 2,001-point grid;
    # none for 5,000 points
    info = loop._grid_response.cache_info()
    assert (info.misses, info.currsize) == (4, 4)
    # every crossing scan after the first reads the scan grid's entry; per
    # stable gain, two spectra on four cached grids, again on the three arrays
    assert info.hits == (gains.size - 1) + (2 * 4 + 2 * 3) * stable - 3


def stability_response(filt):
    return loop._spectrum_response(filt, UNIT_STABILITY_GRID / filt.tau)


def test_cached_stability_response_is_read_only():
    resp = stability_response(RECT)
    assert not resp.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        resp[0] = 0.0


def test_equal_filters_share_one_stability_response():
    loop._grid_response.cache_clear()
    first_filter = LoopFilter.exponential(0.8, 0.2)
    first = stability_response(first_filter)
    second = stability_response(LoopFilter.exponential(0.8, 0.2))
    assert second is first
    assert loop._grid_response.cache_info()[:2] == (1, 1)  # (hits, misses)
    # same tau, different samples: two entries
    a = stability_response(LoopFilter.from_samples(0.8, [1.0, 2.0, 1.0]))
    b = stability_response(LoopFilter.from_samples(0.8, [1.0, 0.5, 1.0]))
    assert loop._grid_response.cache_info()[:2] == (1, 3)
    assert not np.array_equal(a, b)
    # the crossing scan reads the same entry
    ray_crossing_excess.cache_clear()
    ray_crossing_excess(LoopConfig(g=-2.0, eps=0.9, eta=0.8, filter=first_filter))
    assert loop._grid_response.cache_info()[:2] == (2, 3)


@pytest.mark.parametrize("samples", [[0.0, 3.0, 1, 2.0], np.array([0.0, 3.0, 1.0, 2.0])],
                         ids=["list", "ndarray"])
def test_sampled_filter_built_directly_hashes_like_from_samples(samples):
    filt = LoopFilter("sampled", 0.5, samples=samples)
    ref = LoopFilter.from_samples(0.5, [0.0, 3.0, 1.0, 2.0])
    assert filt == ref and hash(filt) == hash(ref)
    assert type(filt.samples) is tuple and all(type(v) is float for v in filt.samples)
    assert ray_crossing_excess(LoopConfig(g=-2.0, eps=0.9, eta=0.8, filter=filt)) == (
        uncached_crossing_excess(LoopConfig(g=-2.0, eps=0.9, eta=0.8, filter=ref))
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
    assert ray_crossing_excess(cfg) < 1.0


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
        w = np.full(m, 1.0 / m)
        excess = discrete_crossing_excess(w, -19.0)
        assert abs(excess - 19.0 / m) < 0.6 / m
    with pytest.raises(InstabilityError):
        assert_discrete_stable(LoopFilter.rectangular(1e-3), -19.0, 1e-4)
    assert_discrete_stable(LoopFilter.rectangular(1e-3), -19.0, 2.5e-5)


def test_discrete_crossing_counts_nyquist_point():
    # a 10-tap filter whose open-loop response meets the real axis only at
    # theta = pi, where im is exactly zero and no sign flip is seen
    s = np.linspace(0.0, 1e-3, 7)
    filt = LoopFilter.from_samples(1e-3, np.exp(-s / 2.5e-4))
    excess = discrete_crossing_excess(filt.discretize(1e-4), -19.0)
    assert abs(excess - 3.92) < 0.01
    poles = loop_recursion_poles(LoopConfig(g=-19.0, eps=0.95, eta=0.8, filter=filt), 1e-4)
    assert np.max(np.abs(poles)) >= 1.0
    with pytest.raises(InstabilityError):
        assert_discrete_stable(filt, -19.0, 1e-4)
    # the benchmark's single-pole loop stays stable, with both verdicts agreeing
    sp = LoopFilter.single_pole(1e-3)
    assert abs(discrete_crossing_excess(sp.discretize(1e-4), -19.0) - 0.949) < 1e-3
    cfg = LoopConfig(g=-19.0, eps=0.95, eta=0.8, filter=sp)
    assert np.max(np.abs(loop_recursion_poles(cfg, 1e-4))) < 1.0
    assert_discrete_stable(sp, -19.0, 1e-4)


def test_discrete_poles_inside_unit_circle_when_stable():
    cfg = fig2_loop()
    poles = loop_recursion_poles(cfg, 0.02)
    assert np.max(np.abs(poles)) < 1.0


def test_discrete_crossing_agrees_with_recursion_poles():
    # the crossing scan simulations use against the exact recursion poles,
    # over flat, truncated-exponential, single-pole and sampled filters
    s = np.linspace(0.0, 1e-3, 7)
    filters = [
        LoopFilter.rectangular(1e-2),
        LoopFilter.exponential(1e-2),
        LoopFilter.single_pole(1e-3),
        LoopFilter.from_samples(1e-3, np.exp(-s / 2.5e-4)),
    ]
    verdicts = []
    for filt in filters:
        for steps in (10, 20, 40):
            dt = filt.tau / steps
            if filt.discretize(dt).size > 250:
                continue
            for g in np.linspace(-60.0, 0.95, 25):
                cfg = LoopConfig(g=g, eps=0.9, eta=0.8, filter=filt)
                unstable = np.max(np.abs(loop_recursion_poles(cfg, dt))) >= 1.0
                try:
                    assert_discrete_stable(filt, g, dt)
                    rejected = False
                except InstabilityError:
                    rejected = True
                assert rejected == unstable, (filt.kind, steps, g)
                verdicts.append(unstable)
    assert len(verdicts) == 250
    assert 0 < sum(verdicts) < len(verdicts)


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


@pytest.mark.parametrize("size", [200, 2048, 5001], ids=["below-block", "blocks", "ragged"])
@pytest.mark.parametrize(
    "filt, g",
    [
        (RECT, -19.0),
        (LoopFilter.exponential(1.0), -19.0),
        (LoopFilter.single_pole(1.0), -19.0),
        (EXP7, -3.0),
        (DELAY64, -0.8),
        (RECT, 0.0),
    ],
    ids=["rectangular", "exponential", "single-pole", "exp7", "delay64", "open-loop"],
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


def test_loop_record_reproducible():
    cfg = fig2_loop()
    a = simulate_classical_loop(cfg, dt=0.02, duration=50.0, seed=13)
    b = simulate_classical_loop(cfg, dt=0.02, duration=50.0, seed=13)
    assert np.array_equal(a.x_in, b.x_in)
    assert np.array_equal(a.current, b.current)
