"""Classical analysis of the electro-optic feedback loop (no atom).

The loop measures the X quadrature of a weak beam by homodyne detection
(efficiency eps), feeds the photocurrent through a causal filter h(s) with
delay support [0, tau] and low-frequency round-loop gain g, and modulates
the beam phase.  With unit-norm white noises xi_nu (vacuum) and xi_eps
(detector), the stationary loop obeys

    X(t) = xi_nu(t) + Phi(t),          Phi(t) = (g/sqrt(eps)) int h(s) I(t-s) ds
    I(t) = sqrt(eps) X(t) + sqrt(1-eps) xi_eps(t),

so in the Fourier domain (with filter response h~(w) = int h(s) e^{iws} ds,
h~(0) = 1) the in-loop quadrature and photocurrent spectra are

    S_in(w)  = [1 + g^2 |h~|^2 (1/eps - 1)] / |1 - g h~|^2
    S_hom(w) = 1 / |1 - g h~|^2,

both normalized to 1 at w -> inf (shot noise).  In the flat-response band
the in-loop spectrum is minimized to 1 - eps at g = -eps/(1 - eps), below
the standard quantum limit, while the photocurrent noise S_hom keeps
falling as g -> -inf.  The closed form for S_hom follows from eliminating
the loop: I = [sqrt(eps) xi_nu + sqrt(1-eps) xi_eps] / (1 - g h~); it is
validated here against the Monte Carlo loop and its limits S_hom(inf) = 1
and S_hom -> 0 for g -> -inf.

Stability: the textbook sufficient condition g Re[h~(w)] < 1 for all w is
conservative for filters whose response crosses the real axis only at
zeros (the rectangular filter with strongly negative gain is a stable
example it would reject).  The check used here is the Nyquist criterion in
its practical form: the loop is unstable iff the open-loop response
g h~(w) crosses the real axis at or beyond +1.  Simulations additionally
apply the same crossing test to the response of the discretized loop
(`assert_discrete_stable`); `loop_recursion_poles` is its exact reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InstabilityError, ParameterError

# Frequency grid for stability scans: log spaced over [1e-3, 1e3] / tau.
STABILITY_GRID_POINTS = 4096
STABILITY_GRID_DECADES = (-3.0, 3.0)
# FFT length for the real-axis crossings of the discretized loop response.
CROSSING_GRID_POINTS = 1 << 16


@dataclass(frozen=True)
class LoopFilter:
    """Normalized causal loop filter h(s) >= 0 with int h(s) ds = 1.

    kinds
    -----
    rectangular : h = 1/tau on [0, tau]
    exponential : h ~ exp(-s/time_constant) truncated to [0, tau]
    single_pole : h = exp(-s/tau)/tau on [0, inf) (tau is the time
                  constant; the one kind without strict support [0, tau])
    sampled     : user samples on a uniform grid over [0, tau],
                  trapezoid-normalized
    """

    kind: str
    tau: float
    time_constant: float | None = None
    samples: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.tau <= 0.0:
            raise ParameterError(f"filter delay tau must be positive, got {self.tau}")
        if self.kind not in ("rectangular", "exponential", "single_pole", "sampled"):
            raise ParameterError(f"unknown filter kind {self.kind!r}")
        if self.kind == "exponential" and (self.time_constant or 0.0) <= 0.0:
            raise ParameterError("exponential filter needs a positive time constant")
        if self.kind == "sampled":
            s = np.asarray(self.samples, dtype=float)
            if s.ndim != 1 or s.size < 2:
                raise ParameterError("sampled filter needs >= 2 samples")
            if np.any(s < 0.0):
                raise ParameterError("filter samples must be nonnegative")
            if np.trapezoid(s, dx=self.tau / (s.size - 1)) <= 0.0:
                raise ParameterError("filter samples must have positive weight")

    @classmethod
    def rectangular(cls, tau: float) -> "LoopFilter":
        return cls("rectangular", tau)

    @classmethod
    def exponential(cls, tau: float, time_constant: float | None = None) -> "LoopFilter":
        return cls("exponential", tau, time_constant=time_constant or tau / 4.0)

    @classmethod
    def single_pole(cls, time_constant: float) -> "LoopFilter":
        return cls("single_pole", time_constant)

    @classmethod
    def from_samples(cls, tau: float, samples) -> "LoopFilter":
        return cls("sampled", tau, samples=tuple(float(v) for v in samples))

    # -- continuous description -------------------------------------------

    def density(self, s) -> np.ndarray:
        """h(s), vanishing outside the support."""
        s = np.asarray(s, dtype=float)
        if self.kind == "rectangular":
            h = np.where((s >= 0.0) & (s <= self.tau), 1.0 / self.tau, 0.0)
        elif self.kind == "exponential":
            tc = self.time_constant
            norm = tc * (1.0 - np.exp(-self.tau / tc))
            h = np.where(
                (s >= 0.0) & (s <= self.tau), np.exp(-np.minimum(s, self.tau) / tc) / norm, 0.0
            )
        elif self.kind == "single_pole":
            h = np.where(s >= 0.0, np.exp(-np.maximum(s, 0.0) / self.tau) / self.tau, 0.0)
        else:
            grid = np.linspace(0.0, self.tau, len(self.samples))
            vals = np.asarray(self.samples, dtype=float)
            vals = vals / np.trapezoid(vals, grid)
            h = np.where(
                (s >= 0.0) & (s <= self.tau), np.interp(s, grid, vals), 0.0
            )
        return h

    def transfer(self, omega) -> np.ndarray:
        """Filter response h~(w) = int h(s) exp(i w s) ds.

        Closed forms for the analytic kinds; trapezoid quadrature for
        sampled filters.  h~(0) = 1 exactly and |h~| <= 1 for h >= 0.
        """
        w = np.asarray(omega, dtype=float)
        if self.kind == "rectangular":
            x = w * self.tau / 2.0
            out = np.exp(1j * x) * np.sinc(x / np.pi)
        elif self.kind == "exponential":
            tc = self.time_constant
            pole = 1.0 / tc - 1j * w
            out = (1.0 - np.exp(-self.tau / tc) * np.exp(1j * w * self.tau)) / (
                pole * tc * (1.0 - np.exp(-self.tau / tc))
            )
        elif self.kind == "single_pole":
            out = 1.0 / (1.0 - 1j * w * self.tau)
        else:
            grid = np.linspace(0.0, self.tau, len(self.samples))
            vals = np.asarray(self.samples, dtype=float)
            vals = vals / np.trapezoid(vals, grid)
            phases = np.exp(1j * np.multiply.outer(w, grid))
            out = np.trapezoid(vals * phases, grid, axis=-1)
        return out

    # -- discrete description ---------------------------------------------

    def support_duration(self) -> float:
        """Length of the (possibly truncated) support used for simulation
        history buffers.  The single-pole tail is cut where its remaining
        mass is below 1e-10."""
        if self.kind == "single_pole":
            return self.tau * np.log(1e10)
        return self.tau

    def discretize(self, dt: float) -> np.ndarray:
        """Quadrature weights w_j = h((j - 1/2) dt) dt, j = 1..m, for the
        strictly-past convolution Phi_k = sum_j w_j I_{k-j}.

        Midpoint sampling keeps the first tap strictly delayed.  Weights
        are renormalized to sum exactly to 1 so the discrete loop has
        low-frequency gain exactly g.
        """
        if dt <= 0.0:
            raise ParameterError("dt must be positive")
        span = self.support_duration()
        m = int(round(span / dt))
        if m < 1 or dt > span / 2:
            raise ParameterError(
                f"dt = {dt} does not resolve the filter support {span:.3g}"
            )
        s = (np.arange(1, m + 1) - 0.5) * dt
        w = self.density(s) * dt
        total = w.sum()
        if total <= 0.0:
            raise ParameterError("discretized filter has no weight")
        return w / total


@dataclass(frozen=True)
class LoopConfig:
    """Classical loop parameters: round-loop gain g, detector efficiency
    eps, mode matching eta, and the loop filter."""

    g: float
    eps: float
    eta: float
    filter: LoopFilter

    def __post_init__(self):
        if not 0.0 < self.eps <= 1.0:
            raise ParameterError(f"detector efficiency eps must be in (0, 1], got {self.eps}")
        if not 0.0 <= self.eta <= 1.0:
            raise ParameterError(f"mode matching eta must be in [0, 1], got {self.eta}")


def _stability_grid(filt: LoopFilter) -> np.ndarray:
    lo, hi = STABILITY_GRID_DECADES
    return np.logspace(lo, hi, STABILITY_GRID_POINTS) / filt.tau


def _real_axis_max(resp: np.ndarray, on_axis: np.ndarray) -> float:
    """Largest real part of a sampled response at the points `on_axis`
    marks as lying on the real axis and at its crossings between samples,
    found by linear interpolation at each sign flip of the imaginary part;
    -inf if there are neither."""
    re, im = resp.real, resp.imag
    flips = np.nonzero(im[:-1] * im[1:] < 0.0)[0]
    frac = im[flips] / (im[flips] - im[flips + 1])
    cross = re[flips] + frac * (re[flips + 1] - re[flips])
    return float(np.max(np.concatenate((cross, re[on_axis])), initial=-np.inf))


def ray_crossing_excess(cfg: LoopConfig) -> float:
    """Largest real part of the open-loop response g h~(w) where its locus
    crosses (or touches) the real axis; >= 1 signals an encirclement of
    the critical point, i.e. instability.  The zero-frequency value g is
    always a real-axis point."""
    resp = cfg.g * cfg.filter.transfer(_stability_grid(cfg.filter))
    touches = np.abs(resp.imag) < 1e-14 * np.maximum(np.abs(resp.real), 1.0)
    return max(cfg.g, _real_axis_max(resp, touches))


def is_stable(cfg: LoopConfig) -> bool:
    return ray_crossing_excess(cfg) < 1.0


def assert_stable(cfg: LoopConfig) -> None:
    excess = ray_crossing_excess(cfg)
    if excess >= 1.0:
        raise InstabilityError(
            f"feedback loop unstable: open-loop response crosses the real axis "
            f"at {excess:.6g} >= 1 (g = {cfg.g}, filter = {cfg.filter.kind})"
        )


def in_loop_spectrum(cfg: LoopConfig, omega) -> np.ndarray:
    """Spectrum of the in-loop X quadrature,
    S_in = [1 + g^2 |h~|^2 (1/eps - 1)] / |1 - g h~|^2.

    Equals 1 for an open loop, tends to 1 at high frequency, and is
    bounded below by 1 - eps (reached at the optimal gain)."""
    if cfg.eps <= 0.0:
        raise ParameterError("in-loop spectrum requires eps > 0")
    assert_stable(cfg)
    h = cfg.filter.transfer(omega)
    num = 1.0 + cfg.g**2 * np.abs(h) ** 2 * (1.0 / cfg.eps - 1.0)
    return num / np.abs(1.0 - cfg.g * h) ** 2


def homodyne_spectrum(cfg: LoopConfig, omega) -> np.ndarray:
    """Spectrum of the in-loop photocurrent, S_hom = 1 / |1 - g h~|^2."""
    assert_stable(cfg)
    h = cfg.filter.transfer(omega)
    return 1.0 / np.abs(1.0 - cfg.g * h) ** 2


def optimal_gain(eps: float) -> float:
    """Gain g = -eps/(1 - eps) minimizing the flat-band in-loop spectrum;
    the minimum value is 1 - eps."""
    if not 0.0 < eps < 1.0:
        if eps == 1.0:
            raise ParameterError("perfect detection: infinite optimal gain")
        raise ParameterError(f"detector efficiency must be in (0, 1), got {eps}")
    return -eps / (1.0 - eps)


def lambda_from_gain(g: float, eta: float) -> float:
    """Feedback strength lam = g eta / (1 - g) in (-eta, inf) for g < 1."""
    if g >= 1.0:
        raise ParameterError(f"round-loop gain must satisfy g < 1, got {g}")
    if not 0.0 < eta <= 1.0:
        raise ParameterError(f"mode matching eta must be in (0, 1], got {eta}")
    return g * eta / (1.0 - g)


def gain_from_lambda(lam: float, eta: float) -> float:
    """Inverse of `lambda_from_gain`: g = lam / (eta + lam)."""
    if not 0.0 < eta <= 1.0:
        raise ParameterError(f"mode matching eta must be in (0, 1], got {eta}")
    if lam <= -eta:
        raise ParameterError(
            f"unreachable feedback strength: lam must exceed -eta = {-eta}, got {lam}"
        )
    return lam / (eta + lam)


def squeezing_from_lambda(lam: float, eta: float, eps: float) -> float:
    """Flat-band in-loop squeezing S = 1 + 2 lam/eta + lam^2/(eta^2 eps),
    identical to S_in at h~ = 1 for the corresponding gain."""
    if not 0.0 < eta <= 1.0:
        raise ParameterError(f"mode matching eta must be in (0, 1], got {eta}")
    if not 0.0 < eps <= 1.0:
        raise ParameterError(f"detector efficiency eps must be in (0, 1], got {eps}")
    if lam <= -eta:
        raise ParameterError(
            f"unreachable feedback strength: lam must exceed -eta = {-eta}, got {lam}"
        )
    return 1.0 + 2.0 * lam / eta + lam * lam / (eta * eta * eps)


# -- Monte Carlo loop -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LoopRecord:
    """Sampled classical loop run: in-loop quadrature, photocurrent and
    feedback drive at step resolution."""

    dt: float
    seed: int
    config: LoopConfig
    x_in: np.ndarray
    current: np.ndarray
    drive: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.x_in.size) * self.dt


def loop_recursion_poles(cfg: LoopConfig, dt: float) -> np.ndarray:
    """Poles of the discretized loop recursion I_k = n_k + g sum w_j I_{k-j};
    the recursion is stable iff all lie inside the unit circle.

    This is the exact reference for `assert_discrete_stable`, which
    simulations use instead: the companion-matrix eigenvalues cost O(m^3)
    in the tap count m (seconds at a thousand taps), the crossing scan
    about a millisecond at any m, and the two verdicts agree on the
    filters, steps and gains the tests sweep.
    """
    w = cfg.filter.discretize(dt)
    return np.roots(np.concatenate(([1.0], -cfg.g * w)))


def discrete_loop_transfer(filt: LoopFilter, dt: float, omega) -> np.ndarray:
    """Exact filter response of the discretized loop, sum_j w_j exp(i w j dt).

    Tap j of the recursion acts at lag j dt, so this differs from the
    continuous h~(w) by an O(w dt) phase (about half a step of extra
    delay); the difference matters only at frequencies approaching 1/dt.
    Simulated spectra follow this response exactly, and converge to the
    continuous formulas as dt -> 0.
    """
    w = filt.discretize(dt)
    omega = np.asarray(omega, dtype=float)
    lags = np.arange(1, w.size + 1) * dt
    return np.exp(1j * np.multiply.outer(omega, lags)) @ w


def discrete_crossing_excess(weights: np.ndarray, g: float) -> float:
    """Largest real part of g W(exp(-i theta)) at real-axis crossings of the
    discretized open-loop response, W(z) = sum_j w_j z^{-j}; >= 1 means the
    loop recursion has poles outside the unit circle.

    Discretization can destabilize a stable continuous loop: the
    rectangular window over m taps leaks |g|/m at its first phase crossing
    (a Dirichlet sidelobe), so strong gains need m = tau/dt well above |g|
    even though the continuous rectangular loop is stable at any g < 1.
    """
    w = np.asarray(weights, dtype=float)
    resp = g * np.fft.rfft(np.concatenate(([0.0], w)), n=CROSSING_GRID_POINTS)
    # Points exactly on the real axis, among them theta = 0 and the Nyquist
    # point theta = pi, are crossings that no sign flip of im detects.
    return _real_axis_max(resp, resp.imag == 0.0)


def assert_discrete_stable(filt: LoopFilter, g: float, dt: float) -> None:
    excess = discrete_crossing_excess(filt.discretize(dt), g)
    if excess >= 1.0:
        raise InstabilityError(
            f"discretized loop unstable at dt = {dt:.3g}: open-loop response "
            f"crosses the real axis at {excess:.3g} >= 1 "
            f"({filt.kind} filter, {filt.discretize(dt).size} taps, g = {g}); "
            "decrease dt or use a smoother filter"
        )


def simulate_classical_loop(
    cfg: LoopConfig, dt: float, duration: float, seed: int
) -> LoopRecord:
    """Simulate the closed loop driven by discrete white noise.

    Vacuum and detector noises are Gaussian samples of variance 1/dt (the
    delta-correlated continuum limit), and the loop recursion

        I_k = sqrt(eps) xi_nu_k + sqrt(1-eps) xi_eps_k + g sum_j w_j I_{k-j}

    is solved as a linear recursive filter.  Welch estimates of the X and I
    records converge to S_in and S_hom respectively.
    """
    assert_stable(cfg)
    span = cfg.filter.support_duration()
    if dt > span / 10.0:
        raise ParameterError(f"dt = {dt} must be at most a tenth of the filter support {span:.3g}")
    n = int(round(duration / dt))
    if n < 10:
        raise ParameterError("duration too short for the requested dt")
    assert_discrete_stable(cfg.filter, cfg.g, dt)
    from scipy import signal

    w = cfg.filter.discretize(dt)
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(dt)
    xi_nu = rng.standard_normal(n) * scale
    xi_eps = rng.standard_normal(n) * scale
    noise = np.sqrt(cfg.eps) * xi_nu + np.sqrt(1.0 - cfg.eps) * xi_eps
    current = signal.lfilter([1.0], np.concatenate(([1.0], -cfg.g * w)), noise)
    drive = (current - noise) / np.sqrt(cfg.eps)
    x_in = xi_nu + drive
    return LoopRecord(dt=dt, seed=seed, config=cfg, x_in=x_in, current=current, drive=drive)


def welch_spectrum(
    samples: np.ndarray,
    dt: float,
    nperseg: int | None = None,
    min_segments: int = 100,
) -> tuple[np.ndarray, np.ndarray]:
    """Welch estimate of the two-sided spectral density on the positive
    angular-frequency axis, normalized so unit white noise is flat at 1.

    Hann window, 50% overlap; the default segment length is the largest
    power of two giving at least `min_segments` segments.  No detrending:
    the records analyzed here are zero mean by construction, and per-segment
    mean removal would notch the lowest frequency bins.
    """
    from scipy import signal

    x = np.asarray(samples, dtype=float)
    if nperseg is None:
        target = max(2 * x.size // (min_segments + 1), 64)
        nperseg = 1 << int(np.log2(target))
    elif nperseg < 1:
        raise ParameterError(f"nperseg must be at least 1, got {nperseg}")
    nperseg = int(min(nperseg, x.size))
    freqs, psd = signal.welch(
        x,
        fs=1.0 / dt,
        window="hann",
        nperseg=nperseg,
        noverlap=nperseg // 2,
        detrend=False,
        return_onesided=False,
        scaling="density",
    )
    order = np.argsort(freqs)
    freqs, psd = freqs[order], psd[order]
    keep = freqs > 0.0
    return 2.0 * np.pi * freqs[keep], psd[keep]


def band_average(omega: np.ndarray, values: np.ndarray, lo: float, hi: float) -> float:
    """Mean of spectrum values over angular frequencies in [lo, hi]."""
    mask = (omega >= lo) & (omega <= hi)
    if not np.any(mask):
        raise ParameterError(f"no spectral bins inside [{lo}, {hi}]")
    return float(np.mean(values[mask]))
