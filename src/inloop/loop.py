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
g h~(w) crosses the real axis at or beyond +1.  Where it meets the axis
does not depend on g, so a filter, and a filter discretized at a step,
each have one `stable_gain_interval` of g; simulations check both, the
latter by `assert_discrete_stable`.  The Monte Carlo loop solves the recursion in
sequence only for each block's last min(m, LOOP_BLOCK) samples, which the
next block reads, and batches the rest.

Gain sweeps at a fixed filter repeat work that does not depend on g, so
two least-recently-used caches of STABILITY_CACHE_SIZE = 64 entries each
keep it: the stable gain interval per filter and per (filter, weights at
a step) (`_gain_interval`), so a sweep over g, eps and eta scans once per
filter and step; and h~ per (filter, frequency grid) for the spectra
(`_grid_response`, grids of at most 4,096 points only, so at most 64 KiB an
entry plus the grid's 32 KiB key).  Cached responses are read-only; spectra
are bitwise the uncached ones, and fresh, writable arrays.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InstabilityError, ParameterError
from .errors import count, feedback_strength, fraction, positive

# Stability-scan frequencies in units of 1/tau, log spaced over [1e-3, 1e3].
UNIT_STABILITY_GRID = np.logspace(-3.0, 3.0, 4096)
STABILITY_CACHE_SIZE = 64  # entries of each cache: gain intervals, filter responses
# FFT length for the real-axis crossings of the discretized loop response.
CROSSING_GRID_POINTS = 1 << 16
# Shortest Welch segment that leaves a frequency bin between zero and Nyquist.
MIN_NPERSEG = 3
# Samples windowed and Fourier transformed per call in a Welch estimate: at
# most one such block of segments is held at a time, whatever the ensemble.
WELCH_BLOCK = 1 << 16
# Loop-recursion solve: samples per block and per chunk.  Every product of a
# chunk, (4 x 256) @ (256 x 256) tiles and at most 16 x 128 x 128 for the heads,
# stays within 262,144 multiply-adds, which OpenBLAS runs on the calling thread.
LOOP_BLOCK = 256
LOOP_CHUNK = 16 * LOOP_BLOCK


@dataclass(frozen=True)
class LoopFilter:
    """Normalized causal loop filter h(s) >= 0 with int h(s) ds = 1.

    kinds
    -----
    rectangular : h = 1/tau on [0, tau]
    exponential : h ~ exp(-s/time_constant) truncated to [0, tau]; the one
                  kind with a time constant (default tau/4)
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
        positive("filter delay tau", self.tau)
        if self.kind not in ("rectangular", "exponential", "single_pole", "sampled"):
            raise ParameterError(f"unknown filter kind {self.kind!r}")
        if self.kind == "exponential":
            tc = self.tau / 4.0 if self.time_constant is None else self.time_constant
            if not 0.0 < tc < np.inf:
                raise ParameterError(
                    f"exponential filter needs a positive, finite time constant, got {tc}"
                )
            object.__setattr__(self, "time_constant", tc)
        elif self.time_constant is not None:
            raise ParameterError(f"a {self.kind} filter takes no time constant")
        if self.kind == "sampled":
            s = np.asarray(self.samples, dtype=float)
            if s.ndim != 1 or s.size < 2:
                raise ParameterError("sampled filter needs >= 2 samples")
            if not np.all(np.isfinite(s)):
                raise ParameterError("filter samples must be finite")
            if np.any(s < 0.0):
                raise ParameterError("filter samples must be nonnegative")
            if np.trapezoid(s, dx=self.tau / (s.size - 1)) <= 0.0:
                raise ParameterError("filter samples must have positive weight")
            object.__setattr__(self, "samples", tuple(s.tolist()))  # hashable by value
        elif self.samples is not None:
            raise ParameterError(f"a {self.kind} filter takes no samples")

    @classmethod
    def rectangular(cls, tau: float) -> "LoopFilter":
        return cls("rectangular", tau)

    @classmethod
    def exponential(cls, tau: float, time_constant: float | None = None) -> "LoopFilter":
        return cls("exponential", tau, time_constant=time_constant)

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
            grid, vals = self._normalized_samples()
            h = np.where(
                (s >= 0.0) & (s <= self.tau), np.interp(s, grid, vals), 0.0
            )
        return h

    def _normalized_samples(self) -> tuple[np.ndarray, np.ndarray]:
        """Grid and values of a sampled filter, scaled to unit trapezoid area."""
        grid = np.linspace(0.0, self.tau, len(self.samples))
        vals = np.asarray(self.samples, dtype=float)
        return grid, vals / np.trapezoid(vals, grid)

    def transfer(self, omega) -> np.ndarray:
        """Filter response h~(w) = int h(s) exp(i w s) ds.

        Closed forms for every kind.  A sampled filter's is the exact
        transform of its piecewise-linear `density`: with sample spacing
        d = tau / (N - 1), theta = w d and normalized samples v_k,

            h~ = d [W sum_k v_k e^{ik theta} + a v_0 + conj(a) v_{N-1} e^{i(N-1) theta}]
            W  = sinc^2(theta/2),    a = -W/2 + i (theta - sin theta) / theta^2,

        which decays like 1/w (1/w^2 if both end samples vanish).  h~(0) = 1
        and |h~| <= 1 for h >= 0.
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
            _, vals = self._normalized_samples()
            d = self.tau / (vals.size - 1)
            theta = w * d
            sinc2 = np.sinc(theta / (2.0 * np.pi)) ** 2
            # (theta - sin theta) / theta^2 by its series where it cancels.
            small = np.abs(theta) < 1e-2
            safe = np.where(small, 1.0, theta)
            odd = np.where(small, theta / 6.0 - theta**3 / 120.0, (safe - np.sin(safe)) / safe**2)
            a = -0.5 * sinc2 + 1j * odd
            # Horner's rule for sum_k v_k e^{ik theta}: O(w) memory at any N.
            inner = np.polyval(vals[::-1], np.exp(1j * theta))
            last = np.exp(1j * (vals.size - 1) * theta)
            out = d * (sinc2 * inner + a * vals[0] + np.conj(a) * vals[-1] * last)
        return out

    # -- discrete description ---------------------------------------------

    def support_duration(self) -> float:
        """Length of the (possibly truncated) support used for simulation
        history buffers.  The single-pole tail is cut where its remaining
        mass is below 1e-10."""
        if self.kind == "single_pole":
            return self.tau * np.log(1e10)
        return self.tau

    def check_step(self, dt: float) -> None:
        """Raise ParameterError unless dt resolves the filter: positive,
        finite and at most a tenth of its scale, which is tau, or for the
        exponential kind min(tau, 4 time_constant) (tau at the default time
        constant).  A relative slack of 1e-14 forgives rounding in dt, and
        still leaves at least 10 taps at any scale."""
        positive("dt", dt)
        scale = min(self.tau, 4.0 * self.time_constant) if self.kind == "exponential" else self.tau
        if dt > scale / 10.0 * (1.0 + 1e-14):
            raise ParameterError(
                f"dt = {dt} must be at most {scale / 10.0:.3g}, a tenth of the "
                f"{self.kind} filter's scale {scale:.3g}, to resolve the loop filter"
            )

    def discretize(self, dt: float) -> np.ndarray:
        """Quadrature weights w_j = h((j - 1/2) dt) dt, j = 1..m, for the
        strictly-past convolution Phi_k = sum_j w_j I_{k-j}.

        dt must pass `check_step`, the one step rule of every discretized
        loop: at most a tenth of tau, or of min(tau, 4 time_constant) for
        the exponential kind, so m >= 10.  Midpoint sampling keeps the first
        tap strictly delayed.  Weights are renormalized to sum exactly to 1
        so the discrete loop has low-frequency gain exactly g.
        """
        self.check_step(dt)
        m = int(round(self.support_duration() / dt))
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
        if not np.isfinite(self.g):
            raise ParameterError(f"round-loop gain g must be finite, got {self.g}")
        fraction("detector efficiency eps", self.eps)
        fraction("mode matching eta", self.eta, zero=True)


@functools.lru_cache(maxsize=STABILITY_CACHE_SIZE)
def _gain_interval(filt: LoopFilter, weights: bytes | None) -> tuple[float, float]:
    """`stable_gain_interval` of `filt`, or of its discretized loop given
    the float64 bytes of its weights at the step: keyed by the weights, not
    dt, so that `assert_discrete_stable` discretizes once."""
    if weights is None:  # h~(0) = 1, then h~ on the scan grid
        resp = np.concatenate(([1.0], filt.transfer(UNIT_STABILITY_GRID / filt.tau)))
        on_axis = np.abs(resp.imag) < 1e-14 * np.maximum(np.abs(resp.real), 1.0)
    else:  # points exactly on the real axis, theta = 0 and pi among them
        resp = np.fft.rfft(np.concatenate(([0.0], np.frombuffer(weights))), n=CROSSING_GRID_POINTS)
        on_axis = resp.imag == 0.0
    re, im = resp.real, resp.imag
    flips = np.nonzero(im[:-1] * im[1:] < 0.0)[0]
    frac = im[flips] / (im[flips] - im[flips + 1])
    v = re[flips] + frac * (re[flips + 1] - re[flips])
    if weights is not None and v.size:  # Newton steps on Im W at crossings that may set an edge
        w, d = np.frombuffer(weights), 2.0 * np.pi / CROSSING_GRID_POINTS  # angle step
        j = np.arange(1.0, w.size + 1.0)
        near = (v - v.min() <= 1e-3 * abs(v.min())) | (v.max() - v <= 1e-3 * abs(v.max()))
        for i in np.array_split(np.flatnonzero(near), -(-near.sum() * w.size // (1 << 18))):
            left, x = flips[i] * d, (flips[i] + frac[i]) * d
            for _ in range(4):  # Im W = -sum_j w_j sin(j x) has the slope -sum_j j w_j cos(j x)
                e = np.exp(-1j * np.multiply.outer(x, j))
                f, slope = (e @ w).imag, (e @ (j * w)).real
                x = np.clip(x + np.divide(f, slope, out=np.zeros_like(x), where=slope != 0.0),
                            left, left + d)
            v[i] = (np.exp(-1j * np.multiply.outer(x, j)) @ w).real
    v = np.concatenate((v, re[on_axis]))
    lo, hi = float(v.min()), float(v.max())
    return (1.0 / lo if lo < 0.0 else -np.inf), 1.0 / hi


def stable_gain_interval(filt: LoopFilter, dt: float | None = None) -> tuple[float, float]:
    """Open interval (g_lo, g_hi) of the gains g at which the loop through
    `filt` is stable, or with dt, the loop discretized at that step.

    g h~ crosses the real axis where h~ does, at real values v independent
    of g, so it crosses at or beyond +1 iff g v >= 1 for some v: g_lo =
    1/min v if min v < 0, else -inf, and g_hi = 1/max v.  The v are read off
    h~ on the scan grid UNIT_STABILITY_GRID / tau, with h~(0) = 1 among
    them, or off W(exp(-i theta)) = sum_j w_j exp(-i j theta) at
    CROSSING_GRID_POINTS // 2 + 1 angles in [0, pi]: at the points on the
    real axis, and between samples by linear interpolation at each sign
    flip of the imaginary part.  For the discretized loop the crossings
    that may set an edge are then solved on the taps' exact sum (Newton
    steps), so its edges are exact to rounding.

    Discretization can shrink the interval: the rectangular window over m
    taps leaks -1/m at its first phase crossing (a Dirichlet sidelobe), so
    g_lo is about -m, though the continuous rectangular loop is stable at
    any g < 1.
    """
    return _gain_interval(filt, None if dt is None else filt.discretize(dt).tobytes())


@functools.lru_cache(maxsize=STABILITY_CACHE_SIZE)
def _grid_response(filt: LoopFilter, grid_bytes: bytes, shape: tuple[int, ...]) -> np.ndarray:
    """h~ of `filt`, shared read-only, on the float64 grid with these bytes
    and shape."""
    resp = np.asarray(filt.transfer(np.frombuffer(grid_bytes).reshape(shape)))
    resp.flags.writeable = False
    return resp


def _spectrum_response(filt: LoopFilter, omega) -> np.ndarray:
    """h~ of `filt` at `omega`, cached per (filter, grid) for grids of at
    most UNIT_STABILITY_GRID.size points."""
    w = np.asarray(omega, dtype=float)
    if w.size > UNIT_STABILITY_GRID.size:
        return filt.transfer(w)
    return _grid_response(filt, w.tobytes(), w.shape)


def is_stable(cfg: LoopConfig) -> bool:
    lo, hi = stable_gain_interval(cfg.filter)
    return lo < cfg.g < hi


def assert_stable(cfg: LoopConfig) -> None:
    lo, hi = stable_gain_interval(cfg.filter)
    if not lo < cfg.g < hi:
        raise InstabilityError(
            f"feedback loop unstable: g = {cfg.g} is outside the stable interval "
            f"({lo:.6g}, {hi:.6g}) of the {cfg.filter.kind} filter"
        )


def in_loop_spectrum(cfg: LoopConfig, omega) -> np.ndarray:
    """Spectrum of the in-loop X quadrature,
    S_in = [1 + g^2 |h~|^2 (1/eps - 1)] / |1 - g h~|^2.

    Equals 1 for an open loop, tends to 1 at high frequency, and is
    bounded below by 1 - eps (reached at the optimal gain)."""
    assert_stable(cfg)
    h = _spectrum_response(cfg.filter, omega)
    num = 1.0 + cfg.g**2 * np.abs(h) ** 2 * (1.0 / cfg.eps - 1.0)
    return num / np.abs(1.0 - cfg.g * h) ** 2


def homodyne_spectrum(cfg: LoopConfig, omega) -> np.ndarray:
    """Spectrum of the in-loop photocurrent, S_hom = 1 / |1 - g h~|^2."""
    assert_stable(cfg)
    h = _spectrum_response(cfg.filter, omega)
    return 1.0 / np.abs(1.0 - cfg.g * h) ** 2


def optimal_gain(eps: float) -> float:
    """Gain g = -eps/(1 - eps) minimizing the flat-band in-loop spectrum;
    the minimum value is 1 - eps."""
    fraction("detector efficiency eps", eps)
    if eps == 1.0:
        raise ParameterError("perfect detection: infinite optimal gain")
    return -eps / (1.0 - eps)


def lambda_from_gain(g: float, eta: float) -> float:
    """Feedback strength lam = g eta / (1 - g) in (-eta, inf) for g < 1."""
    if not -np.inf < g < 1.0:
        raise ParameterError(f"round-loop gain g must be finite and below 1, got {g}")
    fraction("mode matching eta", eta)
    return g * eta / (1.0 - g)


def gain_from_lambda(lam: float, eta: float) -> float:
    """Inverse of `lambda_from_gain`: g = lam / (eta + lam)."""
    fraction("mode matching eta", eta)
    feedback_strength(lam, eta)
    return lam / (eta + lam)


def squeezing_from_lambda(lam: float, eta: float, eps: float) -> float:
    """Flat-band in-loop squeezing S = 1 + 2 lam/eta + lam^2/(eta^2 eps),
    identical to S_in at h~ = 1 for the corresponding gain."""
    fraction("mode matching eta", eta)
    fraction("detector efficiency eps", eps)
    feedback_strength(lam, eta)
    return 1.0 + 2.0 * lam / eta + lam * lam / (eta * eta * eps)


# -- Monte Carlo loop -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LoopRecord:
    """Sampled classical loop run: in-loop quadrature and photocurrent."""

    dt: float
    seed: int
    config: LoopConfig
    x_in: np.ndarray
    current: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.x_in.size) * self.dt


def loop_recursion_poles(cfg: LoopConfig, dt: float) -> np.ndarray:
    """Poles of the discretized loop recursion I_k = n_k + g sum w_j I_{k-j}
    (np.roots's, bitwise: companion-matrix eigenvalues, a zero per trailing
    zero tap); the recursion is stable iff all lie inside the unit circle.

    The poles themselves, which the benchmark's loop landscape reads.
    Verdicts come cheaper: simulations check `stable_gain_interval`, about
    a millisecond at any tap count m, and the tests' exact verdict is the
    O(m^2) Schur-Cohn recursion, while the eigenvalues cost O(m^3).
    """
    a = cfg.g * cfg.filter.discretize(dt)
    m = np.flatnonzero(np.concatenate(([1.0], a)))[-1]  # taps up to the last nonzero one
    companion = np.eye(m, k=-1)
    companion[:1] = a[:m]
    return np.concatenate((np.linalg.eigvals(companion), np.zeros(a.size - m)))


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


def assert_discrete_stable(filt: LoopFilter, g: float, dt: float) -> np.ndarray:
    """Discretize `filt` at step dt, check g against the discretized loop's
    `stable_gain_interval`, and return the checked weights, which are the
    ones a simulation at this step runs on."""
    w = filt.discretize(dt)
    lo, hi = _gain_interval(filt, w.tobytes())
    if not lo < g < hi:
        raise InstabilityError(
            f"discretized loop unstable: g = {g} is outside the stable interval "
            f"({lo:.3g}, {hi:.3g}) of the {filt.kind} filter at dt = {dt:.3g} "
            f"({w.size} taps); decrease dt or use a smoother filter"
        )
    return w


def simulate_classical_loop(
    cfg: LoopConfig, dt: float, duration: float, seed: int
) -> LoopRecord:
    """Simulate the closed loop driven by discrete white noise.

    Vacuum and detector noises are Gaussian samples of variance 1/dt (the
    delta-correlated continuum limit), and the loop recursion

        I_k = n_k + sum_j a_j I_{k-j},   n_k = sqrt(eps) xi_nu_k + sqrt(1-eps) xi_eps_k,

    with a = g w and I = 0 before the first sample, is solved in blocks of
    B = LOOP_BLOCK samples: each block is its inputs times the Toeplitz tile
    HT[l, i] = h[i - l] of the first B impulse-response terms, plus the
    carry K @ I[bB - m : bB] of the m samples before it, K = H A being the
    tile times the taps' pull on the block.  Only a block's last q = min(m, B)
    outputs feed the next carry, so only they are solved block by block; the
    first B - q of a chunk's 16 blocks follow in one product with K's first
    B - q rows (Burrus 1972, block realization).  This is the recursion
    exactly, rounded in another order than a sample-by-sample filter
    (scipy.signal.lfilter agrees to about 1e-15 relative).  The noises are
    drawn into the returned arrays, and the solve holds about 8 B (B + m)
    bytes and a few chunks besides, at any record length.  The tails'
    carries are summed by `np.einsum` and every product runs on one BLAS
    thread (see LOOP_CHUNK), so the records do not depend on the BLAS
    thread count.  Welch estimates of X and I converge to S_in and S_hom.
    """
    count("seed", seed, zero=True)
    positive("dt and duration", dt, duration)
    assert_stable(cfg)
    n = int(round(duration / dt))
    if n < 10:
        raise ParameterError("duration too short for the requested dt")
    w = assert_discrete_stable(cfg.filter, cfg.g, dt)
    ht, k = _recursion_tiles(cfg.g * w)
    m, b_len, head = w.size, LOOP_BLOCK, max(LOOP_BLOCK - w.size, 0)

    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(dt)
    x_in, current = rng.standard_normal(n), rng.standard_normal(n)  # xi_nu, xi_eps
    x_in *= scale
    current *= scale
    for s in range(0, n, LOOP_CHUNK):
        e = min(s + LOOP_CHUNK, n)
        noise = np.zeros(-((s - e) // (4 * b_len)) * 4 * b_len)  # in whole (4 x B) tiles
        noise[: e - s] = np.sqrt(cfg.eps) * x_in[s:e] + np.sqrt(1.0 - cfg.eps) * current[s:e]
        y = (noise.reshape(-1, 4, b_len) @ ht).ravel()
        for b in range(s, e, b_len):
            lo, tail = max(b - m, 0), y[b - s + head : min(b + b_len, e) - s]
            tail += np.einsum("lq,q->l", k[head : head + tail.size, m - (b - lo) :], current[lo:b])
            current[b + head : b + head + tail.size] = tail
        if head:  # the first B - q outputs of each block: its m predecessors times K
            prev = current[max(s - b_len, 0) : b].reshape(-1, b_len)[:, head:]
            y.reshape(-1, b_len)[int(s == 0) : (b - s) // b_len + 1, :head] += prev @ k[:head].T
        current[s:e] = y[: e - s]
        x_in[s:e] += (current[s:e] - noise[: e - s]) / np.sqrt(cfg.eps)
    return LoopRecord(dt=dt, seed=seed, config=cfg, x_in=x_in, current=current)


def _recursion_tiles(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """HT[l, i] = h[i - l] (zero below the diagonal) from the first
    LOOP_BLOCK impulse-response terms h of y_k = x_k + sum_j a_j y_{k-j},
    and the carry K = H A, where A[l, q] = a_{l + m - q} (l <= q) is the
    pull of y[bB - m + q] on y[bB + l]; sums by `np.einsum`."""
    b_len, m = LOOP_BLOCK, a.size
    h = np.zeros(b_len)
    h[0] = 1.0
    for i in range(1, b_len):
        h[i] = np.einsum("j,j->", a[: min(i, m)], h[i - 1 :: -1][:m])
    window = np.lib.stride_tricks.sliding_window_view
    ht = np.ascontiguousarray(window(np.concatenate((np.zeros(b_len - 1), h)), b_len)[::-1])
    taps = window(np.concatenate((np.zeros(b_len), a[::-1])), m)[b_len:0:-1]
    return ht, np.einsum("il,iq->lq", ht, taps)


def welch_spectrum(
    samples: np.ndarray,
    dt: float,
    nperseg: int | None = None,
    min_segments: int = 100,
) -> tuple[np.ndarray, np.ndarray]:
    """Welch estimate of the two-sided spectral density on the positive
    angular-frequency axis, normalized so unit white noise is flat at 1.

    `samples` is one record or a (rows, N) array of records.  Each record is
    cut into segments x_k of nperseg samples starting every `welch_hop`,
    nperseg - nperseg // 2 samples (a shorter tail is dropped), windowed by
    the periodic Hann `welch_window` w_k and transformed,
    X_j = sum_k w_k x_k exp(-2 pi i j k / nperseg).  The estimate at
    w_j = 2 pi j / (nperseg dt), on the bins j = 1 .. (nperseg + 1) // 2 - 1
    strictly between zero and Nyquist, is |X_j|^2 dt / sum_k w_k^2, with
    sum_k w_k^2 = 3 nperseg / 8 exactly, averaged over every segment of every row
    (Welch, IEEE Trans. Audio Electroacoust. 15, 70 (1967)).

    The window sets nperseg; a dt that is not positive and finite raises
    ParameterError.  Segments are a strided view, windowed and transformed
    by `segment_power` WELCH_BLOCK samples (at least one segment) per call,
    so memory stays within a few times 8 max(WELCH_BLOCK, nperseg) bytes at
    any number of rows; the trajectory engine sums `segment_power` of each
    segment as it steps.  No detrending: the records analyzed here are zero
    mean by construction, and per-segment mean removal would notch the
    lowest frequency bins.
    """
    positive("time step dt", dt)
    count("min_segments", min_segments)
    x = np.atleast_2d(np.asarray(samples, dtype=float))
    window = welch_window(x.shape[-1], nperseg, min_segments)
    nperseg = window.size
    segs = np.lib.stride_tricks.sliding_window_view(x, nperseg, -1)[:, :: welch_hop(nperseg)]
    rows, n_seg = segs.shape[:2]
    per_call = max(WELCH_BLOCK // nperseg, 1)
    rows_per_call = max(per_call // n_seg, 1)
    acc = np.zeros((nperseg + 1) // 2 - 1)
    for r in range(0, rows, rows_per_call):
        for s in range(0, n_seg, per_call):
            block = segs[r : r + rows_per_call, s : s + per_call]
            acc += segment_power(block, window).sum(axis=(0, 1))
    return welch_density(acc, window, dt, x.shape[-1], rows)


def welch_window(n_samples: int, nperseg: int | None, min_segments: int) -> np.ndarray:
    """The periodic Hann window w_k = 0.5 + 0.5 cos(2 pi k / nperseg - pi)
    of the Welch segments of records of n_samples.  Its length nperseg is by
    default the largest power of two (64 at least) giving at least
    `min_segments` segments per record.  A given length must be an integer.
    It is clamped to the record length and must then be at least
    MIN_NPERSEG = 3, the shortest that leaves a bin between zero and
    Nyquist, so a shorter segment or record raises ParameterError."""
    if nperseg is None:
        target = max(2 * n_samples // (min_segments + 1), 64)
        nperseg = 1 << int(np.log2(target))
    nperseg = check_nperseg(min(check_nperseg(nperseg), n_samples))  # also once clamped
    return 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, nperseg + 1)[:-1])


def segment_power(segs: np.ndarray, window: np.ndarray) -> np.ndarray:
    """|X_j|^2 of `welch_spectrum` for each segment (last axis)."""
    spec = np.fft.rfft(segs * window)[..., 1 : (window.size + 1) // 2]
    return spec.real**2 + spec.imag**2


def welch_hop(nperseg: int) -> int:
    """Samples from the start of one Welch segment to the next: 50% overlap."""
    return nperseg - nperseg // 2


def welch_density(power: np.ndarray, window: np.ndarray, dt: float, n_samples: int, rows: int):
    """`welch_spectrum` from `segment_power` summed over every segment of `rows` records."""
    segments = rows * ((n_samples - window.size) // welch_hop(window.size) + 1)
    omega = 2.0 * np.pi * np.fft.rfftfreq(window.size, dt)[1 : (window.size + 1) // 2]
    return omega, power * (dt / (segments * (3 * window.size / 8)))


def check_nperseg(nperseg: int) -> int:
    """Return a Welch segment length, or raise if it is not an integer or is
    below MIN_NPERSEG."""
    if isinstance(nperseg, bool) or not isinstance(nperseg, numbers.Integral):
        raise ParameterError(f"nperseg must be an integer, got {nperseg!r}")
    if nperseg < MIN_NPERSEG:
        raise ParameterError(f"nperseg must be at least {MIN_NPERSEG}, got {nperseg}")
    return int(nperseg)


def band_average(omega: np.ndarray, values: np.ndarray, lo: float, hi: float) -> float:
    """Mean of spectrum values over angular frequencies in [lo, hi]."""
    mask = (omega >= lo) & (omega <= hi)
    if not np.any(mask):
        raise ParameterError(f"no spectral bins inside [{lo}, {hi}]")
    return float(np.mean(values[mask]))
