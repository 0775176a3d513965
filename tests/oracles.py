"""Scalar reference implementations that the tests check the library against.

The vectorized trajectory kernel in `inloop.trajectories` is checked against
the one-state stepper `step_conditioned` with its drive `feedback_drive` and
current `mean_current`; the Bloch-tangent superoperators below are checked
against brute-force 2x2 matrix arithmetic, `reference_choi` builds the
Choi matrix of a generator's channel from its matrix-unit definition,
`two_sided_welch` is the two-sided Welch route that `welch_spectrum` is
checked against, `lfilter_loop` runs the classical loop of
`simulate_classical_loop` through scipy's sample-by-sample recursive
filter, `uncached_crossing_excess` is a Nyquist scan of the loop at one
gain, the per-config route that `stable_gain_interval` replaced and that
its continuous verdicts are checked against, `schur_cohn_stable` is the
exact verdict on the discretized loop recursion,
`least_squares_lorentzian_pair` fits the Lorentzian pair of
`fit_lorentzian_pair` with scipy's trust-region least squares, and
`single_pole_hybrid_generator` is the exact generator of the atom jointly
with a single-pole feedback drive, the finite-bandwidth reference for the
engine's decay rates and, as tau -> 0, for `inloop.feedback.rates`.
Conventions are those of `inloop.bloch`.  With r the Bloch vector
of rho, A = a0 I + a . sigma_vec with complex a, and Hermitian
H = h0 I + h . sigma_vec:

conditioning    H[A]rho = A rho + rho A+ - Tr[A rho + rho A+] rho
    tangent = 2 Re(a) - 2 Im(a) x r - (2 Re(a) . r) r
    (the scalar part a0 cancels; Tr[A rho + rho A+] = 2 Re(a0) + 2 Re(a) . r)

unitary flow    -i[H, rho]
    tangent = 2 h x r

The conditioning tangent is quadratic in the state through its expectation
subtraction; the flow is linear.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from inloop.bloch import (
    EXACT_PURITY_TOL,
    IDENTITY,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PAULIS,
    AtomOperator,
    AtomState,
    dissipator,
)
from inloop.errors import ParameterError
from inloop.loop import UNIT_STABILITY_GRID, LoopConfig, LoopFilter


def bloch_tangent(g, s: AtomState) -> np.ndarray:
    """Bloch tangent (G @ (1, r))[1:] of the 4x4 generator G at state s."""
    return (np.asarray(g) @ np.concatenate(([1.0], s.bloch)))[1:]


def generator_matrix(drift, constant) -> np.ndarray:
    """4x4 generator G = [[0, 0], [constant, drift]] on (1, x, y, z)."""
    gen = np.zeros((4, 4))
    gen[1:, 0] = constant
    gen[1:, 1:] = drift
    return gen


def pauli_coordinates(m) -> np.ndarray:
    """(Tr m, Tr m sigma_x, Tr m sigma_y, Tr m sigma_z) of a 2x2 matrix."""
    return np.array([np.trace(m)] + [np.trace(m @ p) for p in PAULIS])


def apply_channel(propagator, m) -> np.ndarray:
    """Image of the 2x2 matrix m = (c0 I + c . sigma_vec)/2 under the channel
    whose 4x4 propagator acts on its Pauli coordinates (c0, c)."""
    c = propagator @ pauli_coordinates(m)
    return 0.5 * (c[0] * IDENTITY + c[1] * PAULI_X + c[2] * PAULI_Y + c[3] * PAULI_Z)


def reference_choi(drift, constant, t: float) -> np.ndarray:
    """Choi matrix sum_ij E(|i><j|) kron |i><j| of E = expm(G t), applying
    E to each matrix unit |i><j| by 2x2 arithmetic (not hermitized)."""
    p = expm(generator_matrix(drift, constant) * t)
    j = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[a, b] = 1.0
            j += np.kron(apply_channel(p, unit), unit)
    return j


def bloch_to_matrix(s: AtomState) -> np.ndarray:
    """Density matrix (I + x sigma_x + y sigma_y + z sigma_z)/2."""
    return 0.5 * (IDENTITY + s.x * PAULI_X + s.y * PAULI_Y + s.z * PAULI_Z)


def state_from_matrix(rho, tol: float = EXACT_PURITY_TOL) -> AtomState:
    """Bloch vector of a (Hermitian, unit-trace) 2x2 density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if abs(np.trace(rho) - 1.0) > 1e-10:
        raise ParameterError("density matrix must have unit trace")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise ParameterError("density matrix must be Hermitian")
    r = [float(np.real(np.trace(rho @ p))) for p in PAULIS]
    return AtomState(*r).validate(tol)


def measurement_expectation(a: AtomOperator, s: AtomState) -> float:
    """Tr[A rho + rho A+], the mean of the homodyne record for jump
    operator A (equals <sigma_x> for A = sigma)."""
    re_a = np.real(a.vector)
    return float(2.0 * np.real(a.a0) + 2.0 * (re_a @ s.bloch))


def measurement_superop(a: AtomOperator, s: AtomState) -> np.ndarray:
    """Bloch tangent of the homodyne conditioning superoperator
    H[A]rho = A rho + rho A+ - Tr[A rho + rho A+] rho.

    Trace free but nonlinear in the state through the expectation
    subtraction.
    """
    re_a = np.real(a.vector)
    im_a = np.imag(a.vector)
    r = s.bloch
    return 2.0 * re_a - 2.0 * np.cross(im_a, r) - (2.0 * (re_a @ r)) * r


def hamiltonian_flow(h: AtomOperator, s: AtomState) -> np.ndarray:
    """Bloch tangent of -i[H, rho] for Hermitian H: a rotation of the Bloch
    vector about the Pauli vector of H (length preserving, tangent
    orthogonal to the state for traceless H)."""
    if not h.is_hermitian:
        raise ParameterError("Hamiltonian must be Hermitian")
    hv = np.real(h.vector)
    return 2.0 * np.cross(hv, s.bloch)


def mean_current(s: AtomState, phi: float, eta: float, eps: float) -> float:
    """Expected homodyne current sqrt(eta eps) <sigma_x> + sqrt(eps) Phi."""
    return np.sqrt(eta * eps) * s.x + np.sqrt(eps) * phi


def feedback_drive(history, filt: LoopFilter, g: float, eps: float, dt: float) -> float:
    """Feedback drive Phi = (g/sqrt(eps)) sum_j w_j I_{k-j} from the most
    recent current samples.

    `history` holds current samples in time order (oldest first, newest =
    the strictly previous step).  It must cover at least the nominal filter
    delay tau; samples older than the available history count as zero
    (filters with truncated infinite tails draw on up to their full
    buffered support).  Callers hold Phi at 0 during the initial warm-up.
    """
    weights = filt.discretize(dt)
    hist = np.asarray(history, dtype=float)
    needed = int(round(filt.tau / dt))
    if hist.size < needed:
        raise ParameterError(
            f"insufficient history: filter needs {needed} past samples "
            f"(delay {filt.tau:.3g}), got {hist.size}"
        )
    take = min(weights.size, hist.size)
    window = hist[-take:]
    return float(g / np.sqrt(eps) * (weights[:take] @ window[::-1]))


def step_conditioned(
    s: AtomState, phi: float, dw: float, dt: float, eta: float, eps: float
) -> AtomState:
    """Single step of the conditioned master equation by 2x2 matrix
    arithmetic: the Kraus map

        rho -> M rho M+ + (1 - eta eps) dt sigma rho sigma+,
        M = I - sigma+ sigma dt/2 + sqrt(eta eps) sigma dy,
        dy = sqrt(eta eps) <sigma_x> dt + dw,

    normalized by its trace, then the exact feedback rotation
    U = exp(-i H_fb dt) for H_fb = sqrt(eta) Phi sigma_y / 2 (see the
    `inloop.trajectories` docstring for why it is not linearized)."""
    sigma = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    rho = bloch_to_matrix(s)
    dy = np.sqrt(eta * eps) * s.x * dt + dw
    m = IDENTITY - 0.5 * dt * sigma.conj().T @ sigma + np.sqrt(eta * eps) * dy * sigma
    rho = m @ rho @ m.conj().T + (1.0 - eta * eps) * dt * sigma @ rho @ sigma.conj().T
    rho /= np.trace(rho)
    half = 0.5 * np.sqrt(eta) * phi * dt
    u = np.cos(half) * IDENTITY - 1j * np.sin(half) * PAULI_Y
    return state_from_matrix(u @ rho @ u.conj().T)


def single_pole_hybrid_generator(eta, eps, g, tau, n_modes=16) -> np.ndarray:
    """Exact generator of the atom jointly with the drive Phi of a
    single-pole loop, which obeys the linear SDE

        dPhi = [(g - 1) Phi + g sqrt(eta) x] dt / tau + g / (tau sqrt(eps)) dW.

    The unnormalized joint state v(Phi) = (p, X, Y, Z)(Phi) then obeys the
    linear hybrid Fokker-Planck equation

        dv/dt = G_D v + sqrt(eta) Phi R v
                - d/dPhi [(g - 1) Phi v / tau + (g sqrt(eta) / tau) M v]
                + (g^2 / (2 tau^2 eps)) d^2 v / dPhi^2

    (G_D the damping, R the rotation about y, M v = (X, p + Z, 0, -X) the
    Pauli coordinates of sigma rho + rho sigma+; the x rho terms of the
    conditioning and of the drift cancel).  Expanded in the functions
    f_n = P0 He_n(Phi / s) / sqrt(n!) of the drive's stationary
    Ornstein-Uhlenbeck law P0 (variance s^2 = g^2 / (2 tau eps (1 - g))),
    where Phi f_n = s (sqrt(n + 1) f_{n+1} + sqrt(n) f_{n-1}) and
    d/dPhi f_n = -sqrt(n + 1) f_{n+1} / s, the generator is the banded
    4N x 4N matrix on the coefficient blocks c_0 .. c_{N-1} returned here.
    The atom's own state is c_0, the only block with a nonzero Phi-integral.
    """
    s = abs(g) / np.sqrt(2.0 * tau * eps * (1.0 - g))
    n = np.arange(n_modes)
    shift = np.diag(np.sqrt(n[1:]), -1)  # f_n -> sqrt(n + 1) f_{n+1}
    rotation = np.zeros((4, 4))
    rotation[1, 3], rotation[3, 1] = 1.0, -1.0
    homodyne = np.array([[0, 1, 0, 0], [1, 0, 0, 1], [0, 0, 0, 0], [0, -1, 0, 0]], dtype=float)
    return (
        np.kron(np.eye(n_modes), dissipator(AtomOperator.lowering()))
        - np.kron(np.diag(n * (1.0 - g) / tau), np.eye(4))
        + np.sqrt(eta) * s * np.kron(shift + shift.T, rotation)
        + g * np.sqrt(eta) / (tau * s) * np.kron(shift, homodyne)
    )


def single_pole_hybrid_rates(eta, eps, g, tau, n_modes=16) -> tuple[float, float, float]:
    """(gamma_x, gamma_y, gamma_z) of `single_pole_hybrid_generator`: of its
    four slowest modes, the stationary one (eigenvalue nearest 0) is
    dropped, and each other is assigned to the Bloch axis that dominates
    its c_0 block (an axis that no mode dominates raises KeyError)."""
    vals, vecs = np.linalg.eig(single_pole_hybrid_generator(eta, eps, g, tau, n_modes))
    slow = np.argsort(np.abs(vals))[1:4]
    out = {int(np.argmax(np.abs(vecs[1:4, i]))): -vals[i].real for i in slow}
    return out[0], out[1], out[2]


def trapezoid_power_spectrum(drift, constant, eta, grid, tau_max, dtau) -> np.ndarray:
    """Fluorescence spectrum (1 - eta)/(2 pi) Re int_0^tau_max exp(i w tau)
    c(tau) dtau by `np.trapezoid` on the lags 0, dtau, ..., tau_max, with no
    tail beyond tau_max.

    c(tau) = Tr[sigma+ m(tau)] for m(0) = sigma rho_ss, built by 2x2 matrix
    arithmetic.  The Pauli components (Tr m, Tr m sigma_k) of m are stepped
    by the exact one-step map expm(G dtau) of the affine Bloch generator
    G = [[0, 0], [constant, drift]], so no eigendecomposition is involved.
    """
    r_ss = np.linalg.solve(drift, -constant)
    sigma = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    m0 = sigma @ bloch_to_matrix(AtomState.from_bloch(r_ss))
    step = expm(generator_matrix(drift, constant) * dtau)
    n = int(round(tau_max / dtau))
    comps = np.empty((n + 1, 4), dtype=complex)
    comps[0] = pauli_coordinates(m0)
    for j in range(n):
        comps[j + 1] = step @ comps[j]
    # m = (c0 I + c . sigma_vec)/2, so Tr[sigma+ m] = comps . readout
    sigma_plus = sigma.conj().T
    readout = 0.5 * np.array([np.trace(sigma_plus)] + [np.trace(sigma_plus @ p) for p in PAULIS])
    c = comps @ readout
    taus = np.arange(n + 1) * dtau
    transform = [np.trapezoid(c * np.exp(1j * w * taus), dx=dtau) for w in grid]
    return (1.0 - eta) / (2.0 * np.pi) * np.real(transform)


def two_sided_welch(samples, dt, nperseg=None, min_segments=100):
    """Welch's two-sided density on the positive angular-frequency axis,
    with the segment rule of `inloop.loop.welch_spectrum`: scipy's two-sided
    estimate (negative frequencies included), sorted by frequency and masked
    to w > 0."""
    from scipy import signal

    x = np.asarray(samples, dtype=float)
    if nperseg is None:
        target = max(2 * x.size // (min_segments + 1), 64)
        nperseg = 1 << int(np.log2(target))
    nperseg = int(min(nperseg, x.size))
    freqs, psd = signal.welch(
        x, fs=1.0 / dt, window="hann", nperseg=nperseg, noverlap=nperseg // 2,
        detrend=False, return_onesided=False, scaling="density",
    )
    order = np.argsort(freqs)
    freqs, psd = freqs[order], psd[order]
    keep = freqs > 0.0
    return 2.0 * np.pi * freqs[keep], psd[keep]


def lfilter_loop(cfg: LoopConfig, dt: float, duration: float, seed: int):
    """(x_in, current) of `inloop.loop.simulate_classical_loop` with the
    loop recursion I_k = n_k + g sum_j w_j I_{k-j} run by
    `scipy.signal.lfilter`: the same draws and arithmetic, the recursion
    rounded sample by sample."""
    from scipy import signal

    w = cfg.filter.discretize(dt)
    n = int(round(duration / dt))
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(dt)
    xi_nu = rng.standard_normal(n) * scale
    xi_eps = rng.standard_normal(n) * scale
    noise = np.sqrt(cfg.eps) * xi_nu + np.sqrt(1.0 - cfg.eps) * xi_eps
    current = signal.lfilter([1.0], np.concatenate(([1.0], -cfg.g * w)), noise)
    return xi_nu + (current - noise) / np.sqrt(cfg.eps), current


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


def uncached_crossing_excess(cfg: LoopConfig) -> float:
    """Largest real part of the open-loop response g h~(w) on the scan grid
    where its locus crosses (or touches) the real axis, with the
    zero-frequency value g always among them; >= 1 means unstable.  The
    scan runs on g h~ afresh at every call."""
    resp = cfg.g * cfg.filter.transfer(UNIT_STABILITY_GRID / cfg.filter.tau)
    touches = np.abs(resp.imag) < 1e-14 * np.maximum(np.abs(resp.real), 1.0)
    return max(cfg.g, _real_axis_max(resp, touches))


def schur_cohn_stable(a) -> bool:
    """Whether every root of z^m - a_1 z^{m-1} - ... - a_m lies strictly
    inside the unit circle, i.e. the recursion y_k = x_k + sum_j a_j y_{k-j}
    is stable: the Schur-Cohn step-down recursion, stable iff every
    reflection coefficient has |k_i| < 1 (E. I. Jury, Theory and
    Application of the z-Transform Method, Wiley 1964).  O(m^2) and exact
    up to rounding, where the companion-matrix eigenvalues cost O(m^3)."""
    p = np.concatenate(([1.0], -np.asarray(a, dtype=float)))
    for i in range(p.size - 1, 0, -1):
        k = p[i]  # p[0] = 1 at every order
        if not abs(k) < 1.0:
            return False
        p = (p[:i] - k * p[i:0:-1]) / (1.0 - k * k)
    return True


def least_squares_lorentzian_pair(spectrum) -> dict:
    """The scipy route of `inloop.spectra.fit_lorentzian_pair`: the same
    model and start point fitted by `scipy.optimize.least_squares`
    (trust-region reflective, bounds 1e-12, xtol = ftol = 1e-14)."""
    from scipy.optimize import least_squares

    w = spectrum.grid
    p = spectrum.values
    peak = float(np.max(p))
    if peak <= 0.0:
        raise ParameterError("cannot fit a Lorentzian pair to an empty spectrum")
    half = np.abs(p - 0.5 * peak)
    narrow0 = max(abs(float(w[np.argmin(half)])), 1e-3)

    def residual(params):
        a, g1, g2 = params
        return a * (g1 / (g1**2 + w**2) + g2 / (g2**2 + w**2)) - p

    start = np.array([peak * narrow0 / 2.0, narrow0, 10.0 * narrow0])
    fit = least_squares(residual, start, bounds=(1e-12, np.inf), xtol=1e-14, ftol=1e-14)
    a, g1, g2 = fit.x
    return {
        "amplitude": float(a),
        "narrow": float(min(g1, g2)),
        "broad": float(max(g1, g2)),
        "cost": float(fit.cost),
    }
