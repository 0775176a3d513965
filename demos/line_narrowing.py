#!/usr/bin/env python3
"""Sub-natural line narrowing: in-loop squeezing versus a free squeezed bath.

An atom sitting inside the feedback loop sees the in-loop field.  In the
broad-band limit its x-quadrature decays at

    gamma_x = [(1 - eta) + eta * S] / 2,

where S is the input X-quadrature noise and eta the mode matching: exactly
the dependence a free broad-band squeezed bath produces at the same S.  The
models differ elsewhere: free squeezing must anti-squeeze Y (broadening
gamma_y by eta/L), while the in-loop field evades the two-time uncertainty
relations and leaves gamma_y at 1/2; feedback also rescales the drive C.
"""

import numpy as np

from inloop import (
    free_rates,
    lambda_from_gain,
    photon_parameters,
    rates,
    rates_from_squeezing,
    squeezing_from_lambda,
)

ETA, EPS = 0.8, 0.95


def main():
    print("decay rates versus round-loop gain (eta = 0.8, eps = 0.95)")
    print(f"{'g':>7} {'lambda':>8} {'S_in':>7}  {'gamma_x':>8} {'gamma_y':>8} {'C':>6} {'z_ss':>8}")
    for g in (0.0, -1.0, -5.0, -19.0, -80.0):
        lam = lambda_from_gain(g, ETA)
        s_in = squeezing_from_lambda(lam, ETA, EPS)
        rs = rates(lam, ETA, EPS)
        zss = rs.steady_state().z
        print(f"{g:7.1f} {lam:8.3f} {s_in:7.3f}  {rs.gamma_x:8.4f} {rs.gamma_y:8.4f}"
              f" {rs.C:6.3f} {zss:8.4f}")

    print("\nmatched free squeezed bath at the same input noise level L = S:")
    print(f"{'L':>7} {'N':>9} {'M':>9}  {'gamma_x':>8} {'gamma_y':>8} {'z_ss':>8}")
    for level in (1.0, 0.4, 0.126, 0.05):
        rs = free_rates(ETA, level)
        n, m = photon_parameters(level)
        zss = rs.steady_state().z
        print(f"{level:7.3f} {n:9.4f} {m:9.4f}  {rs.gamma_x:8.4f} {rs.gamma_y:8.4f} {zss:8.4f}")

    print("\nthe narrowing identity, checked on a random sample:")
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(10000):
        eta = rng.uniform(0.1, 1.0)
        eps = rng.uniform(0.1, 1.0)
        lam = rng.uniform(-eta + 1e-3, 2.0)
        s_in = squeezing_from_lambda(lam, eta, eps)
        gx = rates(lam, eta, eps).gamma_x
        worst = max(worst, abs(gx - rates_from_squeezing(s_in, eta)),
                    abs(gx - free_rates(eta, s_in).gamma_x))
    print(f"  max |gamma_x(feedback) - gamma_x(free at L = S)| over 1e4 draws: {worst:.2e}")
    print("  sub-natural decay (gamma_x < 1/2) if and only if S < 1.")


if __name__ == "__main__":
    main()
