"""Simulation and analysis of a two-level atom driven by in-loop squeezed light.

The package covers the full chain from the classical electro-optic feedback
loop to the atomic response:

- `inloop.bloch`: exact single-qubit algebra (states, operators, the
  damping and feedback-coupling superoperators as real 4x4 generators on
  the Pauli coordinates (1, x, y, z), and the closed-form Choi check);
- `inloop.loop`: loop filters, transfer functions, stability, in-loop and
  photocurrent spectra, optimal gain, and a Monte Carlo loop simulator;
- `inloop.feedback`: the Markovian feedback master equation and the model
  layer both master equations share: a `RateSet` of decay rates with its
  steady state, one `AffineGenerator` type, and `propagate`, the exact
  solution of the decoupled Bloch equations;
- `inloop.squeezed_bath`: the free broad-band squeezed bath used for
  comparison, built on the same `RateSet` and `AffineGenerator`, with the
  (N, M) parameter conversion;
- `inloop.spectra`: fluorescence power spectra by quantum regression of
  the dipole correlation, analytic and numerical routes;
- `inloop.trajectories`: conditioned stochastic trajectories with explicit
  feedback delay, deterministic ensembles, and decay-rate fitting;
- `inloop.cli`: the `inloop` command-line front end.

Times and frequencies are in units of the atomic lifetime throughout.  The
package exports what its command line, demos and README call; the reference
routes that only the tests read (dense operator matrices, the closed-form
dipole correlation and total flux) live in the test suite's `oracles`.
"""

from .bloch import AtomOperator, AtomState
from .errors import ConfigError, InstabilityError, ParameterError
from .feedback import (
    AffineGenerator,
    RateSet,
    build_generator,
    propagate,
    rates,
    rates_from_squeezing,
)
from .loop import (
    LoopConfig,
    LoopFilter,
    gain_from_lambda,
    homodyne_spectrum,
    in_loop_spectrum,
    lambda_from_gain,
    optimal_gain,
    simulate_classical_loop,
    squeezing_from_lambda,
    welch_spectrum,
)
from .spectra import (
    Spectrum,
    analytic_power_spectrum,
    comparison_report,
    fit_lorentzian_pair,
    numerical_power_spectrum,
)
from .squeezed_bath import (
    build_squeezed_generator,
    free_rates,
    photon_parameters,
)
from .trajectories import (
    EnsembleResult,
    TrajectoryConfig,
    fit_decay_rate,
    run_ensemble,
)

__version__ = "0.1.0"

__all__ = [
    "AffineGenerator",
    "AtomOperator",
    "AtomState",
    "ConfigError",
    "EnsembleResult",
    "InstabilityError",
    "LoopConfig",
    "LoopFilter",
    "ParameterError",
    "RateSet",
    "Spectrum",
    "TrajectoryConfig",
    "analytic_power_spectrum",
    "build_generator",
    "build_squeezed_generator",
    "comparison_report",
    "fit_decay_rate",
    "fit_lorentzian_pair",
    "free_rates",
    "gain_from_lambda",
    "homodyne_spectrum",
    "in_loop_spectrum",
    "lambda_from_gain",
    "numerical_power_spectrum",
    "optimal_gain",
    "photon_parameters",
    "propagate",
    "rates",
    "rates_from_squeezing",
    "run_ensemble",
    "simulate_classical_loop",
    "squeezing_from_lambda",
    "welch_spectrum",
]
