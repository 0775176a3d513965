"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A physical parameter or argument is outside its admissible domain."""


class InstabilityError(RuntimeError):
    """The feedback loop is unstable, or a runtime divergence guard tripped."""


class ConfigError(ValueError):
    """A run configuration file is malformed or incomplete."""
