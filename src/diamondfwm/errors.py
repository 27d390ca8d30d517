"""Exception hierarchy shared by all modules.

The CLI maps these onto process exit codes: config parse failures exit
with 2, validation failures with 3, numerical failures with 4 and
invariant-suite failures with 5.
"""


class SimulationError(Exception):
    """Base class for all errors raised by this package."""


class ConfigParseError(SimulationError):
    """The config document could not be parsed at all."""


class ConfigValidationError(SimulationError):
    """A parsed config violates the schema or an invariant.

    ``key`` names the offending config key (dotted section.key form)
    when one can be identified.
    """

    def __init__(self, key, message):
        self.key = key
        super().__init__(f"{key}: {message}" if key else message)


class UnknownPresetError(ConfigValidationError):
    def __init__(self, name, known):
        super().__init__("preset", f"unknown preset {name!r} (known: {', '.join(known)})")
        self.name = name


class BoundsError(ConfigValidationError):
    """An optimizer setting (bounds, od, seed, starts, max_evals) is out of range."""


class PulseGridError(ConfigValidationError):
    """Time/frequency grid for pulse synthesis violates its preconditions."""


class NumericalError(SimulationError):
    """A numerical operation failed in a way that indicates bad inputs."""


class SingularResponseError(NumericalError):
    """The 4x4 coherence system is numerically singular.

    Only reachable when some decoherence rate is zero and resonances
    coincide, i.e. an unphysical rate configuration.
    """


class NoUniqueSteadyStateError(NumericalError):
    """The master-equation generator has a degenerate null space."""


class ObjectiveError(NumericalError):
    """Objective evaluation failed; carries the offending parameter vector."""

    def __init__(self, message, params):
        self.params = tuple(float(p) for p in params)
        super().__init__(f"{message} at parameters {self.params}")
