"""The package's failures. Each of the two kinds declares the exit code and
message prefix the command line reports it with; the modules that raise
the errors define the more specific classes."""

__all__ = ["HdgelastError", "ConfigError", "SolverError"]


class HdgelastError(Exception):
    """Base of the package's errors; the message names the field or element."""


class ConfigError(HdgelastError):
    """The run cannot be set up from its inputs: configuration, mesh, degree, material."""

    exit_code, prefix = 2, "config error"


class SolverError(HdgelastError):
    """A stage of a valid run broke down: a local, assembled or global system."""

    exit_code, prefix = 3, "solver failure"
