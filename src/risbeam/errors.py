"""Exception types shared across the toolkit.

Every type derives from `RisbeamError`, so one ``except RisbeamError`` sees
them all, and keeps its builtin base, so ``except ValueError`` still works.
"""


class RisbeamError(Exception):
    """Base of every error the toolkit raises on purpose."""


class DomainError(RisbeamError, ValueError):
    """An argument violates an operation's domain (range, shape, grid)."""


class NotFoundError(RisbeamError, LookupError):
    """A requested key (beam, rotation, active count) is absent."""


class ParseError(RisbeamError, ValueError):
    """A file does not match its documented schema; message names the spot."""


class LobeTruncatedError(RisbeamError, ValueError):
    """The half-power crossing is missing on at least one side of the lobe."""


class FitDivergenceError(RisbeamError, RuntimeError):
    """Nonlinear fit did not converge; carries the last iterate."""

    def __init__(self, message, params=None, residual_norm=None, iterations=None):
        super().__init__(message)
        self.params = params
        self.residual_norm = residual_norm
        self.iterations = iterations


class ModelFormatError(RisbeamError, ValueError):
    """A model file is corrupted or has an unsupported format version."""


class ConfigError(RisbeamError, ValueError):
    """A campaign configuration file is missing, malformed, or inconsistent."""
