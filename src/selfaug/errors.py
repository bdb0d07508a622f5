"""Error taxonomy shared across the package.

Four categories, matching how the CLI maps failures to exit codes:
configuration and data problems are the caller's fault (exit 2), shape and
numeric-domain problems are runtime failures (exit 1).
"""


class ShapeError(ValueError):
    """Operands have incompatible shapes; the message names both."""


class DomainError(ValueError):
    """A value lies outside an operation's numeric domain (out-of-range
    token id or class target, NaN gradient)."""


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or inconsistent."""


class DataError(ValueError):
    """A dataset file is malformed; the message carries the line number
    or offending field."""
