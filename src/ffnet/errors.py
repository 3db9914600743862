"""Exception types raised across the library.

Everything subclasses ValueError so callers that do not care about the
distinction can catch one built-in type.
"""


class ShapeError(ValueError):
    """Operand shapes are inconsistent with the requested operation."""


class ConfigError(ValueError):
    """A configuration value is missing, out of range, or contradictory."""


def check_choice(field: str, value, choices: tuple) -> None:
    """The one membership rule: reject setting ``field`` unless ``value`` is one of ``choices``."""
    if value not in choices:
        raise ConfigError(f"{field} must be one of {tuple(choices)}, got {value!r}")


class DataFormatError(ValueError):
    """A dataset file does not match its declared on-disk format."""


class DomainError(ValueError):
    """An input lies outside an estimator's domain or holds too few values for it."""


class CheckpointError(ValueError):
    """A checkpoint file is malformed or incompatible with the request."""
