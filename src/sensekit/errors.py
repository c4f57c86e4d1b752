"""Exception hierarchy for sensekit.

Each error family carries the process exit code the CLI returns for it, so
new exceptions should subclass the family that matches their failure class
rather than SensekitError directly.

Every message that repeats a value read from input, or passed by a caller,
quotes it through _echo, so one huge value cannot flood stderr; a list is
one value.  _seconds and _retries are the one check of a provider's timeout
and retry budget, for the CLI's flags and config keys and for RemoteProvider.
"""

from __future__ import annotations

_ECHO_LIMIT = 200  # characters of an input value an error message repeats


def _echo(value: object) -> str:
    """repr(value), cut to _ECHO_LIMIT characters and marked when longer.  A str is
    cut before repr; a value holding an int too long to print is named by type."""
    if value.__class__ is str:
        text, shown = value, repr(value[:_ECHO_LIMIT])
    else:
        try:
            text = repr(value)
        except ValueError:  # past sys.get_int_max_str_digits()
            return f"<{type(value).__name__} too large to print>"
        shown = text[:_ECHO_LIMIT]
    return shown if len(text) <= _ECHO_LIMIT else f"{shown}... ({len(text)} characters)"


class SensekitError(Exception):
    """Base class for all errors raised by this package."""

    #: The families below override this; the CLI contract has no exit 1.
    exit_code = 1


class InputDataError(SensekitError):
    """An input file or value is malformed or violates an invariant."""

    exit_code = 2


class ConsistencyError(SensekitError):
    """A corpus asserts both polarities for a property/concept pair."""

    exit_code = 3


class ProviderError(SensekitError):
    """A completion provider is unreachable or returned garbage."""

    exit_code = 4


class ConfigError(SensekitError):
    """Configuration, flags, or paths are invalid."""

    exit_code = 5


class CorpusSyntaxError(InputDataError):
    """A corpus line could not be parsed."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class EmptyCorpusError(InputDataError):
    """The corpus has no usable (sensible) assertions."""


class LexiconError(InputDataError):
    """A nominalization lexicon is malformed or missing a required entry."""


class MeaningStoreError(InputDataError):
    """A meaning-store file is malformed or violates record invariants."""


class OntologyError(InputDataError):
    """An ontology JSON document is malformed or internally inconsistent."""


class UnknownTypeError(InputDataError):
    """A type name does not resolve to exactly one hierarchy node."""


class TemplateError(ConfigError):
    """A prompt template is malformed or missing for a requested dimension."""


class ElicitationError(ProviderError):
    """Every requested dimension failed during elicitation."""


def _seconds(name: str, value):
    """value if it is an int or float (not a bool) in (0, threading.TIMEOUT_MAX],
    the longest timeout a socket accepts; else ConfigError.  NaN fails the range."""
    from threading import TIMEOUT_MAX

    if value.__class__ is not bool and isinstance(value, (int, float)) and 0 < value <= TIMEOUT_MAX:
        return value
    raise ConfigError(f"{name} must be a positive number of seconds up to {TIMEOUT_MAX:.0f}, got {_echo(value)}")


def _retries(name: str, value):
    """value if it is an int (not a bool) >= 0; else ConfigError."""
    if value.__class__ is not bool and isinstance(value, int) and value >= 0:
        return value
    raise ConfigError(f"{name} must be a non-negative integer, got {_echo(value)}")
