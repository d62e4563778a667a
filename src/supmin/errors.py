"""Exception types shared across the package.

Three types, one for each way a caller handles a failure:

* ``ConfigError``: the run configuration is invalid.  ``cli.main`` catches it
  and exits 1 with the offending field on stderr.
* ``NonFinite``: a computation produced NaN or infinity, typically a
  Lagrangian value.  ``solver`` catches it to abort the sweep (the artifacts
  record the error), and ``cli.run_check`` to record the failing check.
* ``SupminError``: every other failure, and the base of both.  ``cli.main``
  reports it as ``solver failure`` and exits 2.  Where the CLI builds an
  object from a config value or reads a candidate CSV, it exits 1 instead.

No caller treats a narrower kind of failure differently, so none has a type
of its own: the message says what went wrong, and tests match on it.
``check_count`` is the one range check that every count and seed shares.
"""


class SupminError(Exception):
    """Base class for all supmin errors."""


class NonFinite(SupminError):
    """A computation produced NaN or infinity where a finite value is required."""


class ConfigError(SupminError):
    """Invalid run configuration; message is anchored to the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


def check_count(value, minimum: int, message: str) -> None:
    """Raise ``SupminError`` unless ``value`` is an ``int``, not a ``bool``,
    of at least ``minimum``: a float count (NaN too) is not truncated."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise SupminError(f"{message}; got {value!r}")
