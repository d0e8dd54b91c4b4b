"""Exception hierarchy shared by all cyclecast modules, and the value-type
checks that their configuration parsers share."""

import math


class CyclecastError(Exception):
    """Base class for all errors raised by cyclecast."""


class ConfigError(CyclecastError):
    """Invalid configuration or arguments (CLI exit code 1)."""


class DataError(CyclecastError):
    """Malformed or inconsistent input data (CLI exit code 2)."""


class InvariantError(CyclecastError):
    """Internal invariant violated (CLI exit code 3)."""


def is_integer(value) -> bool:
    """An int that is not a bool (JSON true and false load as bools, which
    Python counts as ints)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A finite int or float that is not a bool (Python's JSON reader
    accepts NaN and Infinity)."""
    try:
        return (isinstance(value, (int, float))
                and not isinstance(value, bool) and math.isfinite(value))
    except OverflowError:  # an int too large for a float
        return False
