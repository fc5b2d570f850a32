"""Shared exceptions, resource caps, and the shape checks for JSON input.

All potentially exponential constructions (subset exploration,
determinization, word enumeration) carry a state cap and abort with
:class:`ResourceLimitError` instead of hanging.  The environment variable
``PATHLYAP_STATE_CAP`` overrides the default caps globally.  A cap,
explicit or from the environment, must be a positive integer.
"""

import functools
import operator
import os

STATE_CAP_ENV = "PATHLYAP_STATE_CAP"

DEFAULT_SUBSET_CAP = 1 << 20
DEFAULT_WORD_CAP = 1 << 20
DEFAULT_UNKNOWN_CAP = 64


class ResourceLimitError(RuntimeError):
    """A configured state, word, or size cap was exceeded."""


class NumericalError(RuntimeError):
    """The numerical layer could not produce a trustworthy result."""


class InvariantViolation(RuntimeError):
    """An internally guaranteed structural property failed at runtime."""


class NotPathCompleteError(ValueError):
    """An operation required a path-complete graph and got evidence otherwise.

    ``witness`` is a word with no reading path, most recent symbol first;
    reverse it to obtain trajectory (reading) order.
    """

    def __init__(self, witness):
        self.witness = tuple(witness)
        shown = ",".join(self.witness) if self.witness else "(empty)"
        super().__init__(f"not path-complete: word [{shown}] has no reading path")


def json_object(data, what, required, optional=()):
    """`data`, once checked to be a JSON object that holds every key in
    `required` and no key outside `required` and `optional`; a ValueError
    that names `what` otherwise."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} JSON must be an object")
    extra = set(data) - set(required) - set(optional)
    if extra:
        raise ValueError(f"unknown keys in {what} JSON: {sorted(extra)}")
    for key in required:
        if key not in data:
            raise ValueError(f"{what} JSON is missing {key!r}")
    return data


def json_array(data, what):
    """`data`, once checked to be a JSON array; a ValueError that names
    `what` otherwise.  A string is not an array: read as one, it would be
    split into its characters."""
    if not isinstance(data, list):
        raise ValueError(f"{what} must be a JSON array")
    return data


def json_string(data, what):
    """`data`, once checked to be a JSON string; a ValueError that names
    `what` otherwise."""
    if not isinstance(data, str):
        raise ValueError(f"{what} must be a JSON string")
    return data


def json_strings(data, what):
    """`data`, once checked to be a JSON array of strings; a ValueError that
    names `what` otherwise."""
    for item in json_array(data, what):
        json_string(item, f"each entry of {what}")
    return data


def json_number(data, what):
    """`data`, once checked to be a JSON number: an int or a float, and not
    a bool, which Python counts as an int; a ValueError that names `what`
    otherwise."""
    if isinstance(data, bool) or not isinstance(data, (int, float)):
        raise ValueError(f"{what} must be a JSON number")
    return data


def json_integer(data, what):
    """`data`, once checked to be a JSON integer, and not a bool; a
    ValueError that names `what` otherwise.  2.0 is not an integer here."""
    if isinstance(data, bool) or not isinstance(data, int):
        raise ValueError(f"{what} must be a JSON integer")
    return data


def json_reader(what):
    """Decorator for the reader of the `what` JSON form: a nested field of
    the wrong type, which surfaces inside the reader as a TypeError or
    AttributeError, becomes a ValueError that names `what`."""
    def wrap(read):
        @functools.wraps(read)
        def checked(data):
            try:
                return read(data)
            except (TypeError, AttributeError) as exc:
                raise ValueError(f"malformed {what} JSON: {exc}") from exc
        return checked
    return wrap


def positive_cap(value, name):
    """`value` (an int, or its decimal text) as a positive int; a ValueError
    that names `name` otherwise."""
    try:
        cap = int(value) if isinstance(value, str) else operator.index(value)
    except (TypeError, ValueError):
        cap = 0
    if cap < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return cap


def state_cap(explicit=None, default=DEFAULT_SUBSET_CAP):
    """Resolve a cap: explicit argument, else env override, else default.

    Either must be a positive integer; anything else raises ValueError.
    """
    if explicit is not None:
        return positive_cap(explicit, "state cap")
    env = os.environ.get(STATE_CAP_ENV)
    if env:
        return positive_cap(env, STATE_CAP_ENV)
    return default
