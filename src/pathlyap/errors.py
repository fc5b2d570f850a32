"""Shared exceptions, resource caps, the shape checks for JSON input, and
the base class of the package's records.

All potentially exponential constructions (subset exploration,
determinization, word enumeration) carry a state cap and abort with
:class:`ResourceLimitError` instead of hanging.  The environment variable
``PATHLYAP_STATE_CAP`` overrides the one default cap,
:data:`DEFAULT_STATE_CAP`, globally.  A cap, explicit or from the
environment, must be a positive integer.
"""

import functools
import operator
import os

STATE_CAP_ENV = "PATHLYAP_STATE_CAP"

DEFAULT_STATE_CAP = 1 << 20
DEFAULT_UNKNOWN_CAP = 64


class Record:
    """Base of the package's records: plain classes whose fields are their
    ``__slots__``, in constructor order, shown by ``repr`` as
    ``Name(field=value, ...)``.  Every record is immutable: its
    ``__init__`` sets the fields once through :meth:`_freeze`, which also
    keeps them as one tuple, and assigning or deleting a field afterwards
    raises AttributeError.  A record has one of two kinds of equality,
    chosen by its class keyword:

    - by default, identity: a record equals only itself and hashes by
      identity.  This suits records with numpy fields, on which value
      equality is ill-defined.
    - ``value=True``: equal to a record of the same class whose fields are
      equal, and hashed by its fields, so it is hashable exactly when they
      all are.
    """

    __slots__ = ("_key",)

    def __init_subclass__(cls, value=False, **kwargs):
        super().__init_subclass__(**kwargs)
        if value:
            cls.__eq__, cls.__hash__ = Record._key_eq, Record._key_hash

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def _freeze(self, *values):
        """Set the record's fields, given in slot order."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_key", values)

    def _frozen(self, name, *value):
        raise AttributeError(
            f"{type(self).__qualname__} is frozen: cannot change {name!r}"
        )

    __setattr__ = __delattr__ = _frozen

    def _key_eq(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def _key_hash(self):
        return hash(self._key)


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
        if not isinstance(item, str):
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


def integer(value, name):
    """`value` as an int; 2.7, "3" or True is a ValueError that names
    `name`, not truncated, parsed or read as 1."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def positive_cap(value, name):
    """`value` (an int, or its decimal text) as a positive int; a ValueError
    that names `name` otherwise, also for True."""
    try:
        cap = int(value) if isinstance(value, str) else integer(value, name)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return cap


def state_cap(explicit=None):
    """Resolve a cap: explicit argument, else env override, else
    :data:`DEFAULT_STATE_CAP`.

    Either must be a positive integer; anything else raises ValueError.
    """
    if explicit is not None:
        return positive_cap(explicit, "state cap")
    env = os.environ.get(STATE_CAP_ENV)
    if env:
        return positive_cap(env, STATE_CAP_ENV)
    return DEFAULT_STATE_CAP
