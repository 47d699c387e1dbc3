"""Shared exception types, and the JSON readers that report malformed
documents as InvalidParameterError.  The CLI exits 2 on an
InvalidParameterError and 3 on a ResourceLimitError; an
InternalInvariantError is a bug, and ends the run with a traceback."""

import json


class InvalidParameterError(ValueError):
    """An argument violates an operation's stated precondition."""


class ResourceLimitError(RuntimeError):
    """A configured budget was exceeded.

    Carries whatever bounds were established before the budget ran out
    (``lower``/``upper`` may be None when nothing was computed).
    """

    def __init__(self, message, lower=None, upper=None):
        super().__init__(message)
        self.lower = lower
        self.upper = upper


class InternalInvariantError(AssertionError):
    """A condition the algorithms guarantee internally did not hold."""


def json_int(value) -> int:
    """A JSON integer; unlike int(), refuses booleans, fractions and strings."""
    if type(value) is not int:
        raise InvalidParameterError(f"{value!r} is not an integer")
    return value


def _unique_keys(pairs: list) -> dict:
    doc = dict(pairs)
    if len(doc) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r}")
            seen.add(key)
    return doc


def load_json(text: str):
    """Parse a JSON document; syntax errors, a key repeated in one object,
    integers too long to convert and nesting too deep to decode become
    InvalidParameterError."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise InvalidParameterError(f"invalid JSON: {exc}") from exc
