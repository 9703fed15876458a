"""The value rules of resip's JSON inputs, task files and certificates.

A rule takes a parsed JSON value and its JSON path, and returns the value
converted or raises SchemaError at that path.  An integer is a JSON
integer or a string of decimal digits, as wide ones are written; a float
or a boolean never is, for 3.9 would pass as 3 and true equals 1.
"""

from __future__ import annotations

import re
import sys

from .errors import SchemaError

_DIGITS = re.compile(r"-?[0-9]+")


def max_str_digits() -> int:
    """The most digits int and str convert between, by
    ``sys.get_int_max_str_digits()``, or 0 for no limit, as on Pythons
    before 3.10.7, which have no such call."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else 0


def brief(value) -> str:
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def bigint(value, path: str) -> int:
    if type(value) is int:
        return value
    if isinstance(value, str) and _DIGITS.fullmatch(value):
        try:
            return int(value)
        except ValueError:  # more digits than int() converts
            raise SchemaError(f"integer of {len(value)} characters is too long", path) from None
    raise SchemaError(f"{brief(value)} is not an integer or a string of digits", path)


def integer(minimum: int | None = None):
    def check(value, path: str) -> int:
        if type(value) is not int:
            raise SchemaError(f"{brief(value)} is not an integer", path)
        if minimum is not None and value < minimum:
            raise SchemaError(f"{value} is less than the minimum of {minimum}", path)
        return value

    return check


def string(value, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{brief(value)} is not a string", path)
    return value


def one_of(choices):
    def check(value, path: str) -> str:
        if value not in choices:
            raise SchemaError(f"{brief(value)} is not one of {list(choices)}", path)
        return value

    return check


def list_of(item, nonempty: bool = False):
    def check(value, path: str) -> list:
        if not isinstance(value, list):
            raise SchemaError(f"{brief(value)} is not a list", path)
        if nonempty and not value:
            raise SchemaError("list is empty", path)
        return [item(x, f"{path}[{i}]") for i, x in enumerate(value)]

    return check


def fields(table: dict, value, path: str) -> dict:
    """The object value with each value converted by its key's rule."""
    if not isinstance(value, dict):
        raise SchemaError(f"{brief(value)} is not an object", path)
    unknown = sorted(set(value) - table.keys())
    if unknown:
        raise SchemaError(f"unknown keys {unknown}", path)
    return {key: table[key](v, f"{path}.{key}") for key, v in value.items()}


def require(found: dict, keys, path: str) -> None:
    """Each of keys, "a" or "a|b" for exactly one of a and b, names a key
    of found."""
    for entry in keys:
        given = [name for name in entry.split("|") if name in found]
        if not given:
            raise SchemaError(f"missing {' or '.join(entry.split('|'))}", path)
        if len(given) > 1:
            raise SchemaError(f"{' and '.join(given)} exclude each other", path)
