"""Immutable value records, the base of resip's result and spec classes.

A record names its fields in ``__slots__`` (a tuple, in constructor order)
and sets them in its own ``__init__`` with ``object.__setattr__``.
Equality and hashing use the tuple of field values, the repr reads
``Name(field=value, ...)``, and assigning or deleting an attribute raises
AttributeError.  The methods are written once here rather than generated
per class by a decorator: generating them means compiling source with
``exec`` at import time, which was most of the start-up of a ``resip``
call.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Base of an immutable record with value equality (module docstring)."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # a subclass adds its own slots to the fields it inherits; a
        # "__dict__" slot holds cached_property values, not a field
        own = tuple(n for n in cls.__dict__.get("__slots__", ()) if n != "__dict__")
        cls._fields = fields = cls._fields + own
        get = attrgetter(*fields)  # a tuple for two or more names, else the value
        if len(fields) == 1:
            cls._values = lambda self: (get(self),)
        else:
            cls._values = lambda self: get(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
