"""Shared exception types: one per outcome a caller tells apart.

* InvalidSpec: a value a task or a library caller gave cannot be used
  (a bad genus, a rank mismatch, a braid that does not preserve the
  cover, ...).  In a report it is one ``error`` entry.
* SchemaError: a task file, a flag or a certificate the readers refuse,
  with the JSON path of the offending field.  The CLI exits 2.
* CapExceeded: a configured cap was hit before an answer was found, never
  a verdict; nothing is silently treated as "infinite" or "trivial".  In
  a report it is a ``cap`` entry, and the CLI exits 3.
* InternalInvariant: two routes to one answer disagree, a bug.

All derive from ResipError.
"""


class ResipError(Exception):
    """Base class for all library errors."""


class InvalidSpec(ResipError):
    """A value a task or a library caller gave cannot be used."""


class SchemaError(ResipError):
    """Input the readers refuse; carries the offending field path."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.reason = message


class CapExceeded(ResipError):
    """A configured search cap was hit before an answer was found.

    Signals "raise the cap and retry", never a mathematical verdict.
    """

    def __init__(self, what: str, cap: int):
        super().__init__(f"{what}: cap {cap} exceeded")
        self.what = what
        self.cap = cap


class InternalInvariant(ResipError):
    """An internal cross-check between two routes to the same answer
    failed.  Raised explicitly, so it also runs under ``python -O``."""
