"""Search caps used across the library.

All exhaustive searches are bounded; hitting a bound raises
:class:`resip.errors.CapExceeded` rather than looping or guessing.  Callers
may override any cap.  A search that a theorem bounds, such as the induced
order in :mod:`resip.witness`, takes no cap.
"""

from __future__ import annotations

import os

from .record import Record


class Caps(Record):
    """The search caps; every value is an int >= 1, else ValueError."""

    __slots__ = (
        "magnus_degree",
        "max_rank",
        "group_order",
        "sieve_bound",
        "subgroup_count",
        "genus",
        "cover_rank",
    )

    def __init__(
        self,
        magnus_degree: int = 8,         # truncation degree d for Magnus searches
        max_rank: int = 6,              # free-group rank of a Magnus embedding
                                        # (witness search and verification)
        group_order: int = 10 ** 5,     # finite p-group closure size
        sieve_bound: int = 10 ** 5,     # largest primes_up_to of a task
        subgroup_count: int = 10_000,   # subgroups in a p-group lattice
        genus: int = 500,               # genus of a circle-bundle task
        cover_rank: int = 101,          # rank m(n - 1) + 1 of a braid-cover task
    ):
        values = (magnus_degree, max_rank, group_order, sieve_bound, subgroup_count,
                  genus, cover_rank)
        for name, value in zip(self.__slots__, values):
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"cap {name} must be an integer >= 1, got {value!r}")
            object.__setattr__(self, name, value)

    def with_overrides(self, **kwargs: int) -> "Caps":
        unknown = set(kwargs) - set(self._fields)
        if unknown:
            raise KeyError(f"unknown caps: {sorted(unknown)}")
        current = zip(self._fields, self._values())
        return Caps(*(kwargs.get(name, value) for name, value in current))


DEFAULT_CAPS = Caps()


def parse_caps(text: str, base: Caps = DEFAULT_CAPS) -> Caps:
    """Apply comma-separated ``KEY=VAL`` overrides to ``base``.

    Empty items are skipped and a later item wins over an earlier one.  A
    malformed item or value, or a value below 1, raises ValueError, an
    unknown key KeyError.
    """
    overrides = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"bad cap override {item!r}, expected KEY=VALUE")
        try:
            overrides[key.strip()] = int(value)
        except ValueError:
            raise ValueError(f"bad cap value {value!r} for {key.strip()}") from None
    return base.with_overrides(**overrides)


def caps_from_env(base: Caps | None = None, env: str = "RESIP_CAPS") -> Caps:
    """Apply the overrides in the environment variable, by :func:`parse_caps`."""
    return parse_caps(os.environ.get(env, ""), base or DEFAULT_CAPS)
