"""Search caps used across the library.

All exhaustive searches are bounded; hitting a bound raises
:class:`resip.errors.CapExceeded` rather than looping or guessing.  Callers
may override any cap.  A search that a theorem bounds, such as the induced
order in :mod:`resip.witness`, takes no cap.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Caps:
    magnus_degree: int = 8          # truncation degree d for Magnus searches
    max_rank: int = 6               # free-group rank accepted by classifiers
    layer_basis: int = 64           # largest Lyndon basis size per layer
    group_order: int = 10 ** 5      # finite p-group closure size

    def with_overrides(self, **kwargs: int) -> "Caps":
        unknown = set(kwargs) - set(self.__dataclass_fields__)
        if unknown:
            raise KeyError(f"unknown caps: {sorted(unknown)}")
        return replace(self, **kwargs)


DEFAULT_CAPS = Caps()


def parse_caps(text: str, base: Caps = DEFAULT_CAPS) -> Caps:
    """Apply comma-separated ``KEY=VAL`` overrides to ``base``.

    Empty items are skipped and a later item wins over an earlier one.  A
    malformed item or value raises ValueError, an unknown key KeyError.
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
