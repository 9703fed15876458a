"""Search caps used across the library.

All exhaustive searches are bounded; hitting a bound raises
:class:`resip.errors.CapExceeded` (or a more specific error) rather than
looping or guessing.  Callers may override any cap.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Caps:
    magnus_degree: int = 8          # truncation degree d for Magnus searches
    max_layer: int = 4              # lower-central layer bound c
    max_rank: int = 6               # free-group rank accepted by classifiers
    layer_basis: int = 64           # largest Lyndon basis size per layer
    order_iterations: int = 3 ** 8  # induced-automorphism order search
    group_order: int = 10 ** 5      # finite p-group closure size
    combine_witnesses: int = 16

    def with_overrides(self, **kwargs: int) -> "Caps":
        unknown = set(kwargs) - set(self.__dataclass_fields__)
        if unknown:
            raise KeyError(f"unknown caps: {sorted(unknown)}")
        return replace(self, **kwargs)


DEFAULT_CAPS = Caps()


def caps_from_env(base: Caps | None = None, env: str = "RESIP_CAPS") -> Caps:
    """Apply ``KEY=VAL,KEY=VAL`` overrides from the environment."""
    caps = base or DEFAULT_CAPS
    raw = os.environ.get(env, "").strip()
    if not raw:
        return caps
    overrides = {}
    for item in raw.split(","):
        key, _, value = item.partition("=")
        overrides[key.strip()] = int(value)
    return caps.with_overrides(**overrides)
