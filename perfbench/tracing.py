"""Traced-run mode: per-layer calls and self times, recorded from outside.

install() wraps resip's public functions and methods in place.  A
function is replaced in every resip module that holds it, because modules
import names from each other (resip.cli calls its own binding of
torus_residually_p), and methods are replaced on their class.  Each timed
wrapper pushes a span; its self time is its duration minus the time of the
wrapped calls nested in it.  Counted wrappers only count, because the
methods they wrap run millions of times and timing each would swamp the
numbers.  Everything stays in memory until stats() is read.

sympy is measured where resip calls it: the module-level functions resip
reaches through `sympy.<name>`, the normal forms intlin imports by name,
and the Poly and Matrix methods resip calls on the objects it builds.  A
sympy call nested in another sympy call is not counted again.  Building a
Poly or a Matrix stays in the caller's self time.
"""

from __future__ import annotations

import functools
import sys
import time
import types

# (module, attribute path, span name, timed?)
TARGETS = (
    ("resip.cli", "parse_task_file", "cli.parse_task_file", True),
    ("resip.cli", "emit_report", "cli.emit_report", True),
    ("resip.intlin", "charpoly_exact", "intlin.charpoly_exact", True),
    ("resip.intlin", "is_unipotent_mod", "intlin.is_unipotent_mod", True),
    ("resip.intlin", "lattice_chain_invariants", "intlin.lattice_chain_invariants", True),
    ("resip.intlin", "ModMatrix.__mul__", "intlin.ModMatrix.mul", False),
    ("resip.classify", "p_power_order_quotient_exists", "classify.p_power_order_quotient_exists", True),
    ("resip.classify", "torus_residually_p", "classify.torus_residually_p", True),
    ("resip.classify", "residually_p_prime_set", "classify.residually_p_prime_set", True),
    ("resip.classify", "bs_classify", "classify.bs_classify", True),
    ("resip.classify", "sl2_power_divisibility", "classify.sl2_power_divisibility", True),
    ("resip.magnus", "magnus_embed", "magnus.magnus_embed", True),
    ("resip.magnus", "magnus_depth", "magnus.magnus_depth", True),
    ("resip.magnus", "TruncatedSeries.__mul__", "magnus.TruncatedSeries.mul", False),
    ("resip.magnus", "SeriesSubstitution.__call__", "magnus.SeriesSubstitution.call", True),
    ("resip.witness", "find_p_quotient_witness", "witness.find_p_quotient_witness", True),
    ("resip.witness", "verify_witness", "witness.verify_witness", True),
    ("resip.witness", "induced_automorphism_order", "witness.induced_automorphism_order", True),
    ("resip.freegrp", "apply_endo", "freegrp.apply_endo", True),
    ("resip.braid", "induced_cover_homology", "braid.induced_cover_homology", True),
    ("resip.braid", "is_cyclotomic_product", "braid.is_cyclotomic_product", True),
    ("resip.extension", "heisenberg_checks", "extension.heisenberg_checks", True),
    ("resip.extension", "circle_bundle_central_witness", "extension.circle_bundle_central_witness", True),
    ("resip.pgrouplab", "FinitePGroup.mul", "pgrouplab.FinitePGroup.mul", False),
    ("resip.pgrouplab", "FinitePGroup.closure", "pgrouplab.closure", True),
    ("resip.pgrouplab", "FinitePGroup.all_subgroups", "pgrouplab.all_subgroups", True),
    ("resip.pgrouplab", "FinitePGroup.derived_subgroup", "pgrouplab.derived_subgroup", True),
    ("resip.pgrouplab", "frattini_data", "pgrouplab.frattini_data", True),
)

SYMPY_FUNCTIONS = ("isprime", "factorint", "gcd", "primerange", "cyclotomic_poly")
SYMPY_METHODS = (("Poly", "factor_list"), ("Matrix", "det"))
SYMPY_IMPORTED = ("hermite_normal_form", "smith_normal_form")  # bound in resip.intlin


class Tracer:
    def __init__(self):
        self._stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self._stack: list[list] = []  # open spans: [nested seconds, is sympy]
        self._undo: list[tuple] = []

    def _timed(self, name: str, fn, sympy: bool = False):
        stats = self._stats.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sympy and stack and stack[-1][1]:
                return fn(*args, **kwargs)
            frame = [0.0, sympy]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
                if isinstance(out, types.GeneratorType):
                    out = iter(list(out))  # consume inside the span
                return out
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def _counted(self, name: str, fn):
        stats = self._stats.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr), attr in owner.__dict__))
        setattr(owner, attr, value)

    def _replace_function(self, original, wrapper) -> None:
        """Rebind the function wherever a resip module looks it up."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "resip" or name.startswith("resip.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self) -> "Tracer":
        for module_name, path, name, timed in TARGETS:
            module = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = getattr(cls, attr)
                wrap = self._timed(name, original) if timed else self._counted(name, original)
                self._set(cls, attr, wrap)
            else:
                original = getattr(module, path)
                self._replace_function(original, self._timed(name, original))
        import sympy

        for fn in SYMPY_FUNCTIONS:
            self._set(sympy, fn, self._timed(f"sympy.{fn}", getattr(sympy, fn), sympy=True))
        for cls_name, attr in SYMPY_METHODS:
            cls = getattr(sympy, cls_name)
            self._set(cls, attr, self._timed(f"sympy.{cls_name}.{attr}", getattr(cls, attr), sympy=True))
        intlin = sys.modules["resip.intlin"]
        for fn in SYMPY_IMPORTED:
            self._set(intlin, fn, self._timed(f"sympy.{fn}", getattr(intlin, fn), sympy=True))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value, present = self._undo.pop()
            if present:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    def stats(self) -> dict:
        """{span name: {"calls": n, "ms": self milliseconds}}"""
        return {
            name: {"calls": calls, "ms": seconds * 1000.0}
            for name, (calls, seconds) in sorted(self._stats.items())
        }


def install() -> Tracer:
    return Tracer().install()
