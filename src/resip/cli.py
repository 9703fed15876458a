"""Batch CLI: validate task files, run classifiers and searches, report.

Exit codes: 0 all tasks completed (verdicts of any flavor included),
2 an unreadable or malformed task file, argument or certificate, 3 a cap
was exceeded somewhere.  A task that fails for any other reason becomes an
``error`` entry and the batch goes on.  A reader that closes standard
output early (``| head``) gets no more output and changes no exit code.

A task file is ``{"version": 1, "tasks": [...]}``.  Its format is defined
once, by ``TASK_FIELDS`` (each task key and the rule that checks and
converts its value) and ``REQUIRED_KEYS``/``CHECK_KEYS`` (the keys each
kind and each extension check needs).  One pass over the parsed JSON
validates it and turns bigints, integers or strings of decimal digits,
into ints; the first violation is a SchemaError carrying its JSON path.
The single-task subcommands build one task and pass it through the same
validator; each of their flags is named after the task key it fills
(``--primes-up-to`` fills ``primes_up_to``, each ``--divisor`` one of
``divisors``).  Certificates share the value rules, from :mod:`resip.fields`.

Tasks run one after another in file order.  JSON reports are
deterministic: entries keep task order, keys are sorted, integers of
absolute value 2^53 or more are emitted as strings, and timing is only
shown in the text format, so two runs of the same file produce
byte-identical output.  The text is that of ``json.dumps(indent=2,
sort_keys=True)``, written in one pass by ``_json_text``.

Caps are overridden by comma-separated ``KEY=VAL`` text, from the
``RESIP_CAPS`` environment variable and from repeated ``--caps`` flags,
both read by :func:`resip.caps.parse_caps`; flags win.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .braid import (
    braid_cover_homology,
    braid_permutation,
    cover_from_finite_quotient,
    is_cyclotomic_product,
    parse_braid,
    permutation_order,
)
from .caps import Caps, DEFAULT_CAPS, caps_from_env, parse_caps
from .classify import (
    BSSpec,
    bs_classify,
    fibered_verdicts,
    residually_p_prime_set,
    sl2_power_divisibility,
    torus_residually_nilpotent,
    torus_residually_p,  # noqa: F401  perfbench's tracing tests wrap and restore this binding
    torus_verdicts,
)
from .errors import CapExceeded, InternalInvariant, InvalidSpec, ResipError, SchemaError
from .extension import (
    BilinearCocycle,
    CircleBundleSpec,
    circle_bundle_central_witness,
    heisenberg_checks,
)
from .fields import bigint, brief, fields, integer, list_of, max_str_digits, one_of, require, string
from .freegrp import MappingTorusElement, MappingTorusSpec, parse_endo, parse_word
from .intlin import (
    IntMatrix,
    charpoly_exact,
    poly_divmod,
    primes_up_to,
)
from .record import Record
from .witness import PGroupQuotient, find_p_quotient_witness, verify_witness


class Task(Record):
    __slots__ = ("id", "kind", "payload")

    def __init__(self, id: str, kind: str, payload: dict):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "payload", payload)


class TaskFile(Record):
    __slots__ = ("version", "tasks")

    def __init__(self, version: int, tasks: tuple[Task, ...]):
        object.__setattr__(self, "version", version)
        object.__setattr__(self, "tasks", tasks)


class ReportEntry(Record):
    """One task's entry in a report; mutable, so unhashable."""

    __slots__ = ("id", "kind", "status", "result", "error", "elapsed_ms")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None  # type: ignore[assignment]

    # status: ok | error | cap
    def __init__(
        self,
        id: str,
        kind: str,
        status: str,
        result: dict | None = None,
        error: dict | None = None,
        elapsed_ms: float | None = None,
    ):
        self.id = id
        self.kind = kind
        self.status = status
        self.result = result
        self.error = error
        self.elapsed_ms = elapsed_ms

    def to_dict(self) -> dict:
        out = {"id": self.id, "kind": self.kind, "status": self.status}
        if self.result is not None:
            out["result"] = self.result
        if self.error is not None:
            out["error"] = self.error
        return out


def _element(value, path: str) -> dict:
    if not isinstance(value, dict) or set(value) != {"t", "w"}:
        raise SchemaError(f"{brief(value)} is not an object with exactly t and w", path)
    return {"t": bigint(value["t"], path + ".t"), "w": string(value["w"], path + ".w")}


# The task format.  A task is an object whose keys are those of
# TASK_FIELDS; each maps to the rule that checks its value and converts
# it (bigints to int).  REQUIRED_KEYS lists the keys each kind needs,
# "a|b" meaning exactly one of a and b, and CHECK_KEYS those each
# extension check adds.  Semantic checks (a square matrix, a prime p, a
# monic divisor) run with the task and fail only its entry.
REQUIRED_KEYS = {
    "torus": ("matrix", "primes|primes_up_to"),
    "primes": ("matrix",),
    "fibered": ("rank", "images", "inverse", "primes|primes_up_to"),
    "bs": ("q",),
    "braid-cover": ("strands", "braid", "modulus", "assignments"),
    "witness": ("rank", "images", "inverse", "p", "element"),
    "extension": ("check",),
    "sl2-power": ("matrix", "p"),
}
CHECK_KEYS = {"heisenberg": (), "circle-bundle": ("genus", "euler"), "cocycle": ("form",)}
_MATRIX = list_of(list_of(bigint, nonempty=True), nonempty=True)
_WORDS = list_of(string, nonempty=True)
TASK_FIELDS = {
    "id": string,
    "kind": one_of(tuple(REQUIRED_KEYS)),
    "matrix": _MATRIX,
    "primes": list_of(bigint),
    "primes_up_to": bigint,
    "rank": integer(1),
    "images": _WORDS,
    "inverse": _WORDS,
    "q": bigint,
    "strands": integer(2),
    "braid": string,
    "modulus": integer(1),
    "assignments": list_of(integer()),
    "divisors": list_of(list_of(integer(), nonempty=True)),
    "p": integer(2),
    "element": _element,
    "check": one_of(tuple(CHECK_KEYS)),
    "genus": integer(1),
    "euler": integer(),
    "form": _MATRIX,
    "coeff_modulus": integer(2),
}


def _task(raw, index: int) -> Task:
    path = f"$.tasks[{index}]"
    payload = fields(TASK_FIELDS, raw, path)
    require(payload, ("kind",), path)
    kind = payload.pop("kind")
    required = REQUIRED_KEYS[kind]
    if kind == "extension" and "check" in payload:
        required += CHECK_KEYS[payload["check"]]
    require(payload, required, path)
    return Task(payload.pop("id", str(index)), kind, payload)


def _task_file(doc) -> TaskFile:
    if not isinstance(doc, dict) or set(doc) != {"version", "tasks"}:
        raise SchemaError("a task file is an object with exactly version and tasks")
    if type(doc["version"]) is not int or doc["version"] != 1:
        raise SchemaError(f"{brief(doc['version'])} is not version 1", "$.version")
    if not isinstance(doc["tasks"], list):
        raise SchemaError(f"{brief(doc['tasks'])} is not a list", "$.tasks")
    return TaskFile(1, tuple(_task(raw, i) for i, raw in enumerate(doc["tasks"])))


def parse_task_file(text: str) -> TaskFile:
    """Parse and validate a task file, converting bigints to int; a
    SchemaError carries the JSON path of the first offending field."""
    return _task_file(_json(text))


def _json(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
        raise SchemaError(f"not valid JSON: {exc}") from exc


def _task_primes(payload: dict, caps: Caps) -> list[int]:
    """The primes a task lists, or those up to its bound, sieved only
    within caps.sieve_bound; the verdicts reject a non-prime."""
    if "primes" in payload:
        return payload["primes"]
    bound = payload["primes_up_to"]
    if bound > caps.sieve_bound:  # before the sieve allocates anything
        raise CapExceeded("sieve_bound", caps.sieve_bound)
    return primes_up_to(bound)


def run_task(task: Task, caps: Caps) -> dict:
    payload = task.payload
    if task.kind == "torus":
        matrix = IntMatrix.from_rows(payload["matrix"])
        verdicts = [v.to_dict() for v in torus_verdicts(matrix, _task_primes(payload, caps))]
        return {
            "matrix": [list(r) for r in matrix.entries],
            "verdicts": verdicts,
            "residually_nilpotent": torus_residually_nilpotent(matrix),
        }
    if task.kind == "primes":
        matrix = IntMatrix.from_rows(payload["matrix"])
        return {
            "matrix": [list(r) for r in matrix.entries],
            "prime_set": residually_p_prime_set(matrix).to_dict(),
        }
    if task.kind == "fibered":
        endo = parse_endo(payload["rank"], payload["images"], payload["inverse"])
        spec = MappingTorusSpec(endo)
        verdicts = [v.to_dict() for v in fibered_verdicts(spec, _task_primes(payload, caps))]
        return {"rank": endo.rank, "verdicts": verdicts}
    if task.kind == "bs":
        return bs_classify(BSSpec(payload["q"])).to_dict()
    if task.kind == "braid-cover":
        strands = payload["strands"]
        # the cover's rank by Schreier's formula, before anything is sized
        # by the strand count
        if payload["modulus"] * (strands - 1) + 1 > caps.cover_rank:
            raise CapExceeded("cover_rank", caps.cover_rank)
        braid = parse_braid(payload["braid"], strands)
        perm, pure = braid_permutation(braid)
        cover = cover_from_finite_quotient(
            strands, payload["assignments"], payload["modulus"]
        )
        matrix = braid_cover_homology(braid, cover)
        cp = charpoly_exact(matrix)
        # det M = (-1)^r cp(0).  A braid is an automorphism phi, and one
        # that preserves K = ker chi has chi o phi = u chi with u a unit, so
        # phi(K) = K and its action on H_1(K) is invertible: det = +-1.
        det = cp[-1] if matrix.n % 2 == 0 else -cp[-1]
        if det not in (1, -1):
            raise InternalInvariant(f"cover homology has determinant {det}, not +-1")
        divisor_reports = []
        for div in payload.get("divisors", []):
            if next((c for c in div if c), 0) != 1:
                raise InvalidSpec(f"divisor {div} is not a monic polynomial")
            quot, rem = poly_divmod(cp, tuple(div))
            divides = all(c == 0 for c in rem)
            entry = {
                "divisor": list(div),
                "divides": divides,
            }
            if divides:
                entry["quotient"] = list(quot)
                entry["quotient_cyclotomic_product"] = is_cyclotomic_product(quot)
            divisor_reports.append(entry)
        return {
            "permutation": list(perm),
            "is_pure": pure,
            "permutation_order": permutation_order(perm),
            "cover_rank": cover.subgroup_rank,
            "matrix": [list(r) for r in matrix.entries],
            "charpoly": list(cp),
            "det": det,
            "divisors": divisor_reports,
        }
    if task.kind == "witness":
        endo = parse_endo(payload["rank"], payload["images"], payload["inverse"])
        spec = MappingTorusSpec(endo)
        element = MappingTorusElement(
            payload["element"]["t"],
            parse_word(payload["element"]["w"], endo.rank),
        )
        outcome = find_p_quotient_witness(spec, element, payload["p"], caps)
        result = outcome.to_dict()
        if outcome.certificate is not None:
            verification = verify_witness(outcome.certificate, caps)
            result["verification"] = verification.to_dict()
            result["reverify_command"] = (
                "resip verify-witness --certificate <file with this certificate>"
            )
        return result
    if task.kind == "extension":
        check = payload["check"]
        if check == "heisenberg":
            return {"check": check, "report": heisenberg_checks().to_dict()}
        if check == "circle-bundle":
            if payload["genus"] > caps.genus:  # before the 2g x 2g form is built
                raise CapExceeded("genus", caps.genus)
            spec = CircleBundleSpec(payload["genus"], payload["euler"])
            return {"check": check, "report": circle_bundle_central_witness(spec).to_dict()}
        # the constructor refuses what is no cocycle; every form it takes is
        # one over Z and over every Z/m, by the theorem in BilinearCocycle,
        # so the answer does not depend on coeff_modulus, which the reader
        # has already checked
        BilinearCocycle(tuple(tuple(row) for row in payload["form"]))
        return {"check": check, "report": {"ok": True, "violation": None}}
    if task.kind == "sl2-power":
        matrix = IntMatrix.from_rows(payload["matrix"])
        k = sl2_power_divisibility(matrix, payload["p"])
        return {"p": payload["p"], "k": k}
    raise InvalidSpec(f"unknown task kind {task.kind}")


def _run_one(task: Task, caps: Caps) -> ReportEntry:
    start = time.monotonic()
    try:
        result = run_task(task, caps)
        entry = ReportEntry(task.id, task.kind, "ok", result=result)
    except Exception as exc:  # one bad task must not abort the batch
        status = "cap" if isinstance(exc, CapExceeded) else "error"
        entry = ReportEntry(
            task.id,
            task.kind,
            status,
            error={"type": type(exc).__name__, "message": str(exc)},
        )
    entry.elapsed_ms = (time.monotonic() - start) * 1000.0
    return entry


def run_tasks(taskfile: TaskFile, caps: Caps = DEFAULT_CAPS) -> list[ReportEntry]:
    """Run every task in file order."""
    return [_run_one(t, caps) for t in taskfile.tasks]


_quote = json.encoder.encode_basestring_ascii  # the C encoder where there is one
_WIDE = 2 ** 53


def _json_text(value, indent: str = "") -> str:
    """The bytes ``json.dumps(value, indent=2, sort_keys=True)`` writes,
    in one pass, with integers of absolute value 2^53 or more written as
    strings and tuples as lists.  Dict keys must be strings.  A value is
    of exactly one of the types a result holds: str, int, bool, None,
    dict, list or tuple; any other, a float or a subclass (an IntEnum,
    say) included, is a TypeError.  ``indent`` is that of the line the
    value starts on.  (CPython's C encoder does not take ``indent``, so
    json.dumps would run its pure-Python encoder instead.)

    The text goes to one list of parts, joined once."""
    parts: list[str] = []
    _write_json(value, indent, parts.append)
    return "".join(parts)


def _int_text(value: int) -> str:
    return int.__repr__(value) if -_WIDE < value < _WIDE else _quote(str(value))


def _write_json(value, indent: str, out) -> None:
    kind = type(value)
    if kind is str:
        out(_quote(value))
    elif kind is int:
        out(_int_text(value))
    elif kind is dict:
        _write_dict(value, indent, out)
    elif kind is list or kind is tuple:
        _write_list(value, indent, out)
    elif value is None:
        out("null")
    elif kind is bool:
        out("true" if value else "false")
    else:
        raise TypeError(f"unserializable value {value!r}")


# (keys in insertion order, indent) -> the sorted keys, each with the text
# that opens its entry; filled by _write_dict up to _LAYOUT_BOUND entries,
# so a process that writes ever new dict shapes holds a bounded table
_LAYOUTS: dict[tuple, list[tuple]] = {}
_LAYOUT_BOUND = 1024


def _write_dict(value: dict, indent: str, out) -> None:
    if not value:
        out("{}")
        return
    inner = indent + "  "
    shape = (tuple(value), indent)
    layout = _LAYOUTS.get(shape)
    if layout is None:
        layout, head = [], "{\n" + inner
        for k in sorted(value):
            layout.append((k, head + _quote(k) + ": "))  # a key that is no str is a TypeError
            head = ",\n" + inner
        if len(_LAYOUTS) < _LAYOUT_BOUND:
            _LAYOUTS[shape] = layout
    for k, head in layout:
        v = value[k]
        kind = type(v)
        # a string or an exact int joins its key, without a further call
        if kind is str:
            out(head + _quote(v))
        elif kind is int and -_WIDE < v < _WIDE:
            out(head + int.__repr__(v))
        else:
            out(head)
            _write_json(v, inner, out)
    out("\n" + indent + "}")


def _write_list(value, indent: str, out) -> None:
    if not value:
        out("[]")
        return
    inner = indent + "  "
    sep = ",\n" + inner
    if set(map(type, value)) == {int} and -_WIDE < min(value) and max(value) < _WIDE:
        # exact ints, the bulk of a report, in one join
        out("[\n" + inner + sep.join(map(int.__repr__, value)) + "\n" + indent + "]")
        return
    head = "[\n" + inner
    for v in value:
        out(head)
        _write_json(v, inner, out)
        head = sep
    out("\n" + indent + "]")


def emit_report(entries: list[ReportEntry], fmt: str = "json") -> str:
    """The report of the entries, as JSON or text.  An entry whose result
    holds an integer with more digits than int-to-str conversion allows
    (``sys.get_int_max_str_digits()``) becomes one ``error`` entry, in
    both formats, and the other entries are written as they are."""
    if fmt == "json":
        # {"entries": [...], "version": ...} as _json_text writes it, each
        # entry joined on its own, so that no list of parts spans the report
        if not entries:
            return '{\n  "entries": [],\n  "version": "resip-report/1"\n}\n'
        body = ",\n    ".join(_written(_entry_json, e) for e in entries)
        return '{\n  "entries": [\n    ' + body + '\n  ],\n  "version": "resip-report/1"\n}\n'
    return "".join(_written(_entry_text, e) for e in entries) or "\n"


def _entry_json(e: ReportEntry) -> str:
    return _json_text(e.to_dict(), "    ")


def _entry_text(e: ReportEntry) -> str:
    stamp = f"{e.elapsed_ms:8.1f} ms" if e.elapsed_ms is not None else ""
    lines = [f"task {e.id} [{e.kind}] {e.status} {stamp}".rstrip()]
    if e.status == "ok":
        lines.extend("  " + line for line in _summarize(e.kind, e.result))
    else:
        lines.append(f"  {e.error['type']}: {e.error['message']}")
    return "".join(line + "\n" for line in lines)


def _written(write, e: ReportEntry) -> str:
    """write(e); or, if e holds an integer too long to convert to text
    (the ValueError of int-to-str conversion), write e made an error entry.
    Only that failure walks the result; any other ValueError is raised."""
    try:
        return write(e)
    except ValueError:
        limit = max_str_digits()
        if not (limit and _holds_int_beyond(e.result, 10 ** limit)):
            raise
        e.status, e.result = "error", None
        e.error = {
            "type": "InvalidSpec",
            "message": (
                "the result holds an integer of more than "
                f"{limit} digits, the limit of "
                "sys.get_int_max_str_digits(), so it cannot be written"
            ),
        }
        return write(e)


def _holds_int_beyond(value, bound: int) -> bool:
    """Whether value, or a value of a dict, list or tuple in it, is an int
    outside -bound < v < bound."""
    if isinstance(value, int):
        return not -bound < value < bound
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return False
    return any(_holds_int_beyond(v, bound) for v in value)


def _summarize(kind: str, result: dict) -> list[str]:
    if kind == "torus":
        out = []
        for v in result["verdicts"]:
            out.append(f"p={v['p']}: {v['outcome']}")
        out.append(f"residually nilpotent: {result['residually_nilpotent']}")
        return out
    if kind == "primes":
        ps = result["prime_set"]
        desc = "all primes" if ps["all_primes"] else "{" + ", ".join(map(str, ps["primes"])) + "}"
        return [f"unipotent mod p exactly at {desc}, each residually p (gcd {ps['gcd']})"]
    if kind == "fibered":
        return [f"p={v['p']}: {v['outcome']}" for v in result["verdicts"]]
    if kind == "bs":
        ps = result["residually_p_primes"]
        desc = "all primes" if ps["all_primes"] else "{" + ", ".join(map(str, ps["primes"])) + "}"
        return [
            f"BS(1,{result['q']}): residually p at {desc}, "
            f"omega-nilpotent: {result['omega_nilpotent']}"
        ]
    if kind == "braid-cover":
        out = [
            f"permutation {result['permutation']} (pure: {result['is_pure']})",
            f"cover rank {result['cover_rank']}, det {result['det']}",
            f"charpoly {result['charpoly']}",
        ]
        for d in result["divisors"]:
            line = f"divisible by {d['divisor']}: {d['divides']}"
            if d["divides"]:
                line += f", quotient cyclotomic product: {d['quotient_cyclotomic_product']}"
            out.append(line)
        return out
    if kind == "witness":
        if result["status"] == "certificate":
            c = result["certificate"]
            return [
                f"certificate kind {c['kind']}, data {c['data']}",
                f"re-verification: {result['verification']['ok']}",
            ]
        return [f"undecided: {result['reason']}"]
    if kind == "extension":
        return [f"{result['check']}: ok={result['report']['ok']}"]
    if kind == "sl2-power":
        return [f"least k with p | det(A^k - I): {result['k']}"]
    return [json.dumps(result)]


def _int_list(items, flag: str) -> list[int]:
    try:
        return [int(x) for x in items]
    except ValueError as exc:
        raise SchemaError(f"bad integer literal: {exc}", flag) from exc


def _matrix_from_text(text: str) -> list[list[int]]:
    rows = [row.strip() for row in text.split(";") if row.strip()]
    return [_int_list(row.split(), "--matrix") for row in rows]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resip",
        description="residual properties of mapping-torus groups",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    def common(p):
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--caps", action="append", default=[], metavar="KEY=VAL")

    def prime_flags(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--primes-up-to", type=int, default=None)
        group.add_argument("--primes", default=None, help="comma-separated primes")

    run = sub.add_parser("run", help="run a JSON task file", allow_abbrev=False)
    run.add_argument("--tasks", required=True, metavar="FILE")
    common(run)

    torus = sub.add_parser("torus", help="torus-bundle verdicts per prime", allow_abbrev=False)
    torus.add_argument("--matrix", required=True, help='rows separated by ";", e.g. "2 1; 1 1"')
    prime_flags(torus)
    common(torus)

    primes = sub.add_parser(
        "primes", help="primes where A is unipotent mod p, each residually p", allow_abbrev=False
    )
    primes.add_argument("--matrix", required=True)
    common(primes)

    bs = sub.add_parser("bs", help="classify BS(1,q)", allow_abbrev=False)
    bs.add_argument("--q", required=True)
    common(bs)

    fibered = sub.add_parser("fibered", help="free-fiber mapping torus verdicts", allow_abbrev=False)
    fibered.add_argument("--images", required=True, help='generator images separated by ";"')
    fibered.add_argument("--inverse", required=True)
    prime_flags(fibered)
    common(fibered)

    bc = sub.add_parser("braid-cover", help="induced homology on a cyclic cover", allow_abbrev=False)
    bc.add_argument("--strands", type=int, required=True)
    bc.add_argument("--braid", required=True)
    bc.add_argument("--modulus", type=int, required=True)
    bc.add_argument("--assignments", required=True, help="comma-separated values in Z/m")
    bc.add_argument("--divisor", action="append", dest="divisors", metavar="DIVISOR",
                    help='charpoly divisor "1 -3 1"')
    common(bc)

    wit = sub.add_parser("witness", help="search a finite p-group witness", allow_abbrev=False)
    wit.add_argument("--images", required=True)
    wit.add_argument("--inverse", required=True)
    wit.add_argument("--p", type=int, required=True)
    wit.add_argument("--t", type=int, default=0)
    wit.add_argument("--w", default="1")
    common(wit)

    ext = sub.add_parser("extension", help="central extension checks", allow_abbrev=False)
    ext.add_argument("--check", choices=("heisenberg", "circle-bundle"), required=True)
    ext.add_argument("--genus", type=int, default=None)
    ext.add_argument("--euler", type=int, default=None)
    common(ext)

    sl2 = sub.add_parser("sl2-power", help="least k with p | det(A^k - I)", allow_abbrev=False)
    sl2.add_argument("--matrix", required=True)
    sl2.add_argument("--p", type=int, required=True)
    common(sl2)

    ver = sub.add_parser("verify-witness", help="re-check a stored certificate", allow_abbrev=False)
    ver.add_argument("--certificate", required=True, metavar="FILE")
    common(ver)
    return parser


def _words_arg(text: str) -> list[str]:
    return [w.strip() for w in text.split(";")]


# The single-task flags given as text, and how each becomes its task value;
# a flag that cannot be read is a SchemaError naming it.
_FROM_TEXT = {
    "matrix": _matrix_from_text,
    "primes": lambda text: _int_list(text.split(","), "--primes"),
    "images": _words_arg,
    "inverse": _words_arg,
    "assignments": lambda text: _int_list(text.split(","), "--assignments"),
    "divisors": lambda texts: [_int_list(d.split(), "--divisor") for d in texts],
}


def _single_task(args) -> dict:
    """The task of a single-task subcommand.  Each flag that is set fills
    the task key it is named after, in flag order, so the first malformed
    flag is the one reported."""
    payload = {"kind": args.command}
    for key, value in vars(args).items():
        if key in TASK_FIELDS and value is not None:
            payload[key] = _FROM_TEXT[key](value) if key in _FROM_TEXT else value
    if "images" in payload:
        payload["rank"] = len(payload["images"])
    if args.command == "witness":
        payload["element"] = {"t": args.t, "w": args.w}
    if args.command in ("torus", "fibered") and "primes" not in payload:
        payload.setdefault("primes_up_to", 100)
    return payload


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # allow the documented flag style "resip --tasks FILE ..." as shorthand;
    # --help, like -h, lists the subcommands
    if argv and argv[0].startswith("--") and argv[0] != "--help":
        argv = ["run"] + argv
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            caps = parse_caps(",".join(args.caps), caps_from_env())
        except (KeyError, ValueError) as exc:
            raise SchemaError(f"{exc.args[0]} (--caps or RESIP_CAPS)") from exc
        if args.command == "verify-witness":
            text = _read_input(args.certificate)
            if text is None:
                return 2
            report = _verify_certificate(text, caps)
            checks = report.to_dict()["checks"]
            if args.format == "json":
                out = _json_text({"certificate_ok": report.ok, "checks": checks}) + "\n"
            else:
                out = f"certificate ok: {report.ok}\n"
                out += "".join(f"  {name}: {passed}\n" for name, passed in checks)
            status = 0 if report.ok else 1
        else:
            if args.command == "run":
                text = _read_input(args.tasks)
                if text is None:
                    return 2
                taskfile = parse_task_file(text)
            else:
                taskfile = _task_file({"version": 1, "tasks": [_single_task(args)]})
            entries = run_tasks(taskfile, caps)
            out = emit_report(entries, args.format)
            status = 3 if any(e.status == "cap" for e in entries) else 0
    except SchemaError as exc:
        print(f"schema error at {exc.path}: {exc.reason}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    _write_stdout(out)
    return status


def _read_input(path: str) -> str | None:
    """The text of a task or certificate file, or None once the reason it
    cannot be read (missing, unreadable, not UTF-8) is on standard error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return None


def _write_stdout(text: str) -> None:
    """Write the report.  A reader that closed the pipe early wants no
    more of it: drop standard output, so that the flush at interpreter
    exit has nothing to fail on, and keep the exit status."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        sys.stdout = None


def _verify_certificate(text: str, caps: Caps):
    """Re-check a stored certificate.  Text that is not JSON, a value the
    certificate table refuses and a p that is not prime are schema errors;
    a well-formed one that fails a check is a report with ok False."""
    try:
        return verify_witness(PGroupQuotient.from_dict(_json(text)), caps)
    except CapExceeded:
        raise
    except SchemaError as exc:
        raise SchemaError(f"malformed certificate: {exc.reason}", exc.path) from exc
    except (RecursionError, ResipError) as exc:  # RecursionError: deeply nested parts
        raise SchemaError(f"malformed certificate: {type(exc).__name__}: {exc}") from exc


if __name__ == "__main__":
    sys.exit(main())
