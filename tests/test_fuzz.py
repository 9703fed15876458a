"""Property and fuzz tests: parser round trips, and malformed input that
may only ever end in the documented errors or exit codes."""

import contextlib
import io
import json
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from resip.braid import BraidWord, parse_braid
from resip.cli import REQUIRED_KEYS, TASK_FIELDS, _matrix_from_text, main, parse_task_file
from resip.errors import InvalidSpec, SchemaError
from resip.freegrp import FreeWord, format_word, parse_word
from test_cli import _beta_certificates, _forged

FUZZ = settings(max_examples=40, deadline=None, database=None)

# Text from a fixed alphabet, Unicode digits included; drawing from all of
# Unicode would rebuild Hypothesis's character tables on every run.
TEXT = st.text(alphabet=string.printable + "éλ٣²\x00", max_size=30)
# Free text for flag values has no digits, so a fuzzed number is always
# one of the small integers drawn separately: no example can ask for a
# factorization or a prime sieve large enough to stall the suite.
JUNK = st.text(
    alphabet=string.ascii_letters + string.punctuation + " \t;,=éλ",
    max_size=10,
)
SMALL = st.integers(-3, 12).map(str)
VALUE = st.one_of(SMALL, JUNK)


def _letters(top):
    """Signed generator indices in -top..-1, 1..top."""
    return st.lists(
        st.integers(1, top).flatmap(lambda a: st.sampled_from((a, -a))), max_size=12
    )


@FUZZ
@given(
    st.integers(1, 6).flatmap(
        lambda rank: _letters(rank).map(lambda ls: FreeWord.from_letters(rank, ls))
    )
)
def test_word_round_trip(w):
    text = format_word(w)
    assert parse_word(text, w.rank) == w
    assert format_word(parse_word(text, w.rank)) == text


@FUZZ
@given(
    st.integers(2, 6).flatmap(
        lambda n: _letters(n - 1).map(lambda ls: BraidWord(n, tuple(ls)))
    )
)
def test_braid_round_trip(b):
    text = " ".join(f"s{a}" if a > 0 else f"S{-a}" for a in b.letters) or "1"
    assert parse_braid(text, b.strands) == b


@FUZZ
@given(TEXT, st.integers(1, 4))
def test_word_parser_raises_only_invalid_spec(text, rank):
    try:
        w = parse_word(text, rank)
    except InvalidSpec:
        return
    assert w.rank == rank


@FUZZ
@given(
    st.lists(
        st.one_of(
            st.integers(-99, 99).map(str),
            JUNK,
            st.sampled_from([";", " ", "-", "+1", "0x1"]),
        ),
        max_size=12,
    )
)
def test_matrix_text_raises_only_schema_error(tokens):
    text = " ".join(tokens)
    try:
        rows = _matrix_from_text(text)
    except SchemaError:
        return
    assert all(isinstance(x, int) for row in rows for x in row)


JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-10, 10),
        st.floats(allow_nan=False),
        st.text(string.printable, max_size=6),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(string.printable, max_size=6), inner, max_size=4),
    ),
    max_leaves=12,
)
# task objects whose keys are the task format's, with values of any JSON shape
TASKS = st.dictionaries(
    st.sampled_from(sorted(TASK_FIELDS)),
    st.one_of(JSON_VALUES, st.sampled_from(sorted(REQUIRED_KEYS))),
    max_size=6,
)
TASK_FILES = st.fixed_dictionaries(
    {"version": st.sampled_from([1, 2, "1"]), "tasks": st.lists(TASKS, max_size=3)}
)


@FUZZ
@given(st.one_of(JSON_VALUES, TASK_FILES))
def test_task_file_parser_raises_only_schema_error(doc):
    try:
        taskfile = parse_task_file(json.dumps(doc))
    except SchemaError:
        return
    assert len(taskfile.tasks) == len(doc["tasks"])


@FUZZ
@given(TEXT)
def test_task_file_text_raises_only_schema_error(text):
    try:
        parse_task_file(text)
    except SchemaError:
        pass


MATRIX = st.lists(
    st.lists(SMALL, min_size=1, max_size=3).map(" ".join), min_size=1, max_size=3
).map("; ".join)
WORDS = st.lists(
    st.one_of(st.sampled_from(["x1", "X2", "x2 x1", "1", "x3"]), JUNK), min_size=1, max_size=3
).map(";".join)
BRAID = st.one_of(st.sampled_from(["s1 S2", "s1", "1"]), JUNK)
CAPS = st.sampled_from(
    ["magnus_degree=3", "magnus_degree=0", "max_rank=2", "magnus_degree=", "nope=1", ","]
)


def _optional(values):
    return st.one_of(st.none(), values)


def _command(head, *pairs):
    """A subcommand line with a fuzzed value for each flag; a flag whose
    value is None is left out."""
    drawn = st.tuples(*(values for _, values in pairs))
    return drawn.map(
        lambda values: head
        + [x for (flag, _), v in zip(pairs, values) if v is not None for x in (flag, v)]
    )


SMALL_INT = st.integers(-1, 4).map(str)
MAYBE = _optional(VALUE)
COMMANDS = st.one_of(
    _command(["torus"], ("--matrix", MATRIX), ("--primes", MAYBE), ("--primes-up-to", MAYBE)),
    _command(["primes"], ("--matrix", st.one_of(MATRIX, JUNK))),
    _command(["bs"], ("--q", VALUE)),
    _command(["fibered"], ("--images", WORDS), ("--inverse", WORDS), ("--primes", MAYBE)),
    _command(
        ["braid-cover"],
        ("--strands", SMALL_INT),
        ("--braid", BRAID),
        ("--modulus", SMALL_INT),
        ("--assignments", VALUE),
        ("--divisor", MAYBE),
    ),
    # a low Magnus cap keeps every witness search small
    _command(
        ["witness", "--caps", "magnus_degree=3"],
        ("--images", WORDS),
        ("--inverse", WORDS),
        ("--p", VALUE),
        ("--t", MAYBE),
        ("--w", _optional(WORDS)),
    ),
    _command(
        ["extension", "--check", "circle-bundle"],
        ("--genus", _optional(SMALL_INT)),
        ("--euler", MAYBE),
    ),
    _command(["sl2-power"], ("--matrix", st.one_of(MATRIX, JUNK)), ("--p", VALUE)),
    _command(["verify-witness"], ("--certificate", JUNK)),
)


@FUZZ
@given(COMMANDS, st.lists(CAPS, max_size=2), st.sampled_from(["json", "text"]))
def test_cli_on_fuzzed_flags_ends_in_an_exit_code(argv, caps, fmt):
    argv = argv + [item for cap in caps for item in ("--caps", cap)] + ["--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = None
            assert exc.code == 2, argv
    assert code in (None, 0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue()


def _paths(node, path=()):
    """The path of every value inside a parsed JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


CERTIFICATE_PATHS = [
    (kind, path) for kind, cert in _beta_certificates().items() for path in _paths(cert)
]
CERTIFICATE_JUNK = st.one_of(
    st.text(string.printable, max_size=8),
    st.floats(),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(string.ascii_letters, max_size=3), st.integers(-3, 3), max_size=2),
    st.integers(2 ** 64, 2 ** 256).flatmap(lambda n: st.sampled_from((n, -n))),
)


@settings(max_examples=300, deadline=None, database=None)
@given(st.sampled_from(CERTIFICATE_PATHS), CERTIFICATE_JUNK)
def test_certificate_with_a_junk_value_ends_in_an_exit_code(tmp_path_factory, where, junk):
    file = tmp_path_factory.getbasetemp() / "junk-certificate.json"
    file.write_text(json.dumps(_forged(*where, junk)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify-witness", "--certificate", str(file)])
    assert code in (0, 1, 2, 3), (where, junk)
    assert "Traceback" not in err.getvalue()
