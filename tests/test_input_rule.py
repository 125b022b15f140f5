"""Outside input is checked once, where it enters, by one integer rule."""

import ast
import io
import json
import re
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from locweinstein.cli import run

SRC = Path(__file__).resolve().parent.parent / "src" / "locweinstein"


def test_int_is_called_only_by_the_integer_text_parser():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {id(node)
                   for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and fn.name == "parse_int"
                   and path.name == "intlin.py"
                   for node in ast.walk(fn)}
        offenders += [f"{path.name}:{node.lineno}"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name) and node.func.id == "int"
                      and id(node) not in allowed]
    assert offenders == []


def test_sympy_is_not_imported_at_module_level():
    # Loading sympy is most of the CLI's start-up time; it loads on first use.
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}" for name in names
                          if name.split(".")[0] == "sympy"]
    assert offenders == []


# The CLI on payloads that mix small ints with leaves of the wrong type,
# non-canonical keys and containers of the wrong JSON type.

CODES = {"bad-input", "invalid-complex", "invalid-prime", "invalid-dimension",
         "invalid-twisted", "uncertifiable-window"}
FIELDS = {"degrees", "differentials", "ambient", "carved", "n", "shifts",
          "delta", "row", "col", "coeffs"}
CANONICAL = re.compile(r"0|-?[1-9][0-9]*")

small = st.integers(-1, 2)
wrong = st.one_of(st.booleans(), st.none(), st.text(max_size=2),
                  st.sampled_from([1.0, 2.5, -0.0, float("inf"), 1e20]))
canonical_keys = st.sampled_from(["-1", "0", "1"])
bad_keys = st.sampled_from([" 0", "01", "-0", "1_0", "+1", "1.0", "x"])


def maybe(entries):
    """An object with some of the given fields."""
    return st.fixed_dictionaries({}, optional=entries)


def payloads(leaf, keys, field):
    """(argv, payload) for each JSON subcommand, leaves drawn from `leaf`,
    numeric keys from `keys`, and each container passed through `field`."""
    rows = st.lists(field(st.lists(leaf, max_size=2)), max_size=2)
    complexes = maybe({
        "degrees": field(st.dictionaries(keys, leaf, max_size=3)),
        "differentials": field(st.dictionaries(keys, field(rows), max_size=2)),
    })
    specs = maybe({
        "ambient": st.one_of(st.text(max_size=2), field(st.just("X"))),
        "carved": field(st.lists(field(complexes), max_size=2)),
    })
    terms = field(st.lists(leaf, min_size=2, max_size=2))
    entries = field(st.fixed_dictionaries(
        {"row": leaf, "col": leaf},
        optional={"coeffs": field(st.lists(terms, max_size=2))}))
    twisted = st.fixed_dictionaries({"n": field(st.integers(2, 4))}, optional={
        "shifts": field(st.lists(leaf, max_size=3)),
        "delta": field(st.lists(entries, max_size=2)),
    })
    return st.one_of(
        st.tuples(st.just(["homology", "-"]), complexes),
        st.tuples(st.just(["decompose", "-"]), complexes),
        st.tuples(st.just(["classify", "-"]), specs),
        st.tuples(st.just(["sphere-geometric", "-", "--lo", "-4", "--hi", "4"]),
                  twisted))


def mistyped(strategy):
    """The container, mostly, or a leaf or container of the wrong JSON type."""
    return st.one_of(strategy, strategy, strategy, strategy, wrong, small,
                     st.sampled_from(["", {}, [], [1]]))


queries = st.one_of(
    payloads(small, canonical_keys, lambda strategy: strategy),
    payloads(st.one_of(small, small, small, wrong),
             st.one_of(canonical_keys, canonical_keys, bad_keys), mistyped))


def holds_only_true_ints(value, name=None):
    """Every numeric place holds an int and every numeric key is canonical;
    `ambient` is the one text field."""
    if name == "ambient":
        return isinstance(value, str)
    if isinstance(value, dict):
        return all((k in FIELDS or CANONICAL.fullmatch(k))
                   and holds_only_true_ints(v, k) for k, v in value.items())
    if isinstance(value, list):
        return all(holds_only_true_ints(v) for v in value)
    return type(value) is int


@settings(max_examples=400, deadline=None, derandomize=True)
@given(queries)
def test_cli_accepts_only_true_ints_or_reports_a_json_error(query):
    argv, payload = query
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(payload))):
        status = run(argv, stdout=out, stderr=err)
    if status == 0:
        assert json.loads(out.getvalue())["schema"] == "locweinstein/1"
        assert err.getvalue() == ""
        assert holds_only_true_ints(payload), payload
    else:
        assert status == 1
        assert out.getvalue() == ""
        assert json.loads(err.getvalue())["error"] in CODES
