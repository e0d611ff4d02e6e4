"""The compiled request validator against jsonschema's ``Draft202012Validator``.

``cli._VALIDATORS[cmd]`` must give, for every document, jsonschema's first error on
``cli._SCHEMAS[cmd]``: the same accept or reject, the same ``json_path`` and the same message.  The
documents are every replayed request, every malformed request, and hypothesis mutations of
``malformed.VALID``: a key dropped or added, a value replaced by another JSON type, an integral float,
NaN or an infinity, a number moved to or just past a bound of the schema, an array cut or grown past
its size bounds.
"""

import copy
import math

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import Draft202012Validator

from cdlab import cli
from malformed import MALFORMED, VALID
from replay import labelled_requests

REFERENCE = {cmd: Draft202012Validator(schema) for cmd, schema in cli._SCHEMAS.items()}


def reference(cmd: str, doc):
    error = next(REFERENCE[cmd].iter_errors(doc), None)
    return None if error is None else (error.json_path, error.message)


def compiled(cmd: str, doc):
    error = cli._VALIDATORS[cmd](doc)
    return None if error is None else ("$" + error[0], error[1])


def _schema_values(schema, keywords: tuple[str, ...]) -> set:
    """Every value the schemas give one of ``keywords``, anywhere in them."""
    found = set()
    if isinstance(schema, dict):
        for key, value in schema.items():
            if key in keywords and not isinstance(value, (dict, list)):
                found.add(value)
            found |= _schema_values(value, keywords)
    elif isinstance(schema, list):
        for value in schema:
            found |= _schema_values(value, keywords)
    return found


_BOUND_KEYWORDS = ("minimum", "maximum", "exclusiveMinimum")


def _near(bounds) -> list:
    """Each bound, one past it on either side, and the next float either way."""
    return sorted({v for b in bounds for v in (b, b - 1, b + 1, math.nextafter(b, -math.inf),
                                               math.nextafter(b, math.inf))}, key=float)


def _field_bounds(schema, keywords: tuple[str, ...], out: dict) -> dict:
    """For each property name, the values the schemas give ``keywords`` on it or on anything inside it."""
    if isinstance(schema, dict):
        for name, sub in schema.get("properties", {}).items():
            out.setdefault(name, set()).update(_schema_values(sub, keywords))
        for value in schema.values():
            _field_bounds(value, keywords, out)
    elif isinstance(schema, list):
        for value in schema:
            _field_bounds(value, keywords, out)
    return out


def _sizes(bounds) -> list:
    """Each size bound and the sizes one either side of it."""
    return sorted({n + d for n in bounds for d in (-1, 0, 1) if n + d >= 0})


NUMBERS = _near(_schema_values(cli._SCHEMAS, _BOUND_KEYWORDS))
FIELD_NUMBERS = {name: _near(bounds) for name, bounds in _field_bounds(cli._SCHEMAS, _BOUND_KEYWORDS, {}).items()
                 if bounds}
#: An array is cut or grown only next to the size bounds of its own field: growing a grid's rows to the 4097
#: that explicit radii allow would make 4097 x 4097 blocks to validate.  An array with no size bound of
#: its own (a matrix row) takes the sizes next to a bound of one.
_SIZE_KEYWORDS = ("minItems", "maxItems")
FIELD_SIZES = {name: _sizes(bounds) for name, bounds in _field_bounds(cli._SCHEMAS, _SIZE_KEYWORDS, {}).items()
               if bounds}
SIZES = _sizes({1})
#: Property names of every form, so an added key is sometimes one another form admits.
KEYS = sorted(_schema_values(cli._SCHEMAS, ("required",)) | set(FIELD_NUMBERS) | {"kind", "preset", "unknown"})
REPLACEMENTS = [True, False, None, "szego", "text", 0.5, 64.0, -1.5, 0, 2, math.nan, math.inf, -math.inf, [], {}]


def _locations(doc, path=()):
    """``(path, value)`` of ``doc`` and of everything nested in it."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _locations(value, path + (key,))


def _mutate(doc, path, action, arg):
    doc = copy.deepcopy(doc)
    *head, last = path or (None,)
    parent = doc
    for key in head:
        parent = parent[key]
    target = parent[last] if path else doc
    if action == "drop":
        del parent[last]
    elif action == "add":
        key, value = arg
        target[key] = value
    elif action == "resize":  # cut, or grow by repeating the items
        target[:] = [target[i % len(target)] if target else 0.5 for i in range(arg)]
    elif path:  # "replace" and "bound"
        parent[last] = arg
    else:
        doc = arg
    return doc


#: Where each mutation applies, given a location's path and value.
APPLIES = {
    "replace": lambda path, value: True,
    "drop": lambda path, value: bool(path) and isinstance(path[-1], str),
    "add": lambda path, value: isinstance(value, dict),
    "resize": lambda path, value: isinstance(value, list),
    "bound": lambda path, value: isinstance(value, (int, float)) and not isinstance(value, bool),
}


@st.composite
def mutations(draw):
    doc = draw(st.sampled_from(VALID))
    for _ in range(draw(st.integers(1, 2))):
        action = draw(st.sampled_from(sorted(APPLIES)))
        places = [(path, value) for path, value in _locations(doc) if APPLIES[action](path, value)]
        if not places:
            action, places = "replace", [((), doc)]
        path, value = draw(st.sampled_from(places))
        # a number or an array size moves next to a bound of its own field (the last key on its path)
        field = next((key for key in reversed(path) if isinstance(key, str)), None)
        arg = {"replace": st.sampled_from(REPLACEMENTS), "drop": st.none(),
               "add": st.tuples(st.sampled_from(KEYS), st.sampled_from(REPLACEMENTS + NUMBERS)),
               "resize": st.sampled_from(FIELD_SIZES.get(field, SIZES)),
               "bound": st.sampled_from(FIELD_NUMBERS.get(field, NUMBERS))}[action]
        doc = _mutate(doc, path, action, draw(arg))
    return doc


def _agree(doc):
    for cmd in cli._SCHEMAS:
        assert compiled(cmd, doc) == reference(cmd, doc), cmd


def test_replayed_requests_agree():
    for label, doc in labelled_requests(False):
        cmd = doc["command"]
        assert compiled(cmd, doc) == reference(cmd, doc), label


@pytest.mark.parametrize("case", MALFORMED, ids=[case[0] for case in MALFORMED])
def test_malformed_requests_agree(case):
    _, doc, code, _ = case
    assert (reference(doc["command"], doc) is None) == (code != 2)
    _agree(doc)


def test_replaced_values_agree():
    # every location of every valid request takes each replacement, and each number each value near its bounds
    for doc in VALID:
        for path, value in _locations(doc):
            field = next((key for key in reversed(path) if isinstance(key, str)), None)
            near = FIELD_NUMBERS.get(field, []) if APPLIES["bound"](path, value) else []
            for new in REPLACEMENTS + near:
                changed = _mutate(doc, path, "replace", new)
                assert compiled(doc["command"], changed) == reference(doc["command"], changed), (path, new)


@given(mutations())
@settings(max_examples=250, deadline=None)
def test_mutated_requests_agree(doc):
    _agree(doc)


@pytest.mark.parametrize("schema, text", [
    ({"type": "integer", "multipleOf": 2}, "'multipleOf' is not supported"),
    ({"enum": ["a", 1]}, "strings only"),
    ({"additionalProperties": True}, "must be false"),
    ({"properties": {"two words": True}}, "quoted path"),
])
def test_unsupported_schemas_fail_to_compile(schema, text):
    with pytest.raises(ValueError, match=text):
        cli._compile(schema)
