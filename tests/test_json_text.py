"""The JSON emitters write exactly what ``json.dumps`` writes.

``dictionary.json`` is encoded from a per-term template, one term per
line: each line must equal ``json.dumps(record, sort_keys=True,
ensure_ascii=False)``. Every other sorted-key artifact (``model.json``
among them) is encoded by ``_json_chunks``, which joins float lists in
one call and which ``_write_json`` writes piece by piece; on any payload
the text must equal ``json.dumps(payload, indent=2, sort_keys=True,
ensure_ascii=False)`` (plus a newline for a whole artifact).
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexifactor import TermDictionary
from lexifactor.artifacts import _json_chunks, _write_json


def reference(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def dictionary_reference(payload) -> str:
    """``{"terms": [`` and ``]}`` around one sorted-key record per line."""
    records = [json.dumps(record, sort_keys=True, ensure_ascii=False) for record in payload["terms"]]
    if not records:
        return '{"terms": []}\n'
    return '{"terms": [\n' + ",\n".join(records) + "\n]}\n"


# Any text, drawing often the characters JSON escapes (quote, backslash,
# controls) and those it leaves alone but a naive emitter might not.
texts = st.text(
    alphabet=st.one_of(st.sampled_from('"\\\x00\x08\x1f\x7f\n\r\t\u2028\u2029é☃\U0001f600'), st.characters()),
    max_size=8,
)
ints = st.one_of(st.integers(-3, 30), st.integers(-(2**80), 2**80))
floats = st.one_of(
    st.floats(),
    st.sampled_from(
        [-0.0, 0.0, 5e-324, -2.5e-310, 1e16, 1.7976931348623157e308, float("nan"), float("inf"), float("-inf")]
    ),
)

dictionary_payloads = st.lists(
    st.fixed_dictionaries(
        {
            "term": texts,
            "pos": texts,
            "doc_freq": ints,
            "sense_ids": st.lists(st.tuples(texts, ints).map(list), max_size=3),
            "forms": st.lists(texts, max_size=3),
        }
    ),
    max_size=5,
    unique_by=lambda record: record["term"],
).map(lambda records: {"terms": records})

# Any JSON value with text keys: scalars, text-keyed dicts and lists,
# with lists of floats (the encoder's one-call path) drawn often.
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), ints, floats, texts),
    lambda children: st.one_of(
        st.lists(floats, max_size=4),
        st.lists(children, max_size=4),
        st.dictionaries(texts, children, max_size=4),
    ),
    max_leaves=20,
)


@given(payload=dictionary_payloads)
@example(
    payload={
        "terms": [
            {"term": "\ud800", "pos": "noun", "doc_freq": 1, "sense_ids": [], "forms": ["\ud800s", "\n{"]},
            {"term": "{", "pos": "\udfff", "doc_freq": 2, "sense_ids": [["\n{", 3]], "forms": []},
        ]
    }
)
@settings(max_examples=200, deadline=None)
def test_dictionary_text_equals_json_dumps(payload):
    dictionary = TermDictionary.from_json_dict(payload, "dictionary.json")
    text = "".join(dictionary.json_lines())
    assert text == dictionary_reference(payload)
    assert json.loads(text) == payload
    data = text.encode("utf-8", "surrogatepass")  # the texts include lone surrogates
    assert TermDictionary.count_json_terms(data) == len(payload["terms"])


def json_text(value) -> str:
    return "".join(_json_chunks(value))


@given(value=json_values)
@settings(max_examples=300, deadline=None)
def test_json_text_equals_json_dumps(value):
    assert json_text(value) + "\n" == reference(value)


def test_non_finite_floats_are_spelled_as_json_spells_them():
    payload = {"eigenvalues": [float("nan"), float("inf"), float("-inf"), -0.0], "k": float("nan")}
    assert json_text(payload) + "\n" == reference(payload)
    assert "NaN,\n    Infinity,\n    -Infinity,\n    -0.0\n" in json_text(payload)
    assert '"k": NaN' in json_text(payload)


def test_written_artifact_equals_json_dumps(tmp_path):
    payload = {
        "k": 2,
        "terms": ["glass", "bright", "\u00e9clat"],
        "loadings": [[0.5, -0.25], [1e-300, float("nan")], [0.0, -0.0]],
        "nested": {"empty": [], "none": None, "rows": [[], {}, [True, "x"]]},
        "converged": False,
    }
    _write_json(tmp_path / "model.json", payload)
    assert (tmp_path / "model.json").read_bytes() == reference(payload).encode("utf-8")
