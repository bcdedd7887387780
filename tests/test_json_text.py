"""The JSON writers write exactly what ``json.dumps`` writes.

``dictionary.json`` is encoded from a per-term template, one term per
line: each line must equal ``json.dumps(record, sort_keys=True,
ensure_ascii=False)``. Every other sorted-key artifact (``model.json``
among them) is written by ``_write_json``: on any payload the file must
hold ``json.dumps(payload, indent=2, sort_keys=True,
ensure_ascii=False)`` and a newline, in UTF-8.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexifactor import TermDictionary, TermProvenance
from lexifactor.artifacts import _write_json


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
# with lists of floats, such as rows of loadings, drawn often.
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
    records = payload["terms"]
    dictionary = TermDictionary(
        terms=tuple(record["term"] for record in records),
        index={record["term"]: i for i, record in enumerate(records)},
        provenance={
            record["term"]: TermProvenance(
                pos=record["pos"],
                doc_freq=record["doc_freq"],
                sense_ids=tuple(tuple(sense) for sense in record["sense_ids"]),
                forms=tuple(record["forms"]),
            )
            for record in records
        },
    )
    text = "".join(dictionary.json_lines())
    assert text == dictionary_reference(payload)
    assert json.loads(text) == payload
    data = text.encode("utf-8", "surrogatepass")  # the texts include lone surrogates
    assert TermDictionary.count_json_terms(data) == len(payload["terms"])


def written_bytes(directory, payload) -> bytes:
    path = directory / "payload.json"
    _write_json(path, payload)
    return path.read_bytes()


@given(value=json_values)
@settings(max_examples=300, deadline=None)
def test_json_text_equals_json_dumps(value, tmp_path_factory):
    directory = tmp_path_factory.mktemp("json")
    try:
        expected = reference(value).encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, which UTF-8 cannot hold
        with pytest.raises(UnicodeEncodeError):
            _write_json(directory / "payload.json", value)
        assert not any(directory.iterdir())  # nor a temporary file
        return
    assert written_bytes(directory, value) == expected


def test_non_finite_floats_are_spelled_as_json_spells_them(tmp_path):
    payload = {"eigenvalues": [float("nan"), float("inf"), float("-inf"), -0.0], "k": float("nan")}
    data = written_bytes(tmp_path, payload)
    assert data == reference(payload).encode("utf-8")
    assert b"NaN,\n    Infinity,\n    -Infinity,\n    -0.0\n" in data
    assert b'"k": NaN' in data


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
