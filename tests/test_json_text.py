"""The schema-aware JSON emitters write exactly what ``json.dumps`` writes.

``dictionary.json`` and ``model.json`` are encoded from templates and
float-row joins instead of ``json.dump``; on any payload of their schema
the text must equal ``json.dumps(payload, indent=2, sort_keys=True,
ensure_ascii=False)`` plus a newline.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from lexifactor import TermDictionary
from lexifactor.pipeline import model_json


def reference(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


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
vectors = st.lists(floats, max_size=4)
matrices = st.lists(vectors, max_size=3)

dictionary_payloads = st.lists(
    st.fixed_dictionaries(
        {
            "term": texts,
            "pos": texts,
            "doc_freq": ints,
            "sense_ids": st.lists(st.tuples(texts, ints).map(list), max_size=3),
        }
    ),
    max_size=5,
    unique_by=lambda record: record["term"],
).map(lambda records: {"terms": records})

model_payloads = st.fixed_dictionaries(
    {
        "k": ints,
        "terms": st.lists(texts, max_size=4),
        "loadings": matrices,
        "communalities": vectors,
        "uniquenesses": vectors,
        "eigenvalues": vectors,
        "rotation": matrices,
        "rotated": matrices,
        "converged": st.booleans(),
        "n_iter": ints,
        "heywood": st.booleans(),
        "rotation_sweeps": ints,
    }
)


@given(payload=dictionary_payloads)
@settings(max_examples=200, deadline=None)
def test_dictionary_text_equals_json_dumps(payload):
    dictionary = TermDictionary.from_json_dict(payload)
    assert dictionary.to_json_dict() == payload
    assert dictionary.to_json_text() == reference(payload)


@given(payload=model_payloads)
@settings(max_examples=200, deadline=None)
def test_model_text_equals_json_dumps(payload):
    assert model_json(payload) == reference(payload)


def test_non_finite_floats_are_spelled_as_json_spells_them():
    payload = {"eigenvalues": [float("nan"), float("inf"), float("-inf"), -0.0], "k": 0}
    assert model_json(payload) == reference(payload)
    assert "NaN,\n    Infinity,\n    -Infinity,\n    -0.0\n" in model_json(payload)
