"""End-to-end JSON transformations: workloads, learning, bundles, backends."""

import pytest

from repro import api
from repro.codec import load_transformation, transformation_from_bundle
from repro.engine import available_backends
from repro.errors import ParseError, ReproError
from repro.json.pipeline import JSON_BUNDLE_FORMAT, learn_json_transformation
from repro.workloads.flip import flip_transducer
from repro.workloads.jsonwl import (
    JSON_WORKLOADS,
    example_documents,
)

DOCS = example_documents()


@pytest.mark.parametrize("name, factory, reference", JSON_WORKLOADS)
class TestWorkloadsMatchReferences:
    def test_apply(self, name, factory, reference):
        transformation = factory()
        for document in DOCS:
            assert transformation.apply(document) == reference(document)

    def test_apply_batch(self, name, factory, reference):
        transformation = factory()
        assert transformation.apply_batch(DOCS) == [
            reference(d) for d in DOCS
        ]

    def test_apply_stream_matches_batch(self, name, factory, reference):
        transformation = factory()
        streamed = list(transformation.apply_stream(DOCS, chunk_docs=3))
        assert streamed == transformation.apply_batch(DOCS)


@pytest.mark.parametrize("backend", available_backends())
def test_batch_agrees_across_backends(backend):
    for name, factory, reference in JSON_WORKLOADS:
        transformation = factory()
        outcomes = transformation.apply_batch(DOCS, backend=backend)
        assert outcomes == [reference(d) for d in DOCS], (name, backend)


def test_out_of_domain_key_is_a_per_document_error():
    _, factory, _ = JSON_WORKLOADS[0]
    transformation = factory()
    outcomes = transformation.apply_batch(
        [{"user": "u"}, {"unknown_key": 1}, True]
    )
    assert outcomes[0] == {"user": "u"}
    assert isinstance(outcomes[1], ReproError)
    assert outcomes[2] is True


def test_bundle_roundtrip(tmp_path):
    _, factory, reference = JSON_WORKLOADS[1]  # rename
    transformation = factory()
    path = tmp_path / "rename.json"
    transformation.save(path)
    loaded = load_transformation(path)
    for document in DOCS:
        assert loaded.apply(document) == reference(document)
    bundle = transformation.to_bundle()
    assert bundle["format"] == JSON_BUNDLE_FORMAT
    again = transformation_from_bundle(bundle)
    assert again.transducer.rules == transformation.transducer.rules
    for document in DOCS:
        assert again.apply(document) == reference(document)


def test_load_rejects_foreign_bundles(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"format": "repro/xml-transformation@1"}')
    with pytest.raises(ReproError, match="not a repro/json-transformation@1"):
        api.load_json(path)
    api.save(flip_transducer(), path)
    with pytest.raises(ReproError, match="not a repro/json-transformation@1"):
        api.load_json(path)


def test_load_json_round_trips(tmp_path):
    path = tmp_path / "rename.json"
    api.save_json(JSON_WORKLOADS[1][1](), path)
    loaded = api.load_json(path)
    assert loaded.codec.name == "json"
    for document in DOCS:
        assert api.run_json(loaded, document) == JSON_WORKLOADS[1][2](document)


def test_load_rejects_incomplete_bundles(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"format": "repro/json-transformation@1"}')
    with pytest.raises(
        ParseError,
        match="malformed repro/json-transformation@1 document: "
        "missing field 'transducer'",
    ):
        transformation_from_bundle({"format": JSON_BUNDLE_FORMAT})
    with pytest.raises(ReproError, match=f"cannot load {path}"):
        load_transformation(path)


class TestLearning:
    def test_learn_rename_with_value_provenance(self):
        # Each scalar field is exercised with both abstract value
        # classes (byte-sum parity), so the learner cannot absorb a
        # value as ground output and provenance stays exact.
        examples = []
        for user in ("al", "am"):  # "al" odd sum → v1, "am" even → v0
            for host in ("h", "i"):  # "h" even → v0, "i" odd → v1
                examples.append(
                    (
                        {"user": user, "host": host},
                        {"username": user, "host": host},
                    )
                )
        examples.append(({"user": "al"}, {"username": "al"}))
        examples.append(({"user": "am"}, {"username": "am"}))
        examples.append(({"host": "h"}, {"host": "h"}))
        examples.append(({"host": "i"}, {"host": "i"}))
        examples.append(({}, {}))
        learned = learn_json_transformation(examples)
        assert learned.apply(
            {"user": "carol", "host": "example.org"}
        ) == {"username": "carol", "host": "example.org"}
        assert learned.apply({}) == {}
        assert learned.num_states >= 1
        assert learned.learned is not None

    def test_learned_bundle_serves_identically(self, tmp_path):
        examples = [
            ({"user": u}, {"username": u}) for u in ("al", "am")
        ] + [({}, {})]
        learned = learn_json_transformation(examples)
        path = tmp_path / "learned.json"
        learned.save(path)
        loaded = load_transformation(path)
        for document in ({"user": "zoe"}, {"user": "x"}, {}):
            assert loaded.apply(document) == learned.apply(document)
