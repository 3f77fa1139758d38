"""The persistent compiled-engine artifact layer (ISSUE 19).

Pins the contract of :mod:`repro.engine.artifacts`: the content
fingerprint is stable and collision-aware, sidecar writes are atomic
and best-effort, loads verify the fingerprint and destroy anything
stale or corrupt, and :func:`attach_payload` installs a loaded engine
without a single table compilation — the property the server's warm
boot relies on.  The ``auto`` backend name is pinned here too: it is
an alias of ``codegen``.
"""

import pickle

import pytest

from repro import api
from repro.engine import (
    ARTIFACT_FORMAT,
    AUTO_BACKEND,
    DEFAULT_BACKEND,
    ENGINE_SUFFIX,
    artifact_stats,
    attach_payload,
    engine_for,
    engine_path_for,
    fingerprint_payload,
    load_engine_artifact,
    reset_artifact_stats,
    resolve_backend,
    write_engine_artifact,
)
from repro.serialize import dumps as serialize_dumps
from repro.serve.shard import pack_engine
from repro.workloads.families import cycle_relabel


@pytest.fixture(autouse=True)
def clean_counters():
    reset_artifact_stats()
    yield
    reset_artifact_stats()


def fresh_machine():
    machine, _domain = cycle_relabel(3)
    machine.clear_caches()
    return machine


def saved_payload(machine, directory):
    """Compile once and persist a sidecar; returns (path, fingerprint)."""
    chunks = [serialize_dumps(machine).encode("utf-8")]
    fingerprint = fingerprint_payload(chunks, DEFAULT_BACKEND)
    payload = pack_engine(
        engine_for(machine, DEFAULT_BACKEND).compiled, DEFAULT_BACKEND
    )
    path = engine_path_for(directory / "model@1.json")
    assert write_engine_artifact(path, fingerprint, payload)
    return path, fingerprint


class TestFingerprint:
    def test_deterministic(self):
        chunks = [b"model-json", b"member-json"]
        assert fingerprint_payload(chunks, "tables") == fingerprint_payload(
            list(chunks), "tables"
        )

    def test_sensitive_to_content_backend_and_order(self):
        base = fingerprint_payload([b"aa", b"bb"], "tables")
        assert fingerprint_payload([b"aa", b"bX"], "tables") != base
        assert fingerprint_payload([b"aa", b"bb"], "codegen") != base
        assert fingerprint_payload([b"bb", b"aa"], "tables") != base

    def test_length_prefix_prevents_concat_collisions(self):
        assert fingerprint_payload([b"ab", b"c"], "tables") != (
            fingerprint_payload([b"a", b"bc"], "tables")
        )

    def test_engine_path_is_a_sidecar(self, tmp_path):
        path = engine_path_for(tmp_path / "flip@1.json")
        assert path.parent == tmp_path
        assert path.name == "flip@1" + ENGINE_SUFFIX


class TestRoundTrip:
    def test_write_then_load_hits(self, tmp_path):
        machine = fresh_machine()
        path, fingerprint = saved_payload(machine, tmp_path)
        assert path.exists()
        assert load_engine_artifact(path, fingerprint) is not None
        stats = artifact_stats()
        assert stats["payload_writes"] == 1
        assert stats["payload_hits"] == 1
        assert stats["payload_misses"] == 0

    def test_missing_sidecar_is_a_miss(self, tmp_path):
        assert load_engine_artifact(tmp_path / "no@1.engine", "f" * 64) is None
        assert artifact_stats()["payload_misses"] == 1

    def test_fingerprint_mismatch_destroys_the_sidecar(self, tmp_path):
        machine = fresh_machine()
        path, _fingerprint = saved_payload(machine, tmp_path)
        assert load_engine_artifact(path, "0" * 64) is None
        assert not path.exists(), "stale sidecar must be invalidated"
        assert artifact_stats()["payload_misses"] == 1

    def test_corrupt_sidecar_destroys_itself(self, tmp_path):
        path = tmp_path / "model@1.engine"
        path.write_bytes(b"\x80\x04 this is not a record")
        assert load_engine_artifact(path, "f" * 64) is None
        assert not path.exists()

    def test_wrong_record_shape_is_a_miss(self, tmp_path):
        path = tmp_path / "model@1.engine"
        path.write_bytes(pickle.dumps((ARTIFACT_FORMAT, "abc")))
        assert load_engine_artifact(path, "abc") is None
        assert not path.exists()

    def test_unwritable_directory_degrades_not_raises(self, tmp_path):
        target = tmp_path / "gone" / "model@1.engine"
        assert not write_engine_artifact(target, "f" * 64, ("payload",))
        assert artifact_stats()["write_failures"] == 1


class TestAttachPayload:
    def test_attach_skips_compilation_and_matches_outputs(self, tmp_path):
        donor = fresh_machine()
        path, fingerprint = saved_payload(donor, tmp_path)
        expected = str(api.run(donor, "a(a(a(e)))"))

        machine = fresh_machine()
        reset_artifact_stats()
        payload = load_engine_artifact(path, fingerprint)
        backend = attach_payload(machine, payload)
        assert backend == DEFAULT_BACKEND
        stats = artifact_stats()
        assert stats["compiles"] == 0, "attach must not compile"
        assert stats["payload_hits"] == 1
        assert str(api.run(machine, "a(a(a(e)))")) == expected
        assert artifact_stats()["compiles"] == 0

    def test_compile_counter_counts_compilations(self):
        machine = fresh_machine()
        engine_for(machine, DEFAULT_BACKEND)
        assert artifact_stats()["compiles"] == 1
        engine_for(machine, DEFAULT_BACKEND)  # cached EngineSet
        assert artifact_stats()["compiles"] == 1

    def test_api_cache_stats_exposes_artifact_counters(self):
        counters = api.cache_stats()["engine_artifacts"]
        assert set(counters) >= {
            "compiles",
            "payload_hits",
            "payload_misses",
            "payload_writes",
            "write_failures",
        }


class TestAutoBackend:
    def test_auto_is_codegen(self):
        assert resolve_backend(AUTO_BACKEND) == "codegen"
