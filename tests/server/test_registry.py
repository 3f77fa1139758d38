"""ModelRegistry: loading, resolution, hot reload, deferred teardown."""

import json
import shutil
import time
from pathlib import Path

import pytest

from repro import api
from repro.engine.backends import ENV_VAR
from repro.errors import ModelNotFoundError, RegistryError
from repro.server import ServerClient, ServerThread
from repro.server.registry import (
    ModelRegistry,
    _parse_model_filename,
    _version_key,
)
from repro.workloads.flip import flip_input, flip_transducer

from tests.server.conftest import MALFORMED_ARTIFACTS, identity_dtop

STOCK_MODELS = Path(__file__).resolve().parents[2] / "models"


def pin_backend(path, backend):
    """Write a per-model ``"backend"`` key into a saved artifact."""
    data = json.loads(path.read_text())
    data["backend"] = backend
    path.write_text(json.dumps(data))


class TestLoading:
    def test_loads_both_model_kinds(self, models_dir):
        with ModelRegistry(models_dir) as registry:
            assert registry.keys() == ["flip@1", "xmlflip@1"]
            assert registry.get("flip@1").kind == "dtop"
            assert registry.get("xmlflip@1").kind == "xml"
            kinds = {d["model"]: d["kind"] for d in registry.describe()}
            assert kinds == {"flip@1": "dtop", "xmlflip@1": "xml"}

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(RegistryError):
            ModelRegistry(tmp_path / "nowhere")

    def test_unreadable_model_rejected(self, tmp_path):
        (tmp_path / "broken@1.json").write_text("{not json")
        with pytest.raises(RegistryError):
            ModelRegistry(tmp_path)

    def test_non_transducer_artifact_rejected(self, tmp_path):
        api.save(api.parse_tree("f(a, b)"), str(tmp_path / "tree@1.json"))
        with pytest.raises(RegistryError) as caught:
            ModelRegistry(tmp_path)
        assert "not a transducer" in str(caught.value)

    def test_duplicate_keys_rejected(self, tmp_path):
        api.save(flip_transducer(), str(tmp_path / "flip.json"))
        api.save(flip_transducer(), str(tmp_path / "flip@1.json"))
        with pytest.raises(RegistryError) as caught:
            ModelRegistry(tmp_path)
        assert "duplicate" in str(caught.value)

    def test_filename_convention(self):
        from pathlib import Path

        assert _parse_model_filename(Path("m.json")) == ("m", "1")
        assert _parse_model_filename(Path("m@3.json")) == ("m", "3")
        with pytest.raises(RegistryError):
            _parse_model_filename(Path("@3.json"))


class TestResolution:
    def test_bare_name_resolves_highest_version(self, tmp_path):
        for version in ("1", "2", "10"):
            api.save(flip_transducer(), str(tmp_path / f"flip@{version}.json"))
        with ModelRegistry(tmp_path) as registry:
            # Numeric versions order numerically: 10 > 2, not "10" < "2".
            assert registry.get("flip").version == "10"
            assert registry.get("flip@2").version == "2"

    def test_version_key_ordering(self):
        assert _version_key("10") > _version_key("2")
        assert _version_key("beta") > _version_key("10")  # numerics first
        assert _version_key("beta") != _version_key("alpha")

    def test_unknown_model_lists_available(self, models_dir):
        with ModelRegistry(models_dir) as registry:
            with pytest.raises(ModelNotFoundError) as caught:
                registry.get("nope")
            assert "flip@1" in str(caught.value)
            with pytest.raises(ModelNotFoundError):
                registry.get("flip@9")
            assert registry.stats["misses"] == 2


class TestHotReload:
    def test_unchanged_files_keep_their_entries(self, models_dir):
        with ModelRegistry(models_dir) as registry:
            before = registry.get("flip@1")
            summary = registry.reload()
            assert sorted(summary["kept"]) == ["flip@1", "xmlflip@1"]
            assert summary["reloaded"] == [] and summary["dropped"] == []
            assert registry.get("flip@1") is before

    def test_changed_file_swaps_entry_and_drops_old_engine(
        self, models_dir, flip_identity
    ):
        with ModelRegistry(models_dir) as registry:
            old = registry.get("flip@1")
            old_machine = old.machine
            # Touch the machine so it owns a compiled-engine handle.
            assert old.run_batch([flip_input(1, 1)])
            assert old_machine._engine is not None

            time.sleep(0.01)  # ensure a distinct mtime_ns
            api.save(flip_identity, str(models_dir / "flip@1.json"))
            summary = registry.reload()
            assert summary["reloaded"] == ["flip@1"]

            new = registry.get("flip@1")
            assert new is not old
            assert old.retired
            # clear_caches contract: the retired entry dropped its handle.
            assert old_machine._engine is None
            document = flip_input(2, 0)
            assert str(new.run_batch([document])[0]) == str(document)

    def test_removed_file_drops_the_model(self, models_dir):
        with ModelRegistry(models_dir) as registry:
            (models_dir / "flip@1.json").unlink()
            summary = registry.reload()
            assert summary["dropped"] == ["flip@1"]
            with pytest.raises(ModelNotFoundError):
                registry.get("flip@1")
            assert registry.keys() == ["xmlflip@1"]

    def test_retirement_defers_until_last_release(
        self, models_dir, flip_identity
    ):
        with ModelRegistry(models_dir) as registry:
            old = registry.get("flip@1")
            old.acquire()  # an in-flight request / open stream
            time.sleep(0.01)
            api.save(flip_identity, str(models_dir / "flip@1.json"))
            registry.reload()
            assert old.retired and not old._closed
            # Still serves the machine it was pinned with.
            flipped = old.run_batch([flip_input(1, 0)])[0]
            assert str(flipped) == "root(#, a(#, #))"
            old.release()
            assert old._closed

    def test_new_file_appears_as_loaded(self, models_dir):
        api.save(
            identity_dtop(flip_transducer().input_alphabet),
            str(models_dir / "ident@1.json"),
        )
        with ModelRegistry(models_dir) as registry:
            (models_dir / "late@1.json").write_text(
                (models_dir / "ident@1.json").read_text()
            )
            summary = registry.reload()
            assert summary["loaded"] == ["late@1"]
            assert "late@1" in registry.keys()


class TestLifecycle:
    def test_close_is_idempotent_and_final(self, models_dir):
        registry = ModelRegistry(models_dir)
        entry = registry.get("flip@1")
        registry.close()
        registry.close()
        assert entry._closed
        with pytest.raises(RegistryError):
            registry.get("flip@1")
        with pytest.raises(RegistryError):
            registry.reload()

    def test_sharded_entries_close_their_service(self, models_dir):
        registry = ModelRegistry(models_dir, jobs=2)
        entry = registry.get("flip@1")
        outcomes = entry.run_batch([flip_input(1, 1), flip_input(0, 2)])
        assert len(outcomes) == 2
        service = entry._service
        assert service is not None and service.jobs == 2
        registry.close()
        assert service._closed


class TestReloadIsolation:
    def test_corrupt_file_is_isolated_and_other_changes_commit(
        self, models_dir, flip_identity
    ):
        with ModelRegistry(models_dir) as registry:
            old_xml = registry.get("xmlflip@1")
            # One changed-and-valid file, one corrupt file: the valid
            # change commits, the corrupt model keeps its live entry.
            time.sleep(0.01)
            api.save(flip_identity, str(models_dir / "flip@1.json"))
            (models_dir / "xmlflip@1.json").write_text("{mid-write garbage")
            summary = registry.reload()
            assert summary["reloaded"] == ["flip@1"]
            assert len(summary["failed"]) == 1
            assert summary["failed"][0].startswith("xmlflip@1: ")
            assert registry.stats["failed_loads"] == 1
            # The corrupt model's old entry still serves, unretired.
            assert registry.get("xmlflip@1") is old_xml
            assert not old_xml.retired
            # The valid change went through: flip is now the identity.
            document = flip_input(1, 0)
            new_flip = registry.get("flip@1")
            assert str(new_flip.run_batch([document])[0]) == str(document)
            assert registry.keys() == ["flip@1", "xmlflip@1"]

    def test_failed_file_is_retried_on_the_next_reload(
        self, models_dir, flip_identity
    ):
        with ModelRegistry(models_dir) as registry:
            old = registry.get("flip@1")
            time.sleep(0.01)
            (models_dir / "flip@1.json").write_text("{half a write")
            summary = registry.reload()
            assert len(summary["failed"]) == 1
            assert registry.get("flip@1") is old
            # The writer finishes; the kept-stale fingerprint makes the
            # next reload pick the file up without another touch.
            time.sleep(0.01)
            api.save(flip_identity, str(models_dir / "flip@1.json"))
            summary = registry.reload()
            assert summary["reloaded"] == ["flip@1"]
            assert summary["failed"] == []
            assert registry.get("flip@1") is not old

    def test_strict_boot_still_rejects_a_corrupt_directory(self, tmp_path):
        api.save(flip_transducer(), str(tmp_path / "flip@1.json"))
        (tmp_path / "broken@1.json").write_text("{not json")
        with pytest.raises(RegistryError) as caught:
            ModelRegistry(tmp_path)
        assert "broken@1" in str(caught.value)

    def test_duplicate_keys_still_abort_the_whole_reload(self, models_dir):
        with ModelRegistry(models_dir) as registry:
            before = registry.keys()
            (models_dir / "flip.json").write_text(
                (models_dir / "flip@1.json").read_text()
            )
            with pytest.raises(RegistryError, match="duplicate"):
                registry.reload()
            assert registry.keys() == before

    def test_closed_entry_never_resurrects_a_pool(self, models_dir):
        registry = ModelRegistry(models_dir, jobs=2)
        entry = registry.get("flip@1")
        registry.close()
        from repro.errors import ServiceError

        with pytest.raises(ServiceError):
            entry.service()
        assert entry._service is None

    @pytest.mark.parametrize(
        "model, field, value, fmt",
        MALFORMED_ARTIFACTS,
        ids=[f"{m}-{f}-{type(v).__name__}" for m, f, v, _ in MALFORMED_ARTIFACTS],
    )
    def test_malformed_artifact_is_a_per_file_failure(
        self, models_dir, flip_identity, model, field, value, fmt
    ):
        shutil.copy(STOCK_MODELS / "rename-json@1.json", models_dir)
        shutil.copy(STOCK_MODELS / "flip@1.json", models_dir / "other@1.json")
        with ModelRegistry(models_dir) as registry:
            old = registry.get(model)
            time.sleep(0.01)
            data = json.loads((models_dir / f"{model}.json").read_text())
            data[field] = value
            (models_dir / f"{model}.json").write_text(json.dumps(data))
            api.save(flip_identity, str(models_dir / "other@1.json"))
            summary = registry.reload()
            assert summary["reloaded"] == ["other@1"]
            assert len(summary["failed"]) == 1
            failure = summary["failed"][0]
            assert failure.startswith(f"{model}: cannot load model")
            assert f"malformed {fmt} document" in failure
            assert registry.get(model) is old and not old.retired


class TestBackendPins:
    def test_artifact_key_overrides_the_registry_default(self, models_dir):
        pin_backend(models_dir / "flip@1.json", "codegen")
        document = flip_input(2, 1)
        with ServerThread(models_dir, backend="tables") as server:
            with ServerClient(server.host, server.port) as client:
                backends = {
                    row["model"]: row["backend"] for row in client.models()
                }
                output = client.transform("flip@1", str(document))
        assert backends == {"flip@1": "codegen", "xmlflip@1": "tables"}
        assert output == str(api.run(flip_transducer(), document))

    def test_auto_pin_serves_on_codegen(self, models_dir):
        pin_backend(models_dir / "flip@1.json", "auto")
        with ModelRegistry(models_dir, backend="tables") as registry:
            assert registry.get("flip@1").backend == "codegen"
            assert registry.get("xmlflip@1").backend == "tables"

    def test_registry_default_outranks_the_environment(
        self, models_dir, monkeypatch
    ):
        monkeypatch.setenv(ENV_VAR, "codegen")
        with ModelRegistry(models_dir, backend="tables") as registry:
            assert registry.get("flip@1").backend == "tables"
        with ModelRegistry(models_dir) as registry:
            assert registry.get("flip@1").backend == "codegen"

    def test_unknown_pin_fails_a_strict_boot_naming_the_file(self, models_dir):
        pin_backend(models_dir / "flip@1.json", "numpy")
        with pytest.raises(RegistryError) as caught:
            ModelRegistry(models_dir)
        assert str(caught.value).endswith(
            "flip@1: cannot load model flip@1.json: unknown execution "
            "backend 'numpy' (registered: codegen, tables)"
        )

    def test_unknown_pin_on_reload_is_a_per_file_failure(self, models_dir):
        with ModelRegistry(models_dir) as registry:
            old = registry.get("flip@1")
            time.sleep(0.01)
            pin_backend(models_dir / "flip@1.json", "numpy")
            summary = registry.reload()
            assert summary["failed"] == [
                "flip@1: cannot load model flip@1.json: unknown execution "
                "backend 'numpy' (registered: codegen, tables)"
            ]
            assert summary["kept"] == ["xmlflip@1"]
            assert registry.get("flip@1") is old and not old.retired
            assert str(old.run_batch([flip_input(1, 0)])[0]) == (
                "root(#, a(#, #))"
            )
