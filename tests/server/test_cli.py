"""CLI surfaces of the server subsystem: ``repro server``,
``apply --remote``, and ``repro compose``."""

import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.codec import Transformation, load_transformation
from repro.errors import ReproError
from repro.server import ServerClient, ServerThread
from repro.workloads.xmlflip import (
    transform_xmlflip,
    xmlflip_document,
    xmlflip_output_dtd,
)
from repro.xml.encode import DTDEncoder
from repro.xml.pipeline import xml_codec
from repro.xml.schema import schema_dtta
from repro.xml.xmlio import parse_xml, serialize_xml

from tests.fuzz.test_server_differential import random_json_document
from tests.server.conftest import identity_dtop
from tests.server.faults import wait_until


@pytest.fixture
def server(models_dir):
    with ServerThread(models_dir, max_wait_ms=2.0) as handle:
        yield handle


def remote(server):
    return f"{server.host}:{server.port}"


class TestApplyRemote:
    def test_single_document_matches_local_apply(
        self, server, tmp_path, xmlflip_transformation, capsys
    ):
        document = xmlflip_document(2, 1)
        path = tmp_path / "doc.xml"
        path.write_text(serialize_xml(document))
        code = main(
            [
                "apply",
                "--remote", remote(server),
                "--transform", "xmlflip",
                str(path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert parse_xml(out) == transform_xmlflip(document)
        assert out.strip() == serialize_xml(transform_xmlflip(document))

    def test_single_document_to_output_file(self, server, tmp_path, capsys):
        path = tmp_path / "doc.xml"
        path.write_text(serialize_xml(xmlflip_document(1, 1)))
        target = tmp_path / "out.xml"
        code = main(
            [
                "apply",
                "--remote", remote(server),
                "--transform", "xmlflip@1",
                str(path),
                "--output", str(target),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert parse_xml(target.read_text()) == transform_xmlflip(
            xmlflip_document(1, 1)
        )

    def test_batch_reports_per_document_errors(
        self, server, tmp_path, capsys
    ):
        good = tmp_path / "good.xml"
        good.write_text(serialize_xml(xmlflip_document(1, 2)))
        bad = tmp_path / "bad.xml"
        bad.write_text("<root><b/><a/></root>")  # off-schema order
        code = main(
            [
                "apply",
                "--remote", remote(server),
                "--transform", "xmlflip",
                str(bad),
                str(good),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert f"error: {bad}" in captured.err
        assert "1/2 documents transformed, 1 failed" in captured.err
        assert str(good) in captured.out
        assert "stats" not in captured.out

    def test_stream_mode_writes_output_directory(
        self, server, tmp_path, capsys
    ):
        documents = [xmlflip_document(n % 3, n % 2) for n in range(7)]
        stream = tmp_path / "batch.xml"
        stream.write_text(
            "<batch>"
            + "".join(serialize_xml(d, indent=None) for d in documents)
            + "</batch>"
        )
        out_dir = tmp_path / "served"
        code = main(
            [
                "apply",
                "--remote", remote(server),
                "--transform", "xmlflip",
                "--stream", str(stream),
                "--output", str(out_dir),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ""
        assert "7/7 documents transformed" in captured.err
        for index, document in enumerate(documents):
            rendered = (out_dir / f"doc{index + 1:06d}.out.xml").read_text()
            assert parse_xml(rendered) == transform_xmlflip(document)

    def test_unknown_model_is_a_cli_error(self, server, tmp_path, capsys):
        path = tmp_path / "doc.xml"
        path.write_text(serialize_xml(xmlflip_document(1, 0)))
        code = main(
            [
                "apply",
                "--remote", remote(server),
                "--transform", "missing",
                str(path),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err and "missing" in captured.err

    def test_bad_hostport_rejected(self, tmp_path, capsys):
        path = tmp_path / "doc.xml"
        path.write_text("<root/>")
        code = main(
            [
                "apply",
                "--remote", "nonsense",
                "--transform", "m",
                str(path),
            ]
        )
        assert code == 2
        assert "HOST:PORT" in capsys.readouterr().err


class TestComposeCommand:
    @pytest.fixture
    def identity_bundle(self, tmp_path):
        encoder = DTDEncoder(xmlflip_output_dtd(), compact_lists=True)
        bundle = Transformation(
            identity_dtop(encoder.alphabet),
            xml_codec(encoder, encoder),
            schema_dtta(encoder),
        )
        path = tmp_path / "ident.json"
        bundle.save(path)
        return path

    def test_compose_then_apply_matches_chain(
        self, models_dir, identity_bundle, tmp_path, capsys
    ):
        composed = tmp_path / "composed.json"
        code = main(
            [
                "compose",
                "--first", str(models_dir / "xmlflip@1.json"),
                "--second", str(identity_bundle),
                "--save", str(composed),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        # Reporting goes to stderr; stdout stays pipeable (and is empty
        # when --save is given).
        assert "composed" in captured.err and "saved" in captured.err
        assert captured.out == ""

        document = xmlflip_document(2, 2)
        path = tmp_path / "doc.xml"
        path.write_text(serialize_xml(document))
        code = main(["apply", "--transform", str(composed), str(path)])
        captured = capsys.readouterr()
        assert code == 0
        # identity ∘ xmlflip == xmlflip
        assert parse_xml(captured.out) == transform_xmlflip(document)

    def test_mismatched_dtds_rejected(self, models_dir, capsys):
        code = main(
            [
                "compose",
                "--first", str(models_dir / "xmlflip@1.json"),
                "--second", str(models_dir / "xmlflip@1.json"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "output schema" in captured.err


    def test_json_chain_matches_staged_apply(self, tmp_path, capsys):
        stock = Path(__file__).resolve().parents[2] / "models"
        chain = [stock / "rename-json@1.json", stock / "redact-json@1.json"]
        composed = tmp_path / "composed.json"
        code = main(
            ["compose", "--chain", *map(str, chain), "--save", str(composed)]
        )
        assert code == 0, capsys.readouterr().err
        fused = load_transformation(composed)
        rename, redact = map(load_transformation, chain)
        assert fused.codec.name == "json"

        def outcome(transformation, document):
            # Fused state names are pairs, so errors compare by type.
            try:
                return transformation.apply(document)
            except ReproError as error:
                return (type(error).__name__,)

        rng = random.Random(0xC0DE)
        documents = [random_json_document(rng) for _ in range(60)]
        carries_values = {
            bool(rename.codec.input_encoder.encode_with_values(d)[1])
            for d in documents
            if not isinstance(outcome(rename, d), tuple)
        }
        assert carries_values == {True, False}
        for document in documents:
            staged = outcome(rename, document)
            if not isinstance(staged, tuple):
                staged = outcome(redact, staged)
            assert outcome(fused, document) == staged, document

    def test_mixed_codecs_rejected_naming_both(self, models_dir, capsys):
        stock = Path(__file__).resolve().parents[2] / "models"
        code = main(
            [
                "compose",
                "--chain",
                str(models_dir / "xmlflip@1.json"),
                str(stock / "rename-json@1.json"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "xmlflip@1.json (xml)" in err
        assert "rename-json@1.json (json)" in err


class TestServerCommand:
    def test_server_subprocess_round_trip_and_clean_shutdown(
        self, models_source, tmp_path
    ):
        """Boot `repro server` as a real process: banner and stats on
        stderr, stdout silent, SIGTERM exits 0 within the timeout."""
        src_dir = Path(repro.__file__).parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_dir) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "server",
                "--models", str(models_source),
                "--port", "0",
                "--max-wait-ms", "1",
                "--stats",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        try:
            banner = process.stderr.readline().decode()
            assert "listening on" in banner, banner
            port = int(banner.split("listening on ")[1].split()[0].split(":")[1])
            with ServerClient("127.0.0.1", port) as client:
                health = client.health()
                assert health["models"] == ["flip@1", "xmlflip@1"]
                flipped = client.transform("flip", "root(a(#, #), #)")
                assert flipped == "root(#, a(#, #))"
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0
        assert stdout == b""  # stdout stays pipeable: nothing was written
        text = stderr.decode()
        assert "stats: server:" in text
        assert "stats: batcher:" in text
        assert "repro server stopped" in text

    def test_worker_crash_does_not_stop_a_signal_handling_server(
        self, models_source
    ):
        """A worker killed under a real `repro server` process must not
        take the server down.

        The CLI path installs asyncio signal handlers, which register a
        wakeup-fd self-pipe that fork-started pool workers inherit.  A
        signal aimed at a worker (the executor terminates survivors
        while cleaning up a broken pool) would be replayed into the
        parent's event loop as the parent's own SIGTERM — a graceful
        stop of a healthy server.  `init_worker` resets the inherited
        plumbing; this boots the real process, crashes a worker, and
        requires the server to answer afterwards."""
        src_dir = Path(repro.__file__).parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_dir) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["REPRO_SERVE_CRASH_LABEL"] = "poison"
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "server",
                "--models", str(models_source),
                "--port", "0",
                "--jobs", "2",
                "--max-wait-ms", "1",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        try:
            banner = process.stderr.readline().decode()
            assert "listening on" in banner, banner
            port = int(banner.split("listening on ")[1].split()[0].split(":")[1])
            with ServerClient("127.0.0.1", port) as client:
                outcome = client.try_transform("flip", "poison(a(#, #), #)")
                from repro.errors import ReproError

                assert isinstance(outcome, ReproError)
                # The healthy server must still be answering; before the
                # worker-side signal reset this connection found a
                # gracefully stopped server instead.
                assert client.health()["status"] in ("serving", "degraded")
                wait_until(
                    lambda: client.try_transform(
                        "flip", "root(a(#, #), #)"
                    )
                    == "root(#, a(#, #))",
                    timeout=30.0,
                    message="server never served again after the crash",
                )
            process.send_signal(signal.SIGTERM)
            _, stderr = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0
        assert "repro server stopped" in stderr.decode()

    def test_warm_banner_precedes_the_listening_line(self, models_dir):
        """`repro server --warm` builds every engine before it binds:
        the warm banner is the first stderr line, it counts the
        entries, and the models directory gains no file."""
        before = sorted(path.name for path in models_dir.iterdir())
        src_dir = Path(repro.__file__).parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_dir) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "server",
                "--models", str(models_dir),
                "--port", "0",
                "--max-wait-ms", "1",
                "--warm",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        try:
            warmed = process.stderr.readline().decode()
            assert warmed.strip() == "repro server warmed 2 engines", warmed
            banner = process.stderr.readline().decode()
            assert "listening on" in banner, banner
            port = int(banner.split("listening on ")[1].split()[0].split(":")[1])
            with ServerClient("127.0.0.1", port) as client:
                counters = client.stats()["engine_artifacts"]
                assert counters["compiles"] >= 2
                flipped = client.transform("flip", "root(a(#, #), #)")
                assert flipped == "root(#, a(#, #))"
                assert client.stats()["engine_artifacts"] == counters
            process.send_signal(signal.SIGTERM)
            process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0
        assert sorted(path.name for path in models_dir.iterdir()) == before
