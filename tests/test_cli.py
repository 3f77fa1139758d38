"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.codec import load_transformation
from repro.workloads.xmlflip import (
    INPUT_DTD_TEXT,
    OUTPUT_DTD_TEXT,
    transform_xmlflip,
    xmlflip_document,
    xmlflip_examples,
)
from repro.xml.xmlio import parse_xml, serialize_xml

from tests.server.conftest import MALFORMED_ARTIFACTS

STOCK_MODELS = Path(__file__).resolve().parents[1] / "models"


@pytest.fixture
def workspace(tmp_path):
    """A directory with DTDs and example document pairs for xmlflip."""
    (tmp_path / "in.dtd").write_text(INPUT_DTD_TEXT)
    (tmp_path / "out.dtd").write_text(OUTPUT_DTD_TEXT)
    examples = tmp_path / "examples"
    examples.mkdir()
    for index, (source, target) in enumerate(xmlflip_examples()):
        (examples / f"case{index}.in.xml").write_text(serialize_xml(source))
        (examples / f"case{index}.out.xml").write_text(serialize_xml(target))
    return tmp_path


class TestLearnApply:
    def test_learn_save_apply(self, workspace, capsys):
        saved = workspace / "transform.json"
        code = main(
            [
                "learn",
                "--input-dtd", str(workspace / "in.dtd"),
                "--output-dtd", str(workspace / "out.dtd"),
                "--examples", str(workspace / "examples"),
                "--save", str(saved),
                "--compact-lists",
            ]
        )
        assert code == 0
        assert saved.exists()
        out = capsys.readouterr().out
        assert "learned" in out

        document = workspace / "doc.xml"
        document.write_text(serialize_xml(xmlflip_document(3, 2)))
        code = main(["apply", "--transform", str(saved), str(document)])
        assert code == 0
        out = capsys.readouterr().out
        assert parse_xml(out) == transform_xmlflip(xmlflip_document(3, 2))

    def test_apply_to_file(self, workspace, capsys):
        saved = workspace / "transform.json"
        main(
            [
                "learn",
                "--input-dtd", str(workspace / "in.dtd"),
                "--output-dtd", str(workspace / "out.dtd"),
                "--examples", str(workspace / "examples"),
                "--save", str(saved),
                "--compact-lists",
            ]
        )
        capsys.readouterr()
        document = workspace / "doc.xml"
        document.write_text(serialize_xml(xmlflip_document(1, 1)))
        output = workspace / "result.xml"
        code = main(
            [
                "apply",
                "--transform", str(saved),
                str(document),
                "--output", str(output),
            ]
        )
        assert code == 0
        assert parse_xml(output.read_text()) == transform_xmlflip(
            xmlflip_document(1, 1)
        )

    def test_show(self, workspace, capsys):
        saved = workspace / "transform.json"
        main(
            [
                "learn",
                "--input-dtd", str(workspace / "in.dtd"),
                "--output-dtd", str(workspace / "out.dtd"),
                "--examples", str(workspace / "examples"),
                "--save", str(saved),
                "--compact-lists",
            ]
        )
        capsys.readouterr()
        assert main(["show", "--transform", str(saved)]) == 0
        assert "axiom" in capsys.readouterr().out
        assert main(["show", "--transform", str(saved), "--as-xslt"]) == 0
        assert "<xsl:stylesheet" in capsys.readouterr().out


class TestBatchApply:
    @pytest.fixture
    def saved(self, workspace, capsys):
        path = workspace / "transform.json"
        main(
            [
                "learn",
                "--input-dtd", str(workspace / "in.dtd"),
                "--output-dtd", str(workspace / "out.dtd"),
                "--examples", str(workspace / "examples"),
                "--save", str(path),
                "--compact-lists",
            ]
        )
        capsys.readouterr()
        return path

    def test_multiple_positional_documents(self, workspace, saved, capsys):
        docs = []
        for index in range(3):
            doc = workspace / f"doc{index}.xml"
            doc.write_text(serialize_xml(xmlflip_document(index + 1, 2)))
            docs.append(doc)
        code = main(["apply", "--transform", str(saved)] + [str(d) for d in docs])
        assert code == 0
        captured = capsys.readouterr()
        for doc in docs:
            assert f"<!-- {doc} -->" in captured.out
        assert "3/3 documents transformed" in captured.err

    def test_batch_dir_writes_output_directory(self, workspace, saved, capsys):
        batch = workspace / "batch"
        batch.mkdir()
        for index in range(3):
            (batch / f"doc{index}.xml").write_text(
                serialize_xml(xmlflip_document(index + 1, index + 1))
            )
        out_dir = workspace / "results"
        code = main(
            [
                "apply",
                "--transform", str(saved),
                "--batch-dir", str(batch),
                "--output", str(out_dir),
            ]
        )
        assert code == 0
        for index in range(3):
            produced = out_dir / f"doc{index}.out.xml"
            assert parse_xml(produced.read_text()) == transform_xmlflip(
                xmlflip_document(index + 1, index + 1)
            )

    def test_per_document_errors_do_not_abort_batch(self, workspace, saved, capsys):
        good = workspace / "good.xml"
        good.write_text(serialize_xml(xmlflip_document(2, 2)))
        bad = workspace / "bad.xml"
        bad.write_text("<unexpected/>")
        unparsable = workspace / "unparsable.xml"
        unparsable.write_text("<<<not xml")
        code = main(
            [
                "apply",
                "--transform", str(saved),
                str(bad), str(good), str(unparsable),
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert f"<!-- {good} -->" in captured.out
        assert f"error: {bad}" in captured.err
        assert f"error: {unparsable}" in captured.err
        assert "1/3 documents transformed, 2 failed" in captured.err

    def test_no_documents_is_an_error(self, workspace, saved, capsys):
        assert main(["apply", "--transform", str(saved)]) == 2
        assert "no input documents" in capsys.readouterr().err

    def test_same_stem_documents_do_not_overwrite(self, workspace, saved, capsys):
        first_dir = workspace / "x"
        second_dir = workspace / "y"
        first_dir.mkdir()
        second_dir.mkdir()
        (first_dir / "doc.xml").write_text(serialize_xml(xmlflip_document(1, 1)))
        (second_dir / "doc.xml").write_text(serialize_xml(xmlflip_document(2, 2)))
        out_dir = workspace / "collide"
        code = main(
            [
                "apply",
                "--transform", str(saved),
                str(first_dir / "doc.xml"), str(second_dir / "doc.xml"),
                "--output", str(out_dir),
            ]
        )
        assert code == 0
        assert parse_xml((out_dir / "doc.out.xml").read_text()) == (
            transform_xmlflip(xmlflip_document(1, 1))
        )
        assert parse_xml((out_dir / "doc.1.out.xml").read_text()) == (
            transform_xmlflip(xmlflip_document(2, 2))
        )

    def test_batch_output_must_be_a_directory(self, workspace, saved, capsys):
        for index in range(2):
            (workspace / f"d{index}.xml").write_text(
                serialize_xml(xmlflip_document(1, 1))
            )
        existing = workspace / "result.xml"
        existing.write_text("occupied")
        code = main(
            [
                "apply",
                "--transform", str(saved),
                str(workspace / "d0.xml"), str(workspace / "d1.xml"),
                "--output", str(existing),
            ]
        )
        assert code == 2
        assert "must be a directory" in capsys.readouterr().err
        assert existing.read_text() == "occupied"


class TestBundleRoundTrip:
    def test_save_load(self, workspace, tmp_path):
        from repro.xml.dtd import parse_dtd
        from repro.xml.pipeline import learn_xml_transformation

        transformation = learn_xml_transformation(
            parse_dtd(INPUT_DTD_TEXT),
            parse_dtd(OUTPUT_DTD_TEXT),
            xmlflip_examples(),
            compact_lists=True,
        )
        path = tmp_path / "bundle.json"
        transformation.save(path)
        again = load_transformation(path)
        doc = xmlflip_document(2, 3)
        assert again.apply(doc) == transformation.apply(doc)

    def test_bundle_format_checked(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "other"}))
        assert main(["show", "--transform", str(bad)]) == 2

    @pytest.mark.parametrize(
        "model, field, value, fmt",
        MALFORMED_ARTIFACTS,
        ids=[f"{m}-{f}-{type(v).__name__}" for m, f, v, _ in MALFORMED_ARTIFACTS],
    )
    def test_malformed_artifact_is_a_clean_error(
        self, tmp_path, capsys, model, field, value, fmt
    ):
        data = json.loads((STOCK_MODELS / f"{model}.json").read_text())
        data[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        document = tmp_path / "doc.xml"
        document.write_text("<root/>")
        code = main(["apply", "--transform", str(bad), str(document)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: cannot load {bad}: malformed {fmt}")
        assert "Traceback" not in err


class TestErrors:
    def test_missing_examples_dir(self, workspace):
        empty = workspace / "empty"
        empty.mkdir()
        code = main(
            [
                "learn",
                "--input-dtd", str(workspace / "in.dtd"),
                "--output-dtd", str(workspace / "out.dtd"),
                "--examples", str(empty),
            ]
        )
        assert code == 2

    def test_unpaired_example(self, workspace):
        (workspace / "examples" / "orphan.in.xml").write_text("<root/>")
        code = main(
            [
                "learn",
                "--input-dtd", str(workspace / "in.dtd"),
                "--output-dtd", str(workspace / "out.dtd"),
                "--examples", str(workspace / "examples"),
            ]
        )
        assert code == 2


class TestServeAndStream:
    @pytest.fixture
    def saved(self, workspace, capsys):
        path = workspace / "transform.json"
        main(
            [
                "learn",
                "--input-dtd", str(workspace / "in.dtd"),
                "--output-dtd", str(workspace / "out.dtd"),
                "--examples", str(workspace / "examples"),
                "--save", str(path),
                "--compact-lists",
            ]
        )
        capsys.readouterr()
        return path

    @pytest.fixture
    def stream_file(self, workspace):
        documents = [xmlflip_document(n % 4, (n + 1) % 3) for n in range(9)]
        path = workspace / "batch.xml"
        path.write_text(
            "<batch>"
            + "".join(serialize_xml(d, indent=None) for d in documents)
            + "</batch>"
        )
        return path, documents

    def test_serve_writes_outputs_in_stream_order(
        self, workspace, saved, stream_file, capsys
    ):
        path, documents = stream_file
        out_dir = workspace / "served"
        code = main(
            [
                "serve",
                "--transform", str(saved),
                "--input", str(path),
                "--jobs", "2",
                "--chunk-docs", "4",
                "--output", str(out_dir),
                "--stats",
            ]
        )
        err = capsys.readouterr().err
        assert code == 0
        assert f"{len(documents)}/{len(documents)} documents transformed" in err
        assert "stats:" in err
        for index, document in enumerate(documents):
            rendered = (out_dir / f"doc{index + 1:06d}.out.xml").read_text()
            assert parse_xml(rendered) == transform_xmlflip(document)

    def test_apply_stream_matches_serve(
        self, workspace, saved, stream_file, capsys
    ):
        path, documents = stream_file
        out_dir = workspace / "streamed"
        code = main(
            [
                "apply",
                "--transform", str(saved),
                "--stream", str(path),
                "--output", str(out_dir),
            ]
        )
        capsys.readouterr()
        assert code == 0
        assert len(list(out_dir.glob("*.out.xml"))) == len(documents)

    def test_stream_reports_per_document_errors(
        self, workspace, saved, capsys
    ):
        good = xmlflip_document(1, 2)
        path = workspace / "mixed.xml"
        path.write_text(
            "<batch>"
            + serialize_xml(good, indent=None)
            + "<root><z/></root>"
            + serialize_xml(good, indent=None)
            + "</batch>"
        )
        code = main(
            ["apply", "--transform", str(saved), "--stream", str(path)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "error: document #2" in captured.err
        assert "2/3 documents transformed, 1 failed" in captured.err

    def test_stream_excludes_batch_dir(self, workspace, saved, stream_file):
        path, _documents = stream_file
        code = main(
            [
                "apply",
                "--transform", str(saved),
                "--stream", str(path),
                "--batch-dir", str(workspace),
            ]
        )
        assert code == 2

    def test_batch_dir_order_is_name_sorted(
        self, workspace, saved, capsys, monkeypatch
    ):
        batch = workspace / "batch"
        batch.mkdir()
        names = ["zeta.xml", "alpha.xml", "mid.xml"]
        for index, name in enumerate(names):
            (batch / name).write_text(
                serialize_xml(xmlflip_document(index + 1, 1))
            )
        # Present directory entries in hostile (reversed) order: the CLI
        # must still process by plain name so reports are stable across
        # filesystems.
        from pathlib import Path as _Path

        original_glob = _Path.glob

        def reversed_glob(self, pattern):
            return reversed(sorted(original_glob(self, pattern)))

        monkeypatch.setattr(_Path, "glob", reversed_glob)
        code = main(
            [
                "apply",
                "--transform", str(saved),
                "--batch-dir", str(batch),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        positions = [out.index(name) for name in sorted(names)]
        assert positions == sorted(positions)

    def test_batch_apply_jobs_flag(self, workspace, saved, capsys):
        batch = workspace / "docs"
        batch.mkdir()
        documents = [xmlflip_document(n + 1, n % 3) for n in range(5)]
        for index, document in enumerate(documents):
            (batch / f"doc{index}.xml").write_text(serialize_xml(document))
        out_dir = workspace / "out"
        code = main(
            [
                "apply",
                "--transform", str(saved),
                "--batch-dir", str(batch),
                "--jobs", "2",
                "--output", str(out_dir),
            ]
        )
        capsys.readouterr()
        assert code == 0
        for index, document in enumerate(documents):
            rendered = (out_dir / f"doc{index}.out.xml").read_text()
            assert parse_xml(rendered) == transform_xmlflip(document)


class TestStatsGoToStderr:
    """stdout must stay pipeable as document output — every statistics
    and summary line of the serving surfaces lands on stderr."""

    @pytest.fixture
    def saved(self, workspace, capsys):
        path = workspace / "transform.json"
        main(
            [
                "learn",
                "--input-dtd", str(workspace / "in.dtd"),
                "--output-dtd", str(workspace / "out.dtd"),
                "--examples", str(workspace / "examples"),
                "--save", str(path),
                "--compact-lists",
            ]
        )
        capsys.readouterr()
        return path

    def test_serve_stats_never_touch_stdout(self, workspace, saved, capsys):
        documents = [xmlflip_document(n % 3, n % 2) for n in range(5)]
        stream = workspace / "batch.xml"
        stream.write_text(
            "<batch>"
            + "".join(serialize_xml(d, indent=None) for d in documents)
            + "</batch>"
        )
        code = main(
            [
                "serve",
                "--transform", str(saved),
                "--input", str(stream),
                "--stats",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        # stderr carries the summary and the statistics...
        assert "documents transformed" in captured.err
        assert "stats:" in captured.err
        # ...while stdout is exactly the documents (plus separators).
        assert "stats:" not in captured.out
        assert "transformed" not in captured.out
        rendered = [
            chunk for chunk in captured.out.split("<!-- document #")
            if chunk.strip()
        ]
        assert len(rendered) == len(documents)
        for index, document in enumerate(documents):
            body = rendered[index].split("-->", 1)[1]
            assert parse_xml(body) == transform_xmlflip(document)
