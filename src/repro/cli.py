"""Command-line interface: learn and apply XML transformations.

Usage (also via ``python -m repro``)::

    # Learn from example pairs and save the transformation:
    python -m repro learn --input-dtd in.dtd --output-dtd out.dtd \
        --examples pairs_dir --save transform.json \
        [--fuse] [--compact-lists] [--abstract-values] [--stats]

    # --stats prints the learner's timings and cache counters (compiled
    # sample tables, signature-bucketed merge index, global caches).

    # Apply a saved transformation to one or more documents:
    python -m repro apply --transform transform.json doc.xml
    python -m repro apply --transform transform.json a.xml b.xml c.xml
    python -m repro apply --transform transform.json --batch-dir docs/ \
        --output out_dir

    # Batch mode (several documents and/or --batch-dir) translates all
    # encoded documents in one compiled-engine sweep; failures are
    # reported per document without aborting the batch.  Add --jobs N to
    # shard the sweep across N worker processes.

    # Stream mode: one file (or -) whose root element wraps the
    # documents; they are parsed incrementally and transformed without
    # materializing the stream:
    python -m repro apply --transform transform.json --stream batch.xml \
        --jobs 4 --output out_dir

    # Serve a directory of saved models over TCP (name@version keys,
    # JSON-lines protocol, micro-batching, hot reload via the protocol's
    # reload op).  All chatter goes to stderr:
    python -m repro server --models models_dir --port 7455 --jobs 4

    # Apply through a running server instead of loading locally
    # (--transform names a served model, documents pass through as-is):
    python -m repro apply --remote localhost:7455 --transform mymodel \
        doc.xml
    python -m repro apply --remote localhost:7455 --transform mymodel \
        --stream batch.xml --output out_dir

    # Compose two saved transformations (apply the first, then the
    # second) into a new bundle:
    python -m repro compose --first clean.json --second render.json \
        --save pipeline.json

    # Fuse a whole pipeline into one single-pass machine (counts go to
    # stderr; without --save the fused artifact JSON goes to stdout):
    python -m repro compose --chain clean.json render.json index.json \
        --earliest --save pipeline.json

    # Show a saved transducer as an XSLT-like stylesheet:
    python -m repro show --transform transform.json

    # Every saved artifact loads through one loader
    # (repro.codec.load_transformation), and its codec decides the
    # document syntax: JSON bundles (repro/json-transformation@1) parse
    # documents as JSON and render canonical single-line JSON, with
    # JSON-lines streams; raw repro/dtop@1 machines use term syntax:
    python -m repro apply --transform rename.json doc.json
    python -m repro apply --transform rename.json --stream docs.jsonl
    python -m repro apply --remote localhost:7455 --format json \
        --transform rename-json doc.json

The examples directory contains pairs ``NAME.in.xml`` / ``NAME.out.xml``.
The saved artifact is a single JSON file bundling the transducer, the
domain automaton, both DTDs, and the encoding flags.
"""

from __future__ import annotations

import argparse
import codecs
import json
import re
import sys
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

from repro.codec import Transformation, compose_transformations, load_transformation
from repro.errors import ParseError, ReproError
from repro.obs.trace import NULL_TRACE, new_trace, render_trace_dict
from repro.xml.dtd import parse_dtd
from repro.xml.pipeline import learn_xml_transformation
from repro.xml.unranked import UTree
from repro.xml.xmlio import parse_xml
from repro.xml.xslt import to_xslt

#: The shared loader under its earlier CLI name (perfbench imports it).
load_any_transformation = load_transformation


def _load_examples(directory: Path) -> List[Tuple[UTree, UTree]]:
    pairs = []
    for input_path in sorted(directory.glob("*.in.xml")):
        output_path = input_path.with_name(
            input_path.name.replace(".in.xml", ".out.xml")
        )
        if not output_path.exists():
            raise ReproError(f"missing output document for {input_path.name}")
        pairs.append(
            (
                parse_xml(input_path.read_bytes(), ignore_attributes=True),
                parse_xml(output_path.read_bytes(), ignore_attributes=True),
            )
        )
    if not pairs:
        raise ReproError(f"no *.in.xml examples found in {directory}")
    return pairs


def _cmd_learn(args: argparse.Namespace) -> int:
    input_dtd = parse_dtd(Path(args.input_dtd).read_text())
    output_dtd = parse_dtd(Path(args.output_dtd).read_text())
    examples = _load_examples(Path(args.examples))
    transformation = learn_xml_transformation(
        input_dtd,
        output_dtd,
        examples,
        fuse_input=args.fuse,
        fuse_output=args.fuse,
        compact_lists=args.compact_lists,
        abstract_values=args.abstract_values,
    )
    print(
        f"learned {transformation.num_states} states / "
        f"{transformation.num_rules} rules from {len(examples)} examples"
    )
    if args.stats:
        _print_learning_stats(transformation)
    if args.save:
        transformation.save(args.save)
        print(f"saved to {args.save}")
    return 0


def _print_learning_stats(transformation: Transformation) -> None:
    """Report the learner's timing and cache counters (``learn --stats``)."""
    from repro import api

    learned = transformation.learned
    stats = learned.stats if learned is not None else {}
    if stats:
        print(
            f"stats: RPNI total {stats['total_s'] * 1e3:.1f} ms "
            f"(validate {stats['validate_s'] * 1e3:.1f} ms, "
            f"merge loop {stats['loop_s'] * 1e3:.1f} ms), "
            f"{stats['ok_states']} OK states, {stats['merges']} merges"
        )
        tables = stats.get("tables")
        if tables:
            print(
                f"stats: sample tables built {tables['builds']}, "
                f"extended {tables['extends']}, hits {tables['hits']}, "
                f"misses {tables['misses']}, refreshes {tables['refreshes']}"
            )
        merge_index = stats.get("merge_index")
        if merge_index:
            print(
                f"stats: merge index {merge_index['lookups']} lookups, "
                f"{merge_index['signature_hits']} signature hits, "
                f"{merge_index['entries_probed']} residual entries probed"
            )
    for name, counters in api.cache_stats().items():
        line = ", ".join(f"{key} {value}" for key, value in counters.items())
        print(f"stats: {name}: {line}")


def _resolve_format(
    args: argparse.Namespace, transformation: Optional[Transformation] = None
) -> str:
    """The document format of this invocation: a codec name.

    A loaded transformation's codec decides; an explicit ``--format``
    must agree with it.  Without a transformation (``--remote``, where
    the server parses in the model's own syntax) ``auto`` means XML, the
    historical default — pass ``--format json`` for JSON globbing and
    extensions.  The name doubles as the file extension.
    """
    chosen = getattr(args, "format", None) or "auto"
    actual = transformation.codec.name if transformation is not None else None
    if chosen == "auto":
        return actual or "xml"
    if actual is not None and chosen != actual:
        raise ReproError(
            f"--format {chosen} does not match the loaded bundle "
            f"(a {actual} transformation)"
        )
    return chosen


def _collect_documents(
    args: argparse.Namespace, doc_format: str = "xml"
) -> List[Path]:
    paths = [Path(p) for p in args.documents]
    if args.batch_dir:
        directory = Path(args.batch_dir)
        if not directory.is_dir():
            raise ReproError(f"--batch-dir {directory} is not a directory")
        # glob order is filesystem-dependent and Path ordering is
        # platform-dependent (case folding on Windows); sort the plain
        # names so batch order, per-document error reports, and exit
        # codes are stable everywhere.
        paths.extend(
            sorted(directory.glob(f"*.{doc_format}"), key=lambda p: p.name)
        )
    if not paths:
        raise ReproError("no input documents (pass files or --batch-dir)")
    return paths


def _parse_hostport(value: str) -> Tuple[str, int]:
    host, separator, port = value.rpartition(":")
    if not separator or not port.isdigit():
        raise ReproError(
            f"--remote takes HOST:PORT, not {value!r}"
        )
    return host or "127.0.0.1", int(port)


def _stream_source(args: argparse.Namespace) -> str:
    """The single stream file (or ``-``) of ``--stream``."""
    if args.batch_dir:
        raise ReproError("--stream and --batch-dir are mutually exclusive")
    if args.trace:
        raise ReproError(
            "--trace does not support --stream (trace single documents"
            + (")" if args.remote else " or a --batch-dir batch)")
        )
    if len(args.documents) != 1:
        raise ReproError("--stream takes exactly one stream file (or -)")
    return args.documents[0]


def _ensure_output_dir(output: Optional[str]) -> Optional[Path]:
    if not output:
        return None
    out_dir = Path(output)
    if out_dir.exists() and not out_dir.is_dir():
        raise ReproError(f"--output {out_dir} must be a directory")
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _stream_results(outcomes: Iterable, render) -> Iterable[Tuple]:
    """Label the outcomes of a stream for :func:`_report`."""
    for index, outcome in enumerate(outcomes):
        if not isinstance(outcome, Exception):
            outcome = render(outcome)
        yield f"document #{index + 1}", f"doc{index + 1:06d}", outcome


def _report(
    results: Iterable[Tuple[str, str, object]],
    out_dir: Optional[Path],
    doc_format: str,
) -> int:
    """Print or write ``(label, stem, rendered text or error)`` results.

    Errors go to stderr as ``error: LABEL: message``.  Outputs land in
    ``out_dir`` as ``STEM.out.FORMAT``, or on stdout — XML ones under a
    ``<!-- LABEL -->`` comment.  Ends with the ``k/n documents
    transformed`` line on stderr; returns the exit code, 1 when any
    document failed.
    """
    count = failures = 0
    written: set = set()
    for label, stem, outcome in results:
        count += 1
        if isinstance(outcome, Exception):
            failures += 1
            print(f"error: {label}: {outcome}", file=sys.stderr)
            continue
        if out_dir is not None:
            # Same-stem inputs from different directories must not
            # silently overwrite each other; dedupe the final filename.
            name = f"{stem}.out.{doc_format}"
            serial = 1
            while name in written:
                name = f"{stem}.{serial}.out.{doc_format}"
                serial += 1
            written.add(name)
            (out_dir / name).write_text(outcome + "\n")
            continue
        if doc_format == "xml":
            print(f"<!-- {label} -->")
        print(outcome)
    print(
        f"{count - failures}/{count} documents transformed"
        + (f", {failures} failed" if failures else ""),
        file=sys.stderr,
    )
    return 1 if failures else 0


#: The encoding named by an XML declaration at the start of a file
#: (after an optional UTF-8 byte order mark).
_DECLARED_ENCODING = re.compile(
    rb"(?:\xef\xbb\xbf)?<\?xml\s[^>]*?\bencoding\s*=\s*[\"']"
    rb"([A-Za-z][A-Za-z0-9._-]*)[\"']"
)

#: Multi-byte encodings expat reads itself.  It reads another Python
#: codec only when that codec maps every byte to one character.
_EXPAT_MULTIBYTE = {"utf-8", "utf-16", "utf-16-le", "utf-16-be"}


def _xml_encoding(data: bytes) -> Optional[str]:
    """The encoding expat reads ``data`` in: the XML declaration's (UTF-16
    by a byte order mark, else UTF-8); ``None`` when expat cannot read
    the declared one."""
    declared = _DECLARED_ENCODING.match(data)
    if declared:
        encoding = declared.group(1).decode("ascii")
    elif data.startswith((codecs.BOM_UTF16_LE, codecs.BOM_UTF16_BE)):
        return "utf-16"
    else:
        return "utf-8"
    try:
        name = codecs.lookup(encoding).name
    except LookupError:
        return None
    if name in _EXPAT_MULTIBYTE:
        return name
    single_byte = len(bytes(range(256)).decode(name, "replace")) == 256
    return name if single_byte else None


def _served_kind(client, model: str) -> Optional[str]:
    """The codec name (``xml``, ``json``, ``dtop``) of the served model
    that ``model`` names, resolved as the registry resolves it; ``None``
    when the server has no such model."""
    from repro.server.registry import _version_key

    kinds = {}
    for info in client.models():
        name, _at, version = info["model"].partition("@")
        if info["model"] == model or name == model:
            kinds[version] = info["kind"]
    if not kinds:
        return None
    return kinds[max(kinds, key=_version_key)]


def _document_text(path: Path, kind: Optional[str]) -> str:
    """A document file as text for a served model of codec ``kind``.

    An XML file is decoded as expat decodes it (by its declaration or
    byte order mark, else UTF-8), any other as UTF-8.  The server reads
    the text as it is, so it parses what the local path parses from the
    same bytes.  Bytes the local path refuses raise its own error: they
    are parsed here by the codec's reader.
    """
    from repro.json.jsonio import parse_json
    from repro.trees.tree import parse_term
    from repro.xml import parse_xml

    data = path.read_bytes()
    encoding = _xml_encoding(data) if kind in ("xml", None) else "utf-8"
    if encoding is not None:
        try:
            return data.decode(encoding)
        except UnicodeDecodeError:
            pass
    if kind == "json":
        parse_json(data)
    elif kind == "dtop":
        parse_term(data)
    else:
        parse_xml(data, ignore_attributes=True)
    raise ParseError(f"{path}: cannot decode as {encoding}")


def _apply_remote(args: argparse.Namespace) -> int:
    """Client mode: ship documents to a running ``repro server``.

    ``--transform`` names a served model (``name`` or ``name@version``);
    each document is sent as its text, decoded as the served model's
    codec decodes it (:func:`_document_text`), and the server parses
    and renders in the model's own syntax, so outputs (and error
    messages) are identical to the local path.
    """
    from repro.server import ServerClient

    host, port = _parse_hostport(args.remote)
    model = args.transform
    doc_format = _resolve_format(args)
    with ServerClient(host, port) as client:
        if args.stream:
            source = _stream_source(args)
            if source == "-":
                payload = sys.stdin.buffer.read()
            else:
                payload = Path(source).read_bytes()
            out_dir = _ensure_output_dir(args.output)
            results = _stream_results(
                client.transform_stream(model, payload), str
            )
            return _report(results, out_dir, doc_format)

        paths = _collect_documents(args, doc_format)
        kind = _served_kind(client, model)
        if len(paths) == 1 and not args.batch_dir:
            text = _document_text(paths[0], kind)
            if args.trace:
                output, trace = client.transform_traced(model, text)
                print(render_trace_dict(trace), file=sys.stderr)
            else:
                output = client.transform(model, text)
            if args.output:
                Path(args.output).write_text(output + "\n")
            else:
                print(output)
            return 0

        if args.trace:
            raise ReproError(
                "--trace over --remote traces one document at a time"
            )

        out_dir = _ensure_output_dir(args.output)

        def results():
            for path in paths:
                try:
                    text = _document_text(path, kind)
                    outcome = client.try_transform(model, text)
                except (OSError, ReproError) as error:
                    outcome = error
                yield str(path), path.stem, outcome

        return _report(results(), out_dir, doc_format)


def _cmd_apply(args: argparse.Namespace) -> int:
    if args.remote:
        return _apply_remote(args)
    transformation = load_transformation(args.transform)
    doc_format = _resolve_format(args, transformation)
    codec = transformation.codec
    if args.stream:
        # Stream mode: the codec's stream parser yields documents (XML:
        # the direct children of the root element; JSON: one per line)
        # without materializing the stream; they are transformed
        # chunk-wise and reported as they complete.
        source = _stream_source(args)
        out_dir = _ensure_output_dir(args.output)
        documents = codec.iter_stream(
            sys.stdin.buffer if source == "-" else Path(source)
        )
        outcomes = transformation.apply_stream(
            documents, jobs=args.jobs, chunk_docs=args.chunk_docs
        )
        return _report(
            _stream_results(outcomes, codec.render), out_dir, doc_format
        )
    paths = _collect_documents(args, doc_format)

    if len(paths) == 1 and not args.batch_dir:
        # Single-document mode: errors raise via main().
        trace = new_trace() if args.trace else NULL_TRACE
        with trace.span("decode", format=doc_format):
            document = codec.parse(paths[0].read_bytes())
        (result,) = transformation.apply_batch([document], trace=trace)
        if isinstance(result, Exception):
            raise result
        with trace.span("encode", format=doc_format):
            output = codec.render(result)
        if trace:
            print(trace.render(), file=sys.stderr)
        if args.output:
            Path(args.output).write_text(output + "\n")
        else:
            print(output)
        return 0

    # Batch mode: validate the output target first (before any work),
    # parse what parses, run everything through the engine's run_batch
    # in one sweep, report per-document errors and continue.
    out_dir = _ensure_output_dir(args.output)
    documents: List[Optional[object]] = []
    outcomes: List[object] = [None] * len(paths)
    for index, path in enumerate(paths):
        try:
            documents.append(codec.parse(path.read_bytes()))
        except (OSError, ReproError) as error:
            outcomes[index] = error
            documents.append(None)
        except RecursionError:
            outcomes[index] = ReproError(
                "document parsing exceeded the recursion limit"
            )
            documents.append(None)
    trace = new_trace(name="batch") if args.trace else NULL_TRACE
    batch = iter(
        transformation.apply_batch(
            [d for d in documents if d is not None],
            jobs=args.jobs,
            trace=trace,
        )
    )
    for index, document in enumerate(documents):
        if document is not None:
            outcomes[index] = next(batch)
    if trace:
        print(trace.render(), file=sys.stderr)
    results = (
        (
            str(path),
            path.stem,
            outcome if isinstance(outcome, Exception) else codec.render(outcome),
        )
        for path, outcome in zip(paths, outcomes)
    )
    return _report(results, out_dir, doc_format)


def _cmd_server(args: argparse.Namespace) -> int:
    from repro.server import serve_forever

    return serve_forever(
        args.models,
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        max_batch=args.max_batch,
        max_pending=args.max_pending,
        stats=args.stats,
        metrics=args.metrics,
        log_json=args.log_json,
        warm=args.warm,
        trace_sample_rate=args.trace_sample_rate,
        slow_ms=args.slow_ms,
    )


def _cmd_compose(args: argparse.Namespace) -> int:
    """Fuse two (``--first``/``--second``) or N (``--chain``) artifacts.

    Every artifact loads through the shared loader; the chain must use
    one codec (see :func:`repro.codec.compose_transformations`).
    Reporting goes to **stderr** (state/rule counts, the save
    confirmation); stdout carries only the fused artifact's JSON when
    ``--save`` is omitted, so the command pipes.
    """
    if args.chain:
        if args.first or args.second:
            raise ReproError(
                "--chain cannot be combined with --first/--second"
            )
        paths = [Path(item) for item in args.chain]
        if len(paths) < 2:
            raise ReproError("--chain needs at least two artifacts")
    else:
        if not args.first or not args.second:
            raise ReproError(
                "compose needs either --chain A B ... or both --first "
                "and --second"
            )
        paths = [Path(args.first), Path(args.second)]

    composed = compose_transformations(
        [load_transformation(path) for path in paths],
        labels=[path.name for path in paths],
        earliest=args.earliest,
    )
    print(
        f"composed {composed.num_states} states / "
        f"{composed.num_rules} rules",
        file=sys.stderr,
    )
    if args.save:
        composed.save(args.save)
        print(f"saved to {args.save}", file=sys.stderr)
    else:
        print(json.dumps(composed.to_bundle(), indent=2, ensure_ascii=False))
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    transformation = load_transformation(args.transform)
    if args.as_xslt:
        print(to_xslt(transformation.transducer))
    else:
        print(transformation.transducer.describe())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Learn and apply top-down XML transformations (PODS 2010).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    learn = commands.add_parser("learn", help="learn from example documents")
    learn.add_argument("--input-dtd", required=True)
    learn.add_argument("--output-dtd", required=True)
    learn.add_argument(
        "--examples", required=True, help="directory of NAME.in.xml/NAME.out.xml"
    )
    learn.add_argument("--save", help="write the learned transformation here")
    learn.add_argument("--fuse", action="store_true")
    learn.add_argument("--compact-lists", action="store_true")
    learn.add_argument("--abstract-values", action="store_true")
    learn.add_argument(
        "--stats",
        action="store_true",
        help="print learning timings and cache counters "
        "(sample tables, signature buckets, global caches)",
    )
    learn.set_defaults(func=_cmd_learn)

    apply_cmd = commands.add_parser(
        "apply", help="apply a saved transformation to one or more documents"
    )
    apply_cmd.add_argument("--transform", required=True)
    apply_cmd.add_argument(
        "documents", nargs="*", metavar="document",
        help="XML documents to transform",
    )
    apply_cmd.add_argument(
        "--batch-dir", help="also transform every *.xml file in this directory"
    )
    apply_cmd.add_argument(
        "--output",
        help="output file (single document) or output directory (batch); "
        "batch results are written as NAME.out.xml",
    )
    apply_cmd.add_argument(
        "--jobs",
        type=int,
        help="shard batch translation across N worker processes",
    )
    apply_cmd.add_argument(
        "--stream",
        action="store_true",
        help="treat the single input file (or -) as a document stream: "
        "the direct children of its root element are transformed "
        "incrementally, without materializing the stream",
    )
    apply_cmd.add_argument(
        "--chunk-docs",
        type=int,
        default=64,
        help="documents per dispatched chunk in --stream mode",
    )
    apply_cmd.add_argument(
        "--remote",
        metavar="HOST:PORT",
        help="send documents to a running `repro server` instead of "
        "loading locally; --transform then names a served model "
        "(NAME or NAME@VERSION)",
    )
    apply_cmd.add_argument(
        "--format",
        choices=("auto", "xml", "json"),
        default="auto",
        help="document format; auto follows the loaded bundle "
        "(--remote defaults to xml). JSON batch dirs glob *.json, "
        "JSON streams are one document per line",
    )
    apply_cmd.add_argument(
        "--trace",
        action="store_true",
        help="print a span tree of the request to stderr (local: "
        "decode/execute/decode phases; --remote: the server-side "
        "breakdown including queue wait and dispatch)",
    )
    apply_cmd.set_defaults(func=_cmd_apply)

    server = commands.add_parser(
        "server",
        help="serve a directory of saved models over TCP "
        "(JSON-lines protocol, micro-batching, hot reload)",
    )
    server.add_argument(
        "--models",
        required=True,
        help="directory of NAME@VERSION.json model artifacts "
        "(raw transducers or learned transformation bundles)",
    )
    server.add_argument("--host", default="127.0.0.1")
    server.add_argument(
        "--port", type=int, default=7455, help="TCP port (0 picks a free one)"
    )
    server.add_argument(
        "--jobs",
        type=int,
        help="shard each model across N worker processes",
    )
    server.add_argument(
        "--max-batch",
        type=int,
        default=32,
        help="documents per coalesced micro-batch (1 disables batching)",
    )
    server.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        help="admitted-request bound before overload responses",
    )
    server.add_argument(
        "--stats",
        action="store_true",
        help="print server statistics to stderr on shutdown",
    )
    server.add_argument(
        "--metrics",
        action="store_true",
        help="print the final Prometheus metrics exposition to stderr "
        "on shutdown (live scrape: the 'metrics' protocol verb)",
    )
    server.add_argument(
        "--log-json",
        action="store_true",
        help="stream structured one-line JSON events (reloads, shard "
        "crashes/restarts/quarantines) to stderr",
    )
    server.add_argument(
        "--warm",
        action="store_true",
        help="compile every model's engine (and prestart worker pools) "
        "before accepting traffic",
    )
    server.add_argument(
        "--trace-sample-rate",
        type=float,
        default=0.0,
        metavar="R",
        help="trace this fraction of transform requests (0..1) and "
        "emit each as a trace.sample event (visible under --log-json)",
    )
    server.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        metavar="N",
        help="trace every request and emit a trace.slow event with the "
        "span breakdown for any taking at least N ms end to end",
    )
    server.set_defaults(func=_cmd_server)

    compose_cmd = commands.add_parser(
        "compose",
        help="fuse saved transformations or transducer artifacts into "
        "one single-pass machine",
    )
    compose_cmd.add_argument(
        "--first", help="transformation applied first"
    )
    compose_cmd.add_argument(
        "--second", help="transformation applied second"
    )
    compose_cmd.add_argument(
        "--chain",
        nargs="+",
        metavar="ARTIFACT",
        help="fuse a whole pipeline (2+ files, in application order): "
        "all transformation bundles or all raw repro/dtop@1 artifacts",
    )
    compose_cmd.add_argument(
        "--earliest",
        action="store_true",
        help="earliest-normalize the fused machine",
    )
    compose_cmd.add_argument(
        "--save",
        help="write the composed artifact here (default: the artifact "
        "JSON on stdout; reporting goes to stderr either way)",
    )
    compose_cmd.set_defaults(func=_cmd_compose)

    show = commands.add_parser("show", help="print a saved transducer")
    show.add_argument("--transform", required=True)
    show.add_argument("--as-xslt", action="store_true")
    show.set_defaults(func=_cmd_show)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
