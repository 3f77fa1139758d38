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

    # The serve command is the same streaming engine with throughput
    # statistics — point it at a stream file or stdin:
    python -m repro serve --transform transform.json --input batch.xml \
        --jobs 4 --chunk-docs 64 --output out_dir --stats

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
import json
import sys
import time
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

from repro.codec import Transformation, compose_transformations, load_transformation
from repro.engine.backends import resolve_backend
from repro.errors import ReproError
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
                parse_xml(input_path.read_text(), ignore_attributes=True),
                parse_xml(output_path.read_text(), ignore_attributes=True),
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
) -> Tuple[int, int]:
    """Print or write ``(label, stem, rendered text or error)`` results.

    Errors go to stderr as ``error: LABEL: message``.  Outputs land in
    ``out_dir`` as ``STEM.out.FORMAT``, or on stdout — XML ones under a
    ``<!-- LABEL -->`` comment.  Ends with the ``k/n documents
    transformed`` line on stderr; returns ``(count, failures)``.
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
    return count, failures


def _apply_remote(args: argparse.Namespace) -> int:
    """Client mode: ship documents to a running ``repro server``.

    ``--transform`` names a served model (``name`` or ``name@version``);
    document payloads pass through verbatim — the server parses and
    renders in the model's own syntax, so outputs (and error messages)
    are identical to the local path.
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
            _, failures = _report(results, out_dir, doc_format)
            return 1 if failures else 0

        paths = _collect_documents(args, doc_format)
        if len(paths) == 1 and not args.batch_dir:
            if args.trace:
                output, trace = client.transform_traced(
                    model, paths[0].read_text()
                )
                print(render_trace_dict(trace), file=sys.stderr)
            else:
                output = client.transform(model, paths[0].read_text())
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
                    outcome = client.try_transform(model, path.read_text())
                except OSError as error:
                    outcome = error
                yield str(path), path.stem, outcome

        _, failures = _report(results(), out_dir, doc_format)
        return 1 if failures else 0


def _cmd_apply(args: argparse.Namespace) -> int:
    if args.remote:
        return _apply_remote(args)
    transformation = load_transformation(args.transform)
    doc_format = _resolve_format(args, transformation)
    if args.stream:
        return _serve_stream(
            transformation,
            _stream_source(args),
            jobs=args.jobs,
            output=args.output,
            chunk_docs=args.chunk_docs,
            stats=False,
            backend=args.backend,
            doc_format=doc_format,
        )
    codec = transformation.codec
    paths = _collect_documents(args, doc_format)

    if len(paths) == 1 and not args.batch_dir:
        # Single-document mode: errors raise via main().  The backend is
        # resolved before any work, so a typo fails even on one document.
        backend = resolve_backend(args.backend)
        trace = new_trace() if args.trace else NULL_TRACE
        with trace.span("decode", format=doc_format):
            document = codec.parse(paths[0].read_text())
        (result,) = transformation.apply_batch(
            [document], backend=backend, trace=trace
        )
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
            documents.append(codec.parse(path.read_text()))
        except (OSError, ValueError, ReproError) as error:
            # ValueError covers UnicodeDecodeError on non-UTF-8 files.
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
            backend=args.backend,
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
    _, failures = _report(results, out_dir, doc_format)
    return 1 if failures else 0


def _serve_stream(
    transformation: Transformation,
    source: str,
    jobs: Optional[int],
    output: Optional[str],
    chunk_docs: int,
    stats: bool,
    backend: Optional[str] = None,
    doc_format: str = "xml",
) -> int:
    """Shared engine of ``serve`` and ``apply --stream``.

    Parses the stream incrementally with the codec's stream parser (XML:
    documents are the direct children of the stream's root element;
    JSON: one document per line), transforms it chunk-wise — sharded
    across ``jobs`` workers when requested — and writes outcomes as they
    complete.  Per-document failures are reported without aborting; the
    exit code is 1 when any document failed.
    """
    out_dir = _ensure_output_dir(output)
    codec = transformation.codec
    documents = codec.iter_stream(
        sys.stdin.buffer if source == "-" else Path(source)
    )
    start = time.perf_counter()
    outcomes = transformation.apply_stream(
        documents, jobs=jobs, chunk_docs=chunk_docs, backend=backend
    )
    count, failures = _report(
        _stream_results(outcomes, codec.render), out_dir, doc_format
    )
    if stats:
        elapsed = time.perf_counter() - start
        rate = count / elapsed if elapsed > 0 else float("inf")
        print(
            f"stats: {count} documents in {elapsed:.2f} s "
            f"({rate:.0f} docs/s, jobs={jobs or 1}, "
            f"chunk={chunk_docs})",
            file=sys.stderr,
        )
    return 1 if failures else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    transformation = load_transformation(args.transform)
    return _serve_stream(
        transformation,
        args.input,
        jobs=args.jobs,
        output=args.output,
        chunk_docs=args.chunk_docs,
        stats=args.stats,
        backend=args.backend,
        doc_format=_resolve_format(args, transformation),
    )


def _cmd_server(args: argparse.Namespace) -> int:
    from repro.server import serve_forever

    return serve_forever(
        args.models,
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        max_pending=args.max_pending,
        stats=args.stats,
        metrics=args.metrics,
        log_json=args.log_json,
        backend=args.backend,
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
    ``--save`` is omitted, so the command pipes like ``serve --stats``.
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
        "--backend",
        help="execution backend (tables/codegen/auto; default: "
        "$REPRO_BACKEND, then tables)",
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

    serve = commands.add_parser(
        "serve",
        help="stream-transform a batch stream through the sharded service",
    )
    serve.add_argument("--transform", required=True)
    serve.add_argument(
        "--input",
        required=True,
        help="stream file whose root element wraps the documents, or - "
        "for stdin",
    )
    serve.add_argument(
        "--jobs", type=int, help="worker processes (default: in-process)"
    )
    serve.add_argument(
        "--chunk-docs", type=int, default=64, help="documents per chunk"
    )
    serve.add_argument(
        "--output", help="directory for docNNNNNN.out.xml results"
    )
    serve.add_argument(
        "--stats", action="store_true", help="print throughput statistics"
    )
    serve.add_argument(
        "--backend",
        help="execution backend (tables/codegen/auto; default: "
        "$REPRO_BACKEND, then tables)",
    )
    serve.add_argument(
        "--format",
        choices=("auto", "xml", "json"),
        default="auto",
        help="document format; auto follows the loaded bundle",
    )
    serve.set_defaults(func=_cmd_serve)

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
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="bound on the wait a request pays to coalesce",
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
        "--backend",
        help="server-wide execution backend default "
        "(tables/codegen/auto); per-model 'backend' artifact keys override it",
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
