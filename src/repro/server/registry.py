"""The model registry: named, versioned transformations loaded from disk.

A registry watches one directory of JSON artifacts.  Every model is a
:class:`~repro.codec.Transformation`: a machine plus the
:class:`~repro.codec.Codec` that parses request documents, encodes and
decodes them, and renders results.  Files load through the shared
loader :func:`repro.codec.transformation_from_bundle`:

* ``repro/dtop@1`` documents (written by :func:`repro.api.save`) — raw
  transducers under the term codec: request documents use the paper's
  term syntax (``"f(a, g(b))"``) and results render the same way;
* ``repro/xml-transformation@1`` and ``repro/json-transformation@1``
  bundles (written by :meth:`Transformation.save
  <repro.codec.Transformation.save>`) — the XML and JSON codecs; XML
  results render as XML, JSON results as canonical single-line JSON;
* ``repro/pipeline@1`` pipelines — ``{"format": …, "stages": [ref, …]}``
  where each ref names a sibling ``repro/dtop@1`` model (``NAME`` or
  ``NAME@VERSION``); the stages are fused through
  :func:`~repro.transducers.compose.compose_chain` at load into one
  single-pass machine (optional ``"earliest": true`` normalizes it)
  served under the term codec.  A changed member file retires the
  pipeline entry on reload exactly like a change to the pipeline file
  itself.

An entry's ``kind`` is its codec's name: ``dtop``, ``xml`` or ``json``.

Every boot builds its engines from the model JSON alone: an entry
compiles on its first batch, or before the socket opens under
``repro server --warm``.  Nothing compiled is written to or read from
the models directory.

Naming: ``NAME@VERSION.json`` registers the model under ``NAME@VERSION``;
``NAME.json`` is shorthand for version ``1``.  :meth:`ModelRegistry.get`
resolves a bare ``NAME`` to its highest version (numeric versions order
numerically, others lexicographically).

Hot reload (:meth:`ModelRegistry.reload`) rescans the directory:

* **kept** — files whose size and mtime are unchanged keep their live
  entry, compiled engines, and worker pool;
* **reloaded / dropped** — changed or removed files *retire* the old
  entry: its worker pool is shut down, and the machine (with its
  compiled engine and memo) is freed once nothing holds the entry.
  Machines are immutable, so nothing is invalidated.  Retirement is
  deferred while requests (or open streams) still hold the entry —
  in-flight work finishes on the model version it started with; every
  *new* request resolves to the new entry;
* **failed** — a corrupt or half-written file is isolated: the model's
  live entry (if any) keeps serving its old version, every other file's
  change still commits, and the failure is reported per model in the
  reload summary (and, through the server, in metrics and the
  structured log).

Entries are reference-counted (:meth:`ModelEntry.acquire` /
:meth:`ModelEntry.release`) by the batcher and the stream handlers; the
registry itself is not thread-safe and is driven from the server's
event loop (or a single test thread).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.codec import TERM_CODEC, Transformation, transformation_from_bundle
from repro.engine import engine_for
from repro.errors import (
    ModelNotFoundError,
    RegistryError,
    ReproError,
    ServiceError,
)
from repro.serialize import FORMAT_PIPELINE as PIPELINE_FORMAT
from repro.serialize import from_data as serialize_from_data
from repro.trees.tree import Tree
from repro.transducers.compose import compose_chain
from repro.transducers.dtop import DTOP


def _version_key(version: str) -> Tuple:
    """Order versions numerically when possible, lexicographically else."""
    try:
        return (0, int(version), "")
    except ValueError:
        return (1, 0, version)


def _parse_model_filename(path: Path) -> Tuple[str, str]:
    """``NAME@VERSION.json`` → ``(NAME, VERSION)``; bare names get ``1``."""
    stem = path.stem
    if "@" in stem:
        name, _, version = stem.partition("@")
    else:
        name, version = stem, "1"
    if not name or not version:
        raise RegistryError(
            f"model filename {path.name!r} must look like NAME.json or "
            f"NAME@VERSION.json"
        )
    return name, version


class ModelEntry:
    """One live model: transformation, codec, and its (lazy) worker service.

    ``codec`` parses request documents and renders outcomes, and
    :meth:`run_batch` translates a batch — the batcher and the protocol
    handlers stay format-agnostic.  ``acquire``/``release`` bracket
    every use; a retired entry shuts its pool down as soon as the last
    holder releases it.
    """

    def __init__(
        self,
        name: str,
        version: str,
        path: Path,
        transformation: Transformation,
        jobs: Optional[int] = None,
        fingerprint: Optional[Tuple[int, int]] = None,
        member_fingerprints: Optional[
            List[Tuple[Path, Tuple[int, int]]]
        ] = None,
        members: Optional[List[str]] = None,
    ):
        self.name = name
        self.version = version
        self.path = path
        self.transformation = transformation
        self.codec = transformation.codec
        self.machine = transformation.transducer
        self.jobs = max(1, jobs or 1)
        self.fingerprint = fingerprint
        #: For pipelines: the member files (and their stat fingerprints)
        #: the fused machine was built from — reload freshness includes
        #: them.
        self.member_fingerprints = member_fingerprints or []
        #: For pipelines: the member refs, for ``describe()``.
        self.members = members
        self.requests = 0
        self._service = None
        self._refs = 0
        self._retired = False
        self._closed = False
        self._quarantined = False

    @property
    def key(self) -> str:
        return f"{self.name}@{self.version}"

    @property
    def kind(self) -> str:
        """The codec name: ``dtop``, ``xml`` or ``json``."""
        return self.codec.name

    def ensure_engine(self):
        """The entry's in-process engine, compiled on first use."""
        return engine_for(self.machine)

    def warm(self) -> None:
        """Build this entry's engine before it serves traffic.

        Compiles the in-process engine and prestarts + warms the
        sharded worker pool for ``jobs > 1`` entries.
        """
        self.ensure_engine()
        service = self.service()
        if service is not None:
            service.warm()

    def members_fresh(self) -> bool:
        """Whether every member file still matches its load-time stat.

        Entries without members (plain models) are vacuously fresh; a
        pipeline whose member changed on disk must reload even though
        the pipeline file's own stat is unchanged.
        """
        for member_path, stat_fingerprint in self.member_fingerprints:
            try:
                stat = member_path.stat()
            except OSError:
                return False
            if (stat.st_mtime_ns, stat.st_size) != stat_fingerprint:
                return False
        return True

    # -- lifecycle ------------------------------------------------------

    def acquire(self) -> "ModelEntry":
        """Pin the entry: retirement defers until the last release."""
        self._refs += 1
        return self

    def release(self) -> None:
        self._refs -= 1
        if self._retired and self._refs <= 0:
            self.close()

    def retire(self) -> None:
        """Mark the entry stale; close now unless requests still hold it."""
        self._retired = True
        if self._refs <= 0:
            self.close()

    @property
    def retired(self) -> bool:
        return self._retired

    def close(self) -> None:
        """Shut the worker pool down.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._service is not None:
            self._service.close()
            self._service = None

    # -- serving --------------------------------------------------------

    # -- supervision ----------------------------------------------------

    @property
    def quarantined(self) -> bool:
        return self._quarantined

    def set_quarantined(self, quarantined: bool) -> None:
        """Quarantine (or restore) the entry's sharded worker pool.

        A quarantined entry keeps serving — :meth:`run_batch` degrades
        to the in-process engine, trading the shard's capacity for not
        feeding a flapping pool — and its service is torn down so no
        worker processes linger.  Restoring simply clears the flag; the
        next dispatch (or a supervised :meth:`restart_service`) builds
        a fresh pool.
        """
        if quarantined == self._quarantined:
            return
        self._quarantined = quarantined
        if quarantined and self._service is not None:
            self._service.close()
            self._service = None

    @property
    def sharded(self) -> bool:
        """Whether batches run on a worker pool (``jobs > 1`` and not
        quarantined); otherwise they run on the in-process engine."""
        return self.jobs > 1 and not self._quarantined

    def peek_service(self):
        """The live service if one exists — never creates one."""
        return self._service

    def restart_service(self) -> bool:
        """Supervised pool restart: replace a broken pool, prestarted.

        Returns ``True`` when a sharded pool is live (and warm) after
        the call; ``False`` for in-process, closed, or quarantined
        entries (nothing to restart).
        """
        if self._closed or self._quarantined or self.jobs <= 1:
            return False
        service = self.service()
        return service is not None and service.restart()

    def service(self):
        """The entry's sharded :class:`TransformService` (``jobs > 1``).

        Quarantined entries answer ``None`` — callers fall back to the
        in-process engine exactly as for an unsharded entry.
        """
        if not self.sharded:
            return None
        if self._closed:
            # Never resurrect a pool on a torn-down entry: close() has
            # already run, so nothing would ever shut the new pool down.
            raise ServiceError(f"model {self.key} has been unloaded")
        if self._service is None:
            from repro.serve import TransformService

            self._service = TransformService(self.machine, jobs=self.jobs)
        return self._service

    def render_packed(self, outcome: Tree) -> Dict[str, object]:
        """Render a transducer outcome as flat DAG records.

        The postorder ``(label, child-index…)`` table of
        :func:`repro.serve.shard.encode_forest`: one record per
        *distinct* subtree, so heavily shared outputs (an audit machine
        checking one document under many states, say) cost their DAG
        size on the wire, not their tree size — and the encoding is
        iterative, so arbitrarily deep outputs are servable where the
        recursive term renderer would overflow.
        """
        from repro.serve.shard import encode_forest

        records, roots = encode_forest([outcome])
        return {"records": records, "root": roots[0]}

    def run_batch(self, documents: List, trace=None) -> List:
        """Translate a coalesced batch; per-document outcomes.

        Outcomes are output documents or exception instances — one bad
        document never fails the batch
        (:meth:`~repro.codec.Transformation.apply_batch` reports per
        document).  An optional :class:`~repro.obs.trace.TraceContext`
        collects the batch's pipeline encode/execute/decode spans.
        """
        self.requests += len(documents)
        self.ensure_engine()
        return self.transformation.apply_batch(
            documents, service=self.service(), trace=trace
        )

    def peek_engine(self):
        """The already-built in-process engine, or ``None``.

        Never compiles one (a registered-but-never-exercised model
        answers ``None``).  For sharded entries (``jobs > 1``) this is
        only the parent-side engine; worker-process engines profile and
        memoize in their own processes.
        """
        return self.machine._engine

    def profile(self) -> Optional[Dict[str, object]]:
        """The in-process engine's profiler snapshot, or ``None``."""
        engine = self.peek_engine()
        return None if engine is None else engine.profile_snapshot()

    def describe(self) -> Dict[str, object]:
        info = {
            "model": self.key,
            "kind": self.kind,
            "path": str(self.path),
            "jobs": self.jobs,
            "states": len(self.machine.states),
            "rules": len(self.machine.rules),
            "requests": self.requests,
        }
        if self.members is not None:
            info["members"] = list(self.members)
        if self._quarantined:
            info["quarantined"] = True
        if self._service is not None:
            info["service"] = self._service.stats
        return info


def _resolve_member_path(directory: Path, ref: str) -> Path:
    """Resolve a pipeline member ref to its model file.

    ``NAME@VERSION`` is exact; a bare ``NAME`` picks the highest
    version, mirroring :meth:`ModelRegistry.get`.
    """
    if "@" in ref:
        candidate = directory / f"{ref}.json"
        if not candidate.is_file():
            raise RegistryError(
                f"pipeline member {ref!r} not found "
                f"({candidate.name} missing)"
            )
        return candidate
    candidates: List[Tuple[Path, str]] = []
    for path in directory.glob("*.json"):
        try:
            name, version = _parse_model_filename(path)
        except RegistryError:
            continue
        if name == ref:
            candidates.append((path, version))
    if not candidates:
        raise RegistryError(
            f"pipeline member {ref!r} not found in {directory}"
        )
    return max(candidates, key=lambda pv: _version_key(pv[1]))[0]


def _read_pipeline_members(
    path: Path, data: dict
) -> Tuple[
    List[DTOP],
    List[Tuple[Path, Tuple[int, int]]],
    List[str],
    List[str],
]:
    """Read (not fuse) a ``repro/pipeline@1`` artifact's member stages.

    Returns ``(member machines, member stat fingerprints, member refs,
    member labels)`` — the stat fingerprints feed reload freshness, the
    labels name stages in fusion errors.
    """
    stages = data.get("stages")
    if (
        not isinstance(stages, list)
        or not stages
        or not all(isinstance(ref, str) for ref in stages)
    ):
        raise RegistryError(
            f"a {PIPELINE_FORMAT} artifact needs a non-empty "
            f"'stages' list of model refs (NAME or NAME@VERSION)"
        )
    machines: List[DTOP] = []
    member_fingerprints: List[Tuple[Path, Tuple[int, int]]] = []
    labels: List[str] = []
    for ref in stages:
        member_path = _resolve_member_path(path.parent, ref)
        if member_path == path:
            raise RegistryError(
                f"pipeline member {ref!r} refers to the pipeline itself"
            )
        try:
            member_stat = member_path.stat()
            member_data = json.loads(member_path.read_bytes().decode("utf-8"))
        except (OSError, ValueError) as error:
            raise RegistryError(
                f"cannot read pipeline member {member_path.name}: {error}"
            ) from None
        member_format = (
            member_data.get("format")
            if isinstance(member_data, dict)
            else None
        )
        if member_format == PIPELINE_FORMAT:
            raise RegistryError(
                f"pipeline member {member_path.name} is itself a "
                f"pipeline; nesting is not supported"
            )
        try:
            machine = serialize_from_data(member_data)
        except ReproError as error:
            raise RegistryError(
                f"cannot load pipeline member {member_path.name}: {error}"
            ) from None
        if not isinstance(machine, DTOP):
            raise RegistryError(
                f"pipeline member {member_path.name} holds a "
                f"{type(machine).__name__}, not a transducer"
            )
        machines.append(machine)
        member_fingerprints.append(
            (member_path, (member_stat.st_mtime_ns, member_stat.st_size))
        )
        labels.append(member_path.name)
    return machines, member_fingerprints, list(stages), labels


def _load_entry(path: Path, jobs: Optional[int]) -> ModelEntry:
    name, version = _parse_model_filename(path)
    stat = path.stat()
    fingerprint = (stat.st_mtime_ns, stat.st_size)
    # One read, one JSON parse; the loaders below work on the parsed
    # data (a large bundle must not be read and parsed twice per reload,
    # and a single read narrows the window for catching a mid-write
    # file whose fingerprint no longer matches its content).
    try:
        data = json.loads(path.read_bytes().decode("utf-8"))
    except (OSError, ValueError) as error:
        raise RegistryError(f"cannot read model {path.name}: {error}") from None
    member_fingerprints: List[Tuple[Path, Tuple[int, int]]] = []
    members: Optional[List[str]] = None
    try:
        if isinstance(data, dict) and data.get("format") == PIPELINE_FORMAT:
            machines, member_fingerprints, members, labels = (
                _read_pipeline_members(path, data)
            )
            machine = compose_chain(
                machines,
                earliest=bool(data.get("earliest", False)),
                labels=labels,
            )
            transformation = Transformation(machine, TERM_CODEC)
        else:
            transformation = transformation_from_bundle(data)
    except ReproError as error:
        raise RegistryError(f"cannot load model {path.name}: {error}") from None
    return ModelEntry(
        name,
        version,
        path,
        transformation,
        jobs=jobs,
        fingerprint=fingerprint,
        member_fingerprints=member_fingerprints,
        members=members,
    )


class ModelRegistry:
    """Load, resolve, and hot-reload the models of one directory."""

    def __init__(
        self,
        models_dir: Union[str, Path],
        jobs: Optional[int] = None,
    ):
        self.models_dir = Path(models_dir)
        self.jobs = jobs
        self._entries: Dict[str, ModelEntry] = {}
        self._stats = {
            "loads": 0,
            "reloads": 0,
            "drops": 0,
            "failed_loads": 0,
            "lookups": 0,
            "misses": 0,
        }
        self._closed = False
        if not self.models_dir.is_dir():
            raise RegistryError(
                f"model directory {self.models_dir} does not exist"
            )
        # Boot is strict: a registry must not come up half-loaded (a
        # *reload* of a running registry isolates per-file failures
        # instead — see reload()).
        summary = self.reload()
        if summary["failed"]:
            self.close()
            raise RegistryError(
                "cannot load model directory "
                f"{self.models_dir}: {'; '.join(summary['failed'])}"
            )

    # -- loading --------------------------------------------------------

    def reload(self) -> Dict[str, List[str]]:
        """Rescan the directory; returns what happened per model key.

        Unchanged files keep their live entries (and pools).  Changed
        and removed files retire the old entry — deferred teardown, see
        the module docstring — and changed files load a fresh one.

        Failures are isolated **per file**: a half-written or corrupt
        artifact never retires the entry that is still serving (the old
        version keeps answering requests, and a later reload retries
        the file), never blocks other files' changes from committing,
        and is reported under ``summary["failed"]`` as
        ``"key: reason"`` lines — the server records these in metrics
        (``repro_reload_total{outcome="failed"}``) and the structured
        log.  Only registry-level corruption (an unreadable directory,
        two files claiming one ``name@version``) aborts the whole
        reload with the live table untouched.
        """
        if self._closed:
            raise RegistryError("registry is closed")
        summary: Dict[str, List[str]] = {
            "loaded": [],
            "reloaded": [],
            "kept": [],
            "dropped": [],
            "failed": [],
        }
        # Two-phase: load everything first, then commit + retire — a
        # failure mid-scan must not leave a half-committed table.
        seen: Dict[str, ModelEntry] = {}
        to_retire: List[ModelEntry] = []
        for path in sorted(self.models_dir.glob("*.json"), key=lambda p: p.name):
            name, version = _parse_model_filename(path)
            key = f"{name}@{version}"
            if key in seen:
                raise RegistryError(
                    f"duplicate model {key}: {seen[key].path.name} and "
                    f"{path.name}"
                )
            old = self._entries.get(key)
            stat = path.stat()
            if (
                old is not None
                and old.fingerprint == (stat.st_mtime_ns, stat.st_size)
                and old.members_fresh()
            ):
                seen[key] = old
                summary["kept"].append(key)
                continue
            try:
                seen[key] = _load_entry(path, self.jobs)
            except RegistryError as error:
                summary["failed"].append(f"{key}: {error}")
                if old is not None:
                    # Keep serving the version that was live; the stale
                    # fingerprint makes the next reload retry the file.
                    seen[key] = old
                continue
            if old is None:
                summary["loaded"].append(key)
            else:
                to_retire.append(old)
                summary["reloaded"].append(key)
        for key, entry in self._entries.items():
            if key not in seen:
                to_retire.append(entry)
                summary["dropped"].append(key)
        self._entries = seen
        self._stats["loads"] += len(summary["loaded"])
        self._stats["reloads"] += len(summary["reloaded"])
        self._stats["drops"] += len(summary["dropped"])
        self._stats["failed_loads"] += len(summary["failed"])
        for old in to_retire:
            old.retire()
        return summary

    def warm(self) -> int:
        """Build every entry's engine before serving traffic.

        Drives :meth:`ModelEntry.warm` over the whole table (engines
        compiled, sharded pools prestarted); returns how many entries
        it warmed.
        """
        if self._closed:
            raise RegistryError("registry is closed")
        keys = self.keys()
        for key in keys:
            self._entries[key].warm()
        return len(keys)

    # -- resolution -----------------------------------------------------

    def get(self, key: str) -> ModelEntry:
        """Resolve ``name@version`` (exact) or ``name`` (highest version)."""
        if self._closed:
            raise RegistryError("registry is closed")
        self._stats["lookups"] += 1
        if "@" in key:
            entry = self._entries.get(key)
            if entry is None:
                self._stats["misses"] += 1
                raise ModelNotFoundError(
                    f"no model {key!r} in {self.models_dir} "
                    f"(available: {', '.join(sorted(self._entries)) or 'none'})"
                )
            return entry
        candidates = [
            entry for entry in self._entries.values() if entry.name == key
        ]
        if not candidates:
            self._stats["misses"] += 1
            raise ModelNotFoundError(
                f"no model named {key!r} in {self.models_dir} "
                f"(available: {', '.join(sorted(self._entries)) or 'none'})"
            )
        return max(candidates, key=lambda e: _version_key(e.version))

    def keys(self) -> List[str]:
        return sorted(self._entries)

    def entries(self) -> Iterable[ModelEntry]:
        return list(self._entries.values())

    def describe(self) -> List[Dict[str, object]]:
        return [self._entries[key].describe() for key in self.keys()]

    @property
    def stats(self) -> Dict[str, int]:
        return {**self._stats, "models": len(self._entries)}

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Retire every entry and shut their pools down.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for entry in self._entries.values():
            entry.retire()
        self._entries = {}

    def __enter__(self) -> "ModelRegistry":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
