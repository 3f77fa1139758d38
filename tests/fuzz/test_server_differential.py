"""Differential fuzzing of the network server against ``api.run``.

Extends the PR 4 harness: the same random machines and forests are
registered as served models, and a live server (concurrent clients,
micro-batching enabled, hot reloads interleaved) must produce
**byte-identical** outcomes — output terms and error type + message —
to the local engine path, per document.

``REPRO_FUZZ_SEEDS`` widens the seed budget exactly as for the local
harness; one server instance hosts every seed's model, so the sweep
cost stays dominated by the requests, not by server boots.
"""

import json
import random
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import api
from repro.errors import ReproError, UndefinedTransductionError
from repro.json.jsonio import parse_json, serialize_json
from repro.server import ServerClient, ServerThread
from repro.workloads.jsonwl import CONFIG_KEYS, JSON_WORKLOADS

from tests.fuzz.test_differential import (
    FUZZ_SEEDS,
    interpreter_outcomes,
    outcome_bytes,
    random_forest,
    random_machine,
)
from tests.fuzz.test_fusion_differential import (
    chain_forest,
    random_chain,
    staged_outcome,
)
from tests.origins_oracle import oracle_outcome

#: Concurrent blocking clients replaying the corpus.
CLIENTS = 8


def remote_outcome_bytes(outcome):
    """Canonical byte form of a client outcome (str or exception)."""
    if isinstance(outcome, Exception):
        return (type(outcome).__name__, str(outcome))
    return ("tree", outcome)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Every seed's machine saved as a served model, plus its forest."""
    directory = tmp_path_factory.mktemp("fuzz-models")
    machines = {}
    for seed in FUZZ_SEEDS:
        machine, _domain = random_machine(seed)
        api.save(machine, str(directory / f"m{seed}@1.json"))
        machines[seed] = machine
    return directory, machines


def test_server_replay_byte_identical_under_concurrency(corpus):
    directory, machines = corpus
    references = {}
    forests = {}
    for seed, machine in machines.items():
        forest = random_forest(machine, seed, count=12)
        forests[seed] = forest
        references[seed] = [
            outcome_bytes(o) for o in interpreter_outcomes(machine, forest)
        ]

    with ServerThread(directory, max_batch=16) as handle:
        jobs = [
            (seed, index, str(document))
            for seed, forest in forests.items()
            for index, document in enumerate(forest)
        ]
        results = {}

        def worker(worker_index):
            with ServerClient(handle.host, handle.port) as client:
                for position in range(worker_index, len(jobs), CLIENTS):
                    seed, index, document = jobs[position]
                    results[(seed, index)] = client.try_transform(
                        f"m{seed}", document
                    )

        with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
            list(pool.map(worker, range(CLIENTS)))

        stats = ServerClient(handle.host, handle.port).stats()

    for seed, reference in references.items():
        got = [
            remote_outcome_bytes(results[(seed, index)])
            for index in range(len(reference))
        ]
        assert got == reference, f"seed {seed} diverged"
    assert stats["batcher"]["documents"] == len(jobs)
    # Eight concurrent clients: requests arriving while a dispatch runs
    # must actually have coalesced, or this test is not testing batching.
    assert stats["batcher"]["batches"] < len(jobs)


def test_server_replay_survives_hot_reloads(corpus, tmp_path):
    """Interleaved hot reloads (same semantics, new mtimes) never change
    a single byte of the replayed corpus."""
    directory, machines = corpus
    seeds = sorted(machines)[:4] or sorted(machines)
    with ServerThread(directory) as handle:
        with ServerClient(handle.host, handle.port) as client:
            for round_index in range(3):
                for seed in seeds:
                    machine = machines[seed]
                    forest = random_forest(machine, seed, count=6)
                    reference = [
                        outcome_bytes(o)
                        for o in interpreter_outcomes(machine, forest)
                    ]
                    got = [
                        remote_outcome_bytes(
                            client.try_transform(f"m{seed}@1", str(document))
                        )
                        for document in forest
                    ]
                    assert got == reference, f"seed {seed} diverged"
                # Rewrite one model byte-identically but with a fresh
                # mtime: the registry must swap entries, not semantics.
                victim = seeds[round_index % len(seeds)]
                path = directory / f"m{victim}@1.json"
                text = path.read_text()
                time.sleep(0.01)
                path.write_text(text)
                summary = client.reload()
                assert f"m{victim}@1" in summary["reloaded"]


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_served_pipeline_matches_staged_local_runs(seed, tmp_path):
    """A served ``repro/pipeline@1`` model is byte-identical to running
    its member stages locally, one after the other, wherever the staged
    chain is defined."""
    stages = random_chain(seed, length=3, partial=True)
    refs = []
    for index, stage in enumerate(stages):
        name = f"stage{index}"
        api.save(stage, str(tmp_path / f"{name}@1.json"))
        refs.append(f"{name}@1")
    (tmp_path / f"chain{seed}@1.json").write_text(
        json.dumps({"format": "repro/pipeline@1", "stages": refs})
    )
    forest = chain_forest(seed, count=12)
    with ServerThread(tmp_path) as handle:
        with ServerClient(handle.host, handle.port) as client:
            models = {m["model"]: m for m in client.stats()["models"]}
            assert models[f"chain{seed}@1"]["members"] == refs
            for document in forest:
                staged = staged_outcome(stages, document)
                remote = client.try_transform(f"chain{seed}", str(document))
                if isinstance(staged, UndefinedTransductionError):
                    # Fused domains may be strictly larger on deleting
                    # chains; equality of outputs is only promised where
                    # the staged chain is defined.
                    continue
                assert remote_outcome_bytes(remote) == ("tree", str(staged))


def random_json_document(rng, depth=0):
    """A config-shaped JSON value; occasionally out of the machines'
    domain (an unmodeled key) so the error path is replayed too."""
    if depth < 2 and rng.random() < 0.55:
        if rng.random() < 0.7:
            keys = list(CONFIG_KEYS) + ["mystery"]
            chosen = rng.sample(keys, rng.randint(0, min(4, len(keys))))
            return {
                key: random_json_document(rng, depth + 1)
                for key in sorted(chosen)
            }
        return [
            random_json_document(rng, depth + 1)
            for _ in range(rng.randint(0, 3))
        ]
    return rng.choice(
        [True, False, None, rng.randint(-999, 999)]
        + ["h", "i", "al", "am", "even?", "odd!"]
    )


@pytest.mark.parametrize("jobs", [None, 2])
def test_served_json_models_match_local_pipelines(tmp_path, jobs):
    """Random config documents, most carrying values, through every JSON
    workload: the served outcome and the local ``Transformation``
    outcome (output bytes or error type + message) must both equal the
    origin oracle's, per document, and a translated document must equal
    the workload's plain-Python reference.  With ``jobs=2`` the server
    shards value-bearing documents over worker processes too."""
    local = {}
    for name, factory, reference in JSON_WORKLOADS:
        transformation = factory()
        transformation.save(tmp_path / f"{name}@1.json")
        local[name] = (transformation, reference)

    rng = random.Random(0x1E9A)
    corpus = [serialize_json(random_json_document(rng)) for _ in range(40)]

    with ServerThread(tmp_path, max_batch=8, jobs=jobs) as handle:
        with ServerClient(handle.host, handle.port) as client:
            errors = 0
            for name, (transformation, reference) in local.items():
                for text in corpus:
                    oracle = oracle_outcome(transformation, parse_json(text))
                    if isinstance(oracle, ReproError):
                        expected = (type(oracle).__name__, str(oracle))
                        errors += 1
                    else:
                        expected = ("tree", serialize_json(oracle))
                        assert oracle == reference(parse_json(text))
                    try:
                        got = transformation.apply(parse_json(text))
                        assert ("tree", serialize_json(got)) == expected
                    except ReproError as error:
                        assert (type(error).__name__, str(error)) == expected
                    remote = client.try_transform(name, text)
                    assert remote_outcome_bytes(remote) == expected, (
                        name,
                        text,
                    )
    # The corpus must actually exercise the error path, or the
    # error-agreement half of this test is vacuous.
    assert errors > 0


def test_server_and_local_error_objects_interchange(corpus):
    """client.transform raises exactly what api.run raises."""
    directory, machines = corpus
    seed = sorted(machines)[1] if len(machines) > 1 else sorted(machines)[0]
    machine = machines[seed]
    forest = random_forest(machine, seed, count=10)
    with ServerThread(directory) as handle:
        with ServerClient(handle.host, handle.port) as client:
            for document in forest:
                try:
                    local = ("tree", str(api.run(machine, document)))
                except UndefinedTransductionError as error:
                    local = (type(error), str(error))
                try:
                    remote = ("tree", client.transform(f"m{seed}", str(document)))
                except ReproError as error:
                    remote = (type(error), str(error))
                assert remote == local
