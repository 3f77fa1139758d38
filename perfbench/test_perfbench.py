"""The benchmark's own checks: seeded inputs, the result line, the manifest.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the root
of the repository.
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import catalog, inputs

ROOT = Path(__file__).resolve().parent.parent


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(completed):
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_one_seed_gives_identical_inputs():
    assert inputs.serve_pool(7) == inputs.serve_pool(7)
    assert list(itertools.islice(inputs.serve_requests(7, 300), 500)) == list(
        itertools.islice(inputs.serve_requests(7, 300), 500)
    )
    assert list(itertools.islice(inputs.stream_rounds(7), 2)) == list(
        itertools.islice(inputs.stream_rounds(7), 2)
    )
    assert list(itertools.islice(inputs.learn_targets(7), 100)) == list(
        itertools.islice(inputs.learn_targets(7), 100)
    )
    assert inputs.serve_pool(7) != inputs.serve_pool(8)
    assert next(inputs.stream_rounds(7)) != next(inputs.stream_rounds(8))


def test_stream_documents_are_distinct_and_bodies_fit_admission():
    documents = [
        text
        for bodies in itertools.islice(inputs.stream_rounds(3), 3)
        for _model, body in bodies
        for text in body
    ]
    assert len(documents) == len(set(documents))
    # The batcher admits at most max_pending (1024) documents at once.
    assert inputs.BODY_DOCS < 1024


def test_manifest_lists_the_catalog():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(catalog.WORKLOADS)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == catalog.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == {
        name: unit for name, (unit, _where) in catalog.PER_LAYER.items()
    }


@pytest.mark.parametrize(
    "workload,trace",
    [("learn-random", "0"), ("serve-mixed", "1"), ("stream-distinct", "0")],
)
def test_short_run_prints_every_metric_with_its_unit(workload, trace):
    result = _result(
        _run("--workload", workload, "--seed", "1", "--seconds", "0.5", "--trace", trace)
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = (
        catalog.END_TO_END
        if trace == "0"
        else {name: unit for name, (unit, _where) in catalog.PER_LAYER.items()}
    )
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_a_checkout(tmp_path):
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", ".work-*"),
    )
    completed = _run(
        "--workload", "learn-random", "--seed", "1", "--seconds", "1", cwd=tmp_path
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
