"""The shipped ``models/`` library: regeneration, loading, serving.

The committed artifacts are build outputs guarded by tests instead of
review: the builder must be deterministic and the checked-in bytes must
match what it produces today.  Every artifact must load in a registry,
warm an engine, and serve one document
byte-identically to the local pipeline; on every model the engine
answers each state on each probe subtree as the interpreter does.
"""

import pickle
import shutil
from pathlib import Path

import pytest

from repro.engine import engine_for
from repro.errors import UndefinedTransductionError
from repro.json.jsonio import parse_json, serialize_json
from repro.server import ServerClient, ServerThread
from repro.server.registry import ModelRegistry
from repro.workloads import jsonwl
from repro.workloads.stock import STOCK_MODELS, build_stock_models

MODELS_DIR = Path(__file__).resolve().parents[2] / "models"

#: One probe document per stock model, in the model's input syntax.
PROBES = {
    "flip@1": "root(a(#, #), b(#, #))",
    "swap@1": "root(a(#, #), b(#, #))",
    "cycle4@1": "a(a(a(e)))",
    "rotate3@1": "root(s0(#, #), s1(#, #), s2(#, #))",
    "swap-twice@1": "root(a(#, #), b(#, #))",
    "xmlflip@1": "<root><a/><a/><b/></root>",
    "library@1": (
        "<LIBRARY><BOOK><AUTHOR>a</AUTHOR><TITLE>t</TITLE>"
        "<YEAR>1999</YEAR></BOOK></LIBRARY>"
    ),
    "addressbook@1": (
        "<CONTACTS><PERSON><NAME>Ada</NAME><EMAIL>a@x</EMAIL>"
        "<PHONE>1815</PHONE></PERSON></CONTACTS>"
    ),
    "identity-json@1": '{"user": "ada", "tags": [1, null]}',
    "rename-json@1": '{"user": "ada", "pwd": "s", "data": {"user": "x"}}',
    "wrap-json@1": '[1, {"host": "h"}]',
    "defaults-json@1": '{"debug": null, "retries": 3}',
    "redact-json@1": '{"user": "secret", "port": 22}',
}


def test_committed_models_match_regeneration(tmp_path):
    """The checked-in models/ tree is exactly what the builder emits."""
    assert MODELS_DIR.is_dir(), "models/ is missing from the repository"
    written = build_stock_models(tmp_path)
    rebuilt = {path.name for path in written}
    committed = {
        path.name
        for path in MODELS_DIR.iterdir()
        if path.suffix in (".json", ".md")
    }
    assert rebuilt == committed
    for path in written:
        assert (MODELS_DIR / path.name).read_bytes() == path.read_bytes(), (
            f"models/{path.name} differs from the builder's output; "
            f"regenerate with: python -m repro.workloads.stock models"
        )


def test_stock_models_constant_matches_directory():
    names = {f"{key}.json" for key in STOCK_MODELS}
    present = {path.name for path in MODELS_DIR.glob("*@*.json")}
    assert names == present
    assert set(PROBES) == set(STOCK_MODELS)


def test_every_artifact_loads_in_a_registry():
    registry = ModelRegistry(MODELS_DIR)
    try:
        keys = set(registry.keys())
        assert set(STOCK_MODELS) <= keys
        kinds = {key: registry.get(key).kind for key in STOCK_MODELS}
        assert kinds["flip@1"] == "dtop"
        assert kinds["swap-twice@1"] == "dtop"  # pipelines fuse to raw
        assert kinds["xmlflip@1"] == "xml"
        assert kinds["addressbook@1"] == "xml"
        assert kinds["rename-json@1"] == "json"
    finally:
        registry.close()


def test_stock_library_serves_every_model(tmp_path):
    """Warm + serve one probe per model.

    JSON responses must be byte-identical to the local
    JSON ``Transformation`` on the same bundle — the acceptance bar for
    the served JSON path.
    """
    directory = tmp_path / "models"
    shutil.copytree(MODELS_DIR, directory)
    local = {
        "identity-json@1": jsonwl.identity_transformation(),
        "rename-json@1": jsonwl.config_rename_transformation(),
        "wrap-json@1": jsonwl.wrap_transformation(),
        "defaults-json@1": jsonwl.defaults_transformation(),
        "redact-json@1": jsonwl.redact_transformation(),
    }
    with ServerThread(directory, warm=True) as handle:
        with ServerClient(handle.host, handle.port) as client:
            for key in STOCK_MODELS:
                response = client.transform(key, PROBES[key])
                assert isinstance(response, str) and response
                if key in local:
                    document = parse_json(PROBES[key])
                    expected = serialize_json(local[key].apply(document))
                    assert response == expected, key


def _outcome(evaluate, node):
    try:
        return evaluate(node)
    except UndefinedTransductionError as error:
        return ("undefined", str(error))


@pytest.mark.parametrize("key", sorted(STOCK_MODELS))
def test_engine_matches_the_interpreter(key):
    """Every state of the model, on every subtree of its encoded probe."""
    registry = ModelRegistry(MODELS_DIR)
    try:
        entry = registry.get(key)
        document = entry.codec.parse(PROBES[key])
        encoded, _values = entry.codec.input_encoder.encode_with_values(
            document
        )
        machine = entry.machine
        reference = pickle.loads(pickle.dumps(machine))
        engine = engine_for(machine)
        assert engine.run(encoded) == reference.apply(encoded)
        subtrees = {node for _, node in encoded.subtrees()}
        for state in sorted(machine.states, key=repr):
            for node in sorted(subtrees, key=str):
                assert _outcome(
                    lambda tree: engine.eval_state(state, tree), node
                ) == _outcome(
                    lambda tree: reference.eval_state(state, tree), node
                ), (key, state, str(node))
    finally:
        registry.close()
