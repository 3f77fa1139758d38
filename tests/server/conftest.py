"""Shared fixtures for the network-server suite: model directories."""

import shutil

import pytest

from repro import api
from repro.trees.tree import Tree
from repro.transducers.dtop import DTOP
from repro.transducers.rhs import call
from repro.workloads.flip import FLIP_ALPHABET, flip_transducer
from repro.workloads.xmlflip import (
    xmlflip_examples,
    xmlflip_input_dtd,
    xmlflip_output_dtd,
)
from repro.xml.pipeline import learn_xml_transformation


#: Stock artifacts with one wrong-typed field, and the artifact format a
#: load failure must name: ``(model, field, value, format)``.
MALFORMED_ARTIFACTS = [
    ("xmlflip@1", "flags", [], "repro/xml-transformation@1"),
    ("xmlflip@1", "input_dtd", 5, "repro/xml-transformation@1"),
    ("xmlflip@1", "transducer", 5, "repro/xml-transformation@1"),
    ("rename-json@1", "transducer", 5, "repro/json-transformation@1"),
    ("rename-json@1", "domain", "x", "repro/json-transformation@1"),
    ("flip@1", "rules", 5, "repro/dtop@1"),
    ("flip@1", "rules", {"q1": "root"}, "repro/dtop@1"),
    ("flip@1", "input_alphabet", 5, "repro/dtop@1"),
]


def identity_dtop(alphabet) -> DTOP:
    """The one-state identity transducer over a ranked alphabet."""
    rules = {
        ("q", symbol): Tree(
            symbol, tuple(call("q", i + 1) for i in range(rank))
        )
        for symbol, rank in alphabet.items()
    }
    return DTOP(alphabet, alphabet, call("q", 0), rules)


@pytest.fixture(scope="session")
def xmlflip_transformation():
    return learn_xml_transformation(
        xmlflip_input_dtd(),
        xmlflip_output_dtd(),
        xmlflip_examples(),
        compact_lists=True,
    )


@pytest.fixture(scope="session")
def models_source(tmp_path_factory, xmlflip_transformation):
    """One directory holding both model kinds (session-wide master copy)."""
    directory = tmp_path_factory.mktemp("models")
    api.save(flip_transducer(), str(directory / "flip@1.json"))
    xmlflip_transformation.save(directory / "xmlflip@1.json")
    return directory


@pytest.fixture
def models_dir(models_source, tmp_path):
    """A private mutable copy, safe for hot-reload tests."""
    directory = tmp_path / "models"
    shutil.copytree(models_source, directory)
    return directory


@pytest.fixture
def flip_identity():
    """An identity machine over the flip alphabet (hot-swap payload)."""
    return identity_dtop(FLIP_ALPHABET)
