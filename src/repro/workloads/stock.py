"""The stock model library: a deterministic builder for ``models/``.

``build_stock_models(directory)`` writes the ~dozen ready-to-serve
artifacts that ship in the repository's top-level ``models/`` directory,
so ``repro server --models models`` works out of the box.  The build is
deterministic — same repo, same bytes — and the committed tree is
guarded by a regeneration test.

The library spans every artifact format the registry serves:

====================  ==============================  ====================
model                 format                          workload
====================  ==============================  ====================
``flip@1``            ``repro/dtop@1``                §1 flip (a/b lists)
``swap@1``            ``repro/dtop@1``                flip + relabel a↔b
``cycle4@1``          ``repro/dtop@1``                4-cycle relabel
``rotate3@1``         ``repro/dtop@1``                rotate list by 3
``swap-twice@1``      ``repro/pipeline@1``            swap ∘ swap (= id)
``xmlflip@1``         ``repro/xml-transformation@1``  §10 xmlflip
``library@1``         ``repro/xml-transformation@1``  §10 library (fused)
``addressbook@1``     ``repro/xml-transformation@1``  learned address book
``identity-json@1``   ``repro/json-transformation@1`` validate/canonicalize
``rename-json@1``     ``repro/json-transformation@1`` user→username, …
``wrap-json@1``       ``repro/json-transformation@1`` wrap as {"data": …}
``defaults-json@1``   ``repro/json-transformation@1`` null → false
``redact-json@1``     ``repro/json-transformation@1`` erase string values
====================  ==============================  ====================
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro import serialize as _serialize
from repro.codec import Transformation
from repro.serialize import FORMAT_PIPELINE
from repro.xml.pipeline import learn_xml_transformation, xml_codec
from repro.xml.encode import DTDEncoder
from repro.xml.schema import schema_dtta
from repro.xml.unranked import UTree, element, text

from repro.workloads import families
from repro.workloads.flip import flip_transducer, swap_transducer
from repro.workloads.library import (
    library_input_dtd,
    library_output_dtd,
    library_transducer,
)
from repro.workloads.xmlflip import (
    xmlflip_input_dtd,
    xmlflip_output_dtd,
    xmlflip_transducer,
)
from repro.workloads import jsonwl

#: Model keys in the order they appear in the README table.
STOCK_MODELS = (
    "flip@1",
    "swap@1",
    "cycle4@1",
    "rotate3@1",
    "swap-twice@1",
    "xmlflip@1",
    "library@1",
    "addressbook@1",
    "identity-json@1",
    "rename-json@1",
    "wrap-json@1",
    "defaults-json@1",
    "redact-json@1",
)

_README_ROWS = (
    ("flip@1", "raw DTOP", "flip the a-list and b-list of the §1 workload"),
    ("swap@1", "raw DTOP", "flip the lists and relabel a↔b (an involution)"),
    ("cycle4@1", "raw DTOP", "relabel each symbol one step around a 4-cycle"),
    ("rotate3@1", "raw DTOP", "rotate every monadic list segment by 3"),
    ("swap-twice@1", "pipeline", "swap composed with itself (the identity)"),
    ("xmlflip@1", "XML bundle", "swap the a* and b* blocks of an XML root"),
    (
        "library@1",
        "XML bundle",
        "books to summary-plus-entries (fused encoding, §10)",
    ),
    (
        "addressbook@1",
        "XML bundle",
        "contacts to phone directory, learned with RPNI from 8 examples",
    ),
    ("identity-json@1", "JSON bundle", "validate and canonicalize a document"),
    (
        "rename-json@1",
        "JSON bundle",
        "rename user→username and pwd→password at every level",
    ),
    ("wrap-json@1", "JSON bundle", 'rewrap any document as {"data": ...}'),
    ("defaults-json@1", "JSON bundle", "replace every null with false"),
    ("redact-json@1", "JSON bundle", "erase every string value (provenance-free)"),
)


def _addressbook_transformation() -> Transformation:
    """Learn the address-book republication (examples/addressbook.py).

    Teaching examples vary one text field at a time across both abstract
    value classes (byte-sum parity) and overlap list suffixes, so the
    learner cannot absorb any scalar as ground output.
    """
    input_dtd = """
    <!ELEMENT CONTACTS (PERSON*) >
    <!ELEMENT PERSON (NAME, EMAIL, PHONE) >
    <!ELEMENT NAME #PCDATA >
    <!ELEMENT EMAIL #PCDATA >
    <!ELEMENT PHONE #PCDATA >
    """
    output_dtd = """
    <!ELEMENT DIRECTORY (HEADER, ENTRY*) >
    <!ELEMENT HEADER (NAME*) >
    <!ELEMENT ENTRY (PHONE, NAME) >
    <!ELEMENT NAME #PCDATA >
    <!ELEMENT PHONE #PCDATA >
    """
    from repro.xml import parse_dtd

    def person(name: str, email: str, phone: str) -> UTree:
        return element(
            "PERSON",
            element("NAME", text(name)),
            element("EMAIL", text(email)),
            element("PHONE", text(phone)),
        )

    def target(document: UTree) -> UTree:
        people = document.children
        names = [UTree("NAME", p.children[0].children) for p in people]
        entries = [
            UTree(
                "ENTRY",
                (
                    UTree("PHONE", p.children[2].children),
                    UTree("NAME", p.children[0].children),
                ),
            )
            for p in people
        ]
        return UTree(
            "DIRECTORY", (UTree("HEADER", tuple(names)),) + tuple(entries)
        )

    P = person("al", "xx", "1000")  # all fields in class v0
    Q = person("al", "xy", "1000")  # flips EMAIL to v1
    R = person("am", "xx", "1000")  # flips NAME to v1
    S = person("al", "xx", "1001")  # flips PHONE to v1
    documents = [
        element("CONTACTS"),
        element("CONTACTS", P),
        element("CONTACTS", R),
        element("CONTACTS", S),
        element("CONTACTS", Q),
        element("CONTACTS", R, P),
        element("CONTACTS", S, P),
        element("CONTACTS", S, R, P),
    ]
    return learn_xml_transformation(
        parse_dtd(input_dtd),
        parse_dtd(output_dtd),
        [(doc, target(doc)) for doc in documents],
        fuse_input=True,
        fuse_output=True,
        compact_lists=True,
        abstract_values=True,
    )


def _xmlflip_transformation() -> Transformation:
    input_encoder = DTDEncoder(xmlflip_input_dtd())
    return Transformation(
        xmlflip_transducer(),
        xml_codec(input_encoder, DTDEncoder(xmlflip_output_dtd())),
        schema_dtta(input_encoder),
    )


def _library_transformation() -> Transformation:
    input_encoder = DTDEncoder(library_input_dtd(), fuse=True)
    return Transformation(
        library_transducer(),
        xml_codec(input_encoder, DTDEncoder(library_output_dtd(), fuse=True)),
        schema_dtta(input_encoder),
    )


def build_stock_models(directory: Union[str, Path]) -> List[Path]:
    """Write every stock artifact (plus README.md) into ``directory``.

    Returns the written paths.  Deterministic: building twice produces
    byte-identical files, which is what lets the committed ``models/``
    tree be checked by regeneration instead of by eye.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []

    def emit(name: str, write) -> None:
        path = directory / f"{name}.json"
        write(path)
        written.append(path)

    # Raw transducers.
    emit("flip@1", lambda p: _serialize.dump(flip_transducer(), p))
    emit("swap@1", lambda p: _serialize.dump(swap_transducer(), p))
    emit(
        "cycle4@1",
        lambda p: _serialize.dump(families.cycle_relabel(4)[0], p),
    )
    emit(
        "rotate3@1",
        lambda p: _serialize.dump(families.rotate_lists(3)[0], p),
    )

    # A pipeline over library members.
    emit(
        "swap-twice@1",
        lambda p: p.write_text(
            json.dumps(
                {
                    "format": FORMAT_PIPELINE,
                    "stages": ["swap@1", "swap@1"],
                },
                indent=2,
            )
            + "\n"
        ),
    )

    # XML and JSON transformation bundles.
    bundle_builders = (
        ("xmlflip@1", _xmlflip_transformation),
        ("library@1", _library_transformation),
        ("addressbook@1", _addressbook_transformation),
        ("identity-json@1", jsonwl.identity_transformation),
        ("rename-json@1", jsonwl.config_rename_transformation),
        ("wrap-json@1", jsonwl.wrap_transformation),
        ("defaults-json@1", jsonwl.defaults_transformation),
        ("redact-json@1", jsonwl.redact_transformation),
    )
    for name, factory in bundle_builders:
        emit(name, lambda p, factory=factory: factory().save(p))

    readme = directory / "README.md"
    readme.write_text(_readme_text())
    written.append(readme)
    return written


def _readme_text() -> str:
    lines = [
        "# Stock model library",
        "",
        "Ready-to-serve artifacts for `repro server --models models`.",
        "Regenerate with `python -m repro.workloads.stock models` (the",
        "build is deterministic; a test regenerates and byte-compares).",
        "",
        "| model | format | transformation |",
        "| --- | --- | --- |",
    ]
    for name, kind, what in _README_ROWS:
        lines.append(f"| `{name}` | {kind} | {what} |")
    lines += [
        "",
        "XML models take documents as XML text; JSON models take one",
        "JSON document per request (or one per line on the streaming",
        "endpoint).",
        "",
    ]
    return "\n".join(lines)


def main(argv: List[str] = None) -> int:
    import sys

    args = sys.argv[1:] if argv is None else argv
    target = Path(args[0]) if args else Path("models")
    written = build_stock_models(target)
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
