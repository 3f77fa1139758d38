"""XML transformations: unranked trees, DTDs, and ranked encodings.

Section 10 of the paper: XML documents are unranked trees; to learn
transformations with a ranked DTOP, the documents are encoded as ranked
trees.  Two encodings are provided:

* the classical first-child/next-sibling encoding (:mod:`repro.xml.fcns`),
  under which a DTOP cannot reorder siblings; and
* the paper's new DTD-based encoding (:mod:`repro.xml.encode`), which
  groups items by the regular subexpressions of a DTD so that a DTOP can
  delete, interchange, and copy the groups.

:mod:`repro.xml.pipeline` glues everything into the XML codec and an
end-to-end learner for XML-to-XML transformations, and
:mod:`repro.xml.xslt` renders a learned transducer as an XSLT-like
template program.
"""

from repro.xml.unranked import UTree, element, text, PCDATA_LABEL
from repro.xml.xmlio import parse_xml, serialize_xml
from repro.xml.dtd import (
    DTD,
    Alt,
    ContentModel,
    ElementRe,
    Empty,
    Opt,
    PCDataRe,
    Plus,
    Seq,
    Star,
    parse_dtd,
    parse_content_model,
)
from repro.xml.encode import DTDEncoder
from repro.xml.fcns import fcns_encode, fcns_decode, fcns_alphabet
from repro.xml.schema import schema_dtta
from repro.xml.pipeline import XMLTransformation, learn_xml_transformation, xml_codec
from repro.xml.xslt import to_xslt

__all__ = [
    "UTree",
    "element",
    "text",
    "PCDATA_LABEL",
    "parse_xml",
    "serialize_xml",
    "DTD",
    "Alt",
    "ContentModel",
    "ElementRe",
    "Empty",
    "Opt",
    "PCDataRe",
    "Plus",
    "Seq",
    "Star",
    "parse_dtd",
    "parse_content_model",
    "DTDEncoder",
    "fcns_encode",
    "fcns_decode",
    "fcns_alphabet",
    "schema_dtta",
    "XMLTransformation",
    "learn_xml_transformation",
    "xml_codec",
    "to_xslt",
]
