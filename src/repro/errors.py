"""Shared exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by this library."""


class TreeError(ReproError):
    """Malformed tree, bad node address, or arity violation."""


class PathError(TreeError):
    """A labeled path or node address does not belong to a tree."""


class ParseError(ReproError):
    """A term, XML document, DTD, or content model failed to parse."""


class AlphabetError(ReproError):
    """A symbol is used with a rank inconsistent with its alphabet."""


class AutomatonError(ReproError):
    """Ill-formed deterministic top-down tree automaton."""


class TransducerError(ReproError):
    """Ill-formed deterministic top-down tree transducer."""


class UndefinedTransductionError(TransducerError):
    """The transducer is undefined on the given input tree."""


class DomainError(ReproError):
    """An input tree lies outside the domain language under consideration."""


class ServiceError(ReproError):
    """A sharded transformation service lost a document to infrastructure.

    Raised (or recorded as a per-document outcome) by
    :mod:`repro.serve.service` when a worker process died while holding a
    chunk and the retry budget is exhausted.  Distinct from
    :class:`UndefinedTransductionError`: the input may well be inside the
    transducer's domain — the *service*, not the transduction, failed.
    """


class RegistryError(ReproError):
    """A model registry operation failed (bad directory, bad artifact)."""


class ModelNotFoundError(RegistryError):
    """No model in the registry matches the requested ``name@version``."""


class OverloadedError(ServiceError):
    """The server refused admission: its pending-request queue is full.

    An explicit, immediate response — the request was *not* queued and
    performed no work; the client may retry after backing off.  Distinct
    from :class:`ServiceError` proper (work was lost mid-flight) and from
    :class:`UndefinedTransductionError` (the transduction itself failed).
    """


class RemoteError(ReproError):
    """A server reported a failure that has no local exception class.

    Raised by :class:`repro.server.client.ServerClient` when a response
    carries an error type the client cannot map back onto this
    hierarchy (library errors round-trip as their own classes with
    byte-identical messages).
    """


class LearningError(ReproError):
    """The learning algorithm could not complete."""


class InsufficientSampleError(LearningError):
    """The sample is not characteristic: required evidence is missing.

    Raised when the learner needs information that a characteristic sample
    (Definition 31 of the paper) is guaranteed to contain, but the supplied
    sample lacks — e.g. no example realizes a path the domain automaton
    allows, or the variable alignment of Lemma 23 is ambiguous.

    Structured attributes let interactive front-ends
    (:mod:`repro.learning.active`) turn the failure into targeted queries:

    ``kind``
        one of ``"missing-path"`` (condition (T)), ``"alignment"``
        (condition (O): no or several variable candidates), or
        ``"merge-ambiguity"`` (condition (N)).
    ``u``, ``symbol``, ``v``
        the input path / input symbol / output path involved, when known.
    ``candidates``
        the ambiguous variable indices or mergeable OK states.
    """

    def __init__(
        self,
        message: str,
        kind: str = "unknown",
        u=None,
        symbol=None,
        v=None,
        candidates=(),
    ):
        super().__init__(message)
        self.kind = kind
        self.u = u
        self.symbol = symbol
        self.v = v
        self.candidates = tuple(candidates)


class InconsistentSampleError(LearningError):
    """The sample is not a partial function, or contradicts the domain."""


class NotTopDownError(LearningError):
    """The target relation provably violates Definition 16 (top-down)."""


class DTDError(ParseError):
    """Invalid DTD declaration or content model."""


class AmbiguousContentModelError(DTDError):
    """A content model whose encoding needs more than one symbol of lookahead.

    The paper restricts DTDs to 1-unambiguous regular expressions, and
    the DTD encoder parses child words in one pass with one symbol of
    lookahead.  It refuses, when it is built, every model it cannot
    parse that way: the non-deterministic ones, and a few deterministic
    ones such as ``(a?|b?)`` and ``(a?)*``.  The message names the
    element, its content model and the token where the choice is open.
    """


class EncodingError(ReproError):
    """A ranked tree is not a valid DTD-encoding, or encoding failed."""

