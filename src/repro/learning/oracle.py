"""Convenience front-ends tying the learner to a target transducer.

These helpers make the Gold-style loop one call: canonicalize the target,
generate a characteristic sample, run ``RPNI_dtop``, and (optionally)
verify that the learned machine is the canonical one.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.automata.dtta import DTTA
from repro.errors import LearningError
from repro.trees.tree import Tree
from repro.transducers.dtop import DTOP
from repro.transducers.minimize import CanonicalDTOP, canonicalize
from repro.learning.charset import characteristic_sample
from repro.learning.rpni import LearnedDTOP, rpni_dtop
from repro.learning.sample import Sample


def sample_of_transducer(
    transducer: DTOP,
    inspection: Optional[DTTA] = None,
) -> Tuple[Sample, CanonicalDTOP]:
    """A characteristic sample for ``[[M]]|L(A)`` plus the canonical target."""
    canonical = canonicalize(transducer, inspection)
    return characteristic_sample(canonical), canonical


def learn_from_transducer(
    transducer: DTOP,
    inspection: Optional[DTTA] = None,
    extra_examples: Iterable[Tuple[Tree, Tree]] = (),
    verify: bool = True,
) -> LearnedDTOP:
    """Full Gold-style round trip: sample the target, learn, verify.

    ``extra_examples`` are added to the characteristic sample (learning
    must succeed from any superset, Theorem 38); with ``verify=True`` the
    learned transducer is checked to be exactly the canonical target.
    """
    sample, canonical = sample_of_transducer(transducer, inspection)
    if extra_examples:
        sample = sample.extended_with(extra_examples)
    learned = rpni_dtop(sample, canonical.domain)
    if verify:
        relearned = canonicalize(learned.dtop, canonical.domain)
        if not relearned.same_translation(canonical):
            raise LearningError(
                "learned transducer denotes a different translation than "
                "the target — the sample was not characteristic"
            )
    return learned
