"""Learning DTOPs from examples (Sections 8–9 of the paper).

The package provides:

* :class:`~repro.learning.sample.Sample` — a finite sub-relation of the
  target translation; the learner answers its semantic operations
  (``out_S``, residuals, io-paths of ``S``) from the sample's compiled
  tables (:mod:`repro.engine.sample_tables`);
* :func:`~repro.learning.rpni.rpni_dtop` — the paper's Figure 1
  algorithm: identifies ``min(τ)`` from a characteristic sample and a
  domain DTTA;
* :func:`~repro.learning.charset.characteristic_sample` — Proposition 34:
  builds, for a target transducer, a characteristic sample of size
  polynomial in the size of the canonical transducer.
"""

from repro.learning.sample import Sample
from repro.learning.rpni import LearnedDTOP, rpni_dtop
from repro.learning.charset import characteristic_sample
from repro.learning.iopaths import state_io_paths, trans_io_paths
from repro.learning.oracle import learn_from_transducer, sample_of_transducer

__all__ = [
    "Sample",
    "LearnedDTOP",
    "rpni_dtop",
    "characteristic_sample",
    "state_io_paths",
    "trans_io_paths",
    "learn_from_transducer",
    "sample_of_transducer",
]
