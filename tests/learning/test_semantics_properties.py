"""Property tests for the semantic operations on samples.

These check the monotonicity facts Section 8 relies on: more examples
can only make ``out_S`` shallower (closer to ``out_τ``), and residuals
of sub-samples embed into residuals of super-samples.  They run on the
interpreted reference and on the compiled tables.
"""

from hypothesis import given, settings, strategies as st

from repro.engine import tables_for
from repro.learning.charset import characteristic_sample
from repro.learning.sample import Sample
from repro.transducers.minimize import canonicalize
from repro.trees.lcp import is_prefix_of
from repro.workloads.flip import flip_domain, flip_input, flip_output, flip_transducer

from tests.learning.reference_sample import ReferenceSample


def full_flip_sample(max_n=3, max_m=3):
    return [
        (flip_input(n, m), flip_output(n, m))
        for n in range(max_n + 1)
        for m in range(max_m + 1)
    ]


PAIRS = full_flip_sample()

PATHS = [
    (),
    (("root", 1),),
    (("root", 2),),
    (("root", 1), ("a", 2)),
    (("root", 2), ("b", 2)),
]


@settings(max_examples=60, deadline=None)
@given(subset=st.sets(st.integers(min_value=0, max_value=len(PAIRS) - 1), min_size=1))
def test_out_monotone_under_sample_growth(subset):
    """out over a superset is a prefix of out over any subset."""
    small = ReferenceSample([PAIRS[i] for i in sorted(subset)])
    small_tables = tables_for(Sample(small.pairs))
    big = tables_for(Sample(PAIRS))
    for u in PATHS:
        assert small.out(u) == small_tables.out(u)
        out_small = small.out(u)
        out_big = big.out(u)
        if out_small is None:
            continue
        assert out_big is not None
        assert is_prefix_of(out_big, out_small)


@settings(max_examples=60, deadline=None)
@given(subset=st.sets(st.integers(min_value=0, max_value=len(PAIRS) - 1), min_size=1))
def test_residuals_embed(subset):
    small = ReferenceSample([PAIRS[i] for i in sorted(subset)])
    big = ReferenceSample(PAIRS)
    p = ((("root", 2),), (("root", 1),))
    assert set(small.residual(p)) <= set(big.residual(p))


@settings(max_examples=40, deadline=None)
@given(subset=st.sets(st.integers(min_value=0, max_value=len(PAIRS) - 1), min_size=1))
def test_sample_functionality_inherited(subset):
    """Residuals of samples of a function at τ-io-paths stay functional."""
    small = ReferenceSample([PAIRS[i] for i in sorted(subset)])
    tables = tables_for(Sample(small.pairs))
    for p in [
        ((), (("root", 1),)),
        ((("root", 2),), (("root", 1),)),
        ((("root", 1),), (("root", 2),)),
    ]:
        assert small.residual_functional(p)
        assert tables.residual_functional(p)


def test_out_of_charset_equals_out_of_superset_at_state_paths():
    """(T) survives adding more correct examples (Theorem 38's superset
    robustness, observed through out_S)."""
    canonical = canonicalize(flip_transducer(), flip_domain())
    charset = characteristic_sample(canonical)
    superset = charset.extended_with(PAIRS)
    from repro.learning.iopaths import state_io_paths

    for charset_ops, superset_ops in (
        (ReferenceSample(charset), ReferenceSample(superset)),
        (tables_for(charset), tables_for(superset)),
    ):
        for state, (u, _v) in state_io_paths(canonical).items():
            dstate = canonical.domain.state_at_path(u)
            for symbol in canonical.domain.allowed_symbols(dstate):
                out_charset = charset_ops.out_npath(u, symbol)
                out_superset = superset_ops.out_npath(u, symbol)
                assert out_charset is not None
                assert is_prefix_of(out_superset, out_charset)
                assert is_prefix_of(out_charset, out_superset)
