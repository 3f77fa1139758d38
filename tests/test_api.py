"""Tests for the repro.api facade."""

import pytest

from repro import api
from repro.errors import UndefinedTransductionError
from repro.learning.rpni import LearnedDTOP
from repro.transducers.dtop import DTOP
from repro.transducers.minimize import CanonicalDTOP
from repro.trees.tree import Tree, parse_term

FLIP_EXAMPLES = [
    ("a", "a"),
    ("b", "b"),
    ("f(a, a)", "f(a, a)"),
    ("f(a, b)", "f(b, a)"),
    ("f(b, a)", "f(a, b)"),
    ("f(f(a, b), f(b, a))", "f(f(a, b), f(b, a))"),
]


class TestLearnRun:
    def test_learn_from_strings_and_run(self):
        learned = api.learn(FLIP_EXAMPLES)
        assert isinstance(learned, LearnedDTOP)
        assert api.run(learned, "f(b, a)") == parse_term("f(a, b)")

    def test_learn_generalizes_beyond_examples(self):
        learned = api.learn(FLIP_EXAMPLES)
        # The README's unseen input: deep recursive flip.
        assert api.run(learned, "f(f(a, a), b)") == parse_term("f(b, f(a, a))")

    def test_learn_accepts_tree_objects(self):
        pairs = [(parse_term(s), parse_term(t)) for s, t in FLIP_EXAMPLES]
        learned = api.learn(pairs)
        assert api.run(learned, parse_term("f(a, b)")) == parse_term("f(b, a)")

    def test_run_outside_domain_raises(self):
        learned = api.learn(FLIP_EXAMPLES)
        with pytest.raises(UndefinedTransductionError):
            api.run(learned, "g(a)")

    def test_parse_tree_passthrough(self):
        node = parse_term("f(a, b)")
        assert api.parse_tree(node) is node
        assert api.parse_tree("f(a, b)") is node


class TestRunBatch:
    def test_run_batch_matches_run(self):
        learned = api.learn(FLIP_EXAMPLES)
        sources = ["f(a, b)", "f(b, a)", "f(f(a, a), b)", "a"]
        assert api.run_batch(learned, sources) == [
            api.run(learned, source) for source in sources
        ]

    def test_run_batch_raises_on_first_undefined(self):
        learned = api.learn(FLIP_EXAMPLES)
        with pytest.raises(UndefinedTransductionError):
            api.run_batch(learned, ["f(a, b)", "g(a)"])

    def test_try_run_batch_marks_undefined_inputs(self):
        learned = api.learn(FLIP_EXAMPLES)
        outcomes = api.try_run_batch(learned, ["f(a, b)", "g(a)", "b"])
        assert outcomes[0] == parse_term("f(b, a)")
        assert outcomes[1] is None
        assert outcomes[2] == parse_term("b")


class TestMinimizeEquivalent:
    def test_minimize_returns_canonical(self):
        learned = api.learn(FLIP_EXAMPLES)
        canonical = api.minimize(learned)
        assert isinstance(canonical, CanonicalDTOP)
        assert canonical.num_states >= 1

    def test_equivalent_accepts_wrappers(self):
        learned = api.learn(FLIP_EXAMPLES)
        canonical = api.minimize(learned)
        assert api.equivalent(learned, canonical)
        assert api.equivalent(learned.dtop, canonical.dtop)


class TestSerializationRoundTrips:
    def test_tree_roundtrip(self):
        node = parse_term("f(a, g(b))")
        assert api.deserialize(api.serialize(node)) is node

    def test_transducer_roundtrip(self):
        learned = api.learn(FLIP_EXAMPLES)
        restored = api.deserialize(api.serialize(learned))
        assert isinstance(restored, DTOP)
        assert restored.apply(parse_term("f(a, b)")) == parse_term("f(b, a)")

    def test_save_and_load(self, tmp_path):
        learned = api.learn(FLIP_EXAMPLES)
        path = str(tmp_path / "flip.json")
        api.save(learned, path)
        restored = api.load(path)
        assert isinstance(restored, DTOP)
        for s, t in FLIP_EXAMPLES:
            assert restored.apply(parse_term(s)) == parse_term(t)


class TestCacheManagement:
    def test_cache_stats_shape(self):
        stats = api.cache_stats()
        assert set(stats) == {"intern", "sample_tables", "engine_artifacts"}
        assert "hits" in stats["intern"] and "misses" in stats["intern"]
        assert "tables_built" in stats["sample_tables"]
        assert "tables_extended" in stats["sample_tables"]
        assert "signature_hits" in stats["sample_tables"]
        assert "compiles" in stats["engine_artifacts"]
        assert "payload_hits" in stats["engine_artifacts"]

    def test_cache_stats_counts_compiles(self):
        machine = api.learn(FLIP_EXAMPLES)
        before = api.cache_stats()["engine_artifacts"]
        assert before["payload_hits"] == 0
        api.run_batch(machine, ["f(f(a, b), a)", "b"])
        after = api.cache_stats()["engine_artifacts"]
        assert after == {"compiles": before["compiles"] + 1, "payload_hits": 0}


class TestCompose:
    """api.compose: second(first(s)), with parity pinned on the flip
    corpus."""

    def _swap_relabel(self):
        """A total one-state machine on the flip alphabet: a ↔ b."""
        from repro.workloads.flip import FLIP_ALPHABET
        from repro.transducers.rhs import call

        rules = {
            ("q", "root"): Tree("root", (call("q", 1), call("q", 2))),
            ("q", "a"): Tree("b", (call("q", 1), call("q", 2))),
            ("q", "b"): Tree("a", (call("q", 1), call("q", 2))),
            ("q", "#"): Tree("#", ()),
        }
        return DTOP(FLIP_ALPHABET, FLIP_ALPHABET, call("q", 0), rules)

    def test_parity_on_the_flip_corpus(self):
        from repro.workloads.flip import flip_input, flip_transducer

        first = flip_transducer()
        second = self._swap_relabel()
        composed = api.compose(first, second)
        for n_as in range(5):
            for n_bs in range(5):
                source = flip_input(n_as, n_bs)
                chained = api.run(second, api.run(first, source))
                assert api.run(composed, source) == chained

    def test_undefinedness_agrees_on_the_flip_corpus(self):
        from repro.workloads.flip import flip_input, flip_transducer

        # flip's own output leaves flip's domain except for empty lists,
        # so flip ∘ flip is defined exactly where the chain is.
        first = flip_transducer()
        composed = api.compose(first, first)
        for n_as in range(3):
            for n_bs in range(3):
                source = flip_input(n_as, n_bs)
                try:
                    api.run(first, api.run(first, source))
                    chain_defined = True
                except UndefinedTransductionError:
                    chain_defined = False
                try:
                    got = api.run(composed, source)
                    assert chain_defined and got == source
                except UndefinedTransductionError:
                    assert not chain_defined

    def test_accepts_wrapped_transducers(self):
        from repro.workloads.flip import flip_transducer

        second = self._swap_relabel()
        learned_like = api.minimize(second)  # a CanonicalDTOP wrapper
        composed = api.compose(flip_transducer(), learned_like)
        assert str(api.run(composed, "root(#, #)")) == "root(#, #)"

    def test_exported_from_the_transducers_package(self):
        import repro.transducers as transducers

        assert transducers.compose is not None
        assert "compose" in transducers.__all__


class TestNetworkFacade:
    def test_connect_and_serve_forever_are_wired(self, tmp_path):
        from repro.server import ServerClient, ServerThread
        from repro.workloads.flip import flip_transducer

        api.save(flip_transducer(), str(tmp_path / "flip@1.json"))
        with ServerThread(tmp_path) as handle:
            with api.connect(handle.host, handle.port) as client:
                assert isinstance(client, ServerClient)
                assert client.transform("flip", "root(#, #)") == "root(#, #)"
        # serve_forever is the blocking CLI face of the same stack.
        assert callable(api.serve_forever)


class TestNoBackendKeyword:
    """Nothing takes a ``backend=``: one engine runs every machine."""

    @pytest.fixture
    def flip_dir(self, tmp_path):
        from repro.workloads.flip import flip_transducer

        api.save(flip_transducer(), str(tmp_path / "flip@1.json"))
        return tmp_path

    def call_with_backend(self, site, flip_dir):
        from repro.codec import load_transformation
        from repro.engine import engine_for
        from repro.serve import TransformService
        from repro.server.app import TransformServer
        from repro.server.registry import ModelRegistry

        machine = api.load(str(flip_dir / "flip@1.json"))
        document = "root(#, #)"
        if site == "run":
            api.run(machine, document, backend="tables")
        elif site == "run_batch":
            api.run_batch(machine, [document], backend="tables")
        elif site == "try_run_batch":
            api.try_run_batch(machine, [document], backend="tables")
        elif site == "engine_for":
            engine_for(machine, backend="tables")
        elif site == "TransformService":
            TransformService(machine, backend="tables")
        elif site in ("apply_batch", "apply_stream"):
            transformation = load_transformation(flip_dir / "flip@1.json")
            method = getattr(transformation, site)
            method([parse_term(document)], backend="tables")
        elif site == "ModelRegistry":
            ModelRegistry(flip_dir, backend="tables")
        elif site == "TransformServer":
            with ModelRegistry(flip_dir) as registry:
                TransformServer(registry, backend="tables")

    @pytest.mark.parametrize(
        "site",
        [
            "run",
            "run_batch",
            "try_run_batch",
            "engine_for",
            "TransformService",
            "apply_batch",
            "apply_stream",
            "ModelRegistry",
            "TransformServer",
        ],
    )
    def test_backend_keyword_is_refused(self, site, flip_dir):
        with pytest.raises(TypeError, match="backend"):
            self.call_with_backend(site, flip_dir)

    def test_repro_backend_environment_is_ignored(self, monkeypatch):
        documents = ["f(f(a, b), a)", "b", "f(b, f(a, b))"]
        expected = [api.run(api.learn(FLIP_EXAMPLES), d) for d in documents]
        monkeypatch.setenv("REPRO_BACKEND", "no-such-engine")
        # A machine learned under the variable compiles its engine then.
        machine = api.learn(FLIP_EXAMPLES)
        assert api.run_batch(machine, documents) == expected
        assert api.try_run_batch(machine, documents) == expected
