"""Unit tests for semantic-aware generation (paper Alg. 3)."""

import random

from repro.core import (
    CampaignConfig, PuzzleCorpus, SemanticGenerator, run_campaign,
)
from repro.core.campaign import make_engine
from repro.model import Blob, Block, DataModel, Number, size_of
from repro.protocols import get_target


def _model():
    return DataModel("m", Block("m.root", [
        Number("opcode", 1, default=7, token=True, semantic="opcode"),
        Number("address", 2, default=0, semantic="address"),
        Number("quantity", 2, default=1, semantic="quantity"),
        size_of(Number("size", 1), "payload"),
        Blob("payload", default=b"\x00", semantic="payload"),
    ]))


def _built(generator, model):
    """CONSTRUCT's plans for *model*, each built to ``(tree, wire)``."""
    return [generator.build(model, plan)
            for plan in generator.construct(model)]


def _corpus_with(rng=None, **donors):
    corpus = PuzzleCorpus(rng=rng or random.Random(0))
    model = _model()
    for name, values in donors.items():
        field = model.root.child(name)
        for value in values:
            corpus.add(field.signature(), value)
    return corpus


class TestConstruct:
    def test_empty_corpus_returns_empty_batch(self):
        generator = SemanticGenerator(PuzzleCorpus(), random.Random(1))
        assert generator.construct(_model()) == []

    def test_donor_values_spliced_into_packets(self):
        corpus = _corpus_with(address=[b"\x01\x10"])
        generator = SemanticGenerator(corpus, random.Random(1),
                                      pin_prob=1.0)
        batch = _built(generator, _model())
        assert batch
        for tree, _wire in batch:
            assert tree.find("address").value == 0x0110

    def test_cartesian_product_of_donors(self):
        """Paper Alg. 3: p donors for a and q for b yield p*q seeds."""
        corpus = _corpus_with(address=[b"\x00\x01", b"\x00\x02"],
                              quantity=[b"\x00\x03", b"\x00\x04",
                                        b"\x00\x05"])
        generator = SemanticGenerator(corpus, random.Random(1),
                                      pin_prob=1.0, batch_limit=100)
        batch = _built(generator, _model())
        combos = {(t.find("address").value, t.find("quantity").value)
                  for t, _w in batch}
        assert len(batch) == 6
        assert len(combos) == 6

    def test_batch_limit_caps_product(self):
        corpus = _corpus_with(
            address=[i.to_bytes(2, "big") for i in range(6)],
            quantity=[i.to_bytes(2, "big") for i in range(6)])
        generator = SemanticGenerator(corpus, random.Random(1),
                                      pin_prob=1.0, batch_limit=10,
                                      max_donors_per_position=6)
        plans = generator.construct(_model())
        assert len(plans) == 10
        assert len({plan.seed for plan in plans}) == 10

    def test_relations_repaired_after_splice(self):
        """File Fixup: the size field is recomputed, never donor-filled."""
        corpus = _corpus_with(payload=[b"donor-payload!"])
        generator = SemanticGenerator(corpus, random.Random(1),
                                      pin_prob=1.0)
        model = _model()
        for _tree, wire in _built(generator, model):
            parsed = model.parse(wire)
            assert parsed.find("size").value == \
                len(parsed.find("payload").raw)

    def test_tokens_never_pinned(self):
        corpus = _corpus_with(address=[b"\x00\x01"])
        # poison the corpus with an opcode donor; it must be ignored
        model = _model()
        opcode = model.root.child("opcode")
        corpus.add(opcode.signature(), b"\x63")
        generator = SemanticGenerator(corpus, random.Random(1),
                                      pin_prob=1.0)
        for tree, _wire in _built(generator, model):
            assert tree.find("opcode").value == 7

    def test_generated_packets_parse_under_model(self):
        corpus = _corpus_with(address=[b"\x12\x34"],
                              quantity=[b"\x00\x09"],
                              payload=[b"\x01\x02\x03"])
        generator = SemanticGenerator(corpus, random.Random(1),
                                      pin_prob=1.0, batch_limit=32)
        model = _model()
        batch = _built(generator, model)
        assert batch
        for _tree, wire in batch:
            assert model.matches(wire)

    def test_pin_prob_zero_disables_splicing(self):
        corpus = _corpus_with(address=[b"\x00\x01"])
        generator = SemanticGenerator(corpus, random.Random(1),
                                      pin_prob=0.0)
        assert generator.construct(_model()) == []

    def test_seeds_generated_counter(self):
        corpus = _corpus_with(address=[b"\x00\x01"])
        generator = SemanticGenerator(corpus, random.Random(1),
                                      pin_prob=1.0)
        plans = generator.construct(_model())
        assert generator.seeds_generated == len(plans)

    def test_deterministic_under_seed(self):
        def run():
            corpus = _corpus_with(rng=random.Random(9),
                                  address=[b"\x00\x01", b"\x00\x02"])
            generator = SemanticGenerator(corpus, random.Random(4),
                                          pin_prob=1.0)
            return [wire for _t, wire in _built(generator, _model())]

        assert run() == run()


class TestBuild:
    def test_building_a_plan_twice_is_identical(self):
        corpus = _corpus_with(address=[b"\x00\x01", b"\x00\x02"],
                              payload=[b"\x05\x06"])
        generator = SemanticGenerator(corpus, random.Random(3),
                                      pin_prob=1.0)
        model = _model()
        for plan in generator.construct(model):
            (tree_a, wire_a), (tree_b, wire_b) = \
                generator.build(model, plan), generator.build(model, plan)
            assert wire_a == wire_b
            assert tree_a.pretty() == tree_b.pretty()

    def test_build_draws_nothing_from_the_shared_rng(self):
        rng = random.Random(5)
        generator = SemanticGenerator(
            _corpus_with(address=[b"\x00\x01"]), rng, pin_prob=1.0)
        model = _model()
        plans = generator.construct(model)
        state = rng.getstate()
        generator.build(model, plans[0])
        assert rng.getstate() == state

    def test_construct_takes_one_draw_per_batch(self):
        """With every position pinned, planning a whole batch consumes
        exactly the one base-seed draw."""
        rng = random.Random(5)
        twin = random.Random(5)
        generator = SemanticGenerator(
            _corpus_with(address=[b"\x00\x01", b"\x00\x02"]), rng,
            pin_prob=1.0)
        plans = generator.construct(_model())
        base = twin.getrandbits(64)
        assert [plan.seed for plan in plans] == [base, base + 1]
        assert rng.getstate() == twin.getstate()


class TestBuildCounts:
    """Packets are built only when they run — counted, not timed."""

    def test_campaign_builds_once_per_execution(self, build_calls):
        result = run_campaign("peach-star", get_target("libmodbus"), seed=4,
                              config=CampaignConfig(max_executions=400))
        assert result.stats["semantic_executions"] > 0
        assert len(build_calls) == result.executions

    def test_session_step_builds_once(self, build_calls):
        engine = make_engine("peach-star", get_target("iec104"), seed=2,
                             config=CampaignConfig(sessions=True))
        for _ in range(40):
            engine.iterate()
        assert not engine.corpus.is_empty
        engine.semantic_ratio = 1.0
        semantic = 0
        for model in engine.pit:
            del build_calls[:]
            _tree, _packet, spliced = engine._produce_step(model)
            assert build_calls == [model.name]
            semantic += spliced
        assert semantic > 0
