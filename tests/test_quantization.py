"""Float32 inference casts: the parity contract and its edge cases.

``QEP2Seq.astype("float32")`` builds an ordinary float32 model from a
trained float64 one — same vocabularies, every parameter cast, the source
model untouched — and the decode cache keys on the model dtype.  The
load-bearing contract: against the float64 reference on the dblp workload,
top-1 token agreement >= 0.98 and corpus-BLEU delta <= 0.5 points — the
float32 cast may change wording only within that envelope.

Checkpoints written while int8/float16 inference replicas existed carry
``"quantize": "int8"`` or ``"float16"`` in their model config; they load as
the float32 cast, so the contract tests run over both legacy modes.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.nlg.metrics import corpus_bleu
from repro.nlg.persistence import MANIFEST_FILE, load_qep2seq, save_qep2seq

#: the parity-contract thresholds
MIN_TOKEN_AGREEMENT = 0.98
MAX_BLEU_DELTA_POINTS = 0.5


@pytest.fixture(scope="module")
def parity_samples(trained_neural):
    samples = (
        trained_neural.dataset.validation_samples[:40]
        + trained_neural.dataset.train_samples[:20]
    )
    return samples


@pytest.fixture(scope="module")
def cast(trained_neural):
    """The float32 cast of the session's trained float64 model."""
    return trained_neural.model.astype("float32")


def _legacy_cast(trained_neural, cast, directory, mode):
    """Load a hand-edited legacy ``quantize=<mode>`` checkpoint of the
    trained model, checking it is exactly the float32 cast."""
    target = save_qep2seq(trained_neural.model, directory / mode)
    manifest = json.loads((target / MANIFEST_FILE).read_text())
    manifest["model"]["config"]["quantize"] = mode
    (target / MANIFEST_FILE).write_text(json.dumps(manifest))
    loaded = load_qep2seq(target)
    assert loaded.config == cast.config
    originals = {p.name: p.value for p in cast.parameters()}
    for parameter in loaded.parameters():
        np.testing.assert_array_equal(parameter.value, originals[parameter.name])
    return loaded


def _token_agreement(reference: list[list[str]], candidate: list[list[str]]) -> float:
    agreeing = total = 0
    for ref, cand in zip(reference, candidate):
        length = max(len(ref), len(cand))
        total += length
        agreeing += sum(1 for a, b in zip(ref, cand) if a == b)
    return agreeing / total if total else 1.0


class TestCast:
    def test_cast_is_an_ordinary_float32_model(self, trained_neural, cast):
        model = trained_neural.model
        assert cast is not model
        assert cast.config == replace(model.config, dtype="float32")
        assert cast.precision == "float32"
        assert cast.input_vocabulary.tokens == model.input_vocabulary.tokens
        assert cast.output_vocabulary.tokens == model.output_vocabulary.tokens
        originals = {p.name: p.value for p in model.parameters()}
        assert [p.name for p in cast.parameters()] == list(originals)
        for parameter in cast.parameters():
            assert parameter.value.dtype == np.float32
            np.testing.assert_array_equal(
                parameter.value, originals[parameter.name].astype(np.float32)
            )
        assert cast.weights_memory_info()["bytes"] * 2 == model.weights_memory_info()["bytes"]

    def test_cast_model_trains(self, trained_neural):
        """A cast is an ordinary model: it trains like any float32 model."""
        model = trained_neural.model.astype("float32")
        samples = trained_neural.dataset.train_samples[:4]
        batch = model.make_batch(
            [s.source_tokens for s in samples], [s.target_tokens for s in samples]
        )
        loss, accuracy = model.train_batch(batch)
        assert np.isfinite(loss) and 0.0 <= accuracy <= 1.0
        assert all(p.value.dtype == np.float32 for p in model.parameters())


class TestParityContract:
    @pytest.mark.parametrize("mode", ["int8", "float16"])
    def test_token_agreement_and_bleu_delta(
        self, trained_neural, cast, parity_samples, tmp_path, mode
    ):
        model = _legacy_cast(trained_neural, cast, tmp_path, mode)
        sources = [s.source_tokens for s in parity_samples]
        references = [s.target_tokens for s in parity_samples]
        baseline = trained_neural.model.beam_decode_batch(sources, beam_size=2)
        candidates = model.beam_decode_batch(sources, beam_size=2)

        agreement = _token_agreement([c[0] for c in baseline], [c[0] for c in candidates])
        assert agreement >= MIN_TOKEN_AGREEMENT
        bleu_full = corpus_bleu([c[0] for c in baseline], references)
        bleu_cast = corpus_bleu([c[0] for c in candidates], references)
        assert abs(bleu_full - bleu_cast) <= MAX_BLEU_DELTA_POINTS

    def test_batched_matches_sequential_under_float32(self, cast, parity_samples):
        """The fused-beam parity guarantee must also hold in float32 —
        including how beam ties resolve (both paths rank with the same
        stable sort over the same float32 scores)."""
        sources = [s.source_tokens for s in parity_samples[:20]]
        batched = cast.beam_decode_batch(sources, beam_size=2)
        sequential = [
            cast.beam_decode_candidates_sequential(source, beam_size=2) for source in sources
        ]
        assert batched == sequential
        # decoding is deterministic: re-running yields the exact ranking
        assert cast.beam_decode_batch(sources, beam_size=2) == batched

    def test_astype_leaves_the_float64_path_exact(self, trained_neural, parity_samples):
        model = trained_neural.model
        sources = [s.source_tokens for s in parity_samples[:10]]
        baseline = model.beam_decode_batch(sources, beam_size=2)
        model.astype("float32").astype("float64")
        assert model.config.dtype == "float64"
        assert all(p.value.dtype == np.float64 for p in model.parameters())
        assert model.beam_decode_batch(sources, beam_size=2) == baseline


class TestQuantizedLifecycle:
    def test_decode_cache_keys_on_precision(self, trained_neural, cast):
        """A float32 cast must never serve candidates decoded in float64
        (the dtype is part of the key), even through a shared cache."""
        from repro.nlg.cache import make_key
        from repro.nlg.neural_lantern import NeuralLantern

        neural = NeuralLantern(trained_neural.model, beam_size=2)
        source = trained_neural.dataset.samples[0].source_tokens
        neural._ranked_candidates(source, 2)
        [full_key] = [key for key, _ in neural.decode_cache.export_entries()]
        assert full_key == make_key(source, 2, "float64")

        neural.model = cast
        neural._ranked_candidates(source, 2)
        keys = {key for key, _ in neural.decode_cache.export_entries()}
        assert make_key(source, 2, "float32") in keys
        assert len(keys) == 2  # distinct entries per precision

    def test_quantized_checkpoint_round_trip(self, trained_neural, cast, tmp_path):
        """A float32 cast saves as an ordinary float32 npz checkpoint — no
        float64 master, no precision-mode field — and loads back decoding
        exactly like the cast it was saved from."""
        sources = [s.source_tokens for s in trained_neural.dataset.samples[:6]]
        expected = cast.beam_decode_batch(sources, beam_size=2)
        target = save_qep2seq(cast, tmp_path / "f32")

        config = json.loads((target / MANIFEST_FILE).read_text())["model"]["config"]
        assert config["dtype"] == "float32"
        assert "quantize" not in config

        loaded = load_qep2seq(target)
        assert loaded.config == cast.config
        assert loaded.precision == "float32"
        originals = {p.name: p.value for p in cast.parameters()}
        for parameter in loaded.parameters():
            assert parameter.value.dtype == np.float32
            np.testing.assert_array_equal(parameter.value, originals[parameter.name])
        assert loaded.beam_decode_batch(sources, beam_size=2) == expected


class TestQuantizedEdgeCases:
    @pytest.mark.parametrize("mode", ["int8", "float16"])
    def test_oov_tokens_decode(self, trained_neural, cast, tmp_path, mode):
        model = _legacy_cast(trained_neural, cast, tmp_path, mode)
        oov = ["positronic", "flux", "capacitor", "scan"]
        batched = model.beam_decode_batch([oov], beam_size=2)
        sequential = model.beam_decode_candidates_sequential(oov, beam_size=2)
        assert batched[0] == sequential
        assert all(candidate for candidate in sequential)

    @pytest.mark.parametrize("source", [[], ["  "], ["", " "]])
    def test_empty_and_whitespace_acts(self, trained_neural, cast, source):
        """Degenerate act serializations must decode (as pure-UNK input),
        not crash — float64 or float32, batched or not."""
        plain = trained_neural.model.beam_decode_candidates(source, beam_size=2)
        assert plain and all(plain)
        candidates = cast.beam_decode_batch([source], beam_size=2)[0]
        assert candidates == cast.beam_decode_candidates_sequential(source, beam_size=2)
        assert candidates and all(candidates)

    def test_generation_through_facade_under_float32(self, cast, dblp_db):
        """End to end: a NeuralLantern over the float32 cast narrates real
        plans with non-empty, tag-restored text."""
        from repro.core import Lantern, LanternConfig
        from repro.nlg.neural_lantern import NeuralLantern

        lantern = Lantern(
            neural=NeuralLantern(cast, beam_size=2), config=LanternConfig(seed=None)
        )
        sql = "SELECT count(*) FROM publication p WHERE p.year > 2005"
        narration = lantern.describe_plan(lantern.plan_for_sql(dblp_db, sql), mode="neural")
        assert narration.text.strip().endswith(".")
        assert "<" not in narration.text  # all tags restored or filled
