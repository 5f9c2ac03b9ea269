"""LANTERN-ZERO memory-mapped checkpoints: zero-copy boot, copy-on-train.

``weights_layout="mmap"`` writes raw aligned bytes the loader maps straight
into read-only :class:`~repro.nlg.nn.layers.Parameter` views — no
decompression, no array copies, no optimizer-state allocation.  Contracts:

* a mapped model decodes token-identically to its npz twin;
* mapped parameters are read-only shared views until training *materializes*
  them (copy-on-train), after which training behaves exactly as before;
* integrity is never weaker than npz: structural bounds are checked on every
  load, and ``verify_checkpoint`` / ``load(..., verify=True)`` digest the
  full byte stream in both layouts.
"""

import json

import numpy as np
import pytest

from repro.core import Lantern, LanternConfig
from repro.errors import CheckpointFormatError, CheckpointIntegrityError
from repro.nlg.neural_lantern import NeuralLantern
from repro.nlg.persistence import (
    MANIFEST_FILE,
    WEIGHTS_BIN_FILE,
    WEIGHTS_FILE,
    load_qep2seq,
    save_lantern,
    save_qep2seq,
    verify_checkpoint,
)

SQLS = [
    "SELECT count(*) FROM publication p WHERE p.year > 2005",
    "SELECT p.venue_key FROM publication p WHERE p.year > 1999 ORDER BY p.venue_key",
]


@pytest.fixture()
def mmap_checkpoint(trained_neural, tmp_path):
    target = save_qep2seq(trained_neural.model, tmp_path / "mapped", weights_layout="mmap")
    return target


class TestMmapRoundTrip:
    def test_layout_on_disk(self, mmap_checkpoint):
        assert (mmap_checkpoint / WEIGHTS_BIN_FILE).exists()
        assert not (mmap_checkpoint / WEIGHTS_FILE).exists()
        manifest = json.loads((mmap_checkpoint / MANIFEST_FILE).read_text())
        assert manifest["weights_layout"] == "mmap"
        index = manifest["weights_index"]
        assert index and all(entry["offset"] % 64 == 0 for entry in index)

    def test_decodes_identically_and_maps_read_only(self, trained_neural, mmap_checkpoint):
        model = trained_neural.model
        loaded = load_qep2seq(mmap_checkpoint)
        parameters = loaded.parameters()
        assert parameters and all(p.mmap_backed for p in parameters)
        assert all(not p.value.flags.writeable for p in parameters)
        info = loaded.weights_memory_info()
        assert info["mmap_backed"] is True
        assert info["bytes"] == sum(p.value.nbytes for p in parameters)

        originals = {p.name: p.value for p in model.parameters()}
        for parameter in parameters:
            np.testing.assert_array_equal(parameter.value, originals[parameter.name])
        sources = [s.source_tokens for s in trained_neural.dataset.samples[:5]]
        assert loaded.beam_decode_batch(sources, beam_size=2) == model.beam_decode_batch(
            sources, beam_size=2
        )

    def test_copy_on_train(self, trained_neural, mmap_checkpoint):
        """Training a mapped model must transparently materialize private
        writable copies — and only then."""
        loaded = load_qep2seq(mmap_checkpoint)
        samples = trained_neural.dataset.train_samples[:4]
        batch = loaded.make_batch(
            [s.source_tokens for s in samples], [s.target_tokens for s in samples]
        )
        loss, _ = loaded.train_batch(batch)
        assert np.isfinite(loss)
        assert all(not p.mmap_backed for p in loaded.parameters())
        assert all(p.value.flags.writeable for p in loaded.parameters())
        assert loaded.weights_memory_info()["mmap_backed"] is False

    def test_quantized_mmap_checkpoint(self, trained_neural, tmp_path):
        """A float32 cast saves and loads as an ordinary float32 mmap
        checkpoint: half the weight bytes of its float64 source, mapped
        without a copy, decoding exactly like the cast it was saved from."""
        model = trained_neural.model
        cast = model.astype("float32")
        sources = [s.source_tokens for s in trained_neural.dataset.samples[:5]]
        expected = cast.beam_decode_batch(sources, beam_size=2)
        target = save_qep2seq(cast, tmp_path / "f32", weights_layout="mmap")
        float64_target = save_qep2seq(model, tmp_path / "f64", weights_layout="mmap")

        ratio = (target / WEIGHTS_BIN_FILE).stat().st_size / (
            float64_target / WEIGHTS_BIN_FILE
        ).stat().st_size
        assert 0.49 <= ratio <= 0.51  # only 64-byte alignment padding differs
        loaded = load_qep2seq(target)
        assert loaded.config.dtype == "float32"
        assert all(p.mmap_backed and p.value.dtype == np.float32 for p in loaded.parameters())
        assert loaded.beam_decode_batch(sources, beam_size=2) == expected

    def test_overwrite_swaps_layout_files(self, trained_neural, tmp_path):
        """Re-saving under the other layout must not leave a stale weights
        file for a future loader to trip on."""
        model = trained_neural.model
        target = tmp_path / "swap"
        save_qep2seq(model, target, weights_layout="mmap")
        save_qep2seq(model, target, weights_layout="npz")
        assert (target / WEIGHTS_FILE).exists()
        assert not (target / WEIGHTS_BIN_FILE).exists()
        save_qep2seq(model, target, weights_layout="mmap")
        assert (target / WEIGHTS_BIN_FILE).exists()
        assert not (target / WEIGHTS_FILE).exists()
        load_qep2seq(target)  # and the final state loads


class TestFacadeLevel:
    def test_lantern_facade_mmap_parity(self, dblp_db, trained_neural, tmp_path):
        lantern = Lantern(
            neural=NeuralLantern(trained_neural.model, beam_size=2),
            config=LanternConfig(seed=None),
        )
        trees = [lantern.plan_for_sql(dblp_db, sql) for sql in SQLS]
        for tree in trees:
            lantern.describe_plan(tree, mode="neural")
        target = save_lantern(lantern, tmp_path / "facade", weights_layout="mmap")
        assert verify_checkpoint(target) is True

        loaded = Lantern.load(target)
        expected = [lantern.describe_plan(t, mode="neural").text for t in trees]
        actual = [loaded.describe_plan(t, mode="neural").text for t in trees]
        assert actual == expected

    def test_save_method_passes_layout_through(self, trained_neural, tmp_path):
        lantern = Lantern(
            neural=NeuralLantern(trained_neural.model, beam_size=2),
            config=LanternConfig(seed=None),
        )
        lantern.save(tmp_path / "via-method", weights_layout="mmap")
        assert (tmp_path / "via-method" / WEIGHTS_BIN_FILE).exists()


class TestMmapIntegrity:
    def test_verify_checkpoint_both_layouts(self, trained_neural, tmp_path):
        for layout in ("npz", "mmap"):
            target = save_qep2seq(
                trained_neural.model, tmp_path / layout, weights_layout=layout
            )
            assert verify_checkpoint(target) is True

    def test_truncated_bin_fails_structurally(self, mmap_checkpoint):
        """A short file is caught by the offset-bounds check on EVERY load,
        even without the full digest pass."""
        bin_path = mmap_checkpoint / WEIGHTS_BIN_FILE
        blob = bin_path.read_bytes()
        bin_path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointIntegrityError, match="truncated"):
            load_qep2seq(mmap_checkpoint)
        with pytest.raises(CheckpointIntegrityError):
            verify_checkpoint(mmap_checkpoint)

    def test_flipped_byte_fails_digest_verification(self, mmap_checkpoint):
        bin_path = mmap_checkpoint / WEIGHTS_BIN_FILE
        blob = bytearray(bin_path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        bin_path.write_bytes(bytes(blob))
        # structurally sound, so the fast default load succeeds ...
        load_qep2seq(mmap_checkpoint)
        # ... but both explicit verification paths catch the corruption
        with pytest.raises(CheckpointIntegrityError, match="digest mismatch"):
            verify_checkpoint(mmap_checkpoint)
        with pytest.raises(CheckpointIntegrityError, match="digest mismatch"):
            load_qep2seq(mmap_checkpoint, verify=True)

    def test_missing_bin_file(self, mmap_checkpoint):
        (mmap_checkpoint / WEIGHTS_BIN_FILE).unlink()
        with pytest.raises(CheckpointFormatError, match="missing"):
            load_qep2seq(mmap_checkpoint)

    def test_verify_checkpoint_missing_path(self, tmp_path):
        with pytest.raises(CheckpointFormatError):
            verify_checkpoint(tmp_path / "nowhere")
