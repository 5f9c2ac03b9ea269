"""QEP2Seq: the act-to-sentence encoder/decoder with additive attention (paper §6.4).

The encoder LSTM reads the serialized act (operator tokens plus structural
tags); the decoder LSTM — whose word embeddings may be initialized from
pre-trained vectors — generates the description token by token, attending
over the encoder states.  Training uses teacher forcing and plain SGD;
inference uses beam search.

Beam search is *batched* on two axes.  Within one act, all K live beams
advance through a single (K, H) decoder step, one attention call, and one
output-projection matmul per timestep (:meth:`QEP2Seq.beam_decode_candidates`).
Across a plan, :meth:`QEP2Seq.beam_decode_batch` pads every act of the plan
into one encoder forward and decodes all acts' beams as one fused tensor,
which is what makes NEURAL-LANTERN response times interactive (Table 6).
Both paths are guaranteed to emit token-for-token the same output as the
unbatched reference decoder (kept as
:meth:`QEP2Seq.beam_decode_candidates_sequential`); finished beams are simply
dropped from the fused batch instead of being masked-and-recomputed.

Training is vectorized the same way (the TRAIN-TURBO path, the default):

* the input-side gate matmuls of both LSTMs are hoisted out of the
  recurrences (:meth:`~repro.nlg.nn.lstm.LSTM.forward_fused`);
* because teacher forcing never feeds the context vector back into the
  decoder recurrence (it only enters the output concat), the decoder LSTM
  runs *before* attention, and attention for all decoder timesteps runs as
  one fused call (:meth:`~repro.nlg.nn.attention.AdditiveAttention.forward_fused`)
  — which also hoists the encoder projection the reference path recomputed
  at every decoder step;
* the backward pass mirrors both fusions
  (:meth:`~repro.nlg.nn.lstm.LSTM.backward_fused` /
  :meth:`~repro.nlg.nn.attention.AdditiveAttention.backward_fused`).

The step-wise reference path is kept (``Seq2SeqConfig(turbo=False)``) and
the parity contract is enforced by ``tests/test_nlg_train_turbo.py``: with
``float64`` every per-batch loss/accuracy and all parameter gradients match
the reference to ``allclose(rtol=1e-9)``, and identical-seed training runs
narrate token-identically.  ``Seq2SeqConfig.dtype`` selects ``float64``
(default, exact parity) or ``float32`` (half the weight bytes; cold decodes
run ~1.6× faster on sgemm).  :meth:`QEP2Seq.astype` casts a trained model
to the other dtype.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Optional

import numpy as np

from repro.errors import ModelConfigError
from repro.nlg.nn.attention import AdditiveAttention
from repro.nlg.nn.layers import Dense, Embedding, Parameter
from repro.nlg.nn.losses import cross_entropy_from_logits
from repro.nlg.nn.lstm import LSTM
from repro.nlg.nn.optimizers import SGD, Adam
from repro.nlg.vocab import Vocabulary


@dataclass
class Seq2SeqConfig:
    """Hyper-parameters of the QEP2Seq model.

    Defaults follow §6.4.2: 256 LSTM cells, encoder embeddings of 16, decoder
    embeddings of 32 when no pre-trained vectors are supplied, SGD with
    learning rate 0.001 and minibatches of 4.
    """

    hidden_dim: int = 256
    encoder_embedding_dim: int = 16
    decoder_embedding_dim: int = 32
    attention_dim: int = 64
    learning_rate: float = 0.001
    batch_size: int = 4
    #: "sgd" reproduces the paper's training setup; "adam" converges much
    #: faster and is the default for the test suite and benchmarks.
    optimizer: str = "adam"
    share_weights: bool = False
    seed: int = 13
    max_decode_length: int = 60
    beam_size: int = 4
    embedding_name: str = "random"
    #: True (default) runs the fused TRAIN-TURBO forward/backward; False the
    #: kept step-wise reference path.  Parity between the two is asserted to
    #: allclose(rtol=1e-9) on loss and every parameter gradient.
    turbo: bool = True
    #: "float64" (default) for exact reference parity; "float32" halves
    #: parameter/activation memory and bandwidth.  Recorded in checkpoint
    #: manifests so a saved float32 model round-trips as float32.
    dtype: str = "float64"


class _FastInitGenerator:
    """A stand-in rng for :meth:`QEP2Seq.from_weights` (see ``init_rng``).

    Every parameter of the model under construction is overwritten or
    mmap-adopted immediately afterwards, so initialization draws are pure
    waste — this generator returns zero buffers (calloc'd, so the kernel
    never materializes the pages) instead.
    """

    @staticmethod
    def uniform(low, high, size=None):
        return np.zeros(size if size is not None else ())


@dataclass
class Batch:
    """One padded training batch."""

    encoder_ids: np.ndarray
    encoder_mask: np.ndarray
    decoder_inputs: np.ndarray
    decoder_targets: np.ndarray
    decoder_mask: np.ndarray


@dataclass
class _ForwardCache:
    encoder_embedded: np.ndarray
    encoder_outputs: np.ndarray
    encoder_caches: list = field(default_factory=list)
    decoder_caches: list = field(default_factory=list)
    attention_caches: list = field(default_factory=list)
    concatenated: Optional[np.ndarray] = None
    logits: Optional[np.ndarray] = None


@dataclass
class _TurboForwardCache:
    """Forward values of the fused path: three SoA caches instead of three
    per-timestep object lists."""

    encoder_cache: object  # LSTMSequenceCache
    decoder_cache: object  # LSTMSequenceCache
    attention_cache: object  # AttentionSequenceCache
    concatenated: np.ndarray
    logits: np.ndarray


class QEP2Seq:
    """The sequence-to-sequence translation model for acts."""

    def __init__(
        self,
        input_vocabulary: Vocabulary,
        output_vocabulary: Vocabulary,
        config: Optional[Seq2SeqConfig] = None,
        decoder_pretrained: Optional[np.ndarray] = None,
        *,
        init_rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.config = config if config is not None else Seq2SeqConfig()
        self.input_vocabulary = input_vocabulary
        self.output_vocabulary = output_vocabulary
        if self.config.dtype not in ("float64", "float32"):
            raise ModelConfigError(
                f"unsupported dtype {self.config.dtype!r}; expected 'float64' or 'float32'"
            )
        self.dtype = np.dtype(self.config.dtype)
        # init_rng is from_weights' fast-build hook: every parameter is
        # overwritten (or mmap-adopted) right after construction, so it
        # substitutes a generator that returns zero buffers instead of
        # paying for real random numbers
        rng = init_rng if init_rng is not None else np.random.default_rng(self.config.seed)

        decoder_dim = self.config.decoder_embedding_dim
        if decoder_pretrained is not None:
            decoder_dim = decoder_pretrained.shape[1]
            if decoder_pretrained.shape[0] != len(output_vocabulary):
                raise ModelConfigError(
                    "pretrained decoder embeddings do not cover the output vocabulary"
                )
        encoder_dim = self.config.encoder_embedding_dim
        if self.config.share_weights:
            # sharing the recurrent weights requires identical input widths
            encoder_dim = decoder_dim

        self.encoder_embedding = Embedding(
            len(input_vocabulary), encoder_dim, rng, name="encoder_embedding", dtype=self.dtype
        )
        self.decoder_embedding = Embedding(
            len(output_vocabulary),
            decoder_dim,
            rng,
            pretrained=decoder_pretrained,
            name="decoder_embedding",
            dtype=self.dtype,
        )
        self.encoder = LSTM(encoder_dim, self.config.hidden_dim, rng, name="encoder", dtype=self.dtype)
        if self.config.share_weights:
            self.decoder = self.encoder
        else:
            self.decoder = LSTM(decoder_dim, self.config.hidden_dim, rng, name="decoder", dtype=self.dtype)
        self.attention = AdditiveAttention(
            self.config.hidden_dim, self.config.hidden_dim, self.config.attention_dim, rng,
            dtype=self.dtype,
        )
        self.output_layer = Dense(
            2 * self.config.hidden_dim, len(output_vocabulary), rng, name="output", dtype=self.dtype
        )
        # the optimizer is built lazily on first access (see the property
        # below): pure inference processes — the mmap warm-boot path in
        # particular — never pay for Adam's moment buffers (3x the weight
        # bytes) or the flat-space parameter copy
        self._optimizer: SGD | Adam | None = None

    @property
    def optimizer(self) -> SGD | Adam:
        if self._optimizer is None:
            self._optimizer = self._build_optimizer()
        return self._optimizer

    @optimizer.setter
    def optimizer(self, value: SGD | Adam) -> None:
        self._optimizer = value

    def _build_optimizer(self) -> SGD | Adam:
        # copy-on-train: mmap-adopted (read-only) weights become private
        # writable arrays the moment training state is requested
        for parameter in self.parameters():
            parameter.materialize()
        if self.config.optimizer == "adam":
            return Adam(self.parameters(), learning_rate=max(self.config.learning_rate, 0.002))
        return SGD(self.parameters(), learning_rate=self.config.learning_rate)

    # ------------------------------------------------------------------
    # building from weights / precision
    # ------------------------------------------------------------------

    @classmethod
    def from_weights(
        cls,
        input_vocabulary: Vocabulary,
        output_vocabulary: Vocabulary,
        config: Seq2SeqConfig,
        weights: dict[str, np.ndarray],
    ) -> "QEP2Seq":
        """Build a model of ``config`` whose parameters are ``weights``.

        The one build-and-fill step behind :meth:`astype` and checkpoint
        loading.  Every array is cast to ``config.dtype``; a read-only
        array already in that dtype (an mmap view of a checkpoint file) is
        adopted without a copy so its pages stay shared.  Raises
        :class:`~repro.errors.ModelConfigError` when the names or shapes
        of ``weights`` do not match the model ``config`` describes.
        """
        decoder_table = weights.get("decoder_embedding.table")
        if decoder_table is None:
            raise ModelConfigError("the weights have no decoder embedding table")
        dtype = np.dtype(config.dtype)
        # a (dummy) table of the saved width passed as "pretrained" makes the
        # constructor adopt its shape, so models trained with pre-trained
        # embeddings (whose width differs from config.decoder_embedding_dim)
        # rebuild correctly; every initial value is overwritten below, which
        # is why construction skips real rng draws (_FastInitGenerator)
        model = cls(
            input_vocabulary,
            output_vocabulary,
            config=config,
            decoder_pretrained=np.empty(decoder_table.shape, dtype=dtype),
            init_rng=_FastInitGenerator(),
        )
        expected = {parameter.name: parameter for parameter in model.parameters()}
        if set(expected) != set(weights):
            missing = sorted(set(expected) - set(weights))
            unexpected = sorted(set(weights) - set(expected))
            raise ModelConfigError(
                "the weights do not match the model "
                f"(missing: {missing or 'none'}, unexpected: {unexpected or 'none'})"
            )
        for name, parameter in expected.items():
            value = weights[name]
            if value.shape != parameter.value.shape:
                raise ModelConfigError(
                    f"weight {name!r} has shape {value.shape}, the model expects "
                    f"{parameter.value.shape}"
                )
            if not value.flags.writeable and value.dtype == dtype:
                parameter.adopt(value)
            else:
                parameter.value[...] = value
        return model

    def astype(self, dtype: str) -> "QEP2Seq":
        """A new model with every parameter cast to ``dtype``.

        Same vocabularies, same config apart from ``dtype``; this model is
        left untouched.  ``astype("float32")`` is the fast inference model:
        cold decodes run on sgemm at half the weight bytes, and it saves
        and loads as an ordinary float32 checkpoint.
        """
        return QEP2Seq.from_weights(
            self.input_vocabulary,
            self.output_vocabulary,
            replace(self.config, dtype=dtype),
            {parameter.name: parameter.value for parameter in self.parameters()},
        )

    @property
    def precision(self) -> str:
        """The model dtype (``"float64"``/``"float32"``) — the decode-cache
        key component that keeps entries from crossing precision boundaries."""
        return self.config.dtype

    def weights_memory_info(self) -> dict:
        """Parameter count, resident weight bytes, and whether every
        parameter is an mmap-shared view (the /metrics payload)."""
        parameters = self.parameters()
        return {
            "parameter_count": int(sum(p.size for p in parameters)),
            "bytes": int(sum(p.value.nbytes for p in parameters)),
            "mmap_backed": bool(parameters) and all(p.mmap_backed for p in parameters),
        }

    # ------------------------------------------------------------------
    # parameters and statistics
    # ------------------------------------------------------------------

    def parameters(self) -> list[Parameter]:
        parameters: list[Parameter] = []
        parameters.extend(self.encoder_embedding.parameters())
        parameters.extend(self.decoder_embedding.parameters())
        parameters.extend(self.encoder.parameters())
        if self.decoder is not self.encoder:
            parameters.extend(self.decoder.parameters())
        parameters.extend(self.attention.parameters())
        parameters.extend(self.output_layer.parameters())
        return parameters

    def parameter_count(self) -> int:
        """Total number of trainable parameters."""
        return sum(parameter.size for parameter in self.parameters())

    def recurrent_connection_counts(self) -> tuple[int, int]:
        """(encoder, decoder) recurrent connection counts — the Table 3 quantity."""
        encoder_count = self.encoder.recurrent_connection_count
        decoder_count = self.decoder.recurrent_connection_count
        return encoder_count, decoder_count

    # ------------------------------------------------------------------
    # batching
    # ------------------------------------------------------------------

    def encode_pair(self, source_tokens: list[str], target_tokens: list[str]) -> tuple[list[int], list[int]]:
        """Vocabulary-encode one (source, target) pair for :meth:`make_batch_encoded`.

        The Trainer encodes every sample once up front and reuses the id
        rows across epochs, instead of redoing the vocabulary lookups for
        every chunk of every epoch.
        """
        return (
            self.input_vocabulary.encode(source_tokens),
            self.output_vocabulary.encode(target_tokens, add_end=True),
        )

    def make_batch(self, sources: list[list[str]], targets: list[list[str]]) -> Batch:
        """Pad and encode token sequences into one training batch."""
        return self.make_batch_encoded(
            [self.encode_pair(source, target) for source, target in zip(sources, targets)]
        )

    def make_batch_encoded(self, pairs: list[tuple[list[int], list[int]]]) -> Batch:
        """Pad pre-encoded (encoder ids, target ids) pairs into one batch."""
        encoder_ids = [pair[0] for pair in pairs]
        target_ids = [pair[1] for pair in pairs]
        input_ids = [
            [self.output_vocabulary.bos_id] + ids[:-1] for ids in target_ids
        ]
        encoder_matrix, encoder_mask = _pad_and_mask(
            encoder_ids, self.input_vocabulary.pad_id, dtype=self.dtype
        )
        decoder_targets, decoder_mask = _pad_and_mask(
            target_ids, self.output_vocabulary.pad_id, dtype=self.dtype
        )
        # input rows mirror target rows one-for-one in length, so they pad to
        # the same width and share the targets' mask
        decoder_inputs, _ = _pad_and_mask(input_ids, self.output_vocabulary.pad_id, dtype=self.dtype)
        return Batch(encoder_matrix, encoder_mask, decoder_inputs, decoder_targets, decoder_mask)

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------

    def _forward(self, batch: Batch):
        """Teacher-forced forward: turbo (fused) by default, else reference."""
        if self.config.turbo:
            return self._forward_turbo(batch)
        return self._forward_reference(batch)

    def _backward(self, batch: Batch, cache, grad_logits: np.ndarray) -> None:
        if isinstance(cache, _TurboForwardCache):
            self._backward_turbo(batch, cache, grad_logits)
        else:
            self._backward_reference(batch, cache, grad_logits)

    def _forward_turbo(self, batch: Batch) -> _TurboForwardCache:
        """The fused teacher-forced forward pass (TRAIN-TURBO).

        The decoder recurrence never consumes the attention context under
        teacher forcing, so the whole decoder LSTM runs first (with its
        input-side gate matmul hoisted, like the encoder's), then attention
        for *all* decoder timesteps runs as one fused call.  Produces the
        same concatenated states and logits as :meth:`_forward_reference`
        to allclose(rtol=1e-9).
        """
        encoder_embedded = self.encoder_embedding.forward(batch.encoder_ids)
        encoder_outputs, final_h, final_c, encoder_cache = self.encoder.forward_fused(
            encoder_embedded, mask=batch.encoder_mask
        )
        decoder_embedded = self.decoder_embedding.forward(batch.decoder_inputs)
        decoder_outputs, _, _, decoder_cache = self.decoder.forward_fused(
            decoder_embedded, h0=final_h, c0=final_c
        )
        contexts, _, attention_cache = self.attention.forward_fused(
            decoder_outputs, encoder_outputs, mask=batch.encoder_mask
        )
        concatenated = np.concatenate([decoder_outputs, contexts], axis=2)
        return _TurboForwardCache(
            encoder_cache=encoder_cache,
            decoder_cache=decoder_cache,
            attention_cache=attention_cache,
            concatenated=concatenated,
            logits=self.output_layer.forward(concatenated),
        )

    def _backward_turbo(
        self, batch: Batch, cache: _TurboForwardCache, grad_logits: np.ndarray
    ) -> None:
        """Backward for the fused path: three sequence-level backward calls
        (output layer → fused attention → fused decoder → fused encoder)
        instead of two per-timestep loops."""
        hidden = self.config.hidden_dim
        grad_concat = self.output_layer.backward(cache.concatenated, grad_logits)
        grad_contexts = grad_concat[:, :, hidden:]
        grad_h_attention, grad_encoder_outputs = self.attention.backward_fused(
            cache.attention_cache, grad_contexts
        )
        grad_decoder_inputs, grad_h0, grad_c0 = self.decoder.backward_fused(
            cache.decoder_cache, grad_concat[:, :, :hidden] + grad_h_attention
        )
        self.decoder_embedding.backward(batch.decoder_inputs, grad_decoder_inputs)
        grad_encoder_inputs, _, _ = self.encoder.backward_fused(
            cache.encoder_cache,
            grad_encoder_outputs,
            grad_h_final=grad_h0,
            grad_c_final=grad_c0,
        )
        self.encoder_embedding.backward(batch.encoder_ids, grad_encoder_inputs)

    def _forward_reference(self, batch: Batch) -> _ForwardCache:
        """The kept step-wise forward pass (one decoder step + one attention
        call per timestep) — the parity ground truth for the turbo path."""
        cache = _ForwardCache(
            encoder_embedded=self.encoder_embedding.forward(batch.encoder_ids),
            encoder_outputs=np.empty(0),
        )
        encoder_outputs, final_h, final_c, encoder_caches = self.encoder.forward(
            cache.encoder_embedded, mask=batch.encoder_mask
        )
        cache.encoder_outputs = encoder_outputs
        cache.encoder_caches = encoder_caches

        batch_size, target_length = batch.decoder_inputs.shape
        hidden = self.config.hidden_dim
        concatenated = np.zeros((batch_size, target_length, 2 * hidden), dtype=self.dtype)
        h, c = final_h, final_c
        decoder_embedded = self.decoder_embedding.forward(batch.decoder_inputs)
        for t in range(target_length):
            h, c, step_cache = self.decoder.step(decoder_embedded[:, t, :], h, c)
            context, _, attention_cache = self.attention.forward(
                h, encoder_outputs, mask=batch.encoder_mask
            )
            concatenated[:, t, :hidden] = h
            concatenated[:, t, hidden:] = context
            cache.decoder_caches.append(step_cache)
            cache.attention_caches.append(attention_cache)
        cache.concatenated = concatenated
        cache.logits = self.output_layer.forward(concatenated)
        return cache

    def evaluate_batch(self, batch: Batch) -> tuple[float, float]:
        """Loss and sparse-categorical accuracy on one batch (no gradient update)."""
        cache = self._forward(batch)
        loss, _ = cross_entropy_from_logits(cache.logits, batch.decoder_targets, batch.decoder_mask)
        accuracy = _masked_accuracy(cache.logits, batch.decoder_targets, batch.decoder_mask)
        return loss, accuracy

    def train_batch(self, batch: Batch) -> tuple[float, float]:
        """One teacher-forced SGD update; returns (loss, accuracy)."""
        cache = self._forward(batch)
        loss, grad_logits = cross_entropy_from_logits(
            cache.logits, batch.decoder_targets, batch.decoder_mask
        )
        accuracy = _masked_accuracy(cache.logits, batch.decoder_targets, batch.decoder_mask)
        self.optimizer.zero_grad()
        self._backward(batch, cache, grad_logits)
        self.optimizer.step()
        return loss, accuracy

    def _backward_reference(
        self, batch: Batch, cache: _ForwardCache, grad_logits: np.ndarray
    ) -> None:
        hidden = self.config.hidden_dim
        batch_size, target_length = batch.decoder_inputs.shape
        grad_concat = self.output_layer.backward(cache.concatenated, grad_logits)
        grad_encoder_outputs = np.zeros_like(cache.encoder_outputs)
        grad_h_carry = np.zeros((batch_size, hidden), dtype=self.dtype)
        grad_c_carry = np.zeros((batch_size, hidden), dtype=self.dtype)
        decoder_input_grads = np.zeros(
            (batch_size, target_length, self.decoder_embedding.dimension), dtype=self.dtype
        )
        for t in reversed(range(target_length)):
            grad_h_step = grad_concat[:, t, :hidden]
            grad_context = grad_concat[:, t, hidden:]
            grad_h_attention, grad_encoder_step = self.attention.backward(
                cache.attention_caches[t], grad_context
            )
            grad_encoder_outputs += grad_encoder_step
            grad_h_total = grad_h_step + grad_h_attention + grad_h_carry
            grad_x, grad_h_carry, grad_c_carry = self.decoder.backward_step(
                cache.decoder_caches[t], grad_h_total, grad_c_carry
            )
            decoder_input_grads[:, t, :] = grad_x
        self.decoder_embedding.backward(batch.decoder_inputs, decoder_input_grads)
        grad_encoder_inputs, _, _ = self.encoder.backward(
            cache.encoder_caches,
            grad_encoder_outputs,
            grad_h_final=grad_h_carry,
            grad_c_final=grad_c_carry,
        )
        self.encoder_embedding.backward(batch.encoder_ids, grad_encoder_inputs)

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------

    def _encode_ids(self, source_tokens: list[str]) -> list[int]:
        """Vocabulary-encode one act signature for inference.

        An empty act (which degenerate plan steps can legitimately yield)
        encodes to a single ``<UNK>`` so the encoder always sees at least
        one timestep instead of a zero-width sequence; whitespace-only
        tokens already fall back to ``<UNK>`` inside the vocabulary.
        """
        ids = self.input_vocabulary.encode(source_tokens)
        return ids or [self.input_vocabulary.unk_id]

    def _encode_single(self, source_tokens: list[str]):
        ids = np.array([self._encode_ids(source_tokens)], dtype=np.int64)
        mask = np.ones((1, ids.shape[1]), dtype=self.dtype)
        embedded = self.encoder_embedding.lookup(ids)
        outputs, final_h, final_c = self.encoder.forward_infer(embedded, mask=mask)
        return outputs, mask, final_h, final_c

    def _encode_batch(self, sources: list[list[str]]):
        """Pad and encode many acts in one encoder forward.

        Returns (encoder outputs (N, T, H), precomputed attention projection
        (N, T, A), mask (N, T), final h (N, H), final c (N, H)).  Post-padding
        plus the LSTM step mask means the final states are identical to those
        of each act encoded alone.
        """
        ids_list = [self._encode_ids(tokens) for tokens in sources]
        ids, mask = _pad_and_mask(ids_list, self.input_vocabulary.pad_id, dtype=self.dtype)
        embedded = self.encoder_embedding.lookup(ids)
        outputs, final_h, final_c = self.encoder.forward_infer(embedded, mask=mask)
        return outputs, self.attention.project_encoder(outputs), mask, final_h, final_c

    def greedy_decode(self, source_tokens: list[str]) -> list[str]:
        """Greedy (beam size 1) decoding, mostly used in tests."""
        return self.beam_decode(source_tokens, beam_size=1)

    def beam_decode(self, source_tokens: list[str], beam_size: Optional[int] = None) -> list[str]:
        """Beam-search decoding of one act into its description tokens."""
        return self.beam_decode_candidates(source_tokens, beam_size=beam_size)[0]

    def beam_decode_candidates(
        self, source_tokens: list[str], beam_size: Optional[int] = None
    ) -> list[list[str]]:
        """All surviving beam hypotheses, best first.

        NEURAL-LANTERN cycles through these alternatives when the same act
        recurs, which is how wording variability reaches the learner.  All K
        live beams advance through one fused decoder/attention/projection
        step per timestep (see :meth:`beam_decode_batch`).
        """
        return self.beam_decode_batch([source_tokens], beam_size=beam_size)[0]

    def beam_decode_batch(
        self, sources: list[list[str]], beam_size: Optional[int] = None
    ) -> list[list[list[str]]]:
        """Decode many acts at once; returns one ranked candidate list per act.

        All acts are padded and encoded in a single encoder forward, then
        every live beam of every act advances as one row of a fused (M, H)
        decoder step — M shrinks as beams finish and acts complete.  Output
        is token-for-token identical to calling
        :meth:`beam_decode_candidates_sequential` per act.
        """
        if not sources:
            return []
        beam_size = beam_size or self.config.beam_size
        encoder_outputs, projected_encoder, mask, h0, c0 = self._encode_batch(sources)
        end_id = self.output_vocabulary.end_id
        bos_id = self.output_vocabulary.bos_id
        count = len(sources)
        # per act: (normalized score, score, token ids, h row, c row,
        # finished).  The leading element carries score / max(len - 1, 1)
        # precomputed, so beam ranking sorts on a C-level itemgetter rather
        # than re-deriving the key through a Python lambda for every
        # candidate on every timestep; the value is the exact float the
        # sequential reference decoder's sort key computes, so ordering
        # (ties included — both sorts are stable) is unchanged
        beams_per_act: list[list[tuple[float, float, list[int], np.ndarray, np.ndarray, bool]]] = [
            [(0.0, 0.0, [bos_id], h0[n], c0[n], False)] for n in range(count)
        ]
        by_normalized_score = itemgetter(0)
        # encoder-side gathers are reused while the set of live rows is
        # stable (it only changes when beams fork or finish), so the fancy
        # indexing below is not repeated on every timestep
        gathered_key: Optional[tuple[int, ...]] = None
        gathered_outputs = gathered_projected = gathered_mask = None
        for _ in range(self.config.max_decode_length):
            rows = [
                (n, b)
                for n in range(count)
                for b, beam in enumerate(beams_per_act[n])
                if not beam[5]
            ]
            if not rows:
                break
            last_ids = np.array(
                [beams_per_act[n][b][2][-1] for n, b in rows], dtype=np.int64
            )
            h_prev = np.stack([beams_per_act[n][b][3] for n, b in rows])
            c_prev = np.stack([beams_per_act[n][b][4] for n, b in rows])
            act_ids = tuple(n for n, _ in rows)
            if act_ids != gathered_key:
                indices = np.array(act_ids)
                gathered_outputs = encoder_outputs[indices]
                gathered_projected = projected_encoder[indices]
                gathered_mask = mask[indices]
                gathered_key = act_ids
            embedded = self.decoder_embedding.lookup(last_ids)
            new_h, new_c = self.decoder.step_infer(embedded, h_prev, c_prev)
            context = self.attention.step_context(
                new_h,
                gathered_outputs,
                gathered_projected,
                mask=gathered_mask,
            )
            # sentry: off[hot-path] — one fused [h|context] concat per decode step, amortized over all live beams
            logits = self.output_layer.forward(np.concatenate([new_h, context], axis=1))
            maxima = logits.max(axis=1, keepdims=True)
            log_probabilities = logits - (
                maxima + np.log(np.exp(logits - maxima).sum(axis=1, keepdims=True))
            )
            # top-k for ALL live rows in one vectorized call (row-for-row the
            # same argpartition/argsort selection as _top_k_ascending), then
            # one bulk tolist() — the per-row numpy calls and scalar float()
            # extractions this replaces dominated decode time for small models
            top_ids, top_scores = _top_k_ascending_rows(log_probabilities, beam_size)
            row_index = {pair: m for m, pair in enumerate(rows)}
            for n in sorted({n for n, _ in rows}):
                candidates: list[
                    tuple[float, float, list[int], np.ndarray, np.ndarray, bool]
                ] = []
                for b, beam in enumerate(beams_per_act[n]):
                    _, score, tokens, beam_h, beam_c, finished = beam
                    if finished:
                        candidates.append(beam)
                        continue
                    m = row_index[(n, b)]
                    for token_id, token_score in zip(top_ids[m], top_scores[m]):
                        new_score = score + token_score
                        new_tokens = tokens + [token_id]
                        candidates.append(
                            (
                                new_score / max(len(new_tokens) - 1, 1),
                                new_score,
                                new_tokens,
                                new_h[m],
                                new_c[m],
                                token_id == end_id,
                            )
                        )
                candidates.sort(key=by_normalized_score, reverse=True)
                beams_per_act[n] = candidates[:beam_size]
        results: list[list[list[str]]] = []
        for beams in beams_per_act:
            ranked = sorted(beams, key=by_normalized_score, reverse=True)
            decoded = [self.output_vocabulary.decode(tokens) for _, _, tokens, _, _, _ in ranked]
            results.append([tokens for tokens in decoded if tokens] or [decoded[0] if decoded else []])
        return results

    def beam_decode_candidates_sequential(
        self, source_tokens: list[str], beam_size: Optional[int] = None
    ) -> list[list[str]]:
        """The unbatched reference decoder (one batch-1 step per beam per t).

        Kept as the ground truth for the batching parity tests and for
        benchmark comparisons; produces exactly the same ranked candidates as
        :meth:`beam_decode_candidates`.
        """
        beam_size = beam_size or self.config.beam_size
        encoder_outputs, mask, h, c = self._encode_single(source_tokens)
        projected_encoder = self.attention.project_encoder(encoder_outputs)
        end_id = self.output_vocabulary.end_id
        beams: list[tuple[float, list[int], np.ndarray, np.ndarray, bool]] = [
            (0.0, [self.output_vocabulary.bos_id], h, c, False)
        ]
        for _ in range(self.config.max_decode_length):
            candidates: list[tuple[float, list[int], np.ndarray, np.ndarray, bool]] = []
            for score, tokens, beam_h, beam_c, finished in beams:
                if finished:
                    candidates.append((score, tokens, beam_h, beam_c, True))
                    continue
                embedded = self.decoder_embedding.lookup(np.array([tokens[-1]]))
                new_h, new_c = self.decoder.step_infer(embedded, beam_h, beam_c)
                context = self.attention.step_context(
                    new_h, encoder_outputs, projected_encoder, mask=mask
                )
                logits = self.output_layer.forward(np.concatenate([new_h, context], axis=1))[0]
                log_probabilities = logits - _log_sum_exp(logits)
                top = np.argsort(log_probabilities)[-beam_size:]
                for token_id in top:
                    candidates.append(
                        (
                            score + float(log_probabilities[token_id]),
                            tokens + [int(token_id)],
                            new_h,
                            new_c,
                            int(token_id) == end_id,
                        )
                    )
            candidates.sort(key=lambda item: item[0] / max(len(item[1]) - 1, 1), reverse=True)
            beams = candidates[:beam_size]
            if all(finished for _, _, _, _, finished in beams):
                break
        ranked = sorted(beams, key=lambda item: item[0] / max(len(item[1]) - 1, 1), reverse=True)
        decoded = [self.output_vocabulary.decode(tokens) for _, tokens, _, _, _ in ranked]
        return [tokens for tokens in decoded if tokens] or [decoded[0] if decoded else []]


def _pad_and_mask(
    rows: list[list[int]], pad_id: int, dtype: np.dtype | type = np.float64
) -> tuple[np.ndarray, np.ndarray]:
    """Pad id rows to the longest row; returns (ids (B, T), mask (B, T)).

    The single padding/mask implementation shared by training batches
    (:meth:`QEP2Seq.make_batch`) and batched inference encoding
    (:meth:`QEP2Seq._encode_batch`), so the two can never drift apart.
    The mask is created in the model's dtype so float32 models never
    upcast through mask arithmetic.
    """
    length = max(len(row) for row in rows)
    ids = np.full((len(rows), length), pad_id, dtype=np.int64)
    mask = np.zeros((len(rows), length), dtype=dtype)
    for index, row in enumerate(rows):
        ids[index, : len(row)] = row
        mask[index, : len(row)] = 1.0
    return ids, mask


def _masked_accuracy(logits: np.ndarray, targets: np.ndarray, mask: np.ndarray) -> float:
    """sparse_categorical_accuracy over unmasked positions."""
    predictions = logits.argmax(axis=-1)
    correct = (predictions == targets).astype(np.float64) * mask
    total = max(mask.sum(), 1.0)
    return float(correct.sum() / total)


def _log_sum_exp(x: np.ndarray) -> float:
    maximum = float(np.max(x))
    return maximum + float(np.log(np.sum(np.exp(x - maximum))))


def _top_k_ascending(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest values, in ascending value order.

    Equivalent to ``np.argsort(values)[-k:]`` but O(V) via ``argpartition``
    plus an O(k log k) sort of the selected slice — the beam-search top-k
    only ever needs the k winners ordered, never the full vocabulary.
    """
    if k >= values.size:
        return np.argsort(values)
    top = np.argpartition(values, -k)[-k:]
    return top[np.argsort(values[top])]


def _top_k_ascending_rows(
    values: np.ndarray, k: int
) -> tuple[list[list[int]], list[list[float]]]:
    """Per-row top-k of a (M, V) matrix, each row ascending by value.

    Row for row identical to :func:`_top_k_ascending` (argpartition and
    argsort operate on each row independently, so selection and tie
    behaviour match the per-row calls exactly), but all M rows go through
    one vectorized call, and indices/values come back as plain Python
    lists in one bulk conversion — the batched beam search consumes them
    element-wise in Python anyway.
    """
    if k >= values.shape[1]:
        top = np.argsort(values, axis=1)
    else:
        part = np.argpartition(values, -k, axis=1)[:, -k:]
        order = np.argsort(np.take_along_axis(values, part, axis=1), axis=1)
        top = np.take_along_axis(part, order, axis=1)
    return top.tolist(), np.take_along_axis(values, top, axis=1).tolist()
