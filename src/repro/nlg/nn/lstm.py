"""An LSTM layer with full backpropagation through time.

The gate equations follow the paper (Equations 2–6): input, forget and output
gates plus a candidate cell state, combined as

    c_t = i_t * tanh(U_c h_{t-1} + V_c x_t) + f_t * c_{t-1}
    h_t = o_t * tanh(c_t)

Gates are computed as one fused affine transform for speed.  ``forward``
processes a padded batch (with a mask); ``step`` processes a single time step
and is used by the decoder at inference time.

Two training-time implementations coexist, the same reference/fast pairing
the batched beam-search decoder uses:

* :meth:`LSTM.forward` / :meth:`LSTM.backward` — the kept step-wise
  reference path (one ``step`` / ``backward_step`` per timestep, an
  :class:`LSTMStepCache` object per step);
* :meth:`LSTM.forward_fused` / :meth:`LSTM.backward_fused` — the turbo
  path: the input-side gate matmul ``x_t @ weight_x`` does not depend on
  ``h_{t-1}``, so it is hoisted out of the recurrence as one
  ``(B·T, D) @ (D, 4H)`` matmul; only ``h_prev @ weight_h`` stays per step.
  Forward values land in a preallocated structure-of-arrays
  :class:`LSTMSequenceCache` (no per-step ``np.concatenate``), and the
  backward pass accumulates ``d_pre`` into one ``(B, T, 4H)`` buffer so the
  ``weight_x`` / ``weight_h`` / input-gradient contractions become three
  batched matmuls after the reverse loop instead of three per step.

The fused path is the training default; parity with the reference path is
asserted to ``allclose(rtol=1e-9)`` on values and every parameter gradient
(``tests/test_nlg_train_turbo.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.nlg.nn.functional import sigmoid, tanh
from repro.nlg.nn.layers import Parameter


@dataclass
class LSTMStepCache:
    """Values saved during one forward step and reused by the backward pass."""

    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    gates: np.ndarray  # (B, 4H) post-activation: [i, f, o, g]
    c: np.ndarray
    h: np.ndarray
    mask: Optional[np.ndarray] = None


@dataclass
class LSTMSequenceCache:
    """Structure-of-arrays forward cache for one fused sequence.

    Replaces the per-step :class:`LSTMStepCache` list of the reference path:
    gates and states live in tensors preallocated once per sequence, written
    by slice on forward and read back as views on backward — no per-step
    ``np.concatenate`` (or any other) allocations inside the recurrence.

    ``h_all`` / ``c_all`` hold ``T + 1`` slots: index ``t`` is the state
    *entering* step ``t`` (``h_all[:, 0]`` is ``h0``), index ``t + 1`` the
    state that step produced (post-mask).
    """

    inputs: np.ndarray  # (B, T, D)
    gates: np.ndarray  # (B, T, 4H) post-activation: [i, f, o, g]
    h_all: np.ndarray  # (B, T+1, H)
    c_all: np.ndarray  # (B, T+1, H)
    mask: Optional[np.ndarray] = None  # (B, T)


class LSTM:
    """A single-layer LSTM operating on batches of padded sequences."""

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
        name: str = "lstm",
        dtype: np.dtype | type = np.float64,
    ) -> None:
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.weight_x = Parameter.uniform(
            (input_dim, 4 * hidden_dim), rng, name=f"{name}.weight_x", dtype=dtype
        )
        self.weight_h = Parameter.uniform(
            (hidden_dim, 4 * hidden_dim), rng, name=f"{name}.weight_h", dtype=dtype
        )
        self.bias = Parameter(np.zeros(4 * hidden_dim), name=f"{name}.bias", dtype=dtype)

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------

    def _gates(
        self,
        x: np.ndarray,
        h_prev: np.ndarray,
        c_prev: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The shared gate equations: returns (h, c, i, f, o, g).

        Both :meth:`step` (training, with cache) and :meth:`step_infer`
        (decoding, cache-free) go through this single implementation, so the
        two paths can never diverge numerically.
        """
        hidden = self.hidden_dim
        pre = x @ self.weight_x.value + h_prev @ self.weight_h.value + self.bias.value
        # i, f and o share one sigmoid over the leading 3H lanes (one ufunc
        # launch instead of three); elementwise, so the slices are identical
        # to three separate calls
        activated = sigmoid(pre[:, : 3 * hidden])
        i = activated[:, :hidden]
        f = activated[:, hidden : 2 * hidden]
        o = activated[:, 2 * hidden :]
        g = tanh(pre[:, 3 * hidden :])
        c = i * g + f * c_prev
        h = o * np.tanh(c)
        return h, c, i, f, o, g

    def step(
        self,
        x: np.ndarray,
        h_prev: np.ndarray,
        c_prev: np.ndarray,
        mask: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray, LSTMStepCache]:
        """One time step for a batch: returns (h, c, cache)."""
        h, c, i, f, o, g = self._gates(x, h_prev, c_prev)
        if mask is not None:
            keep = mask[:, None]
            h = keep * h + (1.0 - keep) * h_prev
            c = keep * c + (1.0 - keep) * c_prev
        cache = LSTMStepCache(
            x=x, h_prev=h_prev, c_prev=c_prev,
            gates=np.concatenate([i, f, o, g], axis=1), c=c, h=h, mask=mask,
        )
        return h, c, cache

    def step_infer(
        self,
        x: np.ndarray,
        h_prev: np.ndarray,
        c_prev: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One inference-only time step: (h, c) without a backward cache.

        The same :meth:`_gates` math as :meth:`step` but no
        :class:`LSTMStepCache` allocation — this is what the batched
        beam-search decoder calls once per timestep for all live beams at
        once (a ``(K, H)`` state matrix instead of K batch-1 calls).
        """
        h, c, _, _, _, _ = self._gates(x, h_prev, c_prev)
        return h, c

    def forward_infer(
        self,
        inputs: np.ndarray,
        mask: Optional[np.ndarray] = None,
        h0: Optional[np.ndarray] = None,
        c0: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run the full sequence inference-only: no backward caches.

        Same per-step math and mask arithmetic as :meth:`forward` (so the
        two are bit-identical) but without building :class:`LSTMStepCache`
        objects — the encoder's decode-time path.
        """
        batch, steps, _ = inputs.shape
        dtype = self.weight_x.value.dtype
        h = np.zeros((batch, self.hidden_dim), dtype=dtype) if h0 is None else h0.copy()
        c = np.zeros((batch, self.hidden_dim), dtype=dtype) if c0 is None else c0.copy()
        outputs = np.zeros((batch, steps, self.hidden_dim), dtype=dtype)
        for t in range(steps):
            h_new, c_new, _, _, _, _ = self._gates(inputs[:, t, :], h, c)
            if mask is not None:
                keep = mask[:, t][:, None]
                h = keep * h_new + (1.0 - keep) * h
                c = keep * c_new + (1.0 - keep) * c
            else:
                h, c = h_new, c_new
            outputs[:, t, :] = h
        return outputs, h, c

    def forward(
        self,
        inputs: np.ndarray,
        mask: Optional[np.ndarray] = None,
        h0: Optional[np.ndarray] = None,
        c0: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[LSTMStepCache]]:
        """Run the full sequence.

        ``inputs`` has shape (B, T, D); ``mask`` (B, T) with 1 for real tokens.
        Returns hidden states (B, T, H), final h, final c, and per-step caches.
        """
        batch, steps, _ = inputs.shape
        dtype = self.weight_x.value.dtype
        h = np.zeros((batch, self.hidden_dim), dtype=dtype) if h0 is None else h0.copy()
        c = np.zeros((batch, self.hidden_dim), dtype=dtype) if c0 is None else c0.copy()
        outputs = np.zeros((batch, steps, self.hidden_dim), dtype=dtype)
        caches: list[LSTMStepCache] = []
        for t in range(steps):
            step_mask = mask[:, t] if mask is not None else None
            h, c, cache = self.step(inputs[:, t, :], h, c, mask=step_mask)
            outputs[:, t, :] = h
            caches.append(cache)
        return outputs, h, c, caches

    def forward_fused(
        self,
        inputs: np.ndarray,
        mask: Optional[np.ndarray] = None,
        h0: Optional[np.ndarray] = None,
        c0: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, LSTMSequenceCache]:
        """Run the full sequence with the input-side gate matmul hoisted.

        Same signature semantics as :meth:`forward` but returns an
        :class:`LSTMSequenceCache` instead of a per-step cache list.
        ``x_t @ weight_x`` is independent of ``h_{t-1}``, so it is computed
        for all timesteps in one ``(B·T, D) @ (D, 4H)`` matmul before the
        sequential loop; only ``h_prev @ weight_h`` remains per step.  The
        per-step math (including the bias addition order and the mask
        pass-through) mirrors :meth:`_gates` exactly.
        """
        batch, steps, _ = inputs.shape
        hidden = self.hidden_dim
        dtype = self.weight_x.value.dtype
        h = np.zeros((batch, hidden), dtype=dtype) if h0 is None else h0
        c = np.zeros((batch, hidden), dtype=dtype) if c0 is None else c0
        pre_x = (
            inputs.reshape(batch * steps, self.input_dim) @ self.weight_x.value
        ).reshape(batch, steps, 4 * hidden)
        pre_x += self.bias.value  # folded into the hoisted matmul output once
        gates = np.empty((batch, steps, 4 * hidden), dtype=dtype)
        h_all = np.empty((batch, steps + 1, hidden), dtype=dtype)
        c_all = np.empty((batch, steps + 1, hidden), dtype=dtype)
        h_all[:, 0] = h
        c_all[:, 0] = c
        weight_h = self.weight_h.value
        # an all-ones mask is a no-op pass-through (keep * x + 0 * prev == x
        # bit for bit), so skip the mask arithmetic entirely — under length
        # bucketing most batches have uniform lengths, making this the
        # common case
        masked = mask is not None and not bool(np.all(mask == 1.0))
        pre = np.empty((batch, 4 * hidden), dtype=dtype)
        scratch = np.empty((batch, hidden), dtype=dtype)
        for t in range(steps):
            # pre = (x_t @ Wx + bias) (hoisted) + h_prev @ Wh, with out=
            # kernels so the recurrence allocates nothing per step
            np.matmul(h, weight_h, out=pre)
            pre += pre_x[:, t]
            gate_t = gates[:, t]
            # i, f and o share one sigmoid over the leading 3H lanes — one
            # ufunc launch per step instead of three, written straight into
            # the SoA gate buffer
            sigmoid(pre[:, : 3 * hidden], out=gate_t[:, : 3 * hidden])
            np.tanh(pre[:, 3 * hidden :], out=gate_t[:, 3 * hidden :])
            i = gate_t[:, :hidden]
            f = gate_t[:, hidden : 2 * hidden]
            o = gate_t[:, 2 * hidden : 3 * hidden]
            g = gate_t[:, 3 * hidden :]
            h_view = h_all[:, t + 1]
            c_view = c_all[:, t + 1]
            np.multiply(i, g, out=c_view)
            np.multiply(f, c, out=scratch)
            c_view += scratch
            np.tanh(c_view, out=scratch)
            np.multiply(o, scratch, out=h_view)
            if masked:
                keep = mask[:, t][:, None]
                h_view[...] = keep * h_view + (1.0 - keep) * h
                c_view[...] = keep * c_view + (1.0 - keep) * c
            h, c = h_view, c_view
        cache = LSTMSequenceCache(inputs=inputs, gates=gates, h_all=h_all, c_all=c_all, mask=mask)
        return h_all[:, 1:], h, c, cache

    # ------------------------------------------------------------------
    # backward
    # ------------------------------------------------------------------

    def backward_fused(
        self,
        cache: LSTMSequenceCache,
        grad_outputs: np.ndarray,
        grad_h_final: Optional[np.ndarray] = None,
        grad_c_final: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backward through a :meth:`forward_fused` sequence.

        Mirrors :meth:`backward` but accumulates the gate pre-activation
        gradients into one preallocated ``(B, T, 4H)`` buffer and performs
        the ``weight_x.grad`` / ``weight_h.grad`` / input-gradient
        contractions as single batched matmuls after the reverse loop,
        instead of three matmuls per step.  Only the recurrent
        ``d_pre_t @ weight_h.T`` remains inside the loop.
        """
        batch, steps, _ = grad_outputs.shape
        hidden = self.hidden_dim
        dtype = self.weight_x.value.dtype
        grad_h = (
            np.zeros((batch, hidden), dtype=dtype)
            if grad_h_final is None
            else grad_h_final.copy()
        )
        grad_c = (
            np.zeros((batch, hidden), dtype=dtype)
            if grad_c_final is None
            else grad_c_final.copy()
        )
        d_pre = np.empty((batch, steps, 4 * hidden), dtype=dtype)
        weight_h_t = np.ascontiguousarray(self.weight_h.value.T)
        masked = cache.mask is not None and not bool(np.all(cache.mask == 1.0))

        # every gradient-independent factor is precomputed across ALL
        # timesteps as a handful of big (B, T, H) kernels, so the sequential
        # reverse loop shrinks to the true recurrence: eight small kernels
        # plus one gemm per step.
        gates = cache.gates
        i_all = gates[:, :, :hidden]
        f_all = gates[:, :, hidden : 2 * hidden]
        o_all = gates[:, :, 2 * hidden : 3 * hidden]
        g_all = gates[:, :, 3 * hidden :]
        tanh_c = np.tanh(cache.c_all[:, 1:])
        # o * (1 - tanh(c)²): the cell-gradient contribution of grad_h
        cell_factor = o_all * (1.0 - tanh_c ** 2)
        # gate derivative factors: d_pre_x = <grad term> * factor_x
        factor_o = tanh_c * o_all * (1.0 - o_all)  # times grad_h
        factor_i = g_all * i_all * (1.0 - i_all)  # times grad_c_total
        factor_f = cache.c_all[:, :-1] * f_all * (1.0 - f_all)  # times grad_c_total
        factor_g = i_all * (1.0 - g_all ** 2)  # times grad_c_total

        grad_c_total = np.empty((batch, hidden), dtype=dtype)
        for t in reversed(range(steps)):
            grad_h += grad_outputs[:, t]  # grad_h is always step-owned here
            if masked:
                keep = cache.mask[:, t][:, None]
                grad_h_prev_passthrough = grad_h * (1.0 - keep)
                grad_c_prev_passthrough = grad_c * (1.0 - keep)
                grad_h = grad_h * keep
                grad_c = grad_c * keep
            d_pre_t = d_pre[:, t]
            np.multiply(grad_h, factor_o[:, t], out=d_pre_t[:, 2 * hidden : 3 * hidden])
            np.multiply(grad_h, cell_factor[:, t], out=grad_c_total)
            grad_c_total += grad_c
            np.multiply(grad_c_total, factor_i[:, t], out=d_pre_t[:, :hidden])
            np.multiply(grad_c_total, factor_f[:, t], out=d_pre_t[:, hidden : 2 * hidden])
            np.multiply(grad_c_total, factor_g[:, t], out=d_pre_t[:, 3 * hidden :])
            grad_h = d_pre_t @ weight_h_t
            grad_c = grad_c_total * f_all[:, t]
            if masked:
                grad_h += grad_h_prev_passthrough
                grad_c += grad_c_prev_passthrough
        flat_d_pre = d_pre.reshape(batch * steps, 4 * hidden)
        self.weight_x.grad += cache.inputs.reshape(batch * steps, self.input_dim).T @ flat_d_pre
        self.weight_h.grad += cache.h_all[:, :-1].reshape(batch * steps, hidden).T @ flat_d_pre
        self.bias.grad += flat_d_pre.sum(axis=0)
        grad_inputs = (flat_d_pre @ self.weight_x.value.T).reshape(batch, steps, self.input_dim)
        return grad_inputs, grad_h, grad_c

    def backward_step(
        self,
        cache: LSTMStepCache,
        grad_h: np.ndarray,
        grad_c: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backward through one step.

        Returns gradients w.r.t. the step input x, the previous hidden state,
        and the previous cell state; parameter gradients are accumulated.
        """
        hidden = self.hidden_dim
        i = cache.gates[:, :hidden]
        f = cache.gates[:, hidden : 2 * hidden]
        o = cache.gates[:, 2 * hidden : 3 * hidden]
        g = cache.gates[:, 3 * hidden :]

        if cache.mask is not None:
            keep = cache.mask[:, None]
            grad_h_prev_passthrough = grad_h * (1.0 - keep)
            grad_c_prev_passthrough = grad_c * (1.0 - keep)
            grad_h = grad_h * keep
            grad_c = grad_c * keep
        else:
            grad_h_prev_passthrough = 0.0
            grad_c_prev_passthrough = 0.0

        tanh_c = np.tanh(cache.c)
        grad_o = grad_h * tanh_c
        grad_c_total = grad_c + grad_h * o * (1.0 - tanh_c ** 2)
        grad_i = grad_c_total * g
        grad_g = grad_c_total * i
        grad_f = grad_c_total * cache.c_prev
        grad_c_prev = grad_c_total * f

        d_pre_i = grad_i * i * (1.0 - i)
        d_pre_f = grad_f * f * (1.0 - f)
        d_pre_o = grad_o * o * (1.0 - o)
        d_pre_g = grad_g * (1.0 - g ** 2)
        d_pre = np.concatenate([d_pre_i, d_pre_f, d_pre_o, d_pre_g], axis=1)

        self.weight_x.grad += cache.x.T @ d_pre
        self.weight_h.grad += cache.h_prev.T @ d_pre
        self.bias.grad += d_pre.sum(axis=0)

        grad_x = d_pre @ self.weight_x.value.T
        grad_h_prev = d_pre @ self.weight_h.value.T + grad_h_prev_passthrough
        grad_c_prev = grad_c_prev + grad_c_prev_passthrough
        return grad_x, grad_h_prev, grad_c_prev

    def backward(
        self,
        caches: list[LSTMStepCache],
        grad_outputs: np.ndarray,
        grad_h_final: Optional[np.ndarray] = None,
        grad_c_final: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backward through the whole sequence.

        ``grad_outputs`` has shape (B, T, H): the gradient flowing into each
        per-step hidden state.  Returns the gradient w.r.t. the inputs
        (B, T, D) and the initial hidden/cell states.
        """
        batch, steps, _ = grad_outputs.shape
        dtype = self.weight_x.value.dtype
        grad_inputs = np.zeros((batch, steps, self.input_dim), dtype=dtype)
        grad_h = (
            np.zeros((batch, self.hidden_dim), dtype=dtype)
            if grad_h_final is None
            else grad_h_final.copy()
        )
        grad_c = (
            np.zeros((batch, self.hidden_dim), dtype=dtype)
            if grad_c_final is None
            else grad_c_final.copy()
        )
        for t in reversed(range(steps)):
            grad_h = grad_h + grad_outputs[:, t, :]
            grad_x, grad_h, grad_c = self.backward_step(caches[t], grad_h, grad_c)
            grad_inputs[:, t, :] = grad_x
        return grad_inputs, grad_h, grad_c

    def parameters(self) -> list[Parameter]:
        return [self.weight_x, self.weight_h, self.bias]

    @property
    def recurrent_connection_count(self) -> int:
        """Number of recurrent weights (the quantity reported in paper Table 3)."""
        return int(self.weight_x.size + self.weight_h.size + self.bias.size)
