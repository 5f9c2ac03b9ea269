"""Parameter container plus dense and embedding layers."""

from __future__ import annotations

import numpy as np

from repro.errors import ModelConfigError

#: the uniform initialization range used throughout the paper's model
INIT_RANGE = 0.1


class Parameter:
    """A trainable array with its accumulated gradient.

    ``dtype`` defaults to float64 (exact parity with the original paper
    math); float32 halves memory/bandwidth and is threaded down from
    ``Seq2SeqConfig.dtype``.  The gradient always shares the value's dtype.

    **mmap adoption** (LANTERN-ZERO) — :meth:`adopt` swaps the value for a
    read-only array mapped straight out of a checkpoint file, so N forked
    serving workers share one physical copy of the weight pages.  The
    gradient buffer is allocated *lazily* (first access), which keeps a
    pure inference process from ever materializing a private grad copy;
    :meth:`materialize` copies the value back into private writable memory
    the moment training needs it (copy-on-train).
    """

    def __init__(
        self, value: np.ndarray, name: str = "", dtype: np.dtype | type = np.float64
    ) -> None:
        self.value = np.asarray(value, dtype=dtype)
        self._grad: np.ndarray | None = None
        self.name = name
        self.mmap_backed = False

    @classmethod
    def uniform(
        cls,
        shape: tuple[int, ...],
        rng: np.random.Generator,
        name: str = "",
        dtype: np.dtype | type = np.float64,
    ) -> "Parameter":
        # the rng draw is always float64, then cast: a float32 model's
        # initialization is the rounded float64 initialization, and the rng
        # stream position is dtype-independent
        return cls(rng.uniform(-INIT_RANGE, INIT_RANGE, size=shape), name=name, dtype=dtype)

    # -- gradient (lazy) ---------------------------------------------------

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros(self.value.shape, dtype=self.value.dtype)
        return self._grad

    @grad.setter
    def grad(self, array: np.ndarray) -> None:
        self._grad = array

    def zero_grad(self) -> None:
        if self._grad is not None:
            self._grad.fill(0.0)

    # -- mmap adoption / copy-on-train ------------------------------------

    def adopt(self, array: np.ndarray, mmap_backed: bool = True) -> None:
        """Adopt ``array`` (typically a read-only mmap view) as the value.

        No copy is made; the (possibly unallocated) gradient is dropped so
        an inference-only process never touches private weight memory.
        """
        if array.shape != self.value.shape:
            raise ModelConfigError(
                f"cannot adopt array of shape {array.shape} into parameter "
                f"{self.name!r} of shape {self.value.shape}"
            )
        self.value = array
        self._grad = None
        self.mmap_backed = mmap_backed

    def materialize(self) -> None:
        """Ensure the value lives in private writable memory (copy-on-train)."""
        if self.mmap_backed or not self.value.flags.writeable:
            self.value = np.array(self.value)
            self.mmap_backed = False

    @property
    def size(self) -> int:
        return int(self.value.size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.value.shape})"


class Dense:
    """A fully connected layer ``y = x W + b``."""

    def __init__(
        self,
        input_dim: int,
        output_dim: int,
        rng: np.random.Generator,
        name: str = "dense",
        dtype: np.dtype | type = np.float64,
    ) -> None:
        self.weight = Parameter.uniform((input_dim, output_dim), rng, name=f"{name}.weight", dtype=dtype)
        self.bias = Parameter(np.zeros(output_dim), name=f"{name}.bias", dtype=dtype)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weight.value + self.bias.value

    def backward(self, x: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
        """Accumulate parameter gradients and return the gradient w.r.t. ``x``."""
        flat_x = x.reshape(-1, x.shape[-1])
        flat_grad = grad_output.reshape(-1, grad_output.shape[-1])
        self.weight.grad += flat_x.T @ flat_grad
        self.bias.grad += flat_grad.sum(axis=0)
        return grad_output @ self.weight.value.T

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]


class Embedding:
    """A token-id to vector lookup table, optionally initialized from pre-trained vectors."""

    def __init__(
        self,
        vocabulary_size: int,
        dimension: int,
        rng: np.random.Generator,
        pretrained: np.ndarray | None = None,
        trainable: bool = True,
        name: str = "embedding",
        dtype: np.dtype | type = np.float64,
    ) -> None:
        if pretrained is not None:
            if pretrained.shape != (vocabulary_size, dimension):
                raise ModelConfigError(
                    f"pretrained matrix has shape {pretrained.shape}, expected "
                    f"{(vocabulary_size, dimension)}"
                )
            initial = np.array(pretrained)
        else:
            initial = rng.uniform(-INIT_RANGE, INIT_RANGE, size=(vocabulary_size, dimension))
        self.table = Parameter(initial, name=f"{name}.table", dtype=dtype)
        self.trainable = trainable
        self.dimension = dimension
        self.vocabulary_size = vocabulary_size

    def forward(self, token_ids: np.ndarray) -> np.ndarray:
        return self.table.value[token_ids]

    def lookup(self, token_ids: np.ndarray) -> np.ndarray:
        """Inference-time row gather for a flat id vector, shape (M,) → (M, D).

        Beam search feeds the last emitted token of every live beam through
        this in one call per timestep (the fused (M, D) decoder input) rather
        than one batch-1 ``forward`` per beam.
        """
        return self.table.value[np.asarray(token_ids, dtype=np.int64)]

    def backward(self, token_ids: np.ndarray, grad_output: np.ndarray) -> None:
        if not self.trainable:
            return
        flat_ids = np.asarray(token_ids).reshape(-1)
        flat_grad = grad_output.reshape(-1, grad_output.shape[-1])
        np.add.at(self.table.grad, flat_ids, flat_grad)

    def parameters(self) -> list[Parameter]:
        return [self.table] if self.trainable else []
