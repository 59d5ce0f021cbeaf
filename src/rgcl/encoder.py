"""Small two-layer encoders producing unit-norm embeddings, with exact
manual backpropagation (no autodiff framework).

The forward map per row x is:

    z1 = W1 x + b1
    a1 = tanh(z1)        (or a1 = z1 with the identity activation)
    z2 = W2 a1 + b2
    y  = z2 / ||z2||

The backward pass applies the normalization Jacobian (I - y y^T)/||z2||
per row, then standard affine/activation backprop.  Gradients are reduced
in fixed index order so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import RandomStream, _read_record, _write_record

__all__ = [
    "EncoderParams",
    "EmbeddingBatch",
    "init_encoder_params",
    "encode",
    "encode_backward",
    "save_params",
    "load_params",
]

_ACTIVATIONS = ("identity", "tanh")
_MAGIC = b"RGCLENC1"


@dataclass
class EncoderParams:
    """Weights of the two-layer encoder plus the activation choice.

    The flattened view concatenates W1, b1, W2, b2 in row-major order and
    round-trips losslessly through from_flat.
    """

    w1: np.ndarray  # (hidden, d_in)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (d_embed, hidden)
    b2: np.ndarray  # (d_embed,)
    activation: str = "tanh"

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
            raise ValueError("unknown activation %r" % self.activation)
        if self.w1.shape[0] != self.b1.shape[0] or self.w2.shape[0] != self.b2.shape[0]:
            raise ValueError("bias shape inconsistent with weight shape")
        if self.w2.shape[1] != self.w1.shape[0]:
            raise ValueError("layer shapes do not compose")

    @property
    def d_in(self) -> int:
        return self.w1.shape[1]

    @property
    def d_hidden(self) -> int:
        return self.w1.shape[0]

    @property
    def d_embed(self) -> int:
        return self.w2.shape[0]

    @property
    def n_params(self) -> int:
        return self.w1.size + self.b1.size + self.w2.size + self.b2.size

    def flatten(self) -> np.ndarray:
        return np.concatenate(
            [self.w1.ravel(), self.b1.ravel(), self.w2.ravel(), self.b2.ravel()]
        )

    def from_flat(self, flat: np.ndarray) -> "EncoderParams":
        """New params with the same shapes, values taken from flat."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.size != self.n_params:
            raise ValueError("flat vector has wrong length")
        h, di, de = self.d_hidden, self.d_in, self.d_embed
        o = 0
        w1 = flat[o : o + h * di].reshape(h, di).copy()
        o += h * di
        b1 = flat[o : o + h].copy()
        o += h
        w2 = flat[o : o + de * h].reshape(de, h).copy()
        o += de * h
        b2 = flat[o : o + de].copy()
        return EncoderParams(w1, b1, w2, b2, self.activation)

    def copy(self) -> "EncoderParams":
        return EncoderParams(
            self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy(), self.activation
        )


@dataclass
class EmbeddingBatch:
    """Row embeddings, each unit l2 norm, with encode's forward cache for
    encode_backward."""

    embeddings: np.ndarray  # (n, d_embed)
    cache: tuple = field(repr=False)  # encode's forward intermediates

    def __post_init__(self):
        norms = np.linalg.norm(self.embeddings, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-9):
            raise ValueError("embedding rows must be unit norm")


def init_encoder_params(
    d_in: int, d_hidden: int, d_embed: int, activation: str, stream: RandomStream
) -> EncoderParams:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer."""
    s1 = stream.split("layer1")
    s2 = stream.split("layer2")
    lim1 = 1.0 / np.sqrt(d_in)
    lim2 = 1.0 / np.sqrt(d_hidden)
    w1 = (2.0 * s1.uniform(d_hidden, d_in) - 1.0) * lim1
    b1 = (2.0 * s1.uniform(d_hidden) - 1.0) * lim1
    w2 = (2.0 * s2.uniform(d_embed, d_hidden) - 1.0) * lim2
    b2 = (2.0 * s2.uniform(d_embed) - 1.0) * lim2
    return EncoderParams(w1, b1, w2, b2, activation)


class _NonFiniteRow(ValueError):
    """A non-finite input row; row is its place in the encoder's input."""

    def __init__(self, row: int):
        super().__init__("input row %d of the encoder is not finite" % row)
        self.row = row


def _forward(params: EncoderParams, inputs: np.ndarray):
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.d_in:
        raise ValueError("input shape does not match encoder")
    if not np.isfinite(x).all():
        raise _NonFiniteRow(int(np.argmin(np.isfinite(x).all(axis=1))))
    z1 = x @ params.w1.T + params.b1
    a1 = np.tanh(z1) if params.activation == "tanh" else z1
    z2 = a1 @ params.w2.T + params.b2
    norms = np.sqrt(np.add.reduce(z2 * z2, axis=1))  # np.linalg.norm(z2, axis=1) without its wrapper
    ok = (norms >= 1e-12) & (norms < np.inf)
    if not ok.all():
        k = int(np.argmin(ok))
        raise ValueError("degenerate embedding: row %d has norm %r, not finite and >= 1e-12" % (k, float(norms[k])))
    y = z2 / norms[:, None]
    return y, (x, a1, norms)


def encode(params: EncoderParams, inputs: np.ndarray) -> EmbeddingBatch:
    """Unit rows that _forward has checked, so without EmbeddingBatch's check."""
    batch = EmbeddingBatch.__new__(EmbeddingBatch)
    batch.embeddings, batch.cache = _forward(params, inputs)
    return batch


def encode_backward(params: EncoderParams, batch: EmbeddingBatch, grad_embeddings: np.ndarray) -> EncoderParams:
    """Exact parameter gradient of sum(grad_embeddings * batch.embeddings),
    from the forward cache of batch, the EmbeddingBatch that encode(params,
    inputs) returned; the gradients come in an EncoderParams shaped as params."""
    y, (x, a1, norms) = batch.embeddings, batch.cache
    g = np.asarray(grad_embeddings, dtype=np.float64)
    if g.shape != y.shape:
        raise ValueError("grad_embeddings shape mismatch")
    # normalization Jacobian per row: (g - (g.y) y) / ||z2||
    dz2 = (g - np.add.reduce(g * y, axis=1, keepdims=True) * y) / norms[:, None]
    dw2 = dz2.T @ a1
    db2 = np.add.reduce(dz2, axis=0)
    da1 = dz2 @ params.w2
    dz1 = da1 * (1.0 - a1 * a1) if params.activation == "tanh" else da1
    dw1 = dz1.T @ x
    db1 = np.add.reduce(dz1, axis=0)
    return EncoderParams(dw1, db1, dw2, db2, params.activation)


def save_params(params: EncoderParams, path: str) -> None:
    """Write params as a numerics record: magic 'RGCLENC1'; header d_in,
    d_hidden, d_embed and the activation flag (0 identity, 1 tanh);
    float64 sections w1, b1, w2 and b2."""
    _write_record(path, _MAGIC, [params.d_in, params.d_hidden, params.d_embed, _ACTIVATIONS.index(params.activation)],
                  [("f8", a) for a in (params.w1, params.b1, params.w2, params.b2)])


def load_params(path: str) -> EncoderParams:
    """Read a file written by save_params.  Beside the record's own
    refusals, an unknown activation flag or a negative dimension is
    rejected with ValueError."""

    def layout(_, d_in, d_hidden, d_embed, act):
        if not 0 <= act < len(_ACTIVATIONS) or min(d_in, d_hidden, d_embed) < 0:
            raise ValueError("corrupt encoder checkpoint header: dimensions %d, %d, %d, activation flag %d"
                             % (d_in, d_hidden, d_embed, act))
        return [("w1", d_hidden * d_in, "f8"), ("b1", d_hidden, "f8"),
                ("w2", d_embed * d_hidden, "f8"), ("b2", d_embed, "f8")]

    _, (d_in, d_hidden, d_embed, act), (w1, b1, w2, b2) = _read_record(path, "encoder", (_MAGIC,), 4, layout)
    return EncoderParams(w1.reshape(d_hidden, d_in), b1, w2.reshape(d_embed, d_hidden), b2, _ACTIVATIONS[act])
