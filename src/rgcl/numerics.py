"""Shared numerical primitives: stable exponential reductions, rank statistics,
and deterministic counter-based random streams.

Everything here is double precision.  With a temperature floor of 0.005 and
hardness scores bounded by 2, intermediate values reach exp(400), which is
representable in float64 (max ~ exp(709)) but not in float32.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

__all__ = [
    "log_sum_exp",
    "softmax_shifted",
    "spearman_rank_corr",
    "RandomStream",
]


def log_sum_exp(values) -> float:
    """log(sum(exp(v_j))) with max-shift; safe for |v_j| up to ~700."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("empty reduction")
    m = float(np.max(v))
    return m + float(np.log(np.sum(np.exp(v - m))))


def softmax_shifted(values) -> np.ndarray:
    """Softmax computed after subtracting the max, so it is invariant to
    adding a constant to all inputs and never overflows."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("empty reduction")
    e = np.exp(v - np.max(v))
    return e / np.sum(e)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties assigned the average of their positions."""
    _, group, counts = np.unique(x, return_inverse=True, return_counts=True)
    # a group of c ties ending at 1-based position e shares rank e - (c - 1) / 2
    return (np.cumsum(counts) - 0.5 * (counts - 1.0))[group]


def spearman_rank_corr(a, b) -> float:
    """Spearman rank correlation with average-rank tie handling."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("length mismatch")
    if a.size < 3:
        raise ValueError("need at least 3 observations")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("rank correlation needs finite values")
    ra = _average_ranks(a)
    rb = _average_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = np.sqrt(np.sum(ra * ra) * np.sum(rb * rb))
    if denom == 0.0:
        raise ValueError("constant input has no rank correlation")
    return float(np.sum(ra * rb) / denom)


class RandomStream:
    """Deterministic random stream backed by the counter-based Philox4x64
    generator.

    The 128-bit Philox key is derived by hashing the 64-bit seed together
    with a purpose path (a tuple of strings), so sub-streams for different
    purposes are statistically independent and adding a new purpose never
    perturbs draws of existing ones.  Same (seed, path) gives a bit-identical
    sequence on every platform numpy supports.

    A stream is single-owner: share work across threads by splitting.  Its
    generator is built on the first draw, so a stream only split builds none.
    """

    def __init__(self, seed: int, path: tuple[str, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(path)

    @functools.cached_property
    def _gen(self) -> np.random.Generator:
        material = ("%d/" % self.seed + "/".join(self.path)).encode()
        key = int.from_bytes(hashlib.sha256(material).digest()[:16], "little")
        return np.random.Generator(np.random.Philox(key=key))

    def split(self, name: str) -> "RandomStream":
        """Derive an independent sub-stream; does not advance this stream."""
        return RandomStream(self.seed, self.path + (str(name),))

    def normal(self, *shape) -> np.ndarray:
        return self._gen.standard_normal(size=shape if shape else None)

    def uniform(self, *shape) -> np.ndarray:
        return self._gen.random(size=shape if shape else None)

    def choice_without_replacement(self, n: int, size: int) -> np.ndarray:
        if size > n:
            raise ValueError("cannot draw %d distinct indices from %d" % (size, n))
        return self._gen.choice(n, size=size, replace=False)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)
