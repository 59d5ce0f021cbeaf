"""Shared numerical primitives: rank statistics, deterministic
counter-based random streams, and the binary record that the encoder and
optimizer checkpoints are written in.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

__all__ = [
    "spearman_rank_corr",
    "RandomStream",
]


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


@functools.cache
def _philox_key_type() -> type:
    """The seed-sequence type of a Philox generator with a known 128-bit key:
    it hands the generator the key's two 64-bit words.  Philox(key=k) would
    first seed itself from a SeedSequence of OS entropy, then overwrite that
    state with k; this gives the same state without drawing the entropy.
    Built on the first draw: loading numpy.random when rgcl is imported
    raised a training run's peak RSS by about 0.3 MB."""

    class PhiloxKey(np.random.bit_generator.ISeedSequence):
        def __init__(self, key: bytes):
            self.words = np.frombuffer(key, "<u8").astype(np.uint64)

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return PhiloxKey


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
        return np.random.Generator(np.random.Philox(_philox_key_type()(hashlib.sha256(material).digest()[:16])))

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


def _write_record(path: str, magic: bytes, header, sections) -> None:
    """Write one record (see _read_record): magic, the int64 header, then
    each (dtype, values) section of sections in turn."""
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(np.asarray(header, "<i8").tobytes())
        for dtype, values in sections:
            fh.write(np.asarray(values, "<" + dtype).tobytes())


def _read_record(path: str, kind: str, magics: tuple, n_header: int, layout):
    """Read the record at path, a checkpoint of kind ("encoder" or
    "optimizer").  The record: an 8-byte magic, one of magics; n_header
    little-endian int64; then the sections, each little-endian and
    row-major, back to back to the end of the file.

    layout(magic index, *header) applies the caller's header rules and
    returns the sections as (name, count, dtype), dtype "f8" or "u1".
    Returns the magic index, the header as a list of ints and the sections'
    arrays in layout order.  ValueError refuses an unknown magic, a file
    shorter than its header, any size the layout does not imply, and a
    non-finite value in a named float64 section (one named None is not
    checked)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] not in magics:
        raise ValueError("not an %s checkpoint" % kind)
    offset = 8 + 8 * n_header
    if len(data) < offset:
        raise ValueError("%s checkpoint is %d bytes, shorter than its %d-byte header" % (kind, len(data), offset))
    index, header = magics.index(data[:8]), np.frombuffer(data, "<i8", n_header, 8).tolist()
    sections = layout(index, *header)
    size = offset + sum(count * np.dtype(dtype).itemsize for _, count, dtype in sections)
    if len(data) != size:
        raise ValueError("%s checkpoint is %d bytes, its header implies %d" % (kind, len(data), size))
    arrays = []
    for name, count, dtype in sections:
        arrays.append(np.frombuffer(data, "<" + dtype, count, offset).astype(dtype))
        offset += arrays[-1].nbytes
        if name is not None and dtype == "f8" and not np.isfinite(arrays[-1]).all():
            raise ValueError("%s checkpoint %s holds a non-finite value" % (kind, name))
    return index, header, arrays
