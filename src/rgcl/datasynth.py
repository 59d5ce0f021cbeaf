"""Deterministic synthetic data with controllable semantic frequency.

Unimodal data are long-tail clusters around random unit centers; bimodal
data are two fixed linear projections of a shared long-tail latent.
Cluster sizes decay exponentially with the requested head/tail ratio and
are rounded by the largest-remainder method so they sum exactly to n.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .numerics import RandomStream

__all__ = [
    "SynthDataset",
    "BimodalSynthDataset",
    "longtail_sizes",
    "gen_longtail_clusters",
    "augment",
    "gen_bimodal_pairs",
    "export_dataset_csv",
]


@dataclass
class SynthDataset:
    inputs: np.ndarray  # (n, d_in), un-normalized
    labels: np.ndarray  # (n,) cluster ids, 0 = head
    cluster_sizes: np.ndarray  # (k,)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def d_in(self) -> int:
        return self.inputs.shape[1]


@dataclass
class BimodalSynthDataset:
    image_views: np.ndarray  # (n, d_img)
    text_views: np.ndarray  # (n, d_txt)
    labels: np.ndarray  # shared latent cluster ids
    cluster_sizes: np.ndarray
    map_img: np.ndarray = field(repr=False)
    map_txt: np.ndarray = field(repr=False)


def longtail_sizes(k: int, n: int, ratio: float) -> np.ndarray:
    """Cluster sizes proportional to ratio**(-j/(k-1)), largest-remainder
    rounded so they sum to n exactly."""
    if k < 2:
        raise ValueError("need at least 2 clusters")
    if n < k:
        raise ValueError("need n >= k")
    if ratio < 1:
        raise ValueError("ratio must be >= 1")
    weights = ratio ** (-np.arange(k) / (k - 1))
    exact = n * weights / weights.sum()
    sizes = np.floor(exact).astype(int)
    remainder = exact - sizes
    short = n - sizes.sum()
    for j in np.argsort(-remainder, kind="stable")[:short]:
        sizes[j] += 1
    if np.any(sizes < 1):
        raise ValueError("infeasible sizes: a cluster rounded to zero")
    return sizes


def gen_longtail_clusters(
    k: int, n: int, ratio: float, d_in: int, noise: float, seed: int
) -> SynthDataset:
    """Long-tail clusters on the sphere: unit centers plus gaussian noise.

    When k <= d_in the centers are orthonormalized so every pair of
    clusters is equally far apart and frequency is the only asymmetry
    between them; for k > d_in they are plain random unit vectors.
    """
    sizes = longtail_sizes(k, n, ratio)
    root = RandomStream(seed, ("datasynth",))
    centers_stream = root.split("centers")
    raw = centers_stream.normal(k, d_in)
    if k <= d_in:
        q, r = np.linalg.qr(raw.T)
        centers = (q * np.sign(np.diag(r))).T[:k]
    else:
        centers = raw / np.linalg.norm(raw, axis=1, keepdims=True)

    rows = []
    labels = []
    for j in range(k):
        cs = root.split("cluster-%d" % j)
        pts = centers[j] + noise * cs.normal(int(sizes[j]), d_in)
        rows.append(pts)
        labels.append(np.full(int(sizes[j]), j, dtype=int))
    return SynthDataset(
        inputs=np.concatenate(rows, axis=0),
        labels=np.concatenate(labels),
        cluster_sizes=sizes,
    )


def augment(x: np.ndarray, strength: float, stream: RandomStream) -> np.ndarray:
    """Additive gaussian view: x + strength * noise.  Strength 0 is the
    identity and draws nothing."""
    if strength < 0:
        raise ValueError("strength must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    if strength == 0.0:
        return x.copy()
    return x + strength * stream.normal(*x.shape)


def gen_bimodal_pairs(
    k: int,
    n: int,
    ratio: float,
    d_latent: int,
    d_img: int,
    d_txt: int,
    noise: float,
    seed: int,
    mirrored: bool = False,
) -> BimodalSynthDataset:
    """Paired views of a shared long-tail latent through two fixed random
    linear maps.  With mirrored=True the text view is a copy of the image
    view (same map, same noise), useful for symmetry checks."""
    if min(d_latent, d_img, d_txt) < 2:
        raise ValueError("dims must be >= 2")
    latent = gen_longtail_clusters(k, n, ratio, d_latent, noise, seed)
    root = RandomStream(seed, ("bimodal",))

    def fixed_map(stream, d_out):
        raw = stream.normal(d_out, d_latent)
        if d_out >= d_latent:
            # isometric embedding of the latent, so latent geometry (and
            # the equidistance of the cluster centers) carries over
            q, r = np.linalg.qr(raw)
            return q * np.sign(np.diag(r))
        return raw / np.sqrt(d_latent)

    m_img = fixed_map(root.split("map-img"), d_img)
    img = latent.inputs @ m_img.T
    if noise > 0:
        img = img + noise * root.split("noise-img").normal(n, d_img)
    if mirrored:
        if d_img != d_txt:
            raise ValueError("mirrored pairs need d_img == d_txt")
        m_txt, txt = m_img.copy(), img.copy()
    else:
        m_txt = fixed_map(root.split("map-txt"), d_txt)
        txt = latent.inputs @ m_txt.T
        if noise > 0:
            txt = txt + noise * root.split("noise-txt").normal(n, d_txt)
    return BimodalSynthDataset(
        image_views=img,
        text_views=txt,
        labels=latent.labels,
        cluster_sizes=latent.cluster_sizes,
        map_img=m_img,
        map_txt=m_txt,
    )


def export_dataset_csv(dataset: SynthDataset, path: str) -> None:
    """One row per sample: id, label, then the feature columns."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label"] + ["f%d" % j for j in range(dataset.d_in)])
        for i in range(dataset.n):
            writer.writerow(
                [i, int(dataset.labels[i])] + [repr(float(v)) for v in dataset.inputs[i]]
            )
