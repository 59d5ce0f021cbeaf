import csv

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rgcl.datasynth import (
    augment,
    export_dataset_csv,
    gen_bimodal_pairs,
    gen_longtail_clusters,
    longtail_sizes,
)
from rgcl.numerics import RandomStream


class TestLongtailSizes:
    def test_balanced(self):
        sizes = longtail_sizes(10, 2000, 1.0)
        assert sizes.sum() == 2000
        assert np.all(np.abs(sizes - 200) <= 1)

    def test_head_tail_ratio(self):
        sizes = longtail_sizes(10, 2000, 100.0)
        assert sizes.sum() == 2000
        ratio = sizes[0] / sizes[-1]
        assert 90 <= ratio <= 110

    def test_sizes_nonincreasing(self):
        sizes = longtail_sizes(8, 500, 30.0)
        assert np.all(np.diff(sizes) <= 0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            longtail_sizes(1, 100, 10.0)
        with pytest.raises(ValueError):
            longtail_sizes(5, 3, 10.0)
        with pytest.raises(ValueError):
            longtail_sizes(5, 100, 0.5)

    def test_infeasible_tail(self):
        with pytest.raises(ValueError, match="infeasible"):
            longtail_sizes(10, 20, 1e6)

    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=50, max_value=3000),
        st.floats(min_value=1.0, max_value=50.0),
    )
    @settings(deadline=None)
    def test_sum_invariant(self, k, n, ratio):
        try:
            sizes = longtail_sizes(k, n, ratio)
        except ValueError:
            assume(False)  # infeasible corner (a cluster would round to zero)
        assert sizes.sum() == n


class TestGenLongtail:
    def test_deterministic(self):
        a = gen_longtail_clusters(4, 100, 10.0, 6, 0.3, seed=5)
        b = gen_longtail_clusters(4, 100, 10.0, 6, 0.3, seed=5)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_shapes_and_labels(self):
        data = gen_longtail_clusters(5, 120, 20.0, 8, 0.2, seed=1)
        assert data.inputs.shape == (120, 8)
        assert data.labels.shape == (120,)
        for j in range(5):
            assert int(np.sum(data.labels == j)) == int(data.cluster_sizes[j])

    def test_equidistant_centers(self):
        # with k <= d_in the centers are orthonormal, so the empirical
        # cluster means are pairwise near-equidistant
        data = gen_longtail_clusters(4, 4000, 1.0, 8, 0.05, seed=2)
        means = np.stack([data.inputs[data.labels == j].mean(axis=0) for j in range(4)])
        gram = means @ means.T
        np.testing.assert_allclose(np.diag(gram), 1.0, atol=0.01)
        off = gram[~np.eye(4, dtype=bool)]
        assert np.max(np.abs(off)) < 0.01


class TestAugment:
    def test_strength_zero_identity(self):
        x = RandomStream(0).normal(5, 3)
        out = augment(x, 0.0, RandomStream(1, ("aug",)))
        np.testing.assert_array_equal(out, x)
        assert out is not x  # a copy, not an alias

    def test_split_streams_differ(self):
        x = np.zeros((4, 3))
        root = RandomStream(2, ("aug",))
        a = augment(x, 0.5, root.split("a"))
        b = augment(x, 0.5, root.split("b"))
        assert np.any(a != b)

    def test_displacement_second_moment(self):
        # E || augment(x) - x ||^2 = strength^2 * d_in
        d, strength = 6, 0.7
        x = np.zeros((10000, d))
        out = augment(x, strength, RandomStream(3, ("chi",)))
        mean_sq = float(np.mean(np.sum((out - x) ** 2, axis=1)))
        assert abs(mean_sq - strength**2 * d) / (strength**2 * d) < 0.05

    def test_negative_strength_rejected(self):
        with pytest.raises(ValueError):
            augment(np.zeros((2, 2)), -0.1, RandomStream(0))


class TestGenBimodal:
    def test_mirrored_noiseless_views_identical(self):
        data = gen_bimodal_pairs(3, 60, 5.0, 6, 6, 6, noise=0.0, seed=4, mirrored=True)
        np.testing.assert_array_equal(data.image_views, data.text_views)
        np.testing.assert_array_equal(data.map_img, data.map_txt)

    def test_deterministic(self):
        a = gen_bimodal_pairs(3, 60, 5.0, 6, 8, 7, noise=0.2, seed=6)
        b = gen_bimodal_pairs(3, 60, 5.0, 6, 8, 7, noise=0.2, seed=6)
        np.testing.assert_array_equal(a.image_views, b.image_views)
        np.testing.assert_array_equal(a.text_views, b.text_views)

    def test_labels_shared_across_modalities(self):
        data = gen_bimodal_pairs(4, 80, 10.0, 6, 6, 6, noise=0.1, seed=7)
        assert data.labels.shape == (80,)
        assert data.image_views.shape == (80, 6)
        assert data.text_views.shape == (80, 6)
        # pair i of both modalities comes from the same latent sample, so
        # there is exactly one label vector by construction
        for j in range(4):
            assert int(np.sum(data.labels == j)) == int(data.cluster_sizes[j])

    def test_isometric_maps(self):
        data = gen_bimodal_pairs(3, 30, 2.0, 5, 8, 5, noise=0.0, seed=8)
        np.testing.assert_allclose(data.map_img.T @ data.map_img, np.eye(5), atol=1e-10)
        np.testing.assert_allclose(data.map_txt.T @ data.map_txt, np.eye(5), atol=1e-10)

    def test_mirrored_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gen_bimodal_pairs(3, 30, 2.0, 5, 6, 7, noise=0.0, seed=9, mirrored=True)


class TestCsvRoundTrip:
    def test_export_import(self, tmp_path):
        data = gen_longtail_clusters(3, 50, 4.0, 5, 0.3, seed=10)
        path = str(tmp_path / "dataset.csv")
        export_dataset_csv(data, path)
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["id", "label", "f0", "f1", "f2", "f3", "f4"]
        assert [int(r[0]) for r in rows] == list(range(data.n))
        np.testing.assert_array_equal([int(r[1]) for r in rows], data.labels)
        # repr output parses back to the exact stored doubles
        np.testing.assert_array_equal([[float(v) for v in r[2:]] for r in rows], data.inputs)
