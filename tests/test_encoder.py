import struct

import numpy as np
import pytest

from rgcl.encoder import (
    EmbeddingBatch,
    EncoderParams,
    encode,
    encode_backward,
    init_encoder_params,
    load_params,
    save_params,
)
from rgcl.numerics import RandomStream
from test_loss import assert_finite_diff


def identity_params(d):
    return EncoderParams(np.eye(d), np.zeros(d), np.eye(d), np.zeros(d), "identity")


def random_params(seed, d_in=3, d_hidden=4, d_embed=2, activation="tanh"):
    return init_encoder_params(d_in, d_hidden, d_embed, activation, RandomStream(seed, ("enc",)))


class TestForward:
    def test_identity_network_normalizes(self):
        out = encode(identity_params(2), np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out.embeddings[0], [0.6, 0.8], atol=1e-15)

    def test_unit_norm_postcondition(self):
        params = random_params(0, d_in=5, d_hidden=7, d_embed=3)
        x = RandomStream(1).normal(20, 5)
        norms = np.linalg.norm(encode(params, x).embeddings, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_matches_step_by_step_reimplementation(self):
        params = random_params(2)
        x = RandomStream(3).normal(6, 3)
        got = encode(params, x).embeddings
        # independent re-derivation of the forward map
        z1 = x @ params.w1.T + params.b1
        a1 = np.tanh(z1)
        z2 = a1 @ params.w2.T + params.b2
        want = z2 / np.linalg.norm(z2, axis=1, keepdims=True)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            encode(identity_params(2), np.zeros((3, 5)))

    def test_degenerate_embedding_rejected(self):
        params = identity_params(2)
        with pytest.raises(ValueError, match="^degenerate embedding: row 0 has norm 0.0"):
            encode(params, np.zeros((1, 2)))

    def test_overflowing_norm_rejected(self):
        # finite rows whose squared norm overflows: encode builds its batch
        # without EmbeddingBatch's unit-norm check, so _forward must refuse
        # the infinite norm itself
        x = np.array([[1.0, 2.0], [1e200, 1e200]])
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ValueError, match="^degenerate embedding: row 1 has norm inf, not finite"):
                encode(identity_params(2), x)

    @pytest.mark.parametrize("activation", ["identity", "tanh"])
    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_unit_norm_at_every_input_scale(self, activation, scale):
        params = random_params(9, d_in=5, d_hidden=7, d_embed=3, activation=activation)
        y = encode(params, scale * RandomStream(10).normal(20, 5)).embeddings
        np.testing.assert_allclose(np.linalg.norm(y, axis=1), 1.0, rtol=0, atol=1e-12)

    def test_hand_built_batch_checked(self):
        with pytest.raises(ValueError, match="^embedding rows must be unit norm$"):
            EmbeddingBatch(np.array([[0.6, 0.8], [0.6, 0.9]]), ())

    @pytest.mark.parametrize("activation", ["identity", "tanh"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected(self, activation, bad):
        # tanh would saturate an infinite row into a unit embedding
        x = RandomStream(4).normal(6, 3)
        x[4, 0] = x[2, 1] = bad
        with pytest.raises(ValueError, match="^input row 2 of the encoder is not finite$"):
            encode(random_params(5, activation=activation), x)


class TestBackward:
    def test_zero_grad_in_zero_grad_out(self):
        params = random_params(4)
        x = RandomStream(5).normal(3, 3)
        g = encode_backward(params, encode(params, x), np.zeros((3, 2)))
        assert np.all(g.flatten() == 0.0)

    def test_finite_difference_check(self):
        params = random_params(6)
        x = RandomStream(7).normal(4, 3)
        target = RandomStream(8).normal(4, 2)

        def scalar(flat):
            y = encode(params.from_flat(flat), x).embeddings
            return float(np.sum(target * y))

        exact = encode_backward(params, encode(params, x), target).flatten()
        assert_finite_diff(("w", exact, params.flatten(), scalar))

    def test_grad_along_embedding_vanishes(self):
        # (I - y y^T) y = 0: upstream gradient parallel to the embedding
        # contributes nothing through the normalization
        params = random_params(9)
        x = RandomStream(10).normal(5, 3)
        batch = encode(params, x)
        g = encode_backward(params, batch, 2.5 * batch.embeddings)
        assert np.linalg.norm(g.flatten()) <= 1e-12


class TestCosine:
    """Cosine similarity is the inner product of encoded (unit) rows."""

    @staticmethod
    def cosine(a, b):
        y = encode(identity_params(2), np.array([a, b])).embeddings
        return float(y[0] @ y[1])

    def test_equal(self):
        assert self.cosine([0.0, 1.0], [0.0, 3.0]) == 1.0

    def test_orthogonal(self):
        assert self.cosine([0.0, 1.0], [2.0, 0.0]) == 0.0

    def test_opposite(self):
        assert self.cosine([0.0, 1.0], [0.0, -0.5]) == -1.0


class TestParams:
    def test_flatten_round_trip(self):
        params = random_params(11)
        again = params.from_flat(params.flatten())
        np.testing.assert_array_equal(params.w1, again.w1)
        np.testing.assert_array_equal(params.b2, again.b2)
        assert again.activation == params.activation

    def test_from_flat_wrong_length(self):
        params = random_params(12)
        with pytest.raises(ValueError):
            params.from_flat(np.zeros(params.n_params + 1))

    def test_bad_activation(self):
        with pytest.raises(ValueError):
            EncoderParams(np.eye(2), np.zeros(2), np.eye(2), np.zeros(2), "relu")

    def test_incompatible_shapes(self):
        with pytest.raises(ValueError):
            EncoderParams(np.eye(2), np.zeros(2), np.eye(3), np.zeros(3), "tanh")

    def test_checkpoint_round_trip(self, tmp_path):
        params = random_params(13, d_in=4, d_hidden=6, d_embed=3)
        path = str(tmp_path / "enc.ckpt")
        save_params(params, path)
        loaded = load_params(path)
        np.testing.assert_array_equal(loaded.flatten(), params.flatten())
        assert loaded.activation == params.activation

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_params(str(path))

    @pytest.mark.parametrize("flag", [-1, 2])
    def test_load_rejects_unknown_activation_flag(self, tmp_path, flag):
        path = tmp_path / "enc.ckpt"
        save_params(identity_params(3), str(path))
        data = path.read_bytes()
        path.write_bytes(data[:32] + struct.pack("<q", flag) + data[40:])
        with pytest.raises(ValueError, match="activation flag"):
            load_params(str(path))

    # a cut at or near a section end, or appended bytes:
    # tests/test_optimizer.py::TestCheckpoint, on an encoder checkpoint too
    @pytest.mark.parametrize("cut,extra,match", [(-8, b"", "is 440 bytes, its header implies 448")],
                             ids=["missing-float64"])
    def test_load_rejects_wrong_size(self, tmp_path, cut, extra, match):
        # d_in 4, d_hidden 6, d_embed 3: 51 float64, 408 bytes, after the 40-byte header
        path = tmp_path / "enc.ckpt"
        save_params(random_params(13, d_in=4, d_hidden=6, d_embed=3), str(path))
        path.write_bytes(path.read_bytes()[:cut] + extra)
        with pytest.raises(ValueError, match=match):
            load_params(str(path))

    def test_load_rejects_non_finite_values(self, tmp_path):
        # d_in 4, d_hidden 6, d_embed 3: w1 is float64 0-23, b1 24-29, w2
        # 30-47 and b2 48-50 after the 40-byte header; each array's last entry
        path = tmp_path / "enc.ckpt"
        save_params(random_params(13, d_in=4, d_hidden=6, d_embed=3), str(path))
        data = path.read_bytes()
        for last, name in [(23, "w1"), (29, "b1"), (47, "w2"), (50, "b2")]:
            at = 40 + 8 * last
            for bad in (np.nan, np.inf, -np.inf):
                path.write_bytes(data[:at] + struct.pack("<d", bad) + data[at + 8 :])
                with pytest.raises(ValueError, match="^encoder checkpoint %s holds a non-finite value$" % name):
                    load_params(str(path))

    def test_load_rejects_negative_dimension(self, tmp_path):
        path = tmp_path / "enc.ckpt"
        save_params(identity_params(3), str(path))
        data = path.read_bytes()
        path.write_bytes(data[:16] + struct.pack("<q", -2) + data[24:])
        with pytest.raises(ValueError, match="corrupt encoder checkpoint header: dimensions 3, -2, "):
            load_params(str(path))


class TestInit:
    def test_deterministic(self):
        a = random_params(15)
        b = random_params(15)
        np.testing.assert_array_equal(a.flatten(), b.flatten())

    def test_fan_in_bounds(self):
        params = random_params(16, d_in=9, d_hidden=16, d_embed=4)
        assert np.max(np.abs(params.w1)) <= 1.0 / 3.0
        assert np.max(np.abs(params.w2)) <= 1.0 / 4.0
