import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sraar import WaveletCoeffs, dft2, haar_forward, haar_inverse, idft2, l1_norm
from conftest import random_complex
from reference_impls import (
    concat_haar_forward,
    direct_centered_dft2,
    loop_haar_forward,
    scratch_haar_inverse,
)


class TestDft2:
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_matches_direct_summation(self, rng, n):
        img = random_complex(rng, (n, n))
        np.testing.assert_allclose(dft2(img), direct_centered_dft2(img), atol=1e-12)

    @pytest.mark.parametrize("n", [4, 8, 64])
    def test_all_ones_concentrates_at_dc(self, n):
        k = dft2(np.ones((n, n)))
        assert abs(k[n // 2, n // 2] - n) < 1e-10
        k[n // 2, n // 2] = 0
        assert np.abs(k).max() < 1e-10

    @pytest.mark.parametrize("n", [8, 32])
    def test_center_impulse_has_flat_modulus(self, n):
        img = np.zeros((n, n))
        img[n // 2, n // 2] = 1.0
        mod = np.abs(dft2(img))
        np.testing.assert_allclose(mod, 1.0 / n, atol=1e-14)

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_round_trips(self, rng, n):
        img = random_complex(rng, (n, n))
        assert np.abs(idft2(dft2(img)) - img).max() < 1e-12
        assert np.abs(dft2(idft2(img)) - img).max() < 1e-12

    def test_inner_product_preserved(self, rng):
        x = random_complex(rng, (32, 32))
        y = random_complex(rng, (32, 32))
        lhs = np.vdot(dft2(x), dft2(y))
        rhs = np.vdot(x, y)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_linearity(self, rng):
        x = random_complex(rng, (16, 16))
        y = random_complex(rng, (16, 16))
        a, b = 1.7 - 0.3j, -2.2 + 1.1j
        np.testing.assert_allclose(dft2(a * x + b * y), a * dft2(x) + b * dft2(y), atol=1e-12)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            dft2(np.ones((4, 8)))
        with pytest.raises(ValueError):
            dft2(np.ones((6, 6)))
        with pytest.raises(ValueError):
            dft2(np.ones(16))


class TestHaar:
    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_matches_loop_reference(self, rng, levels):
        img = random_complex(rng, (8, 8))
        got = haar_forward(img, levels)
        assert got.levels == levels
        np.testing.assert_allclose(got.data, loop_haar_forward(img, levels), atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        log2_size=st.integers(2, 8),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        log10_scale=st.floats(-8.0, 8.0),
    )
    def test_bit_identical_to_level_loops(self, log2_size, data, seed, log10_scale):
        """Both directions round exactly like the previous per-direction loops."""
        n = 2**log2_size
        levels = data.draw(st.integers(1, log2_size), label="levels")
        img = 10.0**log10_scale * random_complex(np.random.default_rng(seed), (n, n))
        coeffs = haar_forward(img, levels)
        assert np.array_equal(coeffs.data, concat_haar_forward(img, levels))
        assert np.array_equal(haar_inverse(coeffs), scratch_haar_inverse(coeffs.data, levels))

    def test_single_level_is_matrix_product(self, rng):
        # one level on 4x4 equals H @ X @ H.T with the pairwise
        # average/difference matrix H built from the 2x2 orthonormal kernel
        h = np.array(
            [[1, 1, 0, 0], [0, 0, 1, 1], [1, -1, 0, 0], [0, 0, 1, -1]]
        ) / np.sqrt(2.0)
        x = random_complex(rng, (4, 4))
        np.testing.assert_allclose(haar_forward(x, 1).data, h @ x @ h.T, atol=1e-12)

    def test_constant_image_single_coefficient(self):
        n, value = 8, 0.3
        w = haar_forward(np.full((n, n), value))
        assert abs(w.data[0, 0] - value * n) < 1e-12
        rest = w.data.copy()
        rest[0, 0] = 0
        assert np.abs(rest).max() < 1e-12

    def test_horizontally_constant_kills_column_details(self, rng):
        img = np.tile(rng.standard_normal((16, 1)), (1, 16))
        w = haar_forward(img, 1)
        assert np.abs(w.data[:, 8:]).max() == 0

    @pytest.mark.parametrize("n,levels", [(4, 1), (4, 2), (32, 5), (64, None)])
    def test_round_trip(self, rng, n, levels):
        img = random_complex(rng, (n, n))
        assert np.abs(haar_inverse(haar_forward(img, levels)) - img).max() < 1e-12

    def test_default_depth_is_full(self, rng):
        assert haar_forward(np.zeros((32, 32))).levels == 5

    def test_unitary(self, rng):
        x = random_complex(rng, (16, 16))
        y = random_complex(rng, (16, 16))
        assert abs(np.linalg.norm(haar_forward(x).data) - np.linalg.norm(x)) < 1e-10
        lhs = np.vdot(haar_forward(x).data, haar_forward(y).data)
        rhs = np.vdot(x, y)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    @pytest.mark.parametrize("levels", [0, 4, -1, 2.5])
    def test_bad_depth_rejected(self, levels):
        with pytest.raises(ValueError):
            haar_forward(np.zeros((8, 8)), levels)

    def test_coeffs_validate_levels(self):
        with pytest.raises(ValueError):
            WaveletCoeffs(np.zeros((8, 8), complex), 9)

    def test_inverse_requires_coeffs(self):
        with pytest.raises(ValueError):
            haar_inverse(np.zeros((8, 8)))


class TestL1Norm:
    def test_matches_plain_summation(self, rng):
        x = random_complex(rng, (8, 8))
        expected = sum(abs(v) for v in x.ravel())
        assert abs(l1_norm(x) - expected) < 1e-9
        assert abs(l1_norm(haar_forward(x)) - np.abs(haar_forward(x).data).sum()) == 0

    def test_zero(self):
        assert l1_norm(np.zeros((4, 4))) == 0.0
