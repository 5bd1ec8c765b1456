import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from otkd.errors import InvalidInput
from otkd.harness import GRID, _region_centers
from otkd.pfkd import (ConvLayerSpec, extract_regions, init_projection,
                       receptive_field_extent, region_loss,
                       scatter_region_grads)


def impulse_hits(layers):
    """Input positions whose impulse reaches output unit 0 of the stack.

    Feed an impulse at every input position and run the stack as 1D
    convolutions (ones-kernels, valid padding, stride slicing).
    """
    length = 1
    for l in reversed(layers):
        length = (length - 1) * l.stride + l.kernel
    length += 4  # head-room so positions past the field exist
    hits = []
    for pos in range(length):
        y = np.zeros(length)
        y[pos] = 1.0
        for l in layers:
            y = np.convolve(y, np.ones(l.kernel), mode="valid")[::l.stride]
        if y.size and y[0] != 0:
            hits.append(pos)
    return hits


def simulated_extent(layers):
    """Receptive field measured by actually running 1D convolutions.

    Returns the span from the first to the last impulse that reaches output
    unit 0, inclusive. A layer with kernel < stride leaves holes inside that
    span, so the field is asserted free of holes only when every layer has
    kernel >= stride.
    """
    hits = impulse_hits(layers)
    assert hits and hits[0] == 0
    if all(l.kernel >= l.stride for l in layers):
        assert hits == list(range(len(hits)))
    return hits[-1] + 1


class TestReceptiveField:
    @pytest.mark.parametrize("kernels,strides,expect", [
        ([3], [1], 3),
        ([3, 3], [1, 1], 5),
        ([3, 3, 1], [1, 1, 1], 5),
        ([1], [1], 1),
        ([3, 3], [2, 1], 7),
        ([5, 3], [1, 2], 7),
        ([1, 3], [2, 1], 5),
        ([1, 5, 3, 1], [2, 1, 2, 2], 13),
    ])
    def test_known_stacks(self, kernels, strides, expect):
        head = [ConvLayerSpec(k, s) for k, s in zip(kernels, strides)]
        assert receptive_field_extent(head) == expect

    def test_oracle_sees_holes(self):
        # kernel 1 < stride 2 skips every other input: the field spans 5
        head = [ConvLayerSpec(1, 2), ConvLayerSpec(3, 1)]
        assert impulse_hits(head) == [0, 2, 4]
        assert simulated_extent(head) == 5

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_impulse_simulation(self, seed):
        rng = np.random.default_rng(seed)
        head = [ConvLayerSpec(int(rng.integers(1, 6)), int(rng.integers(1, 3)))
                for _ in range(rng.integers(1, 4))]
        assert receptive_field_extent(head) == simulated_extent(head)

    def test_rejects_empty_head(self):
        with pytest.raises(InvalidInput, match="at least one conv layer"):
            receptive_field_extent([])

    def test_rejects_bad_layer(self):
        with pytest.raises(InvalidInput, match="kernel/stride"):
            ConvLayerSpec(0)


def center(keypoint):
    """The harness's (row, col) grid center of one (x, y) pixel keypoint,
    at its feature-grid scale DELTA = 0.25."""
    return tuple(_region_centers(np.array([[keypoint]], dtype=float))[0, 0])


class TestRegionCenter:
    def test_scales_and_swaps_axes(self):
        # keypoint is (x, y); the center is (row, col) = (round dy, round dx)
        assert center((20.0, 8.0)) == (2, 5)

    def test_round_half_even(self):
        assert center((10.0, 6.0)) == (2, 2)   # 1.5 -> 2, 2.5 -> 2
        assert center((14.0, 2.0)) == (0, 4)   # 3.5 -> 4, 0.5 -> 0


def window(fmap, center, extent):
    """One region of an (H, W, C) map: `extract_regions` at B = K = 1."""
    regions, _ = extract_regions(fmap[None], np.array([[center]]), extent)
    return regions[0, 0]


class TestExtractRegion:
    def make_map(self):
        return np.arange(16, dtype=float).reshape(4, 4, 1)

    def test_interior_window(self):
        reg = window(self.make_map(), (1, 2), 3)
        np.testing.assert_array_equal(
            reg[0], [[1, 2, 3], [5, 6, 7], [9, 10, 11]])

    def test_corner_zero_padded(self):
        reg = window(self.make_map(), (0, 0), 3)
        np.testing.assert_array_equal(
            reg[0], [[0, 0, 0], [0, 0, 1], [0, 4, 5]])

    def test_even_extent_hangs_bottom_right(self):
        reg = window(self.make_map(), (1, 1), 2)
        np.testing.assert_array_equal(reg[0], [[5, 6], [9, 10]])

    def test_extent_one_is_the_cell_itself(self):
        reg = window(self.make_map(), (2, 3), 1)
        np.testing.assert_array_equal(reg[0], [[11.0]])

    def test_center_outside_rejected(self):
        with pytest.raises(InvalidInput, match="outside the"):
            window(self.make_map(), (4, 0), 3)
        with pytest.raises(InvalidInput, match="outside the"):
            window(self.make_map(), (0, -1), 3)


class TestInitProjection:
    def test_block_identity_when_divisible(self):
        proj = init_projection(2, 4)
        np.testing.assert_array_equal(
            proj, [[0.5, 0.0, 0.5, 0.0], [0.0, 0.5, 0.0, 0.5]])
        # the blocks average paired channels exactly
        data = np.array([1.0, 2.0, 3.0, 4.0]).reshape(4, 1, 1)
        out = np.einsum("sc,chw->shw", proj, data)
        np.testing.assert_allclose(out.ravel(), [2.0, 3.0])

    def test_random_fallback(self):
        proj = init_projection(3, 7)
        assert proj.shape == (3, 7)
        assert (np.abs(proj) <= 0.1).all()


def loop_pfkd_loss(teacher, student, P):
    """Reference: explicit double loop over region pairs, teacher (N, C, H, W)
    and student (M, C, H, W) regions of one scene."""
    N, M = len(teacher), len(student)
    cells = student[0].size
    total = 0.0
    for i in range(N):
        for j in range(M):
            total += P[j, i] * ((teacher[i] - student[j]) ** 2).sum()
    return total / (N * M * cells)


def make_regions(rng, n, shape):
    return np.stack([rng.normal(size=shape) for _ in range(n)])


def scene_region_loss(teacher, student, P):
    """One scene's loss and student gradient: `region_loss` at B = 1."""
    loss, dstudent, _ = region_loss(teacher[None], student[None],
                                    np.asarray(P, dtype=float)[None])
    return loss, dstudent[0]


class TestPfkdLoss:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        T = make_regions(rng, 4, (2, 3, 3))
        S = make_regions(rng, 3, (2, 3, 3))
        P = rng.uniform(0, 1, (3, 4))
        loss, _ = scene_region_loss(T, S, P)
        assert loss == pytest.approx(loop_pfkd_loss(T, S, P), rel=1e-12)

    def test_identical_regions_zero_loss(self):
        rng = np.random.default_rng(4)
        T = make_regions(rng, 3, (2, 2, 2))
        S = T.copy()
        loss, grad = scene_region_loss(T, S, np.eye(3) * (1 / 3))
        assert loss == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        T = make_regions(rng, 3, (2, 2, 2))
        S = make_regions(rng, 2, (2, 2, 2))
        P = rng.uniform(0, 1, (2, 3))
        _, grad = scene_region_loss(T, S, P)
        h = 1e-6
        for j in (0, 1):
            flat = S[j].ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up = loop_pfkd_loss(T, S, P)
                flat[idx] = orig - h
                dn = loop_pfkd_loss(T, S, P)
                flat[idx] = orig
                fd = (up - dn) / (2 * h)
                assert grad[j].ravel()[idx] == pytest.approx(fd, abs=1e-6)

    def test_linear_in_plan(self):
        rng = np.random.default_rng(6)
        T = make_regions(rng, 2, (1, 2, 2))
        S = make_regions(rng, 2, (1, 2, 2))
        P = rng.uniform(0, 1, (2, 2))
        l1, g1 = scene_region_loss(T, S, P)
        l2, g2 = scene_region_loss(T, S, 2.0 * P)
        assert l2 == pytest.approx(2 * l1, rel=1e-12)
        np.testing.assert_allclose(g2, 2 * g1, atol=1e-12)

    def test_zero_plan_column_ignores_student_region(self):
        rng = np.random.default_rng(7)
        T = make_regions(rng, 2, (1, 2, 2))
        S = make_regions(rng, 2, (1, 2, 2))
        P = rng.uniform(0.1, 1, (2, 2))
        P[1, :] = 0.0  # student region 1 carries no mass
        _, grad = scene_region_loss(T, S, P)
        np.testing.assert_array_equal(grad[1], 0.0)

    def test_rejects_plan_shape(self):
        rng = np.random.default_rng(8)
        with pytest.raises(InvalidInput, match="student-major"):
            scene_region_loss(make_regions(rng, 2, (1, 2, 2)),
                              make_regions(rng, 3, (1, 2, 2)),
                              np.zeros((2, 3)))

    def test_rejects_unadapted_regions(self):
        rng = np.random.default_rng(9)
        with pytest.raises(InvalidInput, match="adaptation"):
            scene_region_loss(make_regions(rng, 2, (3, 2, 2)),
                              make_regions(rng, 2, (1, 2, 2)),
                              np.zeros((2, 2)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_nonnegative_for_nonnegative_plans(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        T = make_regions(rng, n, (2, 2, 2))
        S = make_regions(rng, m, (2, 2, 2))
        loss, _ = scene_region_loss(T, S, rng.uniform(0, 1, (m, n)))
        assert loss >= 0.0


def padded_window(data, center, extent):
    """Reference window: zero-pad the (H, W, C) map, slice it, and put the
    channels first, as regions have them."""
    lo = (extent - 1) // 2
    padded = np.pad(data, ((lo, extent), (lo, extent), (0, 0)))
    r, c = center
    return padded[r:r + extent, c:c + extent].transpose(2, 0, 1)


def loop_region_grads(T, S, P):
    """Reference student and teacher gradients of one scene's loss by loops."""
    N, M = len(T), len(S)
    coef = 2.0 / (N * M * S[0].size)
    dS = np.zeros_like(S)
    dT = np.zeros_like(T)
    for i in range(N):
        for j in range(M):
            dS[j] += coef * P[j, i] * (S[j] - T[i])
            dT[i] += coef * P[j, i] * (T[i] - S[j])
    return dS, dT


def region_dims():
    return st.tuples(st.integers(2, 4), st.integers(1, 4), st.integers(1, 4),
                     st.integers(1, 3), st.integers(1, 4), st.integers(1, 4),
                     st.integers(0, 10_000))


@st.composite
def region_cases(draw):
    """(B, H, W, C) maps, (B, K, 2) centers anywhere on them, an extent."""
    B, K, C, H, W, extent, seed = draw(region_dims())
    rng = np.random.default_rng(seed)
    centers = np.stack([rng.integers(0, H, (B, K)),
                        rng.integers(0, W, (B, K))], axis=-1)
    return rng.normal(size=(B, H, W, C)), centers, extent


def grid_case(extent):
    """Maps of the harness's size with centers inside and on all four
    borders."""
    fmaps = np.random.default_rng(extent).normal(size=(2, GRID, GRID, 3))
    centers = np.array([[[0, 0], [0, 7], [5, GRID - 1], [8, 8]],
                        [[GRID - 1, GRID - 1], [3, 0], [GRID - 1, 2], [9, 4]]])
    return fmaps, centers, extent


class TestBatchedForms:
    """The batched library forms against per-scene loop references."""

    @settings(max_examples=40, deadline=None)
    @given(region_dims())
    def test_region_loss_matches_scene_loop(self, dims):
        B, M, N, C, H, W, seed = dims
        rng = np.random.default_rng(seed)
        T = rng.normal(size=(B, N, C, H, W))
        S = rng.normal(size=(B, M, C, H, W))
        P = rng.uniform(0, 1, (B, M, N))
        loss, dS, dT = region_loss(T, S, P)
        ref = np.mean([loop_pfkd_loss(T[b], S[b], P[b]) for b in range(B)])
        assert loss == pytest.approx(ref, rel=1e-12)
        for b in range(B):
            rS, rT = loop_region_grads(T[b], S[b], P[b])
            np.testing.assert_allclose(dS[b], rS / B, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(dT[b], rT / B, rtol=1e-12, atol=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(region_cases())
    @example(grid_case(1))
    @example(grid_case(3))
    @example(grid_case(4))
    def test_extract_matches_padded_window(self, case):
        fmaps, centers, extent = case
        regions, _ = extract_regions(fmaps, centers, extent)
        for b in range(len(fmaps)):
            for k in range(centers.shape[1]):
                np.testing.assert_array_equal(
                    regions[b, k], padded_window(fmaps[b], centers[b, k], extent))

    @settings(max_examples=40, deadline=None)
    @given(region_cases())
    @example(grid_case(1))
    @example(grid_case(3))
    @example(grid_case(4))
    def test_scatter_is_the_adjoint_of_extract(self, case):
        fmaps, centers, extent = case
        regions, idx = extract_regions(fmaps, centers, extent)
        d = np.random.default_rng(fmaps.size).normal(size=regions.shape)
        scattered = np.zeros_like(fmaps)
        scatter_region_grads(scattered, d, idx)
        # <extract(x), d> == <x, scatter(d)> for every x
        assert (regions * d).sum() == pytest.approx((fmaps * scattered).sum(),
                                                    rel=1e-12, abs=1e-12)

    def test_rejects_center_outside(self):
        fmaps = np.zeros((2, 4, 6, 1))
        with pytest.raises(InvalidInput, match="outside the"):
            extract_regions(fmaps, np.array([[[0, 5]], [[4, 0]]]), 3)
        extract_regions(fmaps, np.array([[[0, 5]], [[3, 0]]]), 3)

    def test_rejects_plan_and_region_shapes(self):
        T = np.zeros((2, 3, 1, 2, 2))
        S = np.zeros((2, 4, 1, 2, 2))
        with pytest.raises(InvalidInput, match="student-major"):
            region_loss(T, S, np.zeros((2, 3, 4)))
        with pytest.raises(InvalidInput, match="adaptation"):
            region_loss(T, S[:, :, :, :1], np.zeros((2, 4, 3)))
