import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otkd import harness
from otkd.errors import InvalidInput
from otkd.pfkd import receptive_field_extent
from otkd.regressor import (_BLOCK, Backbone, Conv2d, RegressorSpec,
                            ToyRegressor, backbone_columns, im2col)

SPEC = RegressorSpec(in_channels=4, channels=3, num_keypoints=2, grid=8,
                     image_size=32.0, softmax_beta=5.0)


def make_net(seed=0, spec=SPEC):
    return ToyRegressor(spec, np.random.default_rng(seed))


def nhwc(x):
    """A (B, C, H, W) draw in the conv's channels-last layout."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1))


def correlate(x, conv):
    """Direct same-padded correlation of NHWC `x` with `conv`'s weights, in
    float64: out[b, i, j, o] = sum over c, di, dj of
    xpad[b, i + di, j + dj, c] * w[o, c, di, dj], plus the bias."""
    B, H, W, C = x.shape
    k, pad = conv.kernel, conv.pad
    w = conv.weight.astype(float).reshape(conv.c_out, C, k, k)
    xp = np.pad(x.astype(float), ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    out = np.zeros((B, H, W, conv.c_out)) + conv.bias
    for di in range(k):
        for dj in range(k):
            out += np.einsum("bhwc,oc->bhwo", xp[:, di:di + H, dj:dj + W],
                             w[:, :, di, dj])
    return out


def im2col_reference(x, k):
    """The column build without a workspace: pad, then copy the k*k windows
    out of a 6-D strided view of the padded input."""
    pad = (k - 1) // 2
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    B, H, W, C = x.shape
    Ho, Wo = H - k + 1, W - k + 1
    s = x.strides
    win = np.lib.stride_tricks.as_strided(
        x, (B, Ho, Wo, C, k, k), (s[0], s[1], s[2], s[3], s[1], s[2]))
    return win.reshape(B, Ho, Wo, C * k * k)


def input_grad_reference(conv, dy):
    """The input gradient as col2im: `dy @ weight` scattered onto the padded
    input tap by tap, in (di, dj) order, over the whole batch at once."""
    B, Ho, Wo, c_out = dy.shape
    k, pad = conv.kernel, conv.pad
    dcols = (dy.reshape(-1, c_out) @ conv.weight).reshape(B, Ho, Wo, conv.c_in, k, k)
    dxp = np.zeros((B, Ho + 2 * pad, Wo + 2 * pad, conv.c_in), dy.dtype)
    for di in range(k):
        for dj in range(k):
            dxp[:, di:di + Ho, dj:dj + Wo] += dcols[:, :, :, :, di, dj]
    return dxp[:, pad:Ho + pad, pad:Wo + pad] if pad else dxp


def awkward(rng, shape, dtype=np.float32, nonfinite=False):
    """Normal draws with about a third of the entries replaced by float32
    subnormals, +0.0 and -0.0, and with `nonfinite` about one in twenty by
    NaN, inf and -inf."""
    x = rng.normal(size=shape).astype(dtype)
    pick = rng.integers(0, 8, size=shape)
    x[pick == 1] = (rng.uniform(-1.0, 1.0, size=shape) * 1e-39)[pick == 1]
    x[pick == 2] = 0.0
    x[pick == 3] = -0.0
    if nonfinite:
        bad = rng.integers(0, 60, size=shape)
        x[bad == 1], x[bad == 2], x[bad == 3] = np.nan, np.inf, -np.inf
    return x


LIFT = np.float32(2.0 ** 23)


def unlifted(cols):
    """The columns that `backbone_columns` lifted, as a contiguous array."""
    return np.ascontiguousarray(cols * np.float32(2.0 ** -23))


conv_shapes = st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4),
                        st.sampled_from((1, 3)), st.integers(1, 6),
                        st.integers(1, 6), st.integers(0, 10_000))


# batches that end on, before and after every block boundary, maps of 1-6
# cells a side and the 16-cell grid, kernels with and without a border
exact_shapes = st.tuples(st.integers(1, 2 * _BLOCK + 1),
                         st.integers(1, 6) | st.just(16),
                         st.integers(1, 6) | st.just(16),
                         st.integers(1, 13), st.integers(1, 13),
                         st.sampled_from((1, 3)), st.integers(0, 2**32 - 1))


class TestIm2col:
    def test_matches_naive_window_gather(self):
        rng = np.random.default_rng(0)
        x = nhwc(rng.normal(size=(2, 3, 5, 5)))
        cols = im2col(x, np.zeros((2, 5, 5, 3, 3, 3)))
        assert cols.shape == (2, 5, 5, 27)
        padded = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
        # window at output (2, 3) spans padded rows 2..4, cols 3..5, in
        # (c, di, dj) order
        np.testing.assert_array_equal(
            cols[1, 2, 3], padded[1, 2:5, 3:6, :].transpose(2, 0, 1).ravel())

    def test_kernel_one_is_channel_vector(self):
        rng = np.random.default_rng(1)
        x = nhwc(rng.normal(size=(1, 4, 3, 3)))
        cols = Conv2d(4, 2, 1, rng).columns(x)
        np.testing.assert_array_equal(cols[0, 1, 2], x[0, 1, 2, :])
        # a 1x1 kernel's columns are its input, not a copy
        assert np.shares_memory(cols, x)

    def test_backbone_columns_of_channels_last_input(self):
        x = np.random.default_rng(2).normal(size=(2, 5, 5, 4))
        cols = backbone_columns(x)
        assert cols.dtype == np.float32
        np.testing.assert_array_equal(
            cols, im2col_reference(x.astype(np.float32), 3) * LIFT)

    @settings(max_examples=80, deadline=None)
    @given(exact_shapes)
    def test_columns_are_the_reference_bytes(self, shape):
        # signed zeros and subnormals included: a copy may not touch a bit
        B, H, W, c_in, c_out, k, seed = shape
        rng = np.random.default_rng(seed)
        conv = Conv2d(c_in, c_out, k, rng)
        x = awkward(rng, (B, H, W, c_in))
        assert conv.columns(x).tobytes() == im2col_reference(x, k).tobytes()
        # a refill of the kept workspace is as good as the first build
        y = awkward(rng, (B, H, W, c_in))
        assert conv.columns(y).tobytes() == im2col_reference(y, k).tobytes()
        # the backbone's lifted build, from a float64 batch rounded to
        # float32 first
        assert backbone_columns(x).tobytes() == (
            im2col_reference(x, 3) * LIFT).tobytes()
        z = awkward(rng, (B, H, W, c_in), np.float64, nonfinite=True)
        assert backbone_columns(z).tobytes() == (im2col_reference(
            z.astype(np.float32), 3) * LIFT).tobytes()

    def test_workspace_follows_the_input_shape(self):
        rng = np.random.default_rng(3)
        conv = Conv2d(3, 2, 3, rng)
        first, again = awkward(rng, (2, 5, 5, 3)), awkward(rng, (2, 5, 5, 3))
        other = awkward(rng, (_BLOCK + 1, 4, 6, 3))
        a = conv.columns(first)
        assert a.tobytes() == im2col_reference(first, 3).tobytes()
        # the same shape refills the same workspace
        assert np.shares_memory(conv.columns(again), a)
        # a new shape, then the first shape again: fresh columns each time
        b = conv.columns(other)
        assert not np.shares_memory(b, a)
        assert b.tobytes() == im2col_reference(other, 3).tobytes()
        c = conv.columns(first)
        assert not np.shares_memory(c, b)
        assert c.tobytes() == im2col_reference(first, 3).tobytes()
        # the border, where a tap falls outside the input, is zero
        taps = c.reshape(2, 5, 5, 3, 3, 3)
        for border in (taps[:, 0, :, :, 0], taps[:, -1, :, :, 2],
                       taps[:, :, 0, :, :, 0], taps[:, :, -1, :, :, 2]):
            assert not border.any()


class TestConv2d:
    def test_matches_scipy_correlate(self):
        scipy_signal = pytest.importorskip("scipy.signal")
        rng = np.random.default_rng(2)
        conv = Conv2d(2, 3, 3, rng)
        x = nhwc(rng.normal(size=(1, 2, 6, 6)).astype(np.float32))
        y = conv.forward(conv.columns(x))
        w = conv.weight.reshape(3, 2, 3, 3)
        for o in range(3):
            want = sum(scipy_signal.correlate2d(x[0, :, :, c], w[o, c], mode="same")
                       for c in range(2)) + conv.bias[o]
            np.testing.assert_allclose(y[0, :, :, o], want, atol=1e-5)

    @settings(max_examples=60, deadline=None)
    @given(conv_shapes)
    def test_forward_matches_direct_correlation(self, shape):
        B, c_in, c_out, k, H, W, seed = shape
        rng = np.random.default_rng(seed)
        conv = Conv2d(c_in, c_out, k, rng)
        conv.bias = rng.normal(size=c_out).astype(np.float32)
        x = rng.normal(size=(B, H, W, c_in)).astype(np.float32)
        y = conv.forward(conv.columns(x))
        assert y.shape == (B, H, W, c_out)
        np.testing.assert_allclose(y, correlate(x, conv), rtol=1e-5, atol=1e-5)

    @settings(max_examples=60, deadline=None)
    @given(conv_shapes)
    def test_backward_is_adjoint_of_forward(self, shape):
        # with zero bias the conv is linear in x: <conv(x), dy> = <x, dx>
        B, c_in, c_out, k, H, W, seed = shape
        rng = np.random.default_rng(seed)
        conv = Conv2d(c_in, c_out, k, rng)
        x = rng.normal(size=(B, H, W, c_in)).astype(np.float32)
        dy = rng.normal(size=(B, H, W, c_out)).astype(np.float32)
        y = conv.forward(conv.columns(x))
        dx = conv.backward(dy)
        assert dx.shape == x.shape
        lhs = float((y.astype(float) * dy).sum())
        rhs = float((x.astype(float) * dx).sum())
        assert lhs == pytest.approx(rhs, rel=1e-4, abs=1e-4)

    @settings(max_examples=80, deadline=None)
    @given(exact_shapes)
    def test_input_gradient_is_the_reference_bytes(self, shape):
        B, H, W, c_in, c_out, k, seed = shape
        rng = np.random.default_rng(seed)
        conv = Conv2d(c_in, c_out, k, rng)
        x = awkward(rng, (B, H, W, c_in))
        dy = awkward(rng, (B, H, W, c_out))
        conv.forward(conv.columns(x))
        dx = conv.backward(dy)
        assert dx.tobytes() == input_grad_reference(conv, dy).tobytes()
        # the kept workspace feeds the weight gradient as a fresh contiguous
        # build would (with C_in = 1 and W = 1 the reference's columns are a
        # strided view of its padded input, which numpy multiplies off BLAS)
        cols = np.ascontiguousarray(im2col_reference(x, k)).reshape(B * H * W, -1)
        want = dy.reshape(-1, c_out).T @ cols
        assert conv.grad_weight.tobytes() == want.tobytes()

    def test_gradcheck_weights(self):
        rng = np.random.default_rng(3)
        conv = Conv2d(2, 2, 3, rng)
        x = nhwc(rng.normal(size=(2, 2, 4, 4)).astype(np.float32))
        g = nhwc(np.random.default_rng(4).normal(size=(2, 2, 4, 4)).astype(np.float32))
        cols = conv.columns(x)

        def loss():
            return float((conv.forward(cols) * g).sum())

        loss()
        conv.backward(g)
        got = conv.grad_weight.copy()
        h = 1e-3  # float32 parameters: keep h above the rounding floor
        for idx in [(0, 0), (1, 5), (0, 17), (1, 11)]:
            orig = conv.weight[idx]
            conv.weight[idx] = orig + h
            up = loss()
            conv.weight[idx] = orig - h
            dn = loss()
            conv.weight[idx] = orig
            fd = (up - dn) / (2 * h)
            assert got[idx] == pytest.approx(fd, rel=2e-2, abs=2e-3)

    def test_gradcheck_input(self):
        rng = np.random.default_rng(5)
        conv = Conv2d(2, 2, 3, rng)
        x = nhwc(rng.normal(size=(1, 2, 4, 4)).astype(np.float32))
        g = nhwc(np.random.default_rng(6).normal(size=(1, 2, 4, 4)).astype(np.float32))
        conv.forward(conv.columns(x))
        dx = conv.backward(g)
        h = 1e-3
        # (b, h, w, c): the channels-first points (0,0,0,0), (0,1,2,3), (0,0,3,1)
        for idx in [(0, 0, 0, 0), (0, 2, 3, 1), (0, 3, 1, 0)]:
            xp = x.copy()
            xp[idx] += h
            up = float((conv.forward(conv.columns(xp)) * g).sum())
            xm = x.copy()
            xm[idx] -= h
            dn = float((conv.forward(conv.columns(xm)) * g).sum())
            fd = (up - dn) / (2 * h)
            assert dx[idx] == pytest.approx(fd, rel=2e-2, abs=2e-3)

    def test_without_input_grad_sets_the_same_parameter_gradients(self):
        # the backbone's backward, on lifted columns, returns no input
        # gradient and sets a plain conv's parameter gradients
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 5, 5, 3)).astype(np.float32)
        conv = Conv2d(3, 2, 3, np.random.default_rng(8))
        backbone = Backbone(3, 2, 3, np.random.default_rng(8))
        dy = rng.normal(size=(2, 5, 5, 2)).astype(np.float32)
        conv.forward(conv.columns(x))
        assert conv.backward(dy) is not None
        backbone.forward(backbone_columns(x))
        assert backbone.backward(dy) is None
        assert backbone.grad_weight.tobytes() == conv.grad_weight.tobytes()
        assert backbone.grad_bias.tobytes() == conv.grad_bias.tobytes()


class TestBackbone:
    """The backbone on lifted columns against the plain product on unlifted
    ones, with the backbone's parameters and the same upstream gradient."""

    @staticmethod
    def lifted(backbone, x, dy):
        y = backbone.forward(backbone_columns(x))
        assert backbone.backward(dy) is None
        return y, backbone.grad_weight

    @staticmethod
    def plain(backbone, x, dy):
        cols = np.ascontiguousarray(im2col_reference(x, 3))
        y = cols @ backbone.weight.T + backbone.bias
        return y, dy.reshape(-1, dy.shape[-1]).T @ cols.reshape(-1, cols.shape[-1])

    def assert_plain_bytes(self, backbone, x, dy):
        with np.errstate(invalid="ignore"):  # inf - inf, 0 * inf and NaN sums
            got, want = self.lifted(backbone, x, dy), self.plain(backbone, x, dy)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    @settings(max_examples=80, deadline=None)
    @given(exact_shapes, st.booleans(), st.booleans())
    def test_lifted_bytes_are_the_plain_bytes(self, shape, odd_weight, odd_dy):
        # awkward columns on the lifted path; an awkward weight or upstream
        # gradient (subnormals, NaN) takes the unlifting fallback
        B, H, W, c_in, c_out, _, seed = shape
        rng = np.random.default_rng(seed)
        backbone = Backbone(c_in, c_out, 3, rng)
        backbone.bias = rng.normal(size=c_out).astype(np.float32)
        if odd_weight:
            backbone.weight = awkward(rng, backbone.weight.shape, nonfinite=True)
        x = awkward(rng, (B, H, W, c_in), nonfinite=True)
        dy = (awkward(rng, (B, H, W, c_out), nonfinite=True) if odd_dy
              else rng.normal(size=(B, H, W, c_out)).astype(np.float32))
        self.assert_plain_bytes(backbone, x, dy)

    @pytest.mark.parametrize("tiny", [np.float32(1e-35), np.float32(np.nan)])
    def test_a_weight_the_drop_would_round_falls_back(self, tiny):
        # output channel 0 is one product, so a rounded weight would show
        assert not tiny * np.float32(2.0 ** -23) * LIFT == tiny
        rng = np.random.default_rng(9)
        backbone = Backbone(2, 3, 3, rng)
        backbone.weight[0] = 0.0
        backbone.weight[0, 4] = tiny
        x = rng.normal(size=(2, 4, 5, 2)).astype(np.float32)
        dy = rng.normal(size=(2, 4, 5, 3)).astype(np.float32)
        self.assert_plain_bytes(backbone, x, dy)

    @pytest.mark.parametrize("tiny", [np.float32(1e-33), np.float32(np.nan)])
    def test_an_upstream_gradient_the_drop_would_round_falls_back(self, tiny):
        # weight-gradient row 0 is one product per column, so a rounded dy
        # would show
        assert not tiny * np.float32(2.0 ** -23) * LIFT == tiny
        rng = np.random.default_rng(10)
        backbone = Backbone(2, 3, 3, rng)
        x = rng.normal(size=(2, 4, 5, 2)).astype(np.float32)
        dy = rng.normal(size=(2, 4, 5, 3)).astype(np.float32)
        dy[..., 0] = 0.0
        dy[1, 2, 3, 0] = tiny
        self.assert_plain_bytes(backbone, x, dy)

    def test_columns_reject_an_input_whose_lift_could_overflow(self):
        x = np.zeros((1, 3, 3, 2), np.float32)
        below = np.nextafter(np.float32(2.0 ** 104), np.float32(0.0))
        for v in (below, -below, np.inf, -np.inf, np.nan):
            x[0, 1, 1, 0] = v
            assert backbone_columns(x).tobytes() == (
                im2col_reference(x, 3) * LIFT).tobytes()
        for v in (2.0 ** 104, -2.0 ** 104, np.finfo(np.float32).max):
            x[0, 1, 1, 0] = v
            with pytest.raises(InvalidInput, match="2\\^104"):
                backbone_columns(x)
        with pytest.raises(InvalidInput):
            backbone_columns(np.full((1, 2, 2, 1), 1e300))


class TestToyRegressor:
    def test_output_shapes_and_ranges(self):
        net = make_net()
        x = np.random.default_rng(7).normal(size=(3, 8, 8, 4))
        kps, feats = net.forward(backbone_columns(x))
        assert kps.shape == (3, 2, 2)
        assert feats.shape == (3, 8, 8, 3)
        # soft-argmax of grid cells stays inside the image
        assert (kps >= 0).all() and (kps <= 32.0).all()
        assert (np.abs(feats) <= 1.0).all()

    def test_deterministic_for_same_seed(self):
        x = backbone_columns(np.random.default_rng(8).normal(size=(2, 8, 8, 4)))
        a, _ = make_net(seed=11).forward(x)
        b, _ = make_net(seed=11).forward(x)
        np.testing.assert_array_equal(a, b)
        c, _ = make_net(seed=12).forward(x)
        assert not np.array_equal(a, c)

    def test_head_spec_feeds_receptive_field(self):
        net = make_net()
        specs = net.head_spec()
        assert [(s.kernel, s.stride) for s in specs] == [(3, 1), (1, 1)]
        assert receptive_field_extent(specs) == 3

    def test_parameter_and_gradient_lists_align(self):
        net = make_net()
        params = net.parameters()
        grads = net.gradients()
        assert len(params) == len(grads) == 6
        for p, g in zip(params, grads):
            assert p.shape == g.shape

    def test_keypoint_gradcheck(self):
        # full-network check against central differences of a scalar loss
        net = make_net(seed=20)
        rng = np.random.default_rng(21)
        x = backbone_columns(rng.normal(size=(2, 8, 8, 4)).astype(np.float32))
        target = rng.uniform(4.0, 28.0, (2, 2, 2))

        def loss_value():
            kps, _ = net.forward(x)
            return float(((kps - target) ** 2).sum())

        kps, _ = net.forward(x)
        dkps = 2.0 * (kps - target)
        net.backward(dkps, None)
        grads = [g.copy() for g in net.gradients()]
        h = 1e-2
        checked = 0
        for p, g in zip(net.parameters(), grads):
            flat = p.ravel()
            for idx in range(0, flat.size, max(1, flat.size // 3)):
                orig = flat[idx]
                flat[idx] = orig + h
                up = loss_value()
                flat[idx] = orig - h
                dn = loss_value()
                flat[idx] = orig
                fd = (up - dn) / (2 * h)
                assert g.ravel()[idx] == pytest.approx(fd, rel=5e-2, abs=5e-3)
                checked += 1
        assert checked >= 12

    def test_feature_gradient_path(self):
        # dfeats flows into the backbone: gradcheck the backbone bias through
        # a pure feature loss
        net = make_net(seed=30)
        rng = np.random.default_rng(31)
        x = backbone_columns(rng.normal(size=(1, 8, 8, 4)).astype(np.float32))
        gmat = rng.normal(size=(1, 8, 8, 3)).astype(np.float32)

        def loss_value():
            _, feats = net.forward(x)
            return float((feats * gmat).sum())

        kps, feats = net.forward(x)
        net.backward(np.zeros_like(kps), dfeats=gmat)
        got = net.backbone.grad_bias.copy()
        h = 1e-2
        for idx in range(3):
            orig = net.backbone.bias[idx]
            net.backbone.bias[idx] = orig + h
            up = loss_value()
            net.backbone.bias[idx] = orig - h
            dn = loss_value()
            net.backbone.bias[idx] = orig
            fd = (up - dn) / (2 * h)
            assert got[idx] == pytest.approx(fd, rel=5e-2, abs=5e-3)

    def test_gd_step_descends(self):
        net = make_net(seed=40)
        rng = np.random.default_rng(41)
        x = backbone_columns(rng.normal(size=(4, 8, 8, 4)).astype(np.float32))
        target = rng.uniform(8.0, 24.0, (4, 2, 2))
        losses = []
        for _ in range(60):
            kps, _ = net.forward(x)
            losses.append(float(((kps - target) ** 2).mean()))
            net.backward(2.0 * (kps - target) / (kps.shape[0] * kps.shape[1]),
                         None)
            net.gd_step(0.01)
        assert losses[-1] < 0.1 * losses[0]

    def test_gd_step_keeps_dtype(self):
        net = make_net()
        x = np.random.default_rng(42).normal(size=(1, 8, 8, 4))
        kps, _ = net.forward(backbone_columns(x))
        net.backward(np.ones_like(kps), None)
        net.gd_step(0.01)
        for p in net.parameters():
            assert p.dtype == np.float32

    def test_columns_built_once_match_fresh_columns(self):
        # training reuses one build of a batch's columns every epoch; each
        # step must give the bytes that freshly built columns give
        x = np.random.default_rng(43).normal(size=(3, 8, 8, 4))
        target = np.random.default_rng(44).uniform(8.0, 24.0, (3, 2, 2))
        once = backbone_columns(x)
        kept, fresh = make_net(seed=45), make_net(seed=45)
        for _ in range(5):
            for net, cols in ((kept, once), (fresh, backbone_columns(x))):
                kps, feats = net.forward(cols)
                net.backward(kps - target, dfeats=feats)
                net.gd_step(0.01)
            for a, b in zip(kept.parameters(), fresh.parameters()):
                assert a.tobytes() == b.tobytes()
        assert once.tobytes() == backbone_columns(x).tobytes()
        assert kept.forward(once)[0].tobytes() == fresh.forward(
            backbone_columns(x))[0].tobytes()

    def test_dropping_training_state_keeps_every_byte(self):
        # a frozen net forgets its activations, columns and workspace; its
        # next forward, and training on from it, give what the net that
        # kept them gives
        cols = backbone_columns(np.random.default_rng(46).normal(size=(3, 8, 8, 4)))
        target = np.random.default_rng(47).uniform(8.0, 24.0, (3, 2, 2))
        kept, dropped = make_net(seed=48), make_net(seed=48)
        for step in range(4):
            outs = []
            for net in (kept, dropped):
                kps, feats = net.forward(cols)
                net.backward(kps - target, dfeats=feats)
                net.gd_step(0.01)
                outs.append([kps.tobytes(), feats.tobytes()]
                            + [p.tobytes() for p in net.parameters()])
            assert outs[0] == outs[1]
            dropped.drop_training_state()
            assert dropped._cache is None
            for layer in (dropped.backbone, *dropped.head):
                assert layer._cols is None and layer._work is None


class ReferenceConv2d(Conv2d):
    """`Conv2d` with fresh padded columns and a whole-batch col2im."""

    def columns(self, x):
        return im2col_reference(x, self.kernel)

    def backward(self, dy):
        dyf = dy.reshape(-1, self.c_out)
        self.grad_weight = dyf.T @ self._cols.reshape(-1, self._cols.shape[-1])
        self.grad_bias = dyf.sum(axis=0)
        return input_grad_reference(self, dy)


class ReferenceRegressor(ToyRegressor):
    """`ToyRegressor` on `ReferenceConv2d` layers, its backbone taking the
    plain product on unlifted columns, and taking the logits' max on their
    strided layout."""

    def __init__(self, spec, rng):
        super().__init__(spec, rng)
        for layer in (self.backbone, *self.head):
            layer.__class__ = ReferenceConv2d

    def forward(self, cols):
        feats = np.tanh(self.backbone.forward(unlifted(cols)))
        a = np.tanh(self.head[0].forward(self.head[0].columns(feats)))
        scores = self.head[1].forward(self.head[1].columns(a)).transpose(0, 3, 1, 2)
        B, M, g, _ = scores.shape
        logits = (self.spec.softmax_beta * scores).reshape(B, M, -1)
        logits -= logits.max(axis=2, keepdims=True)
        e = np.exp(logits)
        prob = e / e.sum(axis=2, keepdims=True)
        kps = np.stack([(prob @ self._cols + 0.5) / self.spec.delta,
                        (prob @ self._rows + 0.5) / self.spec.delta], axis=2)
        self._cache = (feats, a, prob)
        return kps, feats


def test_training_cannot_tell_the_conv_from_its_reference():
    # teacher size: 24 scenes, 12 channels; a byte the arithmetic sees that
    # moved would reshuffle the report rows
    cfg = dataclasses.replace(harness.TrainingConfig(), gamma_p=0.0, gamma_f=0.0,
                              num_keypoints=harness.NUM_CORNERS, epochs=20)
    scenes = harness.make_scenes(24, np.random.default_rng(5))
    spec = harness._spec(cfg, 12, harness.NUM_CORNERS)
    runs = []
    for cls in (ReferenceRegressor, ToyRegressor):
        net = cls(spec, np.random.default_rng(6))
        harness._train(net, scenes.cols, scenes.keypoints, None, cfg, None,
                       "teacher")
        kps, _ = net.forward(scenes.cols)
        runs.append([p.tobytes() for p in net.parameters()] + [kps.tobytes()])
    assert type(net.backbone) is Backbone and type(net.head[0]) is Conv2d
    assert runs[0] == runs[1]
