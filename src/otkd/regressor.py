"""A small convolutional keypoint regressor trained with plain gradient
descent and hand-written backpropagation.

Architecture: one 3x3 conv + tanh producing the feature map F (exposed for
feature distillation), then a head of 3x3 conv + tanh and 1x1 conv producing
M score maps, decoded by a spatial-softmax soft-argmax into grid coordinates.
tanh keeps every path twice differentiable, which the finite-difference
checks rely on.

All convolutions are stride-1 and same-padded; the head's layer spec is what
`pfkd.receptive_field_extent` consumes to size feature regions.

Feature maps are channels-last (B, H, W, C) from the scene encoding to the
feature regions, the layout of the column matmul `cols @ weight.T`, so
nothing transposes them.  Training is full-batch: every net and epoch on a
batch reads the columns that `backbone_columns` built once for it.  The
input is data: the backbone computes only its parameter gradients.

The conv moves data without changing a byte that its arithmetic sees.  One
builder, `im2col`, writes the shifted slices of the unpadded input into a
zero-bordered array, which each 3x3 head layer keeps as its workspace across
epochs; the input gradient scatters the column gradient `dy @ weight` back
tap by tap.  Every matmul and sum keeps its operands' layout, because the
summation order of numpy and BLAS follows it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pfkd import ConvLayerSpec

_DT = np.float32
_BACKBONE_KERNEL = 3
_BLOCK = 8  # scenes per block of the column build and the gradient scatter


def im2col(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Writes the stride-1, same-padded patches of (B, H, W, C) `x` into
    `out`, a (B, H, W, C, k, k) array with a zero border, and returns `out`
    as (B, H, W, C*k*k) columns in (c, di, dj) order.

    Tap (di, dj) of cell (i, j) is x[i + di - pad, j + dj - pad].  Where that
    falls outside `x` lies the border, which is never written: so `out` can
    be refilled for every input of its shape and stays zero there.  Each
    block of `_BLOCK` scenes is written tap by tap while it is in cache."""
    B, H, W, C, k, _ = out.shape
    pad = (k - 1) // 2
    for b in range(0, B, _BLOCK):
        src, dst = x[b:b + _BLOCK], out[b:b + _BLOCK]
        for di in range(k):
            r0, r1 = max(0, pad - di), min(H, H + pad - di)
            for dj in range(k):
                c0, c1 = max(0, pad - dj), min(W, W + pad - dj)
                dst[:, r0:r1, c0:c1, :, di, dj] = src[
                    :, r0 + di - pad:r1 + di - pad, c0 + dj - pad:c1 + dj - pad]
    return out.reshape(B, H, W, C * k * k)


def backbone_columns(x: np.ndarray) -> np.ndarray:
    """(B, G, G, C_in) network inputs -> the float32 columns that
    `ToyRegressor.forward` takes.  Every backbone has the same kernel, so one
    build serves every net and every epoch on the same batch."""
    k = _BACKBONE_KERNEL
    return im2col(x, np.zeros((*x.shape, k, k), _DT))


class Conv2d:
    """Same-padded stride-1 convolution on channels-last columns; keeps the
    columns of the last forward for backprop."""

    def __init__(self, c_in: int, c_out: int, kernel: int, rng: np.random.Generator):
        self.c_in, self.c_out, self.kernel = c_in, c_out, kernel
        self.pad = (kernel - 1) // 2
        bound = 1.0 / np.sqrt(c_in * kernel * kernel)
        self.weight = rng.uniform(-bound, bound, (c_out, c_in * kernel * kernel)).astype(_DT)
        self.bias = np.zeros(c_out, _DT)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._work = None
        self._cols = None

    def spec(self) -> ConvLayerSpec:
        return ConvLayerSpec(kernel=self.kernel, stride=1)

    def columns(self, x: np.ndarray) -> np.ndarray:
        """(B, H, W, C_in) input -> the columns `forward` takes.

        A 1x1 layer's columns are `x` itself.  A larger kernel's are built in
        the layer's workspace, allocated zeroed on the first call and again
        only when the input's shape changes.  So the columns stay valid until
        this layer's next `columns` call; `forward` keeps them for
        `backward`."""
        if self.kernel == 1:
            return x
        k = self.kernel
        if self._work is None or self._work.shape[:4] != x.shape:
            self._work = np.zeros((*x.shape, k, k), x.dtype)
        return im2col(x, self._work)

    def forward(self, cols: np.ndarray) -> np.ndarray:
        """(B, H, W, C_in*k*k) columns -> (B, H, W, C_out) output."""
        self._cols = cols
        return cols @ self.weight.T + self.bias

    def backward(self, dy: np.ndarray, *, input_grad: bool = True) -> np.ndarray | None:
        """dy: (B, H, W, C_out).  Sets the parameter gradients and returns the
        (B, H, W, C_in) input gradient, or None when `input_grad` is False.

        The input gradient scatters the column gradient `dy @ weight` onto
        the padded input, adding its taps in (di, dj) order, a block of
        `_BLOCK` scenes at a time so that its strided reads stay in cache.
        A product per tap would give contiguous slabs, but numpy runs it as a
        gemv when C_in or B*H*W is 1, which rounds unlike this gemm."""
        B, Ho, Wo, c_out = dy.shape
        dyf = dy.reshape(-1, c_out)
        self.grad_weight = dyf.T @ self._cols.reshape(-1, self._cols.shape[-1])
        self.grad_bias = dyf.sum(axis=0)
        if not input_grad:
            return None
        k, pad = self.kernel, self.pad
        dcols = (dyf @ self.weight).reshape(B, Ho, Wo, self.c_in, k, k)
        dxp = np.zeros((B, Ho + 2 * pad, Wo + 2 * pad, self.c_in), dy.dtype)
        for b in range(0, B, _BLOCK):
            src, dst = dcols[b:b + _BLOCK], dxp[b:b + _BLOCK]
            for di in range(k):
                for dj in range(k):
                    dst[:, di:di + Ho, dj:dj + Wo] += src[:, :, :, :, di, dj]
        return dxp[:, pad:Ho + pad, pad:Wo + pad] if pad else dxp


@dataclass
class RegressorSpec:
    in_channels: int
    channels: int
    num_keypoints: int
    grid: int            # feature/score maps are grid x grid
    image_size: float    # square image side in pixels
    softmax_beta: float = 5.0

    @property
    def delta(self) -> float:
        """Output-pixel -> feature-grid scale (the region-center scale)."""
        return self.grid / self.image_size


class ToyRegressor:
    """Keypoint regressor; `forward` returns pixel keypoints and the feature map."""

    def __init__(self, spec: RegressorSpec, rng: np.random.Generator):
        self.spec = spec
        c = spec.channels
        self.backbone = Conv2d(spec.in_channels, c, _BACKBONE_KERNEL, rng)
        self.head = [Conv2d(c, c, 3, rng), Conv2d(c, spec.num_keypoints, 1, rng)]
        g = spec.grid
        rr, cc = np.meshgrid(np.arange(g, dtype=_DT), np.arange(g, dtype=_DT),
                             indexing="ij")
        self._rows = rr.ravel()
        self._cols = cc.ravel()
        self._cache = None

    def head_spec(self) -> list[ConvLayerSpec]:
        return [layer.spec() for layer in self.head]

    def parameters(self) -> list[np.ndarray]:
        out = []
        for layer in (self.backbone, *self.head):
            out += [layer.weight, layer.bias]
        return out

    def gradients(self) -> list[np.ndarray]:
        out = []
        for layer in (self.backbone, *self.head):
            out += [layer.grad_weight, layer.grad_bias]
        return out

    def forward(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """cols: `backbone_columns` of a (B, G, G, C_in) batch -> keypoints
        (B, M, 2) in pixels, features (B, G, G, C)."""
        feats = np.tanh(self.backbone.forward(cols))
        a = np.tanh(self.head[0].forward(self.head[0].columns(feats)))
        scores = self.head[1].forward(self.head[1].columns(a)).transpose(0, 3, 1, 2)
        B, M, g, _ = scores.shape
        logits = (self.spec.softmax_beta * scores).reshape(B, M, -1)
        # a max is exact, so take it from a contiguous copy; exp, the sum and
        # the division stay on the strided layout, whose summation order
        # numpy follows
        logits -= np.ascontiguousarray(logits).max(axis=2, keepdims=True)
        e = np.exp(logits)
        prob = e / e.sum(axis=2, keepdims=True)
        col = prob @ self._cols
        row = prob @ self._rows
        # grid cell centers map to pixels: (g + 0.5) / delta
        kps = np.stack([(col + 0.5) / self.spec.delta,
                        (row + 0.5) / self.spec.delta], axis=2)
        self._cache = (feats, a, prob)
        return kps, feats

    def backward(self, dkps: np.ndarray, dfeats: np.ndarray | None) -> None:
        """Accumulates parameter gradients for the last forward pass.

        dkps: (B, M, 2) loss gradient in pixel coordinates; dfeats: optional
        (B, G, G, C) float32 gradient added as it is to the feature map's
        (the feature-distillation path).  The input is data, so the backbone
        computes no input gradient.
        """
        feats, a, prob = self._cache
        B, M, _ = prob.shape
        dcol = dkps[:, :, 0] / self.spec.delta
        drow = dkps[:, :, 1] / self.spec.delta
        dprob = dcol[:, :, None] * self._cols + drow[:, :, None] * self._rows
        inner = (dprob * prob).sum(axis=2, keepdims=True)
        dlogits = self.spec.softmax_beta * prob * (dprob - inner)
        g = self.spec.grid
        dscores = np.ascontiguousarray(dlogits.transpose(0, 2, 1), dtype=_DT)
        da = self.head[1].backward(dscores.reshape(B, g, g, M))
        dfe = self.head[0].backward(da * (1.0 - a * a))
        if dfeats is not None:
            dfe = dfe + dfeats
        self.backbone.backward(dfe * (1.0 - feats * feats), input_grad=False)

    def gd_step(self, lr: float) -> None:
        for p, grad in zip(self.parameters(), self.gradients()):
            p -= (lr * grad).astype(p.dtype)
