"""Feature-level distillation over receptive-field regions.

Each predicted keypoint is traced back to the patch of the feature map that
feeds the network head at that location: the patch extent comes from the head's
conv stack, the center from scaling the keypoint into feature-grid coordinates.
Teacher and student heads share that extent, so teacher regions are only
channel-projected (a 1x1 mix onto the student's channels, no pooling) before
they are compared with the student's under the transport plan.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput


@dataclass(frozen=True)
class ConvLayerSpec:
    kernel: int
    stride: int = 1

    def __post_init__(self):
        if self.kernel < 1 or self.stride < 1:
            raise InvalidInput(f"kernel/stride must be >= 1, got {self}")


def receptive_field_extent(head: list[ConvLayerSpec]) -> int:
    """Side length of the input patch feeding one output unit of the stack.

    The extent is the span of the receptive field, from its first to its
    last feeding input inclusive. A layer with kernel < stride leaves holes
    inside that span; `extract_regions` still takes the dense
    extent x extent window.
    """
    if not head:
        raise InvalidInput("need at least one conv layer")
    extent = 1
    jump = 1  # product of strides of the layers before the current one
    for layer in head:
        extent += (layer.kernel - 1) * jump
        jump *= layer.stride
    return extent


def extract_regions(fmaps: np.ndarray, centers: np.ndarray, extent: int):
    """extent x extent windows around centers; out-of-bounds cells are zero.

    fmaps (B, H, W, C), centers (B, K, 2) int (row, col).  Returns regions
    (B, K, C, extent, extent) and the index tuple `scatter_region_grads`
    takes to send region gradients back into the maps.  Regions keep the
    (c, di, dj) order of the conv's columns, because the einsums over them
    sum, and so round, in memory order.
    """
    B, H, W, _ = fmaps.shape
    rows, cols = centers[:, :, 0], centers[:, :, 1]
    if ((rows < 0) | (rows >= H) | (cols < 0) | (cols >= W)).any():
        raise InvalidInput(f"a center lies outside the {H}x{W} map")
    # even extents put the extra cell after the center (bottom/right)
    offs = np.arange(extent) - (extent - 1) // 2
    rr = rows[:, :, None, None] + offs[None, None, :, None]
    cc = cols[:, :, None, None] + offs[None, None, None, :]
    valid = (rr >= 0) & (rr < H) & (cc >= 0) & (cc < W)
    rs = np.clip(rr, 0, H - 1)
    cs = np.clip(cc, 0, W - 1)
    out = fmaps[np.arange(B)[:, None, None, None], rs, cs] * valid[..., None]
    return np.ascontiguousarray(out.transpose(0, 1, 4, 2, 3)), (rs, cs, valid)


def scatter_region_grads(dfmaps: np.ndarray, dregions: np.ndarray, idx) -> None:
    """Adds region gradients (B, K, C, e, e) into the (B, H, W, C) map
    gradients `dfmaps`, in place: the adjoint of `extract_regions`.  A map
    cell adds the channel vectors that fall on it in (k, i, j) order."""
    rs, cs, valid = idx
    masked = (dregions * valid[:, :, None]).transpose(0, 1, 3, 4, 2)
    np.add.at(dfmaps, (np.arange(len(dfmaps))[:, None, None, None], rs, cs), masked)


def init_projection(target_c: int, source_c: int) -> np.ndarray:
    """Scaled identity blocks when source_c is a multiple of target_c, else
    small seeded random entries.  The matrix is trained alongside the student."""
    if source_c % target_c == 0:
        k = source_c // target_c
        return np.hstack([np.eye(target_c)] * k) / k
    return np.random.default_rng(0).uniform(-0.1, 0.1, (target_c, source_c))


def region_loss(teacher: np.ndarray, student: np.ndarray, plans: np.ndarray):
    """Plan-weighted mean-squared feature discrepancy, averaged over scenes.

    teacher (B, N, C, H, W) regions already projected to the student's
    channels, student (B, M, C, H, W), plans (B, M, N) student-major.  Per
    scene, loss = (1/(N*M)) * sum_ij plan[j, i] * mse(T_i, S_j) with mse
    normalized by the region element count.  Returns the loss and its
    gradients with respect to the student and the teacher regions.
    """
    B, N = teacher.shape[:2]
    M = student.shape[1]
    if plans.shape != (B, M, N):
        raise InvalidInput(
            f"plans {plans.shape}, expected {(B, M, N)} (student-major)")
    if teacher.shape[0] != student.shape[0] or teacher.shape[2:] != student.shape[2:]:
        raise InvalidInput(f"teacher regions {teacher.shape} vs student "
                           f"{student.shape} after adaptation")
    C, H, W = student.shape[2:]
    sq = (teacher[:, None] - student[:, :, None]) ** 2   # (B, M, N, C, H, W)
    coef = 1.0 / (N * M * C * H * W)
    loss = float(coef * np.einsum("bmn,bmncij->", plans, sq) / B)
    gcoef = 2.0 * coef / B
    row_mass = plans.sum(axis=2)
    cross = np.einsum("bmn,bncij->bmcij", plans, teacher)
    dstudent = gcoef * (row_mass[:, :, None, None, None] * student - cross)
    col_mass = plans.sum(axis=1)
    cross_t = np.einsum("bmn,bmcij->bncij", plans, student)
    dteacher = gcoef * (col_mass[:, :, None, None, None] * teacher - cross_t)
    return loss, dstudent, dteacher

