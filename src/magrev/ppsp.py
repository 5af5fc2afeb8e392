"""Pyramid spectrum-parsing network, implemented directly on numpy.

The model maps a normalized power spectrum (values in [0, 1]) to a per-bin
harmonic probability.  It is a 1-D encoder-decoder: each encoder level runs
parallel convolutions of several widths, fuses them with a width-1 projection,
and halves the resolution by max pooling; each decoder level upsamples by
linear interpolation, concatenates the matching encoder feature map, and
convolves.  A pyramid pooling stage summarizes the full-resolution map at a
few coarse scales before a final convolution, batch norm, and sigmoid.

Everything here is double precision and every backward pass is the exact
analytic gradient of the forward pass, which the test suite verifies against
central finite differences layer by layer and end to end through the dice
loss.  No autograd framework is involved.

Every convolution is one matrix product per tap: tap j's (C_out, C_in)
weights times the zero-padded input shifted by j - (K-1)/2, summed in place
into the output one batch item at a time, so no temporary outgrows one
item.  A one-channel input is the one exception: its K shifted slices are
the K rows of a single product, as small as the input times K.  The
backward pass works per tap too: tap j's weight gradient is dy times the
shifted input, transposed and summed over the batch, and the input
gradient is the same convolution of dy with the flipped, transposed kernel.
It pops each saved map once it has used it, so memory falls as it goes.

Every encoder level runs as one folded convolution.  A level's branch
convolutions and its width-1 projection have no nonlinearity between them,
so they equal one convolution as wide as the widest branch, with weights
sum_i P_i W_i (each branch centred and zero-padded) and bias P b + b_proj.
Inference folds every level once per set of weights: ``_inference_fold``
keeps each level's fold on the ``PpspWeights`` and reuses it while the
level's arrays are the same objects, and it makes those arrays read-only, so
that an in-place edit raises instead of leaving a stale fold behind.
Training builds a fresh fold of every level on every step, because every
step changes the weights.  The loss is the same function of the parameters
as the unfolded network's, so training takes the gradients of the folded
kernel and carries them through the fold to the branches and the
projection by the chain rule (``_fold_level_backward``).  Folded and
unfolded outputs and gradients differ only by floating-point rounding.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fields import ODD, check_fields, integer, list_of, real

FORMAT_VERSION = 1


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss stops being finite."""

    def __init__(self, epoch: int, loss: float):
        super().__init__(f"training diverged at epoch {epoch} (loss={loss})")
        self.epoch = epoch
        self.loss = loss


@dataclass(frozen=True)
class PpspConfig:
    """Shape of the network.  The defaults give the full-size model
    (1024 input bins, 9 encoder levels, 64 filters)."""

    input_bins: int = 1024
    encoder_levels: int = 9
    filters_per_conv: int = 64
    conv_kernel: int = 3
    pool_kernel: int = 2
    multiscale_kernel_widths: tuple[int, ...] = (3, 7, 15)
    pyramid_pool_kernels: tuple[int, ...] = (1, 2, 4)
    pyramid_reduced_filters: int | None = None
    seed: int = 0
    bn_momentum: float = 0.1
    bn_eps: float = 1e-5

    def __post_init__(self):
        check_fields(self, _PPSP_FIELDS)
        stride_total = self.pool_kernel**self.encoder_levels
        if self.input_bins % stride_total != 0:
            raise ValueError(
                f"input_bins must be a multiple of "
                f"pool_kernel**encoder_levels ({stride_total})"
            )
        if any(self.input_bins % m for m in self.pyramid_pool_kernels):
            raise ValueError("pyramid kernels must divide input_bins")

    @property
    def reduced_filters(self) -> int:
        if self.pyramid_reduced_filters is not None:
            return self.pyramid_reduced_filters
        return max(1, self.filters_per_conv // 4)


_PPSP_FIELDS = {
    "input_bins": integer(">= 1"),
    "encoder_levels": integer(">= 1"),
    "filters_per_conv": integer(">= 1"),
    "conv_kernel": ODD,
    "pool_kernel": integer(">= 2"),
    "multiscale_kernel_widths": list_of(ODD, non_empty=True),
    "pyramid_pool_kernels": list_of(integer(">= 1")),
    "pyramid_reduced_filters": integer(">= 1"),
    "seed": integer(">= 0"),
    "bn_momentum": real("in (0, 1]"),
    "bn_eps": real("> 0"),
}


# ---------------------------------------------------------------------------
# Layer primitives: forward plus exact backward
# ---------------------------------------------------------------------------


def _taps(w: np.ndarray) -> np.ndarray:
    """A (C_out, C_in, K) kernel as K contiguous (C_out, C_in) matrices."""
    return np.ascontiguousarray(w.transpose(2, 0, 1))


def _padded_items(x: np.ndarray, pad: int):
    """Each batch item of x (B, C, L) with ``pad`` zeros at either end, in
    one reused (C, L + 2*pad) buffer."""
    length = x.shape[2]
    padded = np.zeros((x.shape[1], length + 2 * pad))
    for item in x:
        padded[:, pad : pad + length] = item
        yield padded


def _convolve(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Same-padded convolution of x (B, C_in, L) with taps (K, C_out, C_in),
    one matrix product per tap over a shifted slice of the zero-padded input:
    out[b] = sum_j taps[j] @ x[b] shifted by j - (K-1)/2.  Each item's sum
    is accumulated in place, so no temporary outgrows one item's output.  A
    one-channel input is the exception: its K shifted slices are the rows of
    one (C_out, K) @ (K, L) product, because NumPy's product over an inner
    dimension of 1 is several times slower than one over K rows."""
    k, c_out, c_in = taps.shape
    batch, _, length = x.shape
    pad = (k - 1) // 2
    if c_in == 1:
        padded = np.zeros((batch, length + 2 * pad))
        padded[:, pad : pad + length] = x[:, 0]
        return np.matmul(taps[:, :, 0].T, sliding_window_view(padded, length, axis=1))
    out = np.empty((batch, c_out, length))
    product = np.empty((c_out, length))
    for out_item, item in zip(out, _padded_items(x, pad)):
        np.matmul(taps[0], item[:, :length], out=out_item)
        for j in range(1, k):
            out_item += np.matmul(taps[j], item[:, j : j + length], out=product)
    return out


def conv1d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Same-padded 1-D convolution, one matrix product per tap over shifted
    slices of the input.  x: (B, C_in, L), w: (C_out, C_in, K); returns
    (B, C_out, L)."""
    out = _convolve(x, _taps(w))
    out += b[:, None]
    return out


def conv1d_backward(dy: np.ndarray, x: np.ndarray, w: np.ndarray):
    """Gradients of conv1d_forward, one matrix product per tap and no copy
    of the input beyond one padded item: dw[:, :, j] sums dy[b] @ x[b].T
    over the batch, x shifted by the tap's offset, and dx is the same
    convolution of dy with the flipped, transposed kernel.  Returns
    (dx, dw, db)."""
    k = w.shape[2]
    length = x.shape[2]
    dw = np.zeros_like(w)
    product = np.empty(w.shape[:2])
    for dy_item, item in zip(dy, _padded_items(x, (k - 1) // 2)):
        for j in range(k):
            dw[:, :, j] += np.matmul(dy_item, item[:, j : j + length].T, out=product)
    dx = _convolve(dy, _taps(w[:, :, ::-1].transpose(1, 0, 2)))
    return dx, dw, dy.sum(axis=(0, 2))


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    return dy * (x > 0.0)


def _maxpool(x: np.ndarray, kernel: int) -> np.ndarray:
    """Non-overlapping max pool along the last axis, without indices: a
    running maximum over the ``kernel`` strided phases.  np.maximum returns
    its second argument on ties, so ties keep the earliest phase, the value
    that the argmax in maxpool_forward picks."""
    if x.shape[2] % kernel != 0:
        raise ValueError("pool kernel must divide the feature length")
    out = np.maximum(x[..., 1::kernel], x[..., 0::kernel])
    for j in range(2, kernel):
        np.maximum(x[..., j::kernel], out, out=out)
    return out


def maxpool_forward(x: np.ndarray, kernel: int):
    """Non-overlapping max pool along the last axis, with the argmax index
    of each window for maxpool_backward.  Ties take the first position."""
    out = _maxpool(x, kernel)
    b, c, length = x.shape
    idx = x.reshape(b, c, length // kernel, kernel).argmax(axis=3)
    return out, idx


def maxpool_backward(dy: np.ndarray, idx: np.ndarray, kernel: int) -> np.ndarray:
    b, c, lo = dy.shape
    dxr = np.zeros((b, c, lo, kernel), dtype=dy.dtype)
    np.put_along_axis(dxr, idx[..., None], dy[..., None], axis=3)
    return dxr.reshape(b, c, lo * kernel)


def avgpool_forward(x: np.ndarray, out_len: int) -> np.ndarray:
    """Adaptive average pool to ``out_len`` (must divide the input length)."""
    b, c, length = x.shape
    if length % out_len != 0:
        raise ValueError("adaptive pool output must divide the feature length")
    block = length // out_len
    return x.reshape(b, c, out_len, block).mean(axis=3)


def avgpool_backward(dy: np.ndarray, in_len: int) -> np.ndarray:
    b, c, out_len = dy.shape
    block = in_len // out_len
    return np.repeat(dy / block, block, axis=2)


_RESIZE_TABLES: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}


def _resize_table(l_in: int, l_out: int):
    key = (l_in, l_out)
    table = _RESIZE_TABLES.get(key)
    if table is None:
        if l_in == 1:
            i0 = np.zeros(l_out, dtype=np.intp)
            i1 = i0
            w1 = np.zeros(l_out)
        else:
            src = (np.arange(l_out) + 0.5) * (l_in / l_out) - 0.5
            src = np.clip(src, 0.0, l_in - 1.0)
            i0 = np.floor(src).astype(np.intp)
            i1 = np.minimum(i0 + 1, l_in - 1)
            w1 = src - i0
        w0 = 1.0 - w1
        table = (i0, i1, w0, w1)
        _RESIZE_TABLES[key] = table
    return table


def resize_forward(x: np.ndarray, l_out: int) -> np.ndarray:
    """Linear-interpolation resize along the last axis (used both for the
    decoder's x2 upsampling and for stretching pyramid summaries back to
    full resolution)."""
    i0, i1, w0, w1 = _resize_table(x.shape[2], l_out)
    return x[..., i0] * w0 + x[..., i1] * w1


def resize_backward(dy: np.ndarray, l_in: int) -> np.ndarray:
    """Gradient of resize_forward: each output's gradient, times its two
    weights, summed onto its two inputs, every w0 term before every w1 term,
    each in output order."""
    b, c, l_out = dy.shape
    i0, i1, w0, w1 = _resize_table(l_in, l_out)
    if l_out == 2 * l_in and l_in >= 2:
        # the decoder's x2 upsampling, by slices: output 2m+1 reads (m, m+1)
        # and output 2m+2 reads (m, m+1); output 0 reads (0, 1) and the last
        # (l_in-1, l_in-1), each with no weight on its second input
        dx = np.zeros((b, c, l_in))
        dx[..., 0] += dy[..., 0] * w0[0]
        dx += dy[..., 1::2] * w0[1::2]
        dx[..., :-1] += dy[..., 2::2] * w0[2::2]
        dx[..., 1] += dy[..., 0] * w1[0]
        dx[..., 1:] += dy[..., 1:-1:2] * w1[1:-1:2]
        dx[..., 1:] += dy[..., 2::2] * w1[2::2]
        dx[..., -1] += dy[..., -1] * w1[-1]
        return dx
    dyf = dy.reshape(b * c, l_out)
    rows = np.arange(b * c)[:, None] * l_in
    # one scatter-add, every w0 term before every w1 term: the same per-bin
    # summation order as two passes of np.add.at; both halves are written in
    # place, so no temporary outgrows the old per-pass products
    index = np.empty((2, b * c, l_out), dtype=np.intp)
    np.add(rows, i0, out=index[0])
    np.add(rows, i1, out=index[1])
    terms = np.empty((2, b * c, l_out))
    np.multiply(dyf, w0, out=terms[0])
    np.multiply(dyf, w1, out=terms[1])
    flat = np.bincount(index.ravel(), weights=terms.ravel(), minlength=b * c * l_in)
    return flat.reshape(b, c, l_in)


def batchnorm_forward_train(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float):
    """Batch statistics over (batch, length) per channel."""
    mu = x.mean(axis=(0, 2))
    var = x.var(axis=(0, 2))
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu[None, :, None]) * inv[None, :, None]
    out = gamma[None, :, None] * xhat + beta[None, :, None]
    cache = (xhat, inv, gamma)
    return out, cache, mu, var


def batchnorm_backward(dy: np.ndarray, cache) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xhat, inv, gamma = cache
    dgamma = (dy * xhat).sum(axis=(0, 2))
    dbeta = dy.sum(axis=(0, 2))
    dxhat = dy * gamma[None, :, None]
    mean_dxhat = dxhat.mean(axis=(0, 2), keepdims=True)
    mean_dxhat_xhat = (dxhat * xhat).mean(axis=(0, 2), keepdims=True)
    dx = inv[None, :, None] * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat)
    return dx, dgamma, dbeta


def batchnorm_forward_eval(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    eps: float,
) -> np.ndarray:
    inv = 1.0 / np.sqrt(running_var + eps)
    return (
        gamma[None, :, None] * (x - running_mean[None, :, None]) * inv[None, :, None]
        + beta[None, :, None]
    )


def sigmoid_forward(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_backward(dy: np.ndarray, out: np.ndarray) -> np.ndarray:
    return dy * out * (1.0 - out)


def dice_loss(prediction: np.ndarray, target: np.ndarray, eps: float = 1.0) -> float:
    """Soft dice loss 1 - (2*sum(p*y) + eps) / (sum(p) + sum(y) + eps)."""
    p = np.asarray(prediction, dtype=np.float64).ravel()
    y = np.asarray(target, dtype=np.float64).ravel()
    if p.shape != y.shape:
        raise ValueError("prediction and target must have the same size")
    if eps < 0:
        raise ValueError("eps must be >= 0")
    top = 2.0 * float(p @ y) + eps
    bottom = float(p.sum()) + float(y.sum()) + eps
    if bottom == 0.0:
        raise ValueError("dice loss undefined: empty prediction and target with eps=0")
    return 1.0 - top / bottom


def dice_loss_grad(prediction: np.ndarray, target: np.ndarray, eps: float = 1.0) -> np.ndarray:
    """d(dice)/d(prediction), same shape as the prediction."""
    p = np.asarray(prediction, dtype=np.float64)
    y = np.asarray(target, dtype=np.float64)
    top = 2.0 * float((p * y).sum()) + eps
    bottom = float(p.sum()) + float(y.sum()) + eps
    if bottom == 0.0:
        raise ValueError("dice loss undefined: empty prediction and target with eps=0")
    return -(2.0 * y * bottom - top) / (bottom * bottom)


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------


@dataclass
class PpspWeights:
    """Trainable parameters plus batch-norm running statistics.

    Inference keeps each encoder level's folded kernel here, and makes the
    arrays it was folded from read-only.  To change the weights after an
    inference call, replace arrays in ``params``; do not edit them in place.
    ``copy()`` gives writeable arrays and no stored folds."""

    config: PpspConfig
    params: dict[str, np.ndarray]
    bn_state: dict[str, np.ndarray] = field(default_factory=dict)
    # level -> (the arrays the fold was built from, (weight, bias))
    _folds: dict[int, tuple[tuple[np.ndarray, ...], tuple[np.ndarray, np.ndarray]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def copy(self) -> "PpspWeights":
        return PpspWeights(
            config=self.config,
            params={k: v.copy() for k, v in self.params.items()},
            bn_state={k: v.copy() for k, v in self.bn_state.items()},
        )

    def save(self, path: str | Path) -> None:
        """Self-describing archive: a JSON manifest (format version, config,
        layer names and shapes) plus row-major float64 arrays."""
        path = Path(path)
        manifest = {
            "format_version": FORMAT_VERSION,
            "config": asdict(self.config),
            "params": {k: list(v.shape) for k, v in self.params.items()},
            "bn_state": {k: list(v.shape) for k, v in self.bn_state.items()},
        }
        def entry(name: str) -> zipfile.ZipInfo:
            # fixed timestamp: identical weights must produce identical files
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            return info

        with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_DEFLATED) as zf:
            zf.writestr(
                entry("manifest.json"),
                json.dumps(manifest, indent=2, sort_keys=True),
            )
            for group, table in (("params", self.params), ("bn_state", self.bn_state)):
                for name, arr in table.items():
                    data = np.ascontiguousarray(arr, dtype=np.float64).tobytes()
                    zf.writestr(entry(f"{group}/{name}.f64"), data)

    @classmethod
    def load(cls, path: str | Path) -> "PpspWeights":
        path = Path(path)
        with zipfile.ZipFile(path, "r") as zf:
            manifest = json.loads(zf.read("manifest.json"))
            if manifest.get("format_version") != FORMAT_VERSION:
                raise ValueError(
                    f"{path}: unsupported weights format "
                    f"{manifest.get('format_version')}"
                )
            try:
                config = PpspConfig(**manifest["config"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"{path}: bad network config in manifest ({exc})"
                ) from exc
            tables = {}
            for group in ("params", "bn_state"):
                table = {}
                for name, shape in manifest[group].items():
                    raw = zf.read(f"{group}/{name}.f64")
                    arr = np.frombuffer(raw, dtype=np.float64).reshape(shape).copy()
                    table[name] = arr
                tables[group] = table
        return cls(config=config, params=tables["params"], bn_state=tables["bn_state"])


def _conv_shapes(config: PpspConfig) -> list[tuple[str, int, int, int]]:
    """(name, c_out, c_in, kernel) for every convolution, in init order."""
    f = config.filters_per_conv
    widths = config.multiscale_kernel_widths
    shapes: list[tuple[str, int, int, int]] = []
    c_in = 1
    for level in range(config.encoder_levels):
        for w in widths:
            shapes.append((f"enc{level}.branch{w}", f, c_in, w))
        shapes.append((f"enc{level}.project", f, f * len(widths), 1))
        c_in = f
    for level in reversed(range(config.encoder_levels)):
        shapes.append((f"dec{level}.conv", f, 2 * f, config.conv_kernel))
    for m in config.pyramid_pool_kernels:
        shapes.append((f"pyr{m}.conv", config.reduced_filters, f, 1))
    head_in = f + config.reduced_filters * len(config.pyramid_pool_kernels)
    shapes.append(("head.conv", 1, head_in, config.conv_kernel))
    return shapes


def init_weights(config: PpspConfig) -> PpspWeights:
    """Uniform fan-in initialization, fully determined by ``config.seed``."""
    rng = np.random.default_rng(config.seed)
    params: dict[str, np.ndarray] = {}
    for name, c_out, c_in, kernel in _conv_shapes(config):
        bound = 1.0 / math.sqrt(c_in * kernel)
        params[f"{name}.weight"] = rng.uniform(-bound, bound, size=(c_out, c_in, kernel))
        params[f"{name}.bias"] = np.zeros(c_out)
    params["head.bn.gamma"] = np.ones(1)
    params["head.bn.beta"] = np.zeros(1)
    bn_state = {
        "head.bn.running_mean": np.zeros(1),
        "head.bn.running_var": np.ones(1),
    }
    return PpspWeights(config=config, params=params, bn_state=bn_state)


# ---------------------------------------------------------------------------
# Forward / backward through the whole network
# ---------------------------------------------------------------------------


def _fold_level(
    p: dict[str, np.ndarray], level: int, widths: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Weight and bias of the one convolution that equals an encoder level's
    branch convolutions followed by its width-1 projection (no nonlinearity
    lies between them): sum_i P_i W_i, each branch centred and zero-padded
    to the widest branch, with bias P b + b_proj."""
    proj = p[f"enc{level}.project.weight"][:, :, 0]  # (f, n*f)
    f = proj.shape[0]
    k = max(widths)
    c_in = p[f"enc{level}.branch{widths[0]}.weight"].shape[1]
    weight = np.zeros((f, c_in, k))
    for i, w in enumerate(widths):
        branch = p[f"enc{level}.branch{w}.weight"].reshape(f, c_in * w)
        off = (k - w) // 2
        weight[:, :, off : off + w] += (proj[:, i * f : (i + 1) * f] @ branch).reshape(
            f, c_in, w
        )
    bias = proj @ np.concatenate([p[f"enc{level}.branch{w}.bias"] for w in widths])
    return weight, bias + p[f"enc{level}.project.bias"]


def _inference_fold(weights: PpspWeights, level: int) -> tuple[np.ndarray, np.ndarray]:
    """``_fold_level`` for inference, built once per set of weights: the
    stored fold is reused while each of the level's branch and projection
    arrays is the same object it was built from.  Storing a fold makes those
    arrays read-only, so an in-place edit raises instead of going unseen."""
    p = weights.params
    widths = weights.config.multiscale_kernel_widths
    sources = tuple(
        p[f"enc{level}.{conv}.{part}"]
        for conv in (*(f"branch{w}" for w in widths), "project")
        for part in ("weight", "bias")
    )
    stored = weights._folds.get(level)
    if stored is not None and all(a is b for a, b in zip(stored[0], sources)):
        return stored[1]
    fold = _fold_level(p, level, widths)
    for arr in sources:
        arr.flags.writeable = False
    weights._folds[level] = (sources, fold)
    return fold


def _fold_level_backward(
    p: dict[str, np.ndarray],
    level: int,
    widths: tuple[int, ...],
    d_weight: np.ndarray,
    d_bias: np.ndarray,
) -> dict[str, np.ndarray]:
    """Gradients of an encoder level's branch and projection parameters from
    the gradients (d_weight, d_bias) of its folded convolution, by the chain
    rule through ``_fold_level``: with F = sum_i P_i W_i over branch i's
    centred taps and c = P b + b_proj, dW_i = P_i^T dF[taps i],
    db_i = P_i^T dc, dP_i = dF[taps i] W_i^T + dc b_i^T and db_proj = dc."""
    proj = p[f"enc{level}.project.weight"][:, :, 0]  # (f, n*f)
    f, c_in, k = d_weight.shape
    d_proj = np.empty_like(proj)
    grads = {}
    for i, w in enumerate(widths):
        name = f"enc{level}.branch{w}"
        off = (k - w) // 2
        taps = d_weight[:, :, off : off + w].reshape(f, c_in * w)
        p_i = proj[:, i * f : (i + 1) * f]
        grads[f"{name}.weight"] = (p_i.T @ taps).reshape(f, c_in, w)
        grads[f"{name}.bias"] = p_i.T @ d_bias
        d_proj[:, i * f : (i + 1) * f] = taps @ p[f"{name}.weight"].reshape(
            f, c_in * w
        ).T + np.outer(d_bias, p[f"{name}.bias"])
    grads[f"enc{level}.project.weight"] = d_proj[:, :, None]
    grads[f"enc{level}.project.bias"] = d_bias
    return grads


def _forward(
    x: np.ndarray,
    weights: PpspWeights,
    train: bool,
):
    """Run the network on x of shape (B, 1, input_bins).

    Returns (probabilities, saves, batch_stats); when ``train`` is set,
    ``saves`` holds the intermediates the backward pass needs and
    ``batch_stats`` the batch-norm (mean, var), else both are empty (None
    for the statistics) and each skip map is dropped once its decoder level
    has used it.
    """
    cfg = weights.config
    p = weights.params
    if x.ndim != 3 or x.shape[1] != 1 or x.shape[2] != cfg.input_bins:
        raise ValueError(f"expected input of shape (B, 1, {cfg.input_bins})")
    widths = cfg.multiscale_kernel_widths
    saves: dict[str, object] = {}
    save = saves.__setitem__ if train else lambda key, value: None
    skips = []
    cur = x
    for level in range(cfg.encoder_levels):
        save(f"enc{level}.in", cur)
        if train:
            fold = _fold_level(p, level, widths)
            saves[f"enc{level}.fold"] = fold
        else:
            fold = _inference_fold(weights, level)
        proj = conv1d_forward(cur, *fold)
        save(f"enc{level}.proj", proj)
        skip = relu_forward(proj)
        skips.append(skip)
        if train:
            cur, saves[f"enc{level}.poolidx"] = maxpool_forward(skip, cfg.pool_kernel)
        else:
            cur = _maxpool(skip, cfg.pool_kernel)
    for level in reversed(range(cfg.encoder_levels)):
        save(f"dec{level}.inlen", cur.shape[2])
        up = resize_forward(cur, cur.shape[2] * cfg.pool_kernel)
        cat = np.concatenate([up, skips.pop()], axis=1)
        save(f"dec{level}.cat", cat)
        z = conv1d_forward(cat, p[f"dec{level}.conv.weight"], p[f"dec{level}.conv.bias"])
        save(f"dec{level}.z", z)
        cur = relu_forward(z)
    feats = [cur]
    for m in cfg.pyramid_pool_kernels:
        pooled = avgpool_forward(cur, m)
        save(f"pyr{m}.pooled", pooled)
        proj = conv1d_forward(pooled, p[f"pyr{m}.conv.weight"], p[f"pyr{m}.conv.bias"])
        feats.append(resize_forward(proj, cfg.input_bins))
    cat = np.concatenate(feats, axis=1)
    save("head.cat", cat)
    z = conv1d_forward(cat, p["head.conv.weight"], p["head.conv.bias"])
    batch_stats = None
    if train:
        bn_out, bn_cache, mu, var = batchnorm_forward_train(
            z, p["head.bn.gamma"], p["head.bn.beta"], cfg.bn_eps
        )
        saves["head.bn_cache"] = bn_cache
        batch_stats = (mu, var)
    else:
        bn_out = batchnorm_forward_eval(
            z,
            p["head.bn.gamma"],
            p["head.bn.beta"],
            weights.bn_state["head.bn.running_mean"],
            weights.bn_state["head.bn.running_var"],
            cfg.bn_eps,
        )
    probs = sigmoid_forward(bn_out)
    save("head.probs", probs)
    return probs, saves, batch_stats


def _backward(dprobs: np.ndarray, saves: dict, weights: PpspWeights) -> dict[str, np.ndarray]:
    """Exact gradients of every parameter; assumes a train-mode forward.
    Pops each saved map from ``saves`` once it has used it, so that the
    maps of the layers already done are freed as the pass goes."""
    cfg = weights.config
    p = weights.params
    widths = cfg.multiscale_kernel_widths
    f = cfg.filters_per_conv
    grads: dict[str, np.ndarray] = {}

    g = sigmoid_backward(dprobs, saves.pop("head.probs"))
    g, dgamma, dbeta = batchnorm_backward(g, saves.pop("head.bn_cache"))
    grads["head.bn.gamma"] = dgamma
    grads["head.bn.beta"] = dbeta
    g, dw, db = conv1d_backward(g, saves.pop("head.cat"), p["head.conv.weight"])
    grads["head.conv.weight"] = dw
    grads["head.conv.bias"] = db

    d_pyr_in = g[:, :f].copy()
    offset = f
    for m in cfg.pyramid_pool_kernels:
        r = cfg.reduced_filters
        g_proj = resize_backward(g[:, offset : offset + r], m)
        offset += r
        g_pooled, dw, db = conv1d_backward(
            g_proj, saves.pop(f"pyr{m}.pooled"), p[f"pyr{m}.conv.weight"]
        )
        grads[f"pyr{m}.conv.weight"] = dw
        grads[f"pyr{m}.conv.bias"] = db
        d_pyr_in += avgpool_backward(g_pooled, cfg.input_bins)
    del g

    d_skip: dict[int, np.ndarray] = {}
    cur_grad = d_pyr_in
    for level in range(cfg.encoder_levels):
        g_z = relu_backward(cur_grad, saves.pop(f"dec{level}.z"))
        g_cat, dw, db = conv1d_backward(
            g_z, saves.pop(f"dec{level}.cat"), p[f"dec{level}.conv.weight"]
        )
        grads[f"dec{level}.conv.weight"] = dw
        grads[f"dec{level}.conv.bias"] = db
        # a copy, so that the full (B, 2f, L) gradient is freed below
        d_skip[level] = g_cat[:, f:].copy()
        cur_grad = resize_backward(g_cat[:, :f], saves.pop(f"dec{level}.inlen"))
        del g_z, g_cat

    for level in reversed(range(cfg.encoder_levels)):
        g_skip = maxpool_backward(
            cur_grad, saves.pop(f"enc{level}.poolidx"), cfg.pool_kernel
        )
        g_skip += d_skip.pop(level)
        g_proj = relu_backward(g_skip, saves.pop(f"enc{level}.proj"))
        del g_skip
        cur_grad, dw, db = conv1d_backward(
            g_proj, saves.pop(f"enc{level}.in"), saves.pop(f"enc{level}.fold")[0]
        )
        grads.update(_fold_level_backward(p, level, widths, dw, db))
    return grads


def _as_batch(spectrum: np.ndarray, input_bins: int) -> np.ndarray:
    arr = np.asarray(spectrum, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != input_bins:
        raise ValueError(f"spectrum must have {input_bins} bins")
    return arr[:, None, :]


def ppsp_forward(spectrum: np.ndarray, weights: PpspWeights) -> np.ndarray:
    """Inference pass (batch-norm running statistics).

    Accepts one spectrum of shape (input_bins,) or a batch (B, input_bins);
    returns probabilities of the same leading shape.
    """
    arr = np.asarray(spectrum, dtype=np.float64)
    single = arr.ndim == 1
    x = _as_batch(arr, weights.config.input_bins)
    probs, _, _ = _forward(x, weights, train=False)
    out = probs[:, 0, :]
    return out[0] if single else out


def loss_and_grads(
    spectra: np.ndarray,
    masks: np.ndarray,
    weights: PpspWeights,
    dice_eps: float = 1.0,
):
    """Mean per-sample dice loss over a batch and its exact gradients.

    Batch norm runs in training mode (batch statistics); the batch (mean, var)
    pair is returned so the caller can update running statistics.  Returns
    (loss, grads, batch_stats).
    """
    x = _as_batch(np.asarray(spectra, dtype=np.float64), weights.config.input_bins)
    y = _as_batch(np.asarray(masks, dtype=np.float64), weights.config.input_bins)
    if x.shape != y.shape:
        raise ValueError("spectra and masks must align")
    probs, saves, batch_stats = _forward(x, weights, train=True)
    b = x.shape[0]
    losses = np.empty(b)
    dprobs = np.empty_like(probs)
    for i in range(b):
        losses[i] = dice_loss(probs[i, 0], y[i, 0], eps=dice_eps)
        dprobs[i, 0] = dice_loss_grad(probs[i, 0], y[i, 0], eps=dice_eps) / b
    grads = _backward(dprobs, saves, weights)
    return float(losses.mean()), grads, batch_stats


def update_running_stats(weights: PpspWeights, batch_stats) -> None:
    """Exponential update of the batch-norm running statistics."""
    mu, var = batch_stats
    m = weights.config.bn_momentum
    state = weights.bn_state
    state["head.bn.running_mean"] = (1.0 - m) * state["head.bn.running_mean"] + m * mu
    state["head.bn.running_var"] = (1.0 - m) * state["head.bn.running_var"] + m * var


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


class AdamState:
    """First/second moment accumulators for one parameter table."""

    def __init__(self, params: dict[str, np.ndarray]):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(
        self,
        params: dict[str, np.ndarray],
        grads: dict[str, np.ndarray],
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        self.t += 1
        correction1 = 1.0 - beta1**self.t
        correction2 = 1.0 - beta2**self.t
        for key, grad in grads.items():
            self.m[key] = beta1 * self.m[key] + (1.0 - beta1) * grad
            self.v[key] = beta2 * self.v[key] + (1.0 - beta2) * grad * grad
            m_hat = self.m[key] / correction1
            v_hat = self.v[key] / correction2
            params[key] = params[key] - lr * m_hat / (np.sqrt(v_hat) + eps)
