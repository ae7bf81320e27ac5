"""Trainers: proximal SGD for factored nets (L1 on the masks), the group-LASSO
baseline on dense nets, block-magnitude pruning, and per-epoch metrics.
Every trainer trains under, and ``eval_metrics`` scores, the loss its data's
targets pick (``network.loss_and_seed``): cross entropy on class labels, the
squared loss on regression targets.

All trainers are deterministic bit-for-bit given (config, data, seed) on a
single thread: initialization is the caller's, batch order comes from
(seed, epoch), and updates run in fixed layer order. ``sgd_step`` updates
each layer's ``Layer.params`` from its gradient, one array in the same
layout, whatever its kind. The L1 and group penalties are handled
proximally (exact zeros), never by subgradient: each trainer runs its
penalty's prox after the update.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import Dataset, batches
from .factor import tiled_shape
from .flops import layers_report
from .linalg import row_view, tile_norms, tile_rows
# loss_and_seed and squared_frobenius are unused here, but the benchmark's
# tracer (perfbench/spans.py) wraps them under this module's name.
from .network import (  # noqa: F401
    Network,
    count_network_params,
    evaluate,
    loss_and_seed,
    net_backward,
    net_forward,
    squared_frobenius,
)

# Documented lambda sweep recipe: geometric grid from 1e-5 to 1e-1.
LAMBDA_GRID = tuple(float(v) for v in np.geomspace(1e-5, 1e-1, 9))

DIVERGENCE_LIMIT = 1e12


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite (or exceeded the divergence limit)."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    learning_rate: float
    momentum: float = 0.9
    lam: float = 0.0
    eps_zero: float = 1e-6
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.eps_zero <= 0:
            raise ValueError("eps_zero must be > 0")


@dataclass
class MetricRecord:
    epoch: int
    train_loss: float
    eval_loss: float
    accuracy: float
    sparsity_rate: float
    trainable_params: int
    forward_flops: int
    backward_flops: int

    def to_dict(self) -> dict:
        return asdict(self)


# the columns of metrics.csv
METRIC_FIELDS = tuple(f.name for f in fields(MetricRecord))


def soft_threshold(x: np.ndarray, t: float, out: np.ndarray | None = None) -> np.ndarray:
    """Proximal operator of t*||.||_1: exact zeros below the threshold,
    written into ``out`` when given (``x`` itself for an in-place step)."""
    return np.multiply(np.sign(x), np.maximum(np.abs(x) - t, 0.0), out=out)


def kron_masks(net: Network) -> list[np.ndarray]:
    """The mask S of every factored layer, in layer order."""
    return [layer.factor.s for layer in net.layers if layer.spec.kind == "kron"]


def mask_l1_prox(net: Network, t: float) -> None:
    """In-place proximal step of t*||S||_1 on every mask S."""
    for s in kron_masks(net):
        soft_threshold(s, t, out=s)


def _guard(loss: float) -> None:
    if not np.isfinite(loss) or loss > DIVERGENCE_LIMIT:
        raise TrainingDivergedError(f"loss diverged: {loss}")


def eval_metrics(net: Network, ds: Dataset) -> tuple[float, float]:
    """Eval loss and accuracy: ``network.evaluate`` of ``ds``'s class labels,
    or of its regression targets when it has none."""
    result = evaluate(net, ds.x, ds.labels if ds.labels is not None else ds.y)
    return result["loss"], result["accuracy"]


def net_mask_sparsity(net: Network, eps_zero: float) -> float:
    """Zero fraction over all mask entries of the factored layers."""
    masks = kron_masks(net)
    zeros = sum(int(np.sum(np.abs(s) < eps_zero)) for s in masks)
    total = sum(s.size for s in masks)
    return zeros / total if total else 0.0


def dense_tile_sparsity(net: Network, block: tuple[int, int], eps_zero: float) -> float:
    """Zero-tile fraction over the dense layers of a net."""
    m2, n2 = block
    zeros = total = 0
    for layer in net.layers:
        if layer.spec.kind != "dense":
            continue
        norms = tile_norms(layer.w, m2, n2)
        zeros += int(np.sum(norms < eps_zero))
        total += norms.size
    return zeros / total if total else 0.0


def collect_metrics(
    net: Network,
    eval_data: Dataset,
    cfg: TrainConfig,
    epoch: int,
    train_loss: float,
    sparsity: float | None = None,
) -> MetricRecord:
    """One epoch snapshot. Parameter counts use the factored parameterization
    for kron layers and m*n for dense layers; flop fields use the analytic
    cost model at the configured batch size."""
    eval_loss, accuracy = eval_metrics(net, eval_data)
    if sparsity is None:
        sparsity = net_mask_sparsity(net, cfg.eps_zero)
    step = layers_report(cfg.batch_size, [layer.spec for layer in net.layers])
    return MetricRecord(
        epoch=epoch,
        train_loss=float(train_loss),
        eval_loss=eval_loss,
        accuracy=accuracy,
        sparsity_rate=float(sparsity),
        trainable_params=count_network_params(net),
        forward_flops=step.forward,
        backward_flops=step.backward,
    )


# ---------------------------------------------------------------------------
# momentum SGD plumbing shared by the trainers (and pattern selection)
# ---------------------------------------------------------------------------


def init_velocities(net: Network) -> list[np.ndarray]:
    """One zero momentum buffer per layer, shaped as its ``Layer.params``."""
    return [np.zeros_like(layer.params) for layer in net.layers]


def sgd_step(net: Network, grads: list, vel: list, cfg: TrainConfig) -> None:
    """One momentum-SGD step per layer on all its parameters at once: the
    update of ``layer.params`` from its gradient array. No penalty: a
    trainer runs its proximal step after this one.

    It consumes ``grads``: once a gradient is in the momentum, its buffer
    holds the step ``lr * v``, so the step needs no temporary of its own."""
    lr, mu = cfg.learning_rate, cfg.momentum
    for layer, g, v in zip(net.layers, grads, vel):
        v *= mu
        v += g
        params = layer.params
        params -= np.multiply(v, lr, out=g)


def train_step(net, xb, tb, vel, cfg, grad_hook=None) -> float:
    """One momentum-SGD step on the batch ``xb`` with targets ``tb``: the
    training forward and backward, the divergence guard, ``grad_hook`` on the
    gradients, then ``sgd_step``. Returns the batch loss. The step's cache
    and gradients are locals, so they are freed before the caller's next
    step allocates its own."""
    _, cache = net_forward(net, xb)
    loss, grads, _ = net_backward(net, cache, tb, False)
    _guard(loss)
    if grad_hook is not None:
        grad_hook(grads)
    sgd_step(net, grads, vel, cfg)
    return loss


def _epoch_pass(net, data, cfg, epoch, vel, grad_hook=None, post_step=None):
    losses = []
    for xb, tb in batches(data, cfg.batch_size, cfg.shuffle, seed=(cfg.seed, epoch)):
        losses.append(train_step(net, xb, tb, vel, cfg, grad_hook))
        if post_step is not None:
            post_step()
    return float(np.mean(losses))


def _train_epochs(net, data, cfg, eval_data, vel, records, block=None, **hooks) -> list:
    """``cfg.epochs`` epochs of ``_epoch_pass`` with ``hooks``, numbered on
    from ``records``, each appending its ``collect_metrics`` record; a dense
    baseline passes its ``block``, so the records count zero tiles."""
    eval_ds = eval_data if eval_data is not None else data
    for epoch in range(len(records) + 1, len(records) + cfg.epochs + 1):
        train_loss = _epoch_pass(net, data, cfg, epoch, vel, **hooks)
        sparsity = None if block is None else dense_tile_sparsity(net, block, cfg.eps_zero)
        records.append(collect_metrics(net, eval_ds, cfg, epoch, train_loss, sparsity))
    return records


# ---------------------------------------------------------------------------
# trainers
# ---------------------------------------------------------------------------


def train_kron(
    net: Network, data: Dataset, cfg: TrainConfig, eval_data: Dataset | None = None
) -> tuple[Network, list[MetricRecord]]:
    """Mini-batch momentum SGD on all S, A_i, B_i, each step followed by the
    proximal soft-threshold of each mask, ``mask_l1_prox`` at lr*lam (never
    subgradient descent on the L1)."""
    if not any(layer.spec.kind == "kron" for layer in net.layers):
        raise ValueError("train_kron needs at least one factored layer")
    t = cfg.learning_rate * cfg.lam

    def prox():
        if cfg.lam > 0:
            mask_l1_prox(net, t)

    return net, _train_epochs(net, data, cfg, eval_data, init_velocities(net), [], post_step=prox)


def group_lasso_prox(w: np.ndarray, block: tuple[int, int], t: float) -> None:
    """In-place block soft-threshold: each m2 x n2 tile is scaled by
    max(1 - t/||tile||_F, 0); tiles at or below the threshold become exact
    zeros. The scale runs along whole rows (``linalg.tile_rows``)."""
    m2, n2 = block
    norms = tile_norms(w, m2, n2)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(norms > t, 1.0 - t / norms, 0.0)
    row_view(w, m2)[:] *= tile_rows(scale, n2)


def _check_dense_tiling(net: Network, block: tuple[int, int], trainer: str) -> None:
    """The dense baselines need an all-dense net that ``block`` tiles."""
    for layer in net.layers:
        if layer.spec.kind != "dense":
            raise ValueError(f"{trainer} expects an all-dense network")
        tiled_shape(layer.spec.m, layer.spec.n, block)


def train_group_lasso(
    net: Network,
    data: Dataset,
    cfg: TrainConfig,
    block: tuple[int, int],
    eval_data: Dataset | None = None,
) -> tuple[Network, list[MetricRecord]]:
    """Dense-net baseline: momentum SGD plus a per-step proximal block
    soft-threshold driving whole tiles to exact zero."""
    _check_dense_tiling(net, block, "train_group_lasso")
    t = cfg.learning_rate * cfg.lam

    def prox():
        if cfg.lam > 0:
            for layer in net.layers:
                group_lasso_prox(layer.w, block, t)

    vel = init_velocities(net)
    return net, _train_epochs(net, data, cfg, eval_data, vel, [], block, post_step=prox)


def prune_blocks(
    net: Network,
    data: Dataset,
    cfg: TrainConfig,
    block: tuple[int, int],
    target_rate: float,
    rounds: int,
    eval_data: Dataset | None = None,
) -> tuple[Network, list[MetricRecord]]:
    """Iterative block-magnitude pruning baseline.

    Train, then per round zero the lowest-Frobenius-norm tiles up to the
    round's quota (linear schedule to target_rate, ties pruned in row-major
    tile order), freeze them via masked gradients, and fine-tune. The final
    zero-tile count per layer is round(tile_count * target_rate).
    """
    if not 0.0 <= target_rate < 1.0:
        raise ValueError("target_rate must be in [0, 1)")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    _check_dense_tiling(net, block, "prune_blocks")
    m2, n2 = block

    masks = [np.ones((l.spec.m // m2, l.spec.n // n2), dtype=bool) for l in net.layers]
    # each mask as the 0.0/1.0 factor of a whole-row product (linalg.tile_rows),
    # rebuilt only when prune_to changes the mask
    keep = [tile_rows(mask.astype(np.float64), n2) for mask in masks]
    vel = init_velocities(net)
    records: list[MetricRecord] = []

    def mask_grads(grads):
        for g, k in zip(grads, keep):
            row_view(g, m2)[:] *= k

    def prune_to(quota_fraction):
        for i, (layer, mask, v) in enumerate(zip(net.layers, masks, vel)):
            n_tiles = mask.size
            quota = int(round(n_tiles * quota_fraction))
            norms = tile_norms(layer.w, m2, n2).ravel()
            order = np.lexsort((np.arange(n_tiles), norms))
            doomed = order[:quota]
            flat = mask.ravel()
            flat[doomed] = False
            keep[i] = tile_rows(mask.astype(np.float64), n2)
            row_view(layer.w, m2)[:] *= keep[i]
            row_view(v, m2)[:] *= keep[i]

    for k in range(rounds + 1):
        if k:
            prune_to(target_rate * k / rounds)
        _train_epochs(net, data, cfg, eval_data, vel, records, block, grad_hook=mask_grads)
    return net, records
