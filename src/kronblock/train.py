"""Trainers: proximal SGD for factored nets (L1 on the masks), the group-LASSO
baseline on dense nets, block-magnitude pruning, and per-epoch metrics.

All trainers are deterministic bit-for-bit given (config, data, seed) on a
single thread: initialization is the caller's, batch order comes from
(seed, epoch), and updates run in fixed layer order. The L1 and group
penalties are handled proximally (exact zeros), never by subgradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, batches
from .linalg import tile_view
# loss_and_seed and squared_frobenius are unused here, but the benchmark's
# tracer (perfbench/spans.py) wraps them under this module's name.
from .network import (  # noqa: F401
    LOSSES,
    Network,
    count_network_params,
    evaluate,
    loss_and_seed,
    net_backward,
    net_forward,
    net_predict,
    network_backward_flops,
    network_forward_flops,
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
    loss: str = "softmax_cross_entropy"
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
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")


METRIC_FIELDS = (
    "epoch",
    "train_loss",
    "eval_loss",
    "accuracy",
    "sparsity_rate",
    "trainable_params",
    "forward_flops",
    "backward_flops",
)


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
        return {name: getattr(self, name) for name in METRIC_FIELDS}


def soft_threshold(x: np.ndarray, t: float) -> np.ndarray:
    """Proximal operator of t*||.||_1: exact zeros below the threshold."""
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def _guard(loss: float) -> None:
    if not np.isfinite(loss) or loss > DIVERGENCE_LIMIT:
        raise TrainingDivergedError(f"loss diverged: {loss}")


def eval_metrics(net: Network, ds: Dataset, loss_kind: str) -> tuple[float, float]:
    """Eval loss and accuracy: ``network.evaluate`` for labelled datasets.
    Regression datasets score the squared loss and, as accuracy, argmax
    agreement between prediction and target rows (the classification proxy)."""
    if ds.labels is not None:
        result = evaluate(net, ds.x, ds.labels, loss_kind)
        return result["loss"], result["accuracy"]
    out = net_predict(net, ds.x)
    diff = out - ds.y
    loss = float(np.sum(diff * diff))
    accuracy = float(np.mean(np.argmax(out, axis=1) == np.argmax(ds.y, axis=1)))
    return loss, accuracy


def net_mask_sparsity(net: Network, eps_zero: float = 1e-6) -> float:
    """Zero fraction over all mask entries of the factored layers."""
    zeros = total = 0
    for layer in net.layers:
        if layer.spec.kind == "kron":
            zeros += int(np.sum(np.abs(layer.factor.s) < eps_zero))
            total += layer.factor.s.size
    return zeros / total if total else 0.0


def dense_tile_sparsity(net: Network, block: tuple[int, int], eps_zero: float = 1e-6) -> float:
    """Zero-tile fraction over the dense layers of a net."""
    m2, n2 = block
    zeros = total = 0
    for layer in net.layers:
        if layer.spec.kind != "dense":
            continue
        v = tile_view(layer.w, m2, n2)
        norms = np.sqrt(np.einsum("abcd,abcd->ac", v, v))
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
    eval_loss, accuracy = eval_metrics(net, eval_data, cfg.loss)
    if sparsity is None:
        sparsity = net_mask_sparsity(net, cfg.eps_zero)
    return MetricRecord(
        epoch=epoch,
        train_loss=float(train_loss),
        eval_loss=eval_loss,
        accuracy=accuracy,
        sparsity_rate=float(sparsity),
        trainable_params=count_network_params(net),
        forward_flops=network_forward_flops(net, cfg.batch_size),
        backward_flops=network_backward_flops(net, cfg.batch_size),
    )


# ---------------------------------------------------------------------------
# momentum SGD plumbing shared by the trainers (and pattern selection)
# ---------------------------------------------------------------------------


def init_velocities(net: Network) -> list:
    vel = []
    for layer in net.layers:
        if layer.spec.kind == "kron":
            f = layer.factor
            vel.append(
                {
                    "s": np.zeros_like(f.s),
                    "a": [np.zeros_like(x) for x in f.a],
                    "b": [np.zeros_like(x) for x in f.b],
                }
            )
        else:
            vel.append({"w": np.zeros_like(layer.w)})
    return vel


def sgd_step(net: Network, grads: list, vel: list, cfg: TrainConfig, prox_l1: bool = True) -> None:
    """One momentum-SGD step over every trainable matrix; factored-layer masks
    get the L1 proximal soft-threshold (step size lr*lam) after their
    gradient step when prox_l1 and lam > 0."""
    lr, mu = cfg.learning_rate, cfg.momentum
    for layer, g, v in zip(net.layers, grads, vel):
        if layer.spec.kind == "kron":
            f = layer.factor
            v["s"] *= mu
            v["s"] += g.d_s
            f.s -= lr * v["s"]
            if prox_l1 and cfg.lam > 0:
                f.s[:] = soft_threshold(f.s, lr * cfg.lam)
            for i in range(layer.spec.shape.r):
                v["a"][i] *= mu
                v["a"][i] += g.d_a[i]
                f.a[i] -= lr * v["a"][i]
                v["b"][i] *= mu
                v["b"][i] += g.d_b[i]
                f.b[i] -= lr * v["b"][i]
        else:
            v["w"] *= mu
            v["w"] += g.d_w
            layer.w -= lr * v["w"]


def _epoch_pass(net, data, cfg, epoch, vel, prox_l1=True, grad_hook=None, post_step=None):
    losses = []
    for xb, tb in batches(data, cfg.batch_size, cfg.shuffle, seed=(cfg.seed, epoch)):
        _, cache = net_forward(net, xb)
        loss, grads, _ = net_backward(net, cache, tb, cfg.loss)
        _guard(loss)
        losses.append(loss)
        if grad_hook is not None:
            grad_hook(grads)
        sgd_step(net, grads, vel, cfg, prox_l1=prox_l1)
        if post_step is not None:
            post_step()
    return float(np.mean(losses))


# ---------------------------------------------------------------------------
# trainers
# ---------------------------------------------------------------------------


def train_kron(
    net: Network, data: Dataset, cfg: TrainConfig, eval_data: Dataset | None = None
) -> tuple[Network, list[MetricRecord]]:
    """Mini-batch momentum SGD on all S, A_i, B_i with per-step proximal
    soft-thresholding of each mask (never subgradient descent on the L1)."""
    if not any(layer.spec.kind == "kron" for layer in net.layers):
        raise ValueError("train_kron needs at least one factored layer")
    vel = init_velocities(net)
    eval_ds = eval_data if eval_data is not None else data
    records = []
    for epoch in range(1, cfg.epochs + 1):
        train_loss = _epoch_pass(net, data, cfg, epoch, vel)
        records.append(collect_metrics(net, eval_ds, cfg, epoch, train_loss))
    return net, records


def group_lasso_prox(w: np.ndarray, block: tuple[int, int], t: float) -> None:
    """In-place block soft-threshold: each m2 x n2 tile is scaled by
    max(1 - t/||tile||_F, 0); tiles at or below the threshold become exact
    zeros."""
    m2, n2 = block
    v = tile_view(w, m2, n2)
    norms = np.sqrt(np.einsum("abcd,abcd->ac", v, v))
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(norms > t, 1.0 - t / norms, 0.0)
    v *= scale[:, None, :, None]


def train_group_lasso(
    net: Network,
    data: Dataset,
    cfg: TrainConfig,
    block: tuple[int, int],
    eval_data: Dataset | None = None,
) -> tuple[Network, list[MetricRecord]]:
    """Dense-net baseline: momentum SGD plus a per-step proximal block
    soft-threshold driving whole tiles to exact zero."""
    m2, n2 = block
    for layer in net.layers:
        if layer.spec.kind != "dense":
            raise ValueError("train_group_lasso expects an all-dense network")
        if layer.spec.m % m2 != 0 or layer.spec.n % n2 != 0:
            raise ValueError(f"block {block} does not divide layer {layer.spec.m}x{layer.spec.n}")
    vel = init_velocities(net)
    eval_ds = eval_data if eval_data is not None else data
    t = cfg.learning_rate * cfg.lam

    def prox():
        if cfg.lam > 0:
            for layer in net.layers:
                group_lasso_prox(layer.w, block, t)

    records = []
    for epoch in range(1, cfg.epochs + 1):
        train_loss = _epoch_pass(net, data, cfg, epoch, vel, post_step=prox)
        records.append(
            collect_metrics(
                net, eval_ds, cfg, epoch, train_loss,
                sparsity=dense_tile_sparsity(net, block, cfg.eps_zero),
            )
        )
    return net, records


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
    m2, n2 = block
    for layer in net.layers:
        if layer.spec.kind != "dense":
            raise ValueError("prune_blocks expects an all-dense network")
        if layer.spec.m % m2 != 0 or layer.spec.n % n2 != 0:
            raise ValueError(f"block {block} does not divide layer {layer.spec.m}x{layer.spec.n}")

    masks = [np.ones((l.spec.m // m2, l.spec.n // n2), dtype=bool) for l in net.layers]
    vel = init_velocities(net)
    eval_ds = eval_data if eval_data is not None else data
    records: list[MetricRecord] = []
    epoch = 0

    def mask_grads(grads):
        for g, mask in zip(grads, masks):
            tile_view(g.d_w, m2, n2)[:] *= mask[:, None, :, None]

    def run_phase(n_epochs):
        nonlocal epoch
        for _ in range(n_epochs):
            epoch += 1
            train_loss = _epoch_pass(net, data, cfg, epoch, vel, grad_hook=mask_grads)
            records.append(
                collect_metrics(
                    net, eval_ds, cfg, epoch, train_loss,
                    sparsity=dense_tile_sparsity(net, block, cfg.eps_zero),
                )
            )

    def prune_to(quota_fraction):
        for layer, mask, v in zip(net.layers, masks, vel):
            n_tiles = mask.size
            quota = int(round(n_tiles * quota_fraction))
            tv = tile_view(layer.w, m2, n2)
            norms = np.sqrt(np.einsum("abcd,abcd->ac", tv, tv)).ravel()
            order = np.lexsort((np.arange(n_tiles), norms))
            doomed = order[:quota]
            flat = mask.ravel()
            flat[doomed] = False
            tv *= mask[:, None, :, None]
            tile_view(v["w"], m2, n2)[:] *= mask[:, None, :, None]

    run_phase(cfg.epochs)
    for k in range(1, rounds + 1):
        prune_to(target_rate * k / rounds)
        run_phase(cfg.epochs)
    return net, records
