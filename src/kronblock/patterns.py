"""One-shot block-size (pattern) selection.

K candidate patterns train jointly, each pattern a full factored network with
its own data loss. Two escalating penalties act on the mask matrices only: a
per-pattern group norm sqrt(sum_l ||S^(l,k)||_F^2) that extinguishes whole
patterns, and an entrywise L1 that sparsifies the surviving one. Both are
applied proximally after every SGD step - entrywise soft-threshold first,
then the group scaling on the thresholded values (the exact proximal operator
of the composite penalty). Training stops as soon as exactly one pattern's
group norm is still above threshold; that winner is then fine-tuned.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import Dataset, batches
from .factor import KronShape, count_params, tiled_shape
from .network import Network, build_network, kron_spec
from .shapeopt import divisors
from .train import (
    MetricRecord,
    TrainConfig,
    init_velocities,
    kron_masks,
    mask_l1_prox,
    train_kron,
    train_step,
)


class OverRegularizedError(RuntimeError):
    """Every pattern collapsed to zero before a winner emerged."""

    def __init__(self, epoch: int):
        super().__init__(f"all pattern group norms fell below threshold at epoch {epoch}")
        self.epoch = epoch


def _is_pow2(v: int) -> bool:
    return v >= 2 and (v & (v - 1)) == 0


def enumerate_block_sizes(m: int, n: int, powers_of_two: bool = False) -> list[tuple[int, int]]:
    """All (m2, n2) divisor pairs of an m x n layer, excluding the trivial
    1x1 block and the full m x n block; optionally only power-of-two sizes.
    Sorted lexicographically."""
    if m < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    sizes = [
        (m2, n2)
        for m2 in divisors(m)
        for n2 in divisors(n)
        if (m2, n2) != (1, 1) and (m2, n2) != (m, n)
    ]
    if powers_of_two:
        sizes = [(m2, n2) for m2, n2 in sizes if _is_pow2(m2) and _is_pow2(n2)]
    return sorted(sizes)


@dataclass
class PatternSet:
    """K candidate patterns: per-pattern per-layer shapes and network copies."""

    shapes: list[list[KronShape]]
    nets: list[Network]

    def __post_init__(self):
        if len(self.shapes) < 2:
            raise ValueError("pattern selection needs K >= 2 patterns")
        if len(self.nets) != len(self.shapes):
            raise ValueError("one network per pattern required")
        dims = {(net.in_dim, net.out_dim) for net in self.nets}
        if len(dims) != 1:
            raise ValueError(f"patterns disagree on input/output dims: {dims}")
        for shapes_k, net in zip(self.shapes, self.nets):
            kron_layers = [l for l in net.layers if l.spec.kind == "kron"]
            if len(kron_layers) != len(shapes_k):
                raise ValueError("pattern shape list does not match its network")
            for shape, layer in zip(shapes_k, kron_layers):
                if layer.spec.shape != shape:
                    raise ValueError("pattern shape list does not match its network")

    @property
    def k(self) -> int:
        return len(self.shapes)


def selection_param_count(shapes: list[list[KronShape]]) -> int:
    """Total trainable parameters across all patterns and layers."""
    return sum(count_params(shape) for per_layer in shapes for shape in per_layer)


@dataclass(frozen=True)
class SelectConfig:
    train: TrainConfig
    lambda1_init: float = 0.01
    lambda2_init: float = 0.01
    lambda_increment: float = 0.002
    increment_period_epochs: int = 5
    max_epochs: int = 50
    epsilon_group_rel: float = 1e-3
    finetune_epochs: int = 5
    keep_l1_in_finetune: bool = True

    def __post_init__(self):
        if self.lambda1_init < 0 or self.lambda2_init < 0 or self.lambda_increment < 0:
            raise ValueError("lambda parameters must be nonnegative")
        if self.increment_period_epochs < 1:
            raise ValueError("increment_period_epochs must be >= 1")
        if self.max_epochs < self.increment_period_epochs:
            raise ValueError("max_epochs must be >= increment_period_epochs")
        if self.epsilon_group_rel <= 0:
            raise ValueError("epsilon_group_rel must be positive")
        if self.finetune_epochs < 0:
            raise ValueError("finetune_epochs must be >= 0")


@dataclass
class SelectionRecord:
    epoch: int
    k: int
    group_norm: float
    l1_norm: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SelectionResult:
    winner: int
    stop_epoch: int
    history: list[SelectionRecord]
    net: Network
    lambda1_final: float
    lambda2_final: float
    group_norms: list[float]
    finetune_metrics: list[MetricRecord] = field(default_factory=list)


def _group_norm(net: Network) -> float:
    return float(np.sqrt(sum(float(np.sum(s * s)) for s in kron_masks(net))))


def _l1_norm(net: Network) -> float:
    return float(sum(np.sum(np.abs(s)) for s in kron_masks(net)))


def _pattern_prox(net: Network, lr: float, lam1: float, lam2: float) -> None:
    if lam2 > 0:
        mask_l1_prox(net, lr * lam2)
    if lam1 > 0:
        g = _group_norm(net)
        scale = max(1.0 - lr * lam1 / g, 0.0) if g > 0 else 0.0
        for s in kron_masks(net):
            s *= scale


def select_pattern(pset: PatternSet, data: Dataset, cfg: SelectConfig) -> SelectionResult:
    """Joint training of all pattern copies under the escalating penalties.

    Per epoch the mini-batch order is shared by every pattern (a pattern's
    trajectory with both lambdas zero is bit-identical to an independent
    train_kron run at lambda = 0 with the same seed). lambda1/lambda2 grow by
    lambda_increment every increment_period_epochs epochs. Raises
    OverRegularizedError naming the epoch when every pattern collapses.

    If more than one pattern is still above threshold after max_epochs, the
    winner falls back to the argmax of the absolute group norms. That rule
    favours the pattern with the most mask entries, since all-ones masks start
    at norm sqrt(sum_l m1*n1); use ``group_norms`` against the initial norms to
    tell a true sole survivor from a fallback pick.
    """
    tcfg = cfg.train
    lam1, lam2 = cfg.lambda1_init, cfg.lambda2_init
    vels = [init_velocities(net) for net in pset.nets]
    eps = [cfg.epsilon_group_rel * _group_norm(net) for net in pset.nets]
    history: list[SelectionRecord] = []
    stop_epoch = cfg.max_epochs
    winner: int | None = None
    for epoch in range(1, cfg.max_epochs + 1):
        if epoch > 1 and (epoch - 1) % cfg.increment_period_epochs == 0:
            lam1 += cfg.lambda_increment
            lam2 += cfg.lambda_increment
        for xb, tb in batches(data, tcfg.batch_size, tcfg.shuffle, seed=(tcfg.seed, epoch)):
            for net, vel in zip(pset.nets, vels):
                train_step(net, xb, tb, vel, tcfg)
                _pattern_prox(net, tcfg.learning_rate, lam1, lam2)
        norms = [_group_norm(net) for net in pset.nets]
        for k, net in enumerate(pset.nets):
            history.append(SelectionRecord(epoch, k, norms[k], _l1_norm(net)))
        alive = [k for k, g in enumerate(norms) if g > eps[k]]
        if not alive:
            raise OverRegularizedError(epoch)
        if len(alive) == 1:
            winner, stop_epoch = alive[0], epoch
            break
    if winner is None:
        winner = int(np.argmax(norms))
    finetune_metrics: list[MetricRecord] = []
    if cfg.finetune_epochs > 0:
        ft_cfg = replace(
            tcfg,
            epochs=cfg.finetune_epochs,
            lam=lam2 if cfg.keep_l1_in_finetune else 0.0,
            seed=tcfg.seed + stop_epoch,
        )
        _, finetune_metrics = train_kron(pset.nets[winner], data, ft_cfg)
    return SelectionResult(
        winner=winner,
        stop_epoch=stop_epoch,
        history=history,
        net=pset.nets[winner],
        lambda1_final=lam1,
        lambda2_final=lam2,
        group_norms=norms,
        finetune_metrics=finetune_metrics,
    )


def build_pattern_set(
    layer_dims: list[tuple[int, int]],
    blocks_per_pattern: list[list[tuple[int, int]]],
    rank: int,
    activations: list[str] | None = None,
    seed: int = 0,
) -> PatternSet:
    """Construct K pattern networks over the same layer stack. layer_dims are
    (m, n) per layer; each pattern lists one (m2, n2) block per layer. Pattern
    k's net is initialized from SeedSequence((seed, k))."""
    if activations is None:
        activations = ["identity"] * len(layer_dims)
    shapes: list[list[KronShape]] = []
    nets: list[Network] = []
    for k, blocks in enumerate(blocks_per_pattern):
        if len(blocks) != len(layer_dims):
            raise ValueError("each pattern needs one block size per layer")
        per_layer = [tiled_shape(m, n, block, rank) for (m, n), block in zip(layer_dims, blocks)]
        shapes.append(per_layer)
        specs = [kron_spec(shape, act) for shape, act in zip(per_layer, activations)]
        nets.append(build_network(specs, seed=np.random.SeedSequence((seed, k))))
    return PatternSet(shapes=shapes, nets=nets)
