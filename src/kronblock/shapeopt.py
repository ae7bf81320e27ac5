"""Parameter-minimizing shape search for an m x n layer.

Minimizes 2*m1*n1 + m2*n2 subject to m1*m2 = m and n1*n2 = n by exhaustive
divisor enumeration (exact; divisor counts are tiny for any realistic layer).
The continuous relaxation is minimized at m1*n1 = sqrt(0.5*m*n) with value
2*sqrt(2*m*n), which every candidate bounds from below.
"""

from __future__ import annotations

from dataclasses import dataclass

from .factor import KronShape, count_params
from .flops import kron_layer_report


def divisors(n: int) -> list[int]:
    if n < 1:
        raise ValueError("n must be positive")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@dataclass(frozen=True)
class ShapeCandidate:
    m1: int
    n1: int
    m2: int
    n2: int
    objective: int


@dataclass
class OptimalShapeResult:
    best: tuple[int, int, int, int]
    objective: int
    candidates: list[ShapeCandidate]

    @property
    def optimal_set(self) -> list[tuple[int, int, int, int]]:
        return [
            (c.m1, c.n1, c.m2, c.n2) for c in self.candidates if c.objective == self.objective
        ]


def optimal_shape(m: int, n: int) -> OptimalShapeResult:
    """Global minimum of 2*m1*n1 + m2*n2, the ``count_params`` of the rank-1
    shape, over all divisor pairs, ties broken by smallest m1 then smallest
    n1; the full candidate table comes along."""
    candidates = []
    for m1 in divisors(m):
        for n1 in divisors(n):
            m2, n2 = m // m1, n // n1
            objective = count_params(KronShape(m1, n1, m2, n2, 1))
            candidates.append(ShapeCandidate(m1, n1, m2, n2, objective))
    best = min(candidates, key=lambda c: (c.objective, c.m1, c.n1))
    return OptimalShapeResult(
        best=(best.m1, best.n1, best.m2, best.n2),
        objective=best.objective,
        candidates=sorted(candidates, key=lambda c: (c.objective, c.m1, c.n1)),
    )


def shape_report(m: int, n: int, r_grid: tuple[int, ...]) -> list[dict]:
    """Candidate table extended over the ranks ``r_grid``: parameter count,
    analytic training flops (forward+backward+update at batch size 1,
    squared-loss accounting), and the rank ceiling min(m1*n1, m2*n2); rows
    with r past the ceiling are flagged infeasible."""
    rows = []
    for cand in optimal_shape(m, n).candidates:
        for r in r_grid:
            shape = KronShape(cand.m1, cand.n1, cand.m2, cand.n2, r)
            rows.append(
                {
                    "m1": cand.m1,
                    "n1": cand.n1,
                    "m2": cand.m2,
                    "n2": cand.n2,
                    "r": r,
                    "objective": cand.objective,
                    "params": count_params(shape),
                    "train_flops": kron_layer_report(1, shape).total,
                    "rank_ceiling": shape.full_rank,
                    "feasible": r <= shape.full_rank,
                }
            )
    return rows
