import os
import subprocess
import sys

import numpy as np
import pytest

from kronblock import KronShape, random_factor
from kronblock.flops import train_path
from kronblock.network import ACTIVATIONS, build_network, dense_spec, kron_spec


SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_fresh(code, *args, threads="1", timeout=300):
    """Run ``python -c code *args`` in a fresh process that imports kronblock
    from this checkout, with OpenBLAS fixed at ``threads`` threads; returns
    the completed process with its text output."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_shape(rng, max_dim=64, max_r=4, full_rank=False):
    """Random factorization pattern with m, n <= max_dim."""

    def split(dim):
        divs = [d for d in range(1, dim + 1) if dim % d == 0]
        d1 = int(rng.choice(divs))
        return d1, dim // d1

    m = int(rng.integers(1, max_dim + 1))
    n = int(rng.integers(1, max_dim + 1))
    m1, m2 = split(m)
    n1, n2 = split(n)
    ceiling = min(m1 * n1, m2 * n2)
    r = ceiling if full_rank else int(rng.integers(1, min(max_r, ceiling) + 1))
    return KronShape(m1, n1, m2, n2, r)


def random_dense_factor(shape, rng):
    """Factor with a non-trivial (non-ones) mask for algebra tests."""
    f = random_factor(shape, rng)
    f.s[:] = rng.standard_normal(f.s.shape)
    return f


def rel_err(analytic, numeric, abs_floor=1e-8, rel_tol=1e-6):
    """Worst normalized deviation under the gradient tolerance rule: a
    component passes at rel_tol when |a - n| <= rel_tol * max(|a|, |n|) or
    |a - n| <= abs_floor (the near-zero absolute rule; also the finite
    difference oracle's roundoff floor). Compare the result against rel_tol."""
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    err = np.abs(analytic - numeric)
    out = err / np.maximum(denom, abs_floor / rel_tol)
    return float(np.max(out)) if out.size else 0.0


def finite_diff(loss_fn, arr, h=1e-5):
    """Central finite differences of a scalar function w.r.t. every entry."""
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + h
        up = loss_fn()
        arr[idx] = orig - h
        down = loss_fn()
        arr[idx] = orig
        grad[idx] = (up - down) / (2.0 * h)
    return grad


def random_mixed_net(r, seed):
    """Network of 1-3 layers, each kron or dense with a random activation,
    with small random dims; weights drawn from ``seed``."""
    specs, d_in = [], int(r.integers(1, 13))
    for _ in range(int(r.integers(1, 4))):
        act = ACTIVATIONS[int(r.integers(len(ACTIVATIONS)))]
        if r.random() < 0.5:
            n1 = int(r.choice([d for d in range(1, d_in + 1) if d_in % d == 0]))
            shape = KronShape(int(r.integers(1, 5)), n1, int(r.integers(1, 5)), d_in // n1,
                              int(r.integers(1, 4)))
            specs.append(kron_spec(shape, act))
        else:
            specs.append(dense_spec(int(r.integers(1, 13)), d_in, act))
        d_in = specs[-1].out_dim
    return build_network(specs, seed=seed)


def layer_forward_identity(n_batch, s, c_forward, with_dx):
    """A factored layer's forward flops (no activation, no loss) as the exact
    identity of its training path: on the fold path r*(C + |S|) + (r-1)*N*m in
    the report's leading forward aggregate C (C1 or C2); on the materialized
    path r*|S| (S * A_i) + m*n*(2r-1) (building W) + N*m*(2n-1) (X @ W.T)."""
    if train_path(n_batch, s, with_dx) == "fold":
        return s.r * (c_forward + s.m1 * s.n1) + (s.r - 1) * n_batch * s.m
    return s.r * s.m1 * s.n1 + s.m * s.n * (2 * s.r - 1) + n_batch * s.m * (2 * s.n - 1)
