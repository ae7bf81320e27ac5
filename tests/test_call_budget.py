"""A deterministic budget for the per-call work of one training step and one
inference pass.

At 64 rows the factored step's time over its dense twin's is mostly per-call
overhead, and calls, unlike timings, can be counted exactly. A fresh process
at one OpenBLAS thread counts the Python ``call`` and C ``c_call`` events
(``sys.setprofile``) of one ``train.train_step`` and one
``network.net_predict``, each after one warm-up call, on five nets:
``linear784``'s (5,392,2,2) r=2 layer (materialized), its 10x784 dense twin,
the ``wide1024`` net (fold first layer, materialized second), criterion 7's
16x32 layer at (2,2) tiles, (8,16,2,2) r=4 (materialized), and ``linear784``'s
two-layer audit net, (8,49,8,16) r=2 relu then (5,8,2,8) r=2, whose second
layer computes its input gradient on the fold path.

Each count must equal its budget. A count above it fails, and so does one
below it, with a message to lower the budget: a change that cuts calls
lowers the budget with it, so no slack is left behind, and one that raises a
budget says why. The counts depend on the numpy version: the budgets were
set under numpy ``NUMPY_VERSION``, and a numpy upgrade restates them as its
own declared change.
"""

import json

import numpy as np

from conftest import run_fresh

NUMPY_VERSION = "2.4.6"
ROWS = 64

# per net: its train paths at ROWS rows, then the (python, C) call budgets of
# one train_step and of one net_predict
BUDGETS = {
    "linear784": (["materialized"], (62, 62), (25, 19)),
    "linear784_dense": (["dense"], (30, 21), (13, 3)),
    "wide1024": (["fold", "materialized"], (105, 110), (42, 34)),
    "criterion7": (["materialized"], (66, 64), (25, 19)),
    "audit784": (["fold", "fold"], (100, 112), (39, 31)),
}

COUNT_CALLS = """
import json, sys
import numpy as np
from kronblock import KronShape
from kronblock.network import build_network, dense_spec, kron_spec, net_predict, train_paths
from kronblock.train import TrainConfig, init_velocities, train_step

ROWS = int(sys.argv[1])
NETS = {
    "linear784": [kron_spec(KronShape(5, 392, 2, 2, 2), "softmax_output")],
    "linear784_dense": [dense_spec(10, 784, "softmax_output")],
    "wide1024": [kron_spec(KronShape(64, 64, 16, 16, 2), "relu"),
                 kron_spec(KronShape(1, 64, 16, 16, 2), "softmax_output")],
    "criterion7": [kron_spec(KronShape(8, 16, 2, 2, 4), "identity")],
    "audit784": [kron_spec(KronShape(8, 49, 8, 16, 2), "relu"),
                 kron_spec(KronShape(5, 8, 2, 8, 2), "softmax_output")],
}


def calls(fn, *args):
    fn(*args)  # warm-up
    counts = {"call": 0, "c_call": 0}

    def profile(_frame, event, _arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(profile)
    fn(*args)
    sys.setprofile(None)
    return counts["call"], counts["c_call"]


out = {}
for name, specs in NETS.items():
    net = build_network(specs, seed=0)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((ROWS, net.in_dim))
    labels = rng.integers(0, net.out_dim, ROWS)
    cfg = TrainConfig(epochs=1, batch_size=ROWS, learning_rate=0.01)
    vel = init_velocities(net)
    out[name] = [train_paths(net, ROWS), calls(train_step, net, x, labels, vel, cfg),
                 calls(net_predict, net, x)]
print(json.dumps(out))
"""


def test_step_and_predict_calls_within_budget():
    proc = run_fresh(COUNT_CALLS, str(ROWS))
    assert proc.returncode == 0, proc.stderr
    counted = json.loads(proc.stdout)
    where = f"budgets set under numpy {NUMPY_VERSION}, running numpy {np.__version__}"
    for name, (paths, step_budget, predict_budget) in BUDGETS.items():
        got_paths, step, predict = counted[name]
        assert got_paths == paths, (name, got_paths)
        for what, got, budget in (("train_step", step, step_budget),
                                  ("net_predict", predict, predict_budget)):
            counts = f"{name} {what}: (python, C) calls {got}"
            assert all(g <= b for g, b in zip(got, budget, strict=True)), (
                f"{counts} > {budget}; {where}")
            assert tuple(got) == budget, f"{counts} < {budget}: lower the budget; {where}"
