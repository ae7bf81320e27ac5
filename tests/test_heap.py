import ctypes
import json

import pytest

from kronblock import heap

from conftest import run_fresh

pytest.importorskip("resource")  # the step count reads getrusage

# Steps 1-4 of the wide benchmark net (1024 -> 1024 relu -> 16, (16,16) tiles,
# r=2) at 256 rows; prints the minor faults of each step
STEP_FAULTS = """
import json, resource
import numpy as np
from kronblock import KronShape
from kronblock.network import build_network, kron_spec, net_backward, net_forward
from kronblock.train import TrainConfig, init_velocities, sgd_step

net = build_network([kron_spec(KronShape(64, 64, 16, 16, 2), "relu"),
                     kron_spec(KronShape(1, 64, 16, 16, 2), "softmax_output")], seed=0)
rng = np.random.default_rng(0)
x, labels = rng.standard_normal((256, 1024)), rng.integers(0, 16, 256)
cfg = TrainConfig(epochs=1, batch_size=256, learning_rate=0.01)
vel = init_velocities(net)


def step():  # its temporaries are freed when it returns
    _, cache = net_forward(net, x)
    _, grads, _ = net_backward(net, cache, labels, False)
    sgd_step(net, grads, vel, cfg)


faults = []
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    step()
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


def test_step_temporaries_stay_on_mapped_pages():
    # under glibc's default thresholds each step after the first took about
    # 3930 minor faults in a fresh process, as the freed heap top was trimmed
    # and mapped again; under the heap policy steps 2-4 reuse mapped pages
    if getattr(ctypes.CDLL(None), "mallopt", None) is None:
        pytest.skip("libc has no mallopt")
    assert heap.POLICY == {"applied": True, "mmap_threshold": 32 * 2**20,
                           "trim_threshold": 256 * 2**20}
    proc = run_fresh(STEP_FAULTS, threads="1")
    assert proc.returncode == 0, proc.stderr
    faults = json.loads(proc.stdout)
    assert sum(faults[1:]) < 64, faults
