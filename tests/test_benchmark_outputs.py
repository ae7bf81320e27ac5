"""The outputs of the benchmark's phases, pinned.

For each workload of ``perfbench/workloads.py`` at seeds 701 and 702, one
fresh process builds its ``State`` and runs each of the six ``PHASES`` once,
in order. The test pins every phase digest, the sha256 of the ``flat``
buffers of the net ``kron_train`` trains and of the net ``select`` picks,
and the ``kronblock flops`` JSON of the workload's ``flop_configs`` at
batches 1, 4, 64 and 512. A change that keeps the outputs passes this test
unchanged; a change that moves them re-pins the values and says why.

Like the golden digests of ``test_cli.py``, the pinned values belong to one
BLAS build (scipy-openblas 0.3.31 under numpy 2.4) and hold at one OpenBLAS
thread only: some ``linear784`` phases evaluate 2048-row sets through a
10x784 weight, whose last bits change with the thread count.
"""

import json
import os

from conftest import run_fresh

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")
SEEDS = (701, 702)
FLOP_BATCHES = (1, 4, 64, 512)

PHASE_OUTPUTS = """
import hashlib, json, os, sys, tempfile
sys.path.insert(0, sys.argv[1])
import workloads
from kronblock import cli

seeds, batches = json.loads(sys.argv[2])


def flat_sha256(net):
    return hashlib.sha256(b"".join(l.factor.flat.tobytes() for l in net.layers)).hexdigest()


out = {}
for name, wl in sorted(workloads.WORKLOADS.items()):
    for seed in seeds:
        with tempfile.TemporaryDirectory() as tmp:
            st = workloads.State(wl, seed, tmp)
            for phase, fn, _ in workloads.PHASES:
                _, digest, _, extra = fn(st)
                out[f"{name}/{seed}/{phase}"] = digest
                if phase == "kron_train":
                    out[f"{name}/{seed}/kron_train.flat"] = flat_sha256(extra)
                elif phase == "select":
                    out[f"{name}/{seed}/select.flat"] = flat_sha256(extra.net)
    with tempfile.TemporaryDirectory() as tmp:
        for batch in batches:
            reports = []
            for i, cfg in enumerate(wl.flop_configs):
                path = os.path.join(tmp, f"flops{i}.json")
                with open(path, "w") as fh:
                    json.dump({"flops": {**cfg, "batch": batch}}, fh)
                reports.append(json.loads(workloads._capture(cli.main, ["flops", "--config", path])))
            out[f"{name}/flops@{batch}"] = workloads.digest(reports)
print(json.dumps(out))
"""

PINNED = {
    "linear784/701/eval":
        "ee3ae701655a6295185653e3fb33a3767e0b73774e4bf5a0af739d7dab40a526",
    "linear784/701/flop_check":
        "1aa99cc19fc27e9e7e4cbedd0cc4634f94e09cf300dcadac9ff3834d75a7cd0f",
    "linear784/701/group_lasso":
        "ebfc5a4f905c29240e1dda8583a655ddc5737a11514988cbc1ba3cbd698c1776",
    "linear784/701/kron_train":
        "7d0a5392f5922604149687879f17f59c68e6fc882fb454a9dd82c4df0884dd1e",
    "linear784/701/kron_train.flat":
        "e1a22b9d3f581859683ea30b42a59a583aa0182cac1c2bb70e4bf37c2f5ce443",
    "linear784/701/prune":
        "436d8b4a7b4d4a45493ae4ca8bdfd84ba73da76c571768e6f205d052cc48e556",
    "linear784/701/select":
        "72a4a8095ff8fb200b6e771a443745348051214ef75dc1af368934eed043bd03",
    "linear784/701/select.flat":
        "2bbd312fd282b0bad595c2f1824b3fbadb9fa4feb9df4e17b67a2b51e08564bc",
    "linear784/702/eval":
        "70dd876eec939a383995ece333414a6cbe6dfa79c2233b9746bac8fbcd4e0800",
    "linear784/702/flop_check":
        "1aa99cc19fc27e9e7e4cbedd0cc4634f94e09cf300dcadac9ff3834d75a7cd0f",
    "linear784/702/group_lasso":
        "73a693cfe7b2b08845d83a9d9d34fa88c7e37f480a1e3072c560e21862eb63a1",
    "linear784/702/kron_train":
        "8269dd37921a842f4d77d009150fa5546d318e5e2d005f166d76db676b93930b",
    "linear784/702/kron_train.flat":
        "aff4f31d8a95882b26f2c6aa3d1502b8269c4742130b1a66300b10fdae8a783a",
    "linear784/702/prune":
        "4d6ead5049ef167e8729db49b1958cbb53e0947676f683bc11a7b2baf8c25c10",
    "linear784/702/select":
        "e4a5feaa88f209907ff3379f328d9d1b138accb767817c5c12939f053b1f5107",
    "linear784/702/select.flat":
        "dd339734057c4429af3b0de4f20ecb3cd4c1333bd30c728e64789357acc7e9f5",
    "linear784/flops@1":
        "23183ff289d3ec3b9b4038776f8418a5e2b44822c931fed1e26152ede69c86fc",
    "linear784/flops@4":
        "1aa99cc19fc27e9e7e4cbedd0cc4634f94e09cf300dcadac9ff3834d75a7cd0f",
    "linear784/flops@512":
        "168a0f04e1558f6e77105de992437fc9a1932dc57839d8a2ae6e10cfd7834741",
    "linear784/flops@64":
        "7f05c47354a641e0993e162a7680dfe2ae3d1c0176a880fc587641bfe7c3b4fc",
    "wide1024/701/eval":
        "23e08b5b39e6d2a52230b1a7ecfefe21b2c1d755a42372f8c7480212482e00e6",
    "wide1024/701/flop_check":
        "7138f913fb81046541b3eacaf2fad797b8d3f01aa9574fd648ec57467fa12737",
    "wide1024/701/group_lasso":
        "c17edc70ecb165cffb00aa33d41a06d114a236928eaec6b75a2555c41587faad",
    "wide1024/701/kron_train":
        "98f852e7e55f73b43363bc0458b908165555499ec70f3637f0dbe81cf6e8fc81",
    "wide1024/701/kron_train.flat":
        "4065be629298301b7e9c0cc91e17a892be6202db3450651edbf19b182d9f4430",
    "wide1024/701/prune":
        "71b7a7bca98e1d423716d6ff1a374e9948df9e58635ca7c01dc080cd5b4da255",
    "wide1024/701/select":
        "77b06967a2e3ca40974f242706ead648e749a56990dce7bdfa6cbf364beadb8b",
    "wide1024/701/select.flat":
        "d980239fcd7c61791f9d85fac24880165991fdf038d668bbccce02d6903d8753",
    "wide1024/702/eval":
        "da14f049f043e4b6cb18388b80bf78e074828abd14114a4e8470dc04e9a82807",
    "wide1024/702/flop_check":
        "7138f913fb81046541b3eacaf2fad797b8d3f01aa9574fd648ec57467fa12737",
    "wide1024/702/group_lasso":
        "91087618d13215ac7137242667047303bc96b8792493f0acb37f5ce44bf6028e",
    "wide1024/702/kron_train":
        "2a5f701c9133260b0a377f349669b93e3bcee85179dc0009c00f8db2c2c8e66c",
    "wide1024/702/kron_train.flat":
        "41e16f16b3c0b5a4cfac61c945526bcc7c5e1b3b8bb9138888971f86ef9b9058",
    "wide1024/702/prune":
        "7097954941fed1a56cbea77e31955dddc7292e8a83550018b2a9481fa449ca4a",
    "wide1024/702/select":
        "2f2ed6598515e7af7d48681df5bb771844b79bdf268405c8e91a377e4eea3e72",
    "wide1024/702/select.flat":
        "626886c7b72c9d3bfeaf592412a950785b028818b9f4ab7e77416a3295f813d9",
    "wide1024/flops@1":
        "7138f913fb81046541b3eacaf2fad797b8d3f01aa9574fd648ec57467fa12737",
    "wide1024/flops@4":
        "7cab76d9b04e6be2bd455641cb95e33ac85d6a6ebc50972cb63e31c3fe2e95f7",
    "wide1024/flops@512":
        "c543392503aa115be145fafe73f681dd06b63b22a136ab84fee8f755e65fc51f",
    "wide1024/flops@64":
        "8efc3d1f2cb9d92024e283a38456054d86c9daec0ad6c975205b454e3cd8f147",
}


def test_benchmark_phase_outputs_pinned():
    proc = run_fresh(PHASE_OUTPUTS, PERFBENCH, json.dumps([SEEDS, FLOP_BATCHES]), threads="1")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == PINNED
