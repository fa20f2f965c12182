"""Frozen sha256 digests of the result files of three verbs on small configs.

Any change to the random stream, to the arithmetic or to the output format
changes these digests; a change that means to alter them must say so and
record the new values here.  The digests were taken with the numpy version
below, whose Generator streams they depend on, so on any other numpy the
test is skipped rather than failed.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from rlrelax.cli import EXIT_OK, main

NUMPY_VERSION = "2.4.6"
CHECKPOINT = Path(__file__).resolve().parent.parent / "bench" / "fixtures" / "checkpoint.txt"

SMALL = """dims = 10
pop_size = 12
maxfes_per_dim = 20
runs = 2
seed = 1
epochs = 2
buffer_capacity = 64
batch_size = 8
"""

CASES = {
    "train": (["train"], "problems = synthetic/sphere-linear/0, synthetic/rastrigin-ring/1\n", {
        "checkpoint.txt":
            "b9fade07fb7ecede94d0ae7c211a9c071498afa423907129eebbcbc4529ffdb8",
        "train_log.jsonl":
            "94780e47a57e9c2aa128ce024ba37b44ddbf4349a305c6b32738d85b189a412d",
    }),
    "evaluate": (["evaluate", "--checkpoint", str(CHECKPOINT)],
                 "problems = cec12, synthetic/rosenbrock-cubic/5\n", {
        "records.jsonl":
            "b03337de11dfbba802d69c703011e0dfa6c6e41847d4dd809901b2301c5c8df7",
        "results.csv":
            "f43aebe8f14434a6ee06e7e75ececd5df444efba36b807adc28e7696634b8562",
    }),
    "baseline-lpsr": (["baseline", "--name", "scheduled-eps"],
                      "problems = cec14, synthetic/griewank-plane/3\nlpsr = true\n", {
        "records_scheduled-eps.jsonl":
            "365aa15ab749e10183338a0ec753aaaae01e0f8547010fcb46601527e1dd639a",
        "baseline_scheduled-eps.csv":
            "48047b568d964d4ef03d4894a3b9525b0e47131252b5e56f2d46ee6b972ed7bb",
    }),
}


@pytest.mark.skipif(np.__version__ != NUMPY_VERSION,
                    reason=f"digests taken with numpy {NUMPY_VERSION}")
@pytest.mark.parametrize("case", sorted(CASES))
def test_result_files_match_frozen_digests(case, tmp_path):
    argv, problems, digests = CASES[case]
    cfg = tmp_path / "small.cfg"
    cfg.write_text(problems + SMALL)
    out = tmp_path / "out"
    assert main([argv[0], "--config", str(cfg), "--out", str(out)] + argv[1:]) == EXIT_OK
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert got == digests
