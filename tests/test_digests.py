"""Frozen sha256 digests of the result files of every verb on small configs.

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
EVALUATE = ["evaluate", "--checkpoint", str(CHECKPOINT)]

SPLIT = """train_problems = synthetic/sphere-linear/0, synthetic/rastrigin-ring/1
test_problems = cec12, synthetic/rosenbrock-cubic/5
"""

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
    "train": ((["train"],), "problems = synthetic/sphere-linear/0, synthetic/rastrigin-ring/1\n", {
        "checkpoint.txt":
            "b9fade07fb7ecede94d0ae7c211a9c071498afa423907129eebbcbc4529ffdb8",
        "train_log.jsonl":
            "94780e47a57e9c2aa128ce024ba37b44ddbf4349a305c6b32738d85b189a412d",
    }),
    "evaluate": ((EVALUATE,),
                 "problems = cec12, synthetic/rosenbrock-cubic/5\n", {
        "records.jsonl":
            "b03337de11dfbba802d69c703011e0dfa6c6e41847d4dd809901b2301c5c8df7",
        "results.csv":
            "f43aebe8f14434a6ee06e7e75ececd5df444efba36b807adc28e7696634b8562",
    }),
    "baseline-lpsr": ((["baseline", "--name", "scheduled-eps"],),
                      "problems = cec14, synthetic/griewank-plane/3\nlpsr = true\n", {
        "records_scheduled-eps.jsonl":
            "365aa15ab749e10183338a0ec753aaaae01e0f8547010fcb46601527e1dd639a",
        "baseline_scheduled-eps.csv":
            "48047b568d964d4ef03d4894a3b9525b0e47131252b5e56f2d46ee6b972ed7bb",
    }),
    "loo": ((["loo"],), "problems = synthetic/sphere-linear/0, synthetic/rastrigin-ring/1, "
                        "cec12\n", {
        "checkpoint_cec12.txt":
            "b9fade07fb7ecede94d0ae7c211a9c071498afa423907129eebbcbc4529ffdb8",
        "checkpoint_synthetic_rastrigin-ring_1.txt":
            "8b04464b09e7ba8c0a54a6c8ab060f2ed7c0c10246607d81199c58930e5cbc4e",
        "checkpoint_synthetic_sphere-linear_0.txt":
            "7c19095e90c17b998c21bfed5254f034a46586fd0dbe540ada820a88f9bd7799",
        "loo_results.csv":
            "ceb9b8c11bcb91df852684b01dae95199d227fb7ee6734b5b46ed5296dd7b435",
        "records.jsonl":
            "db4db0d23ec293b3223b086ddde1b8e64a228fe8fd538404c6815d97fb1c1ee3",
        "train_log.jsonl":
            "cbf6f4380674daeb4a38383001138e579273755af83831bb09ad7da0c800fd08",
    }),
    "split": ((["split"],), SPLIT, {
        "checkpoint.txt":
            "b9fade07fb7ecede94d0ae7c211a9c071498afa423907129eebbcbc4529ffdb8",
        "records.jsonl":
            "0078084fad75479996dafc8d7fb395498ab3ca97a195907c6675d4b54fb8f677",
        "split_results.csv":
            "d512d0b90e3ad2436c627cefa00c559ff4230c318e9c56e548666dbd0d649182",
        "train_log.jsonl":
            "94780e47a57e9c2aa128ce024ba37b44ddbf4349a305c6b32738d85b189a412d",
    }),
    "ablate-no-state": ((["ablate", "--variant", "no-state"],), SPLIT, {
        "ablate_no-state.csv":
            "f444abf600d75461110bac02e67b29b29349acde91147ee05d512ccb7b9f0fd5",
        "records.jsonl":
            "803f09c7e5efb45efb5b2b767a99f359ef1fe78b9e398d65b243c2462b354aa2",
    }),
    # export-curves reads the records.jsonl that evaluate leaves in --out and
    # writes curves.csv alone
    "export-curves": ((EVALUATE, ["export-curves"]),
                      "problems = cec12, synthetic/rosenbrock-cubic/5\n", {
        "curves.csv":
            "f6014893d58141b1d6b630fa7cdab48596b212d9cb51e17546cf940f7a3a48d8",
        "records.jsonl":
            "b03337de11dfbba802d69c703011e0dfa6c6e41847d4dd809901b2301c5c8df7",
        "results.csv":
            "f43aebe8f14434a6ee06e7e75ececd5df444efba36b807adc28e7696634b8562",
    }),
}


@pytest.mark.skipif(np.__version__ != NUMPY_VERSION,
                    reason=f"digests taken with numpy {NUMPY_VERSION}")
@pytest.mark.parametrize("case", sorted(CASES))
def test_result_files_match_frozen_digests(case, tmp_path):
    verbs, problems, digests = CASES[case]
    cfg = tmp_path / "small.cfg"
    cfg.write_text(problems + SMALL)
    out = tmp_path / "out"
    for argv in verbs:
        assert main([argv[0], "--config", str(cfg), "--out", str(out)] + argv[1:]) == EXIT_OK
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert got == digests
