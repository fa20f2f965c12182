"""Frozen sha256 digests of the result files of every verb on small configs.

Any change to the random stream, to the arithmetic or to the output format
changes these digests; a change that means to alter them must say so and
record the new values here.  The digests were taken with the numpy version
below, whose Generator streams they depend on, so on any other numpy the
test is skipped rather than failed.

To re-baseline, run ``PYTHONPATH=src python tests/test_digests.py`` from the
repository root under that numpy version: it prints every case's current
digests in the layout of ``CASES`` ("# changed" marks a case whose files no
longer match), ready to replace each case's digest dict.
"""

import hashlib
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from rlrelax.cli import EXIT_OK, main

NUMPY_VERSION = "2.4.6"
CHECKPOINT = Path(__file__).resolve().parent.parent / "bench" / "fixtures" / "checkpoint.txt"
EVALUATE = ["evaluate", "--checkpoint", str(CHECKPOINT)]
# evaluate the checkpoint that train left in the case's --out
EVALUATE_TRAINED = ["evaluate", "--checkpoint", "{out}/checkpoint.txt"]

SPLIT = """train_problems = synthetic/sphere-linear/0, synthetic/rastrigin-ring/1
test_problems = cec12, synthetic/rosenbrock-cubic/5
"""

HELD_OUT = "problems = cec12, synthetic/rosenbrock-cubic/5\n"
TRAIN_SET = "problems = synthetic/sphere-linear/0, synthetic/rastrigin-ring/1\n"
THREE_LAYOUTS = ("problems = cec12, synthetic/rosenbrock-cubic/5, synthetic/sphere-linear/9\n"
                 "lpsr = true\n")

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
    # the switches: each baseline, both linear schemes and the masked state
    # (train, then evaluate its checkpoint), and each reward or scheme ablation
    "baseline-static-eps": ((["baseline", "--name", "static-eps"],), HELD_OUT, {
        "baseline_static-eps.csv":
            "5040fb0321acdf32635c09e7af8a7bd6599e425ca5003be78b69bf5c542d0f57",
        "records_static-eps.jsonl":
            "00f323c3218e838a76bace922609f5d70f515d1d82e4c04810d6ac675a84d5f6",
    }),
    "baseline-feasibility-rule": ((["baseline", "--name", "feasibility-rule"],), HELD_OUT, {
        "baseline_feasibility-rule.csv":
            "02a4809abd18c2af8c0bd9f0de324db40c948ceb7724ad8d1826433bfc26b782",
        "records_feasibility-rule.jsonl":
            "a41d7899e61555bee7ce7f497739a0216cedfb4b8888ebcfd49c71023540b97e",
    }),
    "baseline-untrained-agent": ((["baseline", "--name", "untrained-agent"],), HELD_OUT, {
        "baseline_untrained-agent.csv":
            "3d8bc95a80bc98e1d2e0ead27c9a246d17390812d31bdf1200e66e287c202c74",
        "records_untrained-agent.jsonl":
            "483ed52eee3245ff0209d8572f162996cf4be5435d15817eac09f44b4d4a732f",
    }),
    "train-evaluate-linear-aa": (
        (["train"], EVALUATE_TRAINED), TRAIN_SET + "action_scheme = linear-aa\n", {
        "checkpoint.txt":
            "02ae056eb70bff7df7081f16898bd5496a2558d020859211a22803907c9c356a",
        "records.jsonl":
            "c050dec132e7b371c3fd6e90bd205bd177d3330613fd5d2c1366bea7f33347f9",
        "results.csv":
            "09922d548dbeed0a09d263e4eb1dbd06229dc3dadc858b20d19c1b57e4b873c3",
        "train_log.jsonl":
            "61b545b3e8e5fe2422db7a69498febd7c250772dbac6c13c24247f518c5341bc",
    }),
    "train-evaluate-linear-ca": (
        (["train"], EVALUATE_TRAINED), TRAIN_SET + "action_scheme = linear-ca\n", {
        "checkpoint.txt":
            "07e29dac4e7ac566c3f05e015e482930169e083ffb16b2b51b508f228a92b8aa",
        "records.jsonl":
            "b816cd0638731f75b680a2bf9e63f1995019711872f7fc8d3c603e57f8e0a255",
        "results.csv":
            "608d5592dfda7a993331eeecad8c848809870104421643ccc335dbb6913cc3ef",
        "train_log.jsonl":
            "fef8e45cc64dc7027ba43640e022d430a6cb4eb9899126884389faec829a4c23",
    }),
    "train-evaluate-mask-state": (
        (["train"], EVALUATE_TRAINED), TRAIN_SET + "mask_state = true\n", {
        "checkpoint.txt":
            "66c722dc3cdd77e97507d243bf7b454dc2affbdc1290a0680dee1552ec3022f7",
        "records.jsonl":
            "4e4c51ee14ed91f99b473efbeed156bd8dfc6dc1614e9c2845a66521b59d216a",
        "results.csv":
            "3ccc8e39879addea9e6e638822f30dfe4e427ef7ed2b9029e5581145812ea5f8",
        "train_log.jsonl":
            "94780e47a57e9c2aa128ce024ba37b44ddbf4349a305c6b32738d85b189a412d",
    }),
    "ablate-aa": ((["ablate", "--variant", "aa"],), SPLIT, {
        "ablate_aa.csv":
            "b74a0e166645877f986d080b60711bf324ba05aedfc4f8c4c9f7059f85433e1d",
        "records.jsonl":
            "f5842adf41f02764e080ce1ae8e679f49980172d6ae83e7b20f9e658a96da1d0",
    }),
    "ablate-ca": ((["ablate", "--variant", "ca"],), SPLIT, {
        "ablate_ca.csv":
            "86a2c6a995852e3615e8acbcbb36c7c80068f6a0d0f3640233c8c4062558da85",
        "records.jsonl":
            "0f19f64136544f241cd2095bbe5e5c145095caecfe0b6a2b169cf97768459967",
    }),
    "ablate-r1": ((["ablate", "--variant", "r1"],), SPLIT, {
        "ablate_r1.csv":
            "af5212b41605c9377fd373e9fae4cec9d56a1ac1728e70f4b4943c62f6f87012",
        "records.jsonl":
            "b30e614be00a0cc17cbdebb868e23a8577d5e381423f6c944209a9e87c77e7cb",
    }),
    "ablate-r2": ((["ablate", "--variant", "r2"],), SPLIT, {
        "ablate_r2.csv":
            "a50cd1f66f72865ce373c8250565349ac03ab3b6d93b82d149cb568be60966ae",
        "records.jsonl":
            "65748627d13b43a8caa4be6090826314ca12b8a5a4a8057a970b79dcff2fe838",
    }),
    "ablate-r1r2": ((["ablate", "--variant", "r1r2"],), SPLIT, {
        "ablate_r1r2.csv":
            "6d81e25bbcfb68db1c824065f471a1eb9e598ea4e9d44703dabb99ddedc570ef",
        "records.jsonl":
            "e84de93f04c0e00f0b95ff9dc65a9ab764b75711edf6486650f9351cc79590e4",
    }),
    "ablate-no-train": ((["ablate", "--variant", "no-train"],), SPLIT, {
        "ablate_no-train.csv":
            "c46d842a03cb02a6fae7d7c8a0df3c5891d08fff00b66290ce79d2688d08c7cb",
        "records.jsonl":
            "4299fa0e78b271205621b50d0c023c997d695cec140fb2b6e55c4242101e14ef",
    }),
    # a list trains the full method once: each table is the single call's,
    # and records.jsonl holds the full method's rows once, then r1's, then no-state's
    "ablate-r1-no-state": ((["ablate", "--variant", "r1,no-state"],), SPLIT, {
        "ablate_no-state.csv":
            "f444abf600d75461110bac02e67b29b29349acde91147ee05d512ccb7b9f0fd5",
        "ablate_r1.csv":
            "af5212b41605c9377fd373e9fae4cec9d56a1ac1728e70f4b4943c62f6f87012",
        "records.jsonl":
            "873a192bc6312548a1b0595b6081e332d464ec8bb5cfe3dc6e72f9a234fcfe9b",
    }),
    # three constraint layouts on one box, (1, 1), (2, 0) and (1, 0): the digests
    # were taken when each layout ran as its own group, and hold the mixed stack to them
    "evaluate-baseline-three-layouts": ((EVALUATE, ["baseline", "--name", "scheduled-eps"]),
                                        THREE_LAYOUTS, {
        "baseline_scheduled-eps.csv":
            "569c8cb76dc59cce8f36cb93ac47f57305ce71b1db84260c6d5578789422d508",
        "records.jsonl":
            "377d600f96652f9b14874b785c25e98510f3474607bcf9d04d7d0df679a1aa6f",
        "records_scheduled-eps.jsonl":
            "21679632d10d101fba2c190cb2fcdb4da89d809f5f00a04cf9ebefad6a3d716f",
        "results.csv":
            "28a98aea44ceeafd20ff13c2876fdfd8cda720d5f58374a09ef0341e22c662c4",
    }),
}


def current_digests(case: str, tmp_path: Path) -> dict[str, str]:
    """Run the case's verbs in tmp_path; the sha256 of every file they wrote, by name."""
    verbs, problems, _ = CASES[case]
    cfg = tmp_path / "small.cfg"
    cfg.write_text(problems + SMALL)
    out = tmp_path / "out"
    for argv in verbs:
        rest = [a.replace("{out}", str(out)) for a in argv[1:]]
        assert main([argv[0], "--config", str(cfg), "--out", str(out)] + rest) == EXIT_OK
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.skipif(np.__version__ != NUMPY_VERSION,
                    reason=f"digests taken with numpy {NUMPY_VERSION}")
@pytest.mark.parametrize("case", sorted(CASES))
def test_result_files_match_frozen_digests(case, tmp_path):
    assert current_digests(case, tmp_path) == CASES[case][2]


def print_digests() -> None:
    """Every case's current digests as the dict lines of CASES; the verbs'
    own messages go to standard error."""
    for case, (_, _, frozen) in CASES.items():
        with tempfile.TemporaryDirectory() as tmp, redirect_stdout(sys.stderr):
            got = current_digests(case, Path(tmp))
        print(f'    "{case}": {{' + ("" if got == frozen else "  # changed"))
        for name, digest in got.items():
            print(f'        "{name}":\n            "{digest}",')
        print("    },")


if __name__ == "__main__":
    if np.__version__ != NUMPY_VERSION:
        sys.exit(f"the digests are taken with numpy {NUMPY_VERSION}, not {np.__version__}")
    print_digests()
