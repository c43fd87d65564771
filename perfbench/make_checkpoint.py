"""Remake the test-size seq2seq checkpoint that the s2s-predict workload loads.

    python3 perfbench/make_checkpoint.py

Everything is fixed: the corpus is ``synthetic.generate(2000, seed=7)``,
split with seed 7, and the model is trained through ``derivgen train`` at
emb 32 / hidden 64 / batch 5 for 6 epochs with seed 0 (the epoch with the
best dev accuracy is kept). The files land in ``perfbench/checkpoint/``;
the split files go to ``perfbench/out/``.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
CORPUS_SIZE = 2000
CORPUS_SEED = 7
SPLIT_SEED = 7
TRAIN_ARGS = ["--emb", "32", "--hidden", "64", "--batch", "5", "--epochs", "6", "--seed", "0"]
CHECKPOINT = os.path.join(HERE, "checkpoint", "s2s-emb32-h64.ckpt")


def corpus_triples():
    """The checkpoint's whole corpus; s2s-predict queries avoid its bases."""
    from derivgen import synthetic

    return synthetic.generate(CORPUS_SIZE, seed=CORPUS_SEED)


def main():
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    sys.path.insert(0, SRC)
    from derivgen import cli, corpus

    work = os.path.join(HERE, "out", "checkpoint-splits")
    os.makedirs(work, exist_ok=True)
    data = os.path.join(work, "triples.tsv")
    corpus.write_triples(data, corpus_triples())
    start = time.perf_counter()
    rc = cli.main(["split", "--data", data, "--seed", str(SPLIT_SEED), "--out-dir", work])
    if rc == 0:
        rc = cli.main(["train", "--kind", "seq2seq", "--splits", work, "--model", CHECKPOINT]
                      + TRAIN_ARGS)
    print(f"seconds={time.perf_counter() - start:.1f}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
