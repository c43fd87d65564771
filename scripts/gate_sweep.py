"""How often the seq2seq acceptance gates pass over model seeds.

    python3 scripts/gate_sweep.py [--seeds N]

It trains the acceptance suite's seq2seq run (``synth_seq2seq`` in
``tests/test_acceptance.py``: emb 32, hidden 64, batch 5, beam 4, at most 40
epochs, stop at dev accuracy 0.99) on the same corpus,
``split_dataset(filter_triples(generate(2000, seed=7)), seed=7)``, once for
each model seed 0..N-1 (default 4), with the ``derivgen`` package of this
checkout. For each seed it prints one line: the best epoch, its dev
accuracy, the test accuracy of the 1-best at beam 4, and each test miss on a
concatenative tag as ``base+TAG->prediction``. A seed passes when the test
accuracy is at least 0.95 and it misses no concatenative query, the suite's
two gates on the seq2seq model alone. The last line is ``pass K of N``.

Each seed takes about half a minute on one core; BLAS is held to one thread.
"""

import argparse
import os
import sys

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from derivgen import corpus, metrics, seq2seq, synthetic  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=4, help="model seeds 0..N-1 (default 4)")
    n = parser.parse_args(argv).seeds
    split = corpus.split_dataset(corpus.filter_triples(synthetic.generate(2000, seed=7)), seed=7)
    vocab = corpus.build_vocab(split.train)
    gold = [t.derived for t in split.test]
    passed = 0
    for seed in range(n):
        config = seq2seq.Seq2SeqConfig(emb=32, hidden=64, batch=5, epochs=40, beam=4, seed=seed,
                                       stop_at_dev_acc=0.99)
        params, meta, _ = seq2seq.train(split, vocab, config)
        preds = [seq2seq.predict_kbest(params, vocab, t.base, t.tag, beam=4, k=1)[0][0]
                 for t in split.test]
        acc = metrics.accuracy(preds, gold)
        misses = [f"{t.base}+{t.tag}->{p}" for t, p in zip(split.test, preds)
                  if t.tag in synthetic.CONCATENATIVE_TAGS and p != t.derived]
        passed += acc >= 0.95 and not misses
        print(f"seed={seed} best_epoch={meta['best_epoch']} "
              f"dev_acc={meta['best_dev_accuracy']:.4f} test_acc={acc:.4f} "
              f"concat_misses={len(misses)} {' '.join(misses)}".rstrip(), flush=True)
    print(f"pass {passed} of {n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
