"""Digests of every output that a change meant to be bit-identical must keep.

    python3 scripts/exactness.py > digests.txt

It prints one ``name sha256`` line per output, for the ``derivgen`` package
of this checkout. Run it on two checkouts and diff the files; a change that
claims identical outputs shows no differing line. Each line that hashes
hypotheses with their log-probabilities has a ``<name>.texts`` line beside
it that hashes only their tokens or texts (and finished flags, where the
output has them), so a diff tells log-probability bits that moved apart
from outputs that changed. It covers:

- the checkpoint, sidecar, training log and every epoch's dev predictions
  of the acceptance suite's seq2seq run (emb 32, hidden 64, batch 5, beam 4,
  at most 40 epochs, stop at dev accuracy 0.99), and its test predictions;
- the same files for the first three training slices of the seed-0
  ``s2s-train`` benchmark workload (paper recipe, 2 epochs);
- the k-best lists, log-probabilities included, of the first 200 seed-0
  ``s2s-predict`` queries on the committed checkpoint, at beam 12 and k 10;
- ``derivgen predict`` on the next 500 of those queries, at k 10 / beam 12,
  k 1 / beam 1 and k 2 / beam 3;
- the baseline pipeline through the CLI on the acceptance corpus: split,
  model file, training log and test predictions.

It takes about 35 s on one core of a shared 2-vCPU machine, most of it the
acceptance run.
BLAS is held to one thread.
"""

import contextlib
import hashlib
import os
import sys
import tempfile

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import make_checkpoint  # noqa: E402  (the s2s-predict checkpoint and its corpus)
from derivgen import cli, corpus, seq2seq, synthetic  # noqa: E402


def run_cli(*args):
    if cli.main(list(args)):
        sys.exit(f"derivgen {args[0]} failed")


def emit(name, data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    print(f"{name} {hashlib.sha256(data).hexdigest()}", flush=True)


def emit_file(name, path):
    with open(path, "rb") as fh:
        emit(name, fh.read())


def hyps_text(batches, log_probs=True):
    """Hypotheses as exact text: tokens, log-probability repr (left out
    unless ``log_probs``) and finished flag."""
    return "\n".join(repr([(h.tokens, h.log_prob, h.finished) if log_probs
                            else (h.tokens, h.finished) for h in hyps])
                     for batch in batches for hyps in batch)


def kbest_texts(kbest):
    """``predict_kbest`` lists without their log-probabilities."""
    return repr([[text for text, _ in ranked] for ranked in kbest])


@contextlib.contextmanager
def recording_decodes(calls):
    """Appends the result of each outermost ``beam_batch`` call to ``calls``;
    during training these are the dev-set decodes, one per epoch."""
    inner, depth = seq2seq.beam_batch, [0]

    def recorded(*args, **kwargs):
        depth[0] += 1
        try:
            out = inner(*args, **kwargs)
        finally:
            depth[0] -= 1
        if not depth[0]:
            calls.append(out)
        return out

    seq2seq.beam_batch = recorded
    try:
        yield
    finally:
        seq2seq.beam_batch = inner


def training_run(name, split, vocab, config, work):
    calls = []
    with recording_decodes(calls):
        params, meta, lines = seq2seq.train(split, vocab, config)
    path = os.path.join(work, name + ".ckpt")
    seq2seq.save_model(path, params, vocab, meta)
    emit_file(f"{name}.checkpoint", path)
    emit_file(f"{name}.sidecar", path + ".meta.json")
    emit(f"{name}.log", "\n".join(lines))
    emit(f"{name}.dev-predictions", hyps_text(calls))
    emit(f"{name}.dev-predictions.texts", hyps_text(calls, log_probs=False))
    return params


def acceptance_seq2seq(work):
    split = corpus.split_dataset(corpus.filter_triples(synthetic.generate(2000, seed=7)), seed=7)
    vocab = corpus.build_vocab(split.train)
    config = seq2seq.Seq2SeqConfig(emb=32, hidden=64, batch=5, epochs=40, beam=4, seed=0,
                                   stop_at_dev_acc=0.99)
    params = training_run("synth-seq2seq", split, vocab, config, work)
    preds = [seq2seq.predict_kbest(params, vocab, t.base, t.tag, beam=4, k=1) for t in split.test]
    emit("synth-seq2seq.test-predictions", repr(preds))
    emit("synth-seq2seq.test-predictions.texts", kbest_texts(preds))


def s2s_train_slices(work):
    data = corpus.filter_triples(synthetic.generate(900, seed="s2s-train:0"))
    split = corpus.split_dataset(data, seed=0)
    vocab = corpus.build_vocab(split.train)
    config = seq2seq.Seq2SeqConfig(emb=300, hidden=100, batch=20, epochs=2, seed=0)
    for j in range(3):
        sub = corpus.DatasetSplit(split.train[j * 40:(j + 1) * 40], split.dev[j * 9:(j + 1) * 9],
                                  (), 0)
        training_run(f"s2s-train-slice{j}", sub, vocab, config, work)


def s2s_predict(work):
    params, vocab, _ = seq2seq.load_model(make_checkpoint.CHECKPOINT)
    seen = {t.base for t in make_checkpoint.corpus_triples()}
    queries = [(t.base, t.tag) for t in synthetic.generate(4000, seed="s2s-predict:0")
               if t.base not in seen]
    kbest = [seq2seq.predict_kbest(params, vocab, base, tag, beam=12, k=10)
             for base, tag in queries[:200]]
    emit("s2s-predict.kbest-200", repr(kbest))
    emit("s2s-predict.kbest-200.texts", kbest_texts(kbest))
    path = os.path.join(work, "queries.tsv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{base}\t{tag}\n" for base, tag in queries[200:700])
    for k, beam in (("10", "12"), ("1", "1"), ("2", "3")):
        out = os.path.join(work, f"predict-k{k}-beam{beam}.tsv")
        run_cli("predict", "--model", make_checkpoint.CHECKPOINT, "--input", path,
                "--output", out, "--k", k, "--beam", beam)
        emit_file(f"predict-cli.k{k}-beam{beam}", out)


def baseline_cli(work):
    data, splits = os.path.join(work, "triples.tsv"), os.path.join(work, "splits")
    corpus.write_triples(data, synthetic.generate(2000, seed=7))
    model = os.path.join(work, "baseline.model")
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        run_cli("split", "--data", data, "--seed", "7", "--out-dir", splits)
        run_cli("train", "--kind", "baseline", "--splits", splits, "--model", model,
                "--epochs", "10", "--seed", "0")
    for name in ("train.tsv", "dev.tsv", "test.tsv"):
        emit_file(f"baseline-cli.split.{name}", os.path.join(splits, name))
    emit_file("baseline-cli.model", model)
    emit_file("baseline-cli.log", model + ".log")
    out = os.path.join(work, "baseline-predictions.tsv")
    run_cli("predict", "--model", model, "--input", os.path.join(splits, "test.tsv"),
            "--output", out)
    emit_file("baseline-cli.predictions", out)


def main():
    with tempfile.TemporaryDirectory() as work:
        baseline_cli(work)
        s2s_predict(work)
        s2s_train_slices(work)
        acceptance_seq2seq(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
