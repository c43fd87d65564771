"""Train the attentional encoder-decoder on a small toy corpus and
inspect its beam, attention weights, and checkpointing.

Reduced dimensions keep this to about a minute of CPU time.
"""

import os
import tempfile

import numpy as np

from derivgen.corpus import build_vocab, filter_triples, split_dataset
from derivgen.metrics import accuracy
from derivgen.seq2seq import (
    Seq2SeqConfig,
    decode_step,
    encode,
    load_model,
    predict_kbest,
    save_model,
    train,
)
from derivgen.synthetic import generate

data = filter_triples(generate(800, seed=1))
split = split_dataset(data, seed=1)
vocab = build_vocab(split.train)

cfg = Seq2SeqConfig(emb=24, hidden=32, batch=5, epochs=60, beam=8,
                    seed=0, stop_at_dev_acc=1.0)
params, meta, log = train(split, vocab, cfg)
print("last log lines:")
for line in log[-3:]:
    print(" ", line)

preds = [predict_kbest(params, vocab, t.base, t.tag, beam=8, k=1)[0][0]
         for t in split.test]
print(f"\ntest accuracy: {accuracy(preds, [t.derived for t in split.test]):.3f}")

# k-best for one query.
t = split.test[0]
print(f"\n5-best for ({t.base}, {t.tag}), gold {t.derived!r}:")
for rank, (pred, logp) in enumerate(
        predict_kbest(params, vocab, t.base, t.tag, beam=8, k=5), 1):
    print(f"  {rank}. {pred!r}  logp={logp:.3f}")

# Attention weights for the first decoder step: one weight per source
# position (characters, then the tag token, then EOS).
enc = encode([vocab.encode_source(t.base, t.tag)], params)
_, _, alpha = decode_step(np.array([[vocab.bos_id]]), enc.init_state[:, None], enc, params)
labels = list(t.base) + [t.tag, "<eos>"]
print("\nfirst-step attention:")
for label, weight in zip(labels, alpha[0, 0]):
    print(f"  {label:<10} {weight:.3f}")

with tempfile.TemporaryDirectory() as d:
    path = os.path.join(d, "model.ckpt")
    save_model(path, params, vocab, meta)
    params2, vocab2, _ = load_model(path)
    same = all(np.array_equal(params.tensors[n].values, params2.tensors[n].values)
               for n in params.tensors)
    print(f"\ncheckpoint round-trip bit-exact: {same}")
