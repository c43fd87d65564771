"""One workload of the derivgen benchmark, run in the current process.

    python3 perfbench/bench.py --workload s2s-train --seed 0 --seconds 30 --trace 0

``run.py`` starts this script in a process of its own with BLAS pinned to
one thread; run it through ``run.py``. It sets up ``SETUPS`` times and
reports the median set-up time, runs whole rounds of the workload for
``--seconds``, checks the outputs, and prints the metrics as the last line
of standard output. With ``--trace 1`` it then runs a few more rounds with
every public function of the program wrapped in spans, and prints the
per-layer metrics instead. See README.md for what each workload and metric
means.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
import types
from collections import defaultdict
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHECKPOINT = os.path.join(HERE, "checkpoint", "s2s-emb32-h64.ckpt")

SETUPS = 3
OPS = ("matmul", "add", "sub", "mul", "scale", "tanh", "sigmoid", "softmax",
       "log_softmax", "concat", "stack", "row", "pick")

# The metrics every workload prints, by name and unit, as BENCHMARK.json lists them.
END_TO_END = {"setup_s": "s", "items_per_s": "1/s", "item_latency_p50_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"numeric.{op}.calls": "count" for op in OPS},
    **{f"numeric.{op}.self_us": "us" for op in OPS},
    "numeric.ops_per_train_example": "count",
    "numeric.ops_per_query": "count",
    "numeric.backward.self_ms_per_example": "ms",
    "numeric.adadelta_step.ms": "ms",
    "numeric.load_params.ms": "ms",
    **{f"seq2seq.{fn}.{t}": "us" for fn in ("encode", "gru_step", "attend", "decode_step")
       for t in ("us", "self_us")},
    "seq2seq.sequence_loss.ms_per_example": "ms",
    "seq2seq.greedy_decode.ms_per_query": "ms",
    "seq2seq.beam_search.ms_per_query": "ms",
    "seq2seq.decode_step.calls_per_query": "count",
    "seq2seq.beam_steps_per_query": "count",
    "seq2seq.beam_useful_ratio": "ratio",
    **{f"baseline.{fn}.{t}": u for fn in ("align", "featurize", "observe", "candidates")
       for t, u in (("us", "us"), ("calls", "count"))},
    "baseline.update_ratio": "ratio",
    "baseline.decode_greedy.us_per_query": "us",
    "baseline.load_baseline.ms": "ms",
    "baseline.weights": "count",
    "corpus.levenshtein.us": "us",
    "corpus.levenshtein.calls": "count",
    "metrics.avg_edit_distance.ms": "ms",
    **{f"cli.{c}.self_ms": "ms" for c in ("split", "train", "predict", "evaluate")},
    "trace.overhead_pct": "%",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Workload:
    """Set-up, rounds and checks of one workload.

    An item is the unit of work a workload counts: a training example in one
    epoch, a query, or a query answered by the whole CLI pipeline. ``round``
    adds to ``self.attempted``/``self.failed`` and appends to
    ``self.samples``: the round's items per second to ``rate``, and seconds
    per item to ``latency``, one sample per item where items are timed one by
    one and one per round where a round's items are timed together.
    """

    name = ""
    min_rounds = 1
    trace_rounds = 1
    ops_per_round = 1

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work
        self.samples = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.results = []

    def metrics(self):
        """Medians over the run: items per second of a round, time of an item."""
        return {
            "items_per_s": (statistics.median(self.samples["rate"]), "1/s"),
            "item_latency_p50_ms": (statistics.median(self.samples["latency"]) * 1e3, "ms"),
        }


# --- s2s-train ---------------------------------------------------------------

class S2STrain(Workload):
    """Paper-recipe training: ``seq2seq.train`` with its per-epoch dev scoring.

    Each round trains a fresh model for ``EPOCHS`` epochs on ``TRAIN``
    triples with ``DEV`` dev triples (the corpus's 70:15 ratio), taking the
    next slice of the seed's corpus, so a run averages over many examples.
    """

    name = "s2s-train"
    CORPUS = 900
    TRAIN, DEV, EPOCHS = 40, 9, 2
    WARMUP_EXAMPLES = 20
    PROBE = 20
    min_rounds = 3
    trace_rounds = 3
    ops_per_round = TRAIN * EPOCHS

    def setup(self):
        from derivgen import corpus, seq2seq, synthetic
        from derivgen import numeric as nm

        data = corpus.filter_triples(synthetic.generate(self.CORPUS, seed=f"{self.name}:{self.seed}"))
        self.split = corpus.split_dataset(data, seed=self.seed)
        self.vocab = corpus.build_vocab(self.split.train)
        self.config = seq2seq.Seq2SeqConfig(emb=300, hidden=100, batch=20, epochs=self.EPOCHS, seed=0)
        params = seq2seq.Seq2SeqParams(len(self.vocab), self.config)
        state = nm.AdadeltaState(params.tensors, rho=self.config.rho, eps=self.config.eps)
        batch = self.split.train[:self.WARMUP_EXAMPLES]
        for t in batch:
            nm.backward(nm.scale(seq2seq.sequence_loss(t, params, self.vocab), 1.0 / len(batch)))
        nm.adadelta_step(params.tensors, state)
        seq2seq.greedy_decode(self.vocab.encode_source(batch[0].base, batch[0].tag), params, self.vocab)
        self.slices = min(len(self.split.train) // self.TRAIN, len(self.split.dev) // self.DEV)

    def round(self, i):
        from derivgen import corpus, seq2seq

        j = i % self.slices
        sub = corpus.DatasetSplit(self.split.train[j * self.TRAIN:(j + 1) * self.TRAIN],
                                  self.split.dev[j * self.DEV:(j + 1) * self.DEV], (), self.seed)
        start = perf_counter()
        params, _, _ = seq2seq.train(sub, self.vocab, self.config)
        elapsed = perf_counter() - start
        items = len(sub.train) * self.EPOCHS
        self.samples["rate"].append(items / elapsed)
        self.samples["latency"].append(elapsed / items)
        self.attempted += items
        self.params = params

    def check(self):
        """Finite differences on the last round's model, and its probe loss."""
        import random

        from derivgen import numeric as nm
        from derivgen import seq2seq

        import checks

        params, vocab = self.params, self.vocab
        probe = self.split.test[:self.PROBE]
        losses = [float(seq2seq.sequence_loss(t, params, vocab).values) for t in probe]
        self.problems += checks.probe_loss_problems(losses, [len(t.derived) for t in probe], len(vocab))

        triple = probe[0]
        params.clear_grads()
        nm.backward(seq2seq.sequence_loss(triple, params, vocab))
        pairs = checks.sampled_gradient_pairs(
            params.tensors, lambda: float(seq2seq.sequence_loss(triple, params, vocab).values),
            random.Random(f"fd:{self.seed}"))
        params.clear_grads()
        self.problems += checks.gradient_mismatches(pairs)
        return f"{len(pairs)} gradient coordinates, probe loss {sum(losses):.3f}"

    def layer_metrics(self, tracer, phase, rounds, hooks):
        st = tracer.stats(phase)
        n = st["seq2seq.sequence_loss"][0]
        m = numeric_per_item(st, n, "ops_per_train_example")
        add_mean(m, st, "numeric.adadelta_step", "ms", 1e3)
        if "numeric.backward" in st:
            m["numeric.backward.self_ms_per_example"] = (st["numeric.backward"][2] * 1e3 / n, "ms")
        add_mean(m, st, "seq2seq.sequence_loss", "ms_per_example", 1e3)
        add_model_steps(m, st)
        add_mean(m, st, "seq2seq.greedy_decode", "ms_per_query", 1e3)
        add_corpus_metrics(m, tracer.stats(0, phase), st, rounds)
        return m


# --- s2s-predict -------------------------------------------------------------

class S2SPredict(Workload):
    """k-best prediction, beam 12 and k 10, one query at a time.

    Queries are drawn from the synthetic grammar with the seed and exclude
    every base of the checkpoint's corpus, so none was seen in training.
    """

    name = "s2s-predict"
    BEAM, K = 12, 10
    POOL = 4000
    ROUND = 20
    WARMUP_QUERIES = 3
    CHECKED = 30
    ACCURACY_FLOOR = 0.75
    min_rounds = 5  # at least 100 queries, so ten or more lie beyond p90
    trace_rounds = 2
    ops_per_round = ROUND

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.matches = []  # whether each query's 1-best equals synthetic.derive

    def setup(self):
        from derivgen import seq2seq, synthetic

        import make_checkpoint

        self.params, self.vocab, _ = seq2seq.load_model(CHECKPOINT)
        seen = {t.base for t in make_checkpoint.corpus_triples()}
        pool = synthetic.generate(self.POOL, seed=f"{self.name}:{self.seed}")
        self.queries = [(t.base, t.tag) for t in pool if t.base not in seen]
        for base, tag in self.queries[-self.WARMUP_QUERIES:]:
            seq2seq.predict_kbest(self.params, self.vocab, base, tag, beam=self.BEAM, k=self.K)
        self.queries = self.queries[:-self.WARMUP_QUERIES]

    def round(self, i):
        """The next block of queries; their outputs are checked as they come,
        so memory does not grow with the number of queries."""
        from derivgen import seq2seq, synthetic

        import checks

        n = len(self.queries) // self.ROUND
        block = self.queries[(i % n) * self.ROUND:(i % n + 1) * self.ROUND]
        done, spent = 0, 0.0
        for base, tag in block:
            self.attempted += 1
            start = perf_counter()
            try:
                hyps = seq2seq.predict_kbest(self.params, self.vocab, base, tag, beam=self.BEAM, k=self.K)
            except Exception:
                self.failed += 1
                log(traceback.format_exc())
                continue
            latency = perf_counter() - start
            self.samples["latency"].append(latency)
            done, spent = done + 1, spent + latency
            self.problems += [f"{base}+{tag}: {p}" for p in checks.kbest_problems(hyps, self.K)]
            self.matches.append(hyps[0][0] == synthetic.derive(base, tag))
            if len(self.results) < self.CHECKED:
                self.results.append((base, tag, hyps))
        if done:
            self.samples["rate"].append(done / spent)

    def metrics(self):
        """The shared metrics, and p90 latency, which only this workload has
        enough samples for; it is printed in the table, not the result line."""
        m = super().metrics()
        m["item_latency_p90_ms"] = (statistics.quantiles(self.samples["latency"], n=10)[8] * 1e3, "ms")
        return m

    def check(self):
        """Log-probs against teacher forcing, and the 1-best accuracy floor."""
        from derivgen import seq2seq

        import checks

        params, vocab = self.params, self.vocab
        acc, problems = checks.accuracy_floor(self.matches, self.ACCURACY_FLOOR)
        self.problems += problems

        pairs = []
        unscored = 0
        for base, tag, kbest in self.results:
            hyps = seq2seq.beam_search(vocab.encode_source(base, tag), params, vocab,
                                       beam=self.BEAM, k=self.K)
            if [(h.text(vocab), h.log_prob) for h in hyps] != kbest:
                self.problems.append(f"{base}+{tag}: beam_search and predict_kbest disagree")
            for h in hyps:
                text = h.text(vocab)
                if h.tokens[-1] != vocab.eos_id or vocab.encode_target(text) != list(h.tokens):
                    unscored += 1  # length-capped, or a symbol no surface form spells
                    continue
                target = types.SimpleNamespace(base=base, tag=tag, derived=text)
                pairs.append((f"{base}+{tag}->{text}", h.log_prob,
                              -float(seq2seq.sequence_loss(target, params, vocab).values)))
        self.problems += checks.logprob_mismatches(pairs)
        return (f"1-best accuracy {acc:.4f} over {len(self.matches)} queries; {len(pairs)} log-probs "
                f"checked, {unscored} hypotheses left unscored")

    def layer_metrics(self, tracer, phase, rounds, hooks):
        st = tracer.stats(phase)
        n = st["seq2seq.predict_kbest"][0]
        m = numeric_per_item(st, n, "ops_per_query")
        add_mean(m, tracer.stats(0, phase), "numeric.load_params", "ms", 1e3)
        add_model_steps(m, st)
        add_mean(m, st, "seq2seq.beam_search", "ms_per_query", 1e3)
        if "seq2seq.decode_step" in st:
            m["seq2seq.decode_step.calls_per_query"] = (st["seq2seq.decode_step"][0] / n, "count")
        steps, longest = hooks.steps, hooks.longest
        if steps:
            m["seq2seq.beam_steps_per_query"] = (sum(steps) / len(steps), "count")
            m["seq2seq.beam_useful_ratio"] = (sum(longest) / sum(steps), "ratio")
        return m


class Hooks:
    """Counts taken from the arguments and results of traced calls.

    Beam steps are counted from outside: a ``decode_step`` call is one step
    deeper than the call that produced the decoder state it is given, and
    the encoder's start state is depth 0.
    """

    def __init__(self):
        self.depth = {}
        self.deepest = 0
        self.steps = []
        self.longest = []
        self.observed = 0
        self.updates = 0
        self.weights = 0

    def encoded(self, args, enc):
        self.depth[id(enc.init_state)] = 0
        self.deepest = 0

    def stepped(self, args, result):
        d = self.depth.get(id(args[1]), 0) + 1
        self.depth[id(result[0])] = d
        self.deepest = max(self.deepest, d)

    def searched(self, args, hyps):
        self.steps.append(self.deepest)
        self.longest.append(max(len(h.tokens) for h in hyps))
        self.depth.clear()

    def observe(self, args, correct):
        self.observed += 1
        self.updates += not correct

    def loaded(self, args, model):
        self.weights = sum(len(m.averaged) for m in model.models.values())

    def clear(self):
        self.steps.clear()
        self.longest.clear()
        self.observed = self.updates = 0


# --- baseline-cli ------------------------------------------------------------

class BaselineCLI(Workload):
    """The non-neural pipeline through ``cli.main``: split, train, predict, evaluate.

    Each round takes one of ``CORPORA`` corpora of ``CORPUS`` triples, drawn
    with the seed, and ``QUERIES`` queries whose bases are not in it, and
    times the four commands together: an item is a query answered by the
    whole pipeline. On these corpora the concatenative misses are counted
    and printed, since the baseline does miss some (see CHANGES.md).

    After the timed rounds, the check runs the pipeline once more on the
    acceptance suite's synthetic run: corpus ``generate(2000, seed=7)``,
    split seed 7, predictions for its test split. There the baseline must be
    exact on every concatenative tag, as the acceptance suite requires.
    """

    name = "baseline-cli"
    CORPUS = 2000  # smaller corpora often lack some edit actions, which changes the speed
    QUERIES = 3000  # so that prediction is a fair share of the pipeline's time
    EPOCHS = 10
    CORPORA = 4
    ACCEPTANCE_SEED = 7
    WARMUP_TRIPLES = 100
    min_rounds = 2
    trace_rounds = 1
    ops_per_round = 4

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.concatenative_misses = []

    def setup(self):
        from derivgen import corpus, synthetic

        shutil.rmtree(self.work, ignore_errors=True)
        d = os.path.join(self.work, "acceptance")
        os.makedirs(d)
        corpus.write_triples(os.path.join(d, "triples.tsv"),
                             synthetic.generate(self.CORPUS, seed=self.ACCEPTANCE_SEED))
        self.acceptance = (d, os.path.join(d, "split", "test.tsv"))
        self.rounds = []
        pool = synthetic.generate(self.CORPORA * (self.CORPUS + self.QUERIES), seed=f"{self.name}:{self.seed}")
        for r in range(self.CORPORA):
            d = os.path.join(self.work, f"corpus{r}")
            os.makedirs(d)
            triples = pool[r * self.CORPUS:(r + 1) * self.CORPUS]
            bases = {t.base for t in triples}
            off = self.CORPORA * self.CORPUS + r * self.QUERIES
            queries = [t for t in pool[off:off + self.QUERIES] if t.base not in bases]
            corpus.write_triples(os.path.join(d, "triples.tsv"), triples)
            corpus.write_triples(os.path.join(d, "gold.tsv"), queries)
            with open(os.path.join(d, "queries.tsv"), "w", encoding="utf-8") as fh:
                fh.writelines(f"{t.base}\t{t.tag}\n" for t in queries)
            self.rounds.append((d, os.path.join(d, "queries.tsv"), os.path.join(d, "gold.tsv")))
        warm = os.path.join(self.work, "warmup")
        os.makedirs(warm)
        corpus.write_triples(os.path.join(warm, "triples.tsv"), pool[:self.WARMUP_TRIPLES])
        test = os.path.join(warm, "split", "test.tsv")
        rcs, _ = self._commands(warm, self.seed, test, test, 1)
        if any(rcs):
            raise RuntimeError(f"warm-up commands exited with {rcs}")

    def _commands(self, d, split_seed, queries, gold, epochs):
        """The four commands on ``d/triples.tsv``; (exit codes, wall seconds)."""
        from derivgen import cli

        split, model = os.path.join(d, "split"), os.path.join(d, "model.txt")
        pred, report = os.path.join(d, "pred.tsv"), os.path.join(d, "report.json")
        with contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            rcs = [cli.main(["split", "--data", os.path.join(d, "triples.tsv"), "--seed", str(split_seed),
                             "--out-dir", split])]
            rcs.append(cli.main(["train", "--kind", "baseline", "--splits", split, "--model", model,
                                 "--epochs", str(epochs), "--seed", "0"]))
            rcs.append(cli.main(["predict", "--model", model, "--input", queries, "--output", pred]))
            rcs.append(cli.main(["evaluate", "--pred", pred, "--gold", gold, "--json", report]))
            seconds = perf_counter() - start
        return rcs, seconds

    def _score(self, d):
        """Checks the predictions in ``d`` against ``synthetic.derive``;
        (queries predicted, evaluated accuracy, concatenative misses)."""
        from derivgen import synthetic

        import checks

        with open(os.path.join(d, "pred.tsv"), encoding="utf-8") as fh:
            rows = [line.rstrip("\n").split("\t") for line in fh]
        with open(os.path.join(d, "report.json"), encoding="utf-8") as fh:
            accuracy = json.load(fh)["accuracy"]
        preds = [r[3] for r in rows]
        golds = [synthetic.derive(r[0], r[1]) for r in rows]
        self.problems += checks.report_mismatches(accuracy, preds, golds)
        misses = checks.concatenative_misses([(r[0], r[1], p, g) for r, p, g in zip(rows, preds, golds)],
                                             synthetic.CONCATENATIVE_TAGS)
        return len(rows), accuracy, misses

    def round(self, i):
        d, queries, gold = self.rounds[i % len(self.rounds)]
        rcs, seconds = self._commands(d, self.seed, queries, gold, self.EPOCHS)
        self.attempted += len(rcs)
        self.failed += sum(rc != 0 for rc in rcs)
        if any(rcs):
            self.problems.append(f"round {i}: exit codes {rcs}")
            return
        n, accuracy, misses = self._score(d)
        self.samples["rate"].append(n / seconds)
        self.samples["latency"].append(seconds / n)
        self.concatenative_misses += misses
        self.results.append(accuracy)

    def check(self):
        """The acceptance suite's run, where concatenative tags must be exact."""
        d, test = self.acceptance
        rcs, _ = self._commands(d, self.ACCEPTANCE_SEED, test, test, self.EPOCHS)
        if any(rcs):
            self.problems.append(f"acceptance run: exit codes {rcs}")
            return "acceptance run failed"
        _, accepted, misses = self._score(d)
        self.problems += misses
        for miss in self.concatenative_misses[:5]:
            log(f"concatenative miss outside the acceptance corpus: {miss}")
        acc = self.results or [float("nan")]
        return (f"acceptance accuracy {accepted:.4f}, {len(misses)} concatenative misses; seeded accuracy "
                f"{min(acc):.4f} to {max(acc):.4f}, {len(self.concatenative_misses)} concatenative misses")

    def layer_metrics(self, tracer, phase, rounds, hooks):
        st = tracer.stats(phase)
        m = {}
        for fn in ("align", "featurize", "observe", "candidates"):
            key = f"baseline.{fn}"
            if key in st:
                m[f"{key}.us"] = (st[key][1] / st[key][0] * 1e6, "us")
                m[f"{key}.calls"] = (st[key][0] / rounds, "count")
        if hooks.observed:
            m["baseline.update_ratio"] = (hooks.updates / hooks.observed, "ratio")
        add_mean(m, st, "baseline.decode_greedy", "us_per_query", 1e6)
        add_mean(m, st, "baseline.load_baseline", "ms", 1e3)
        if hooks.weights:
            m["baseline.weights"] = (hooks.weights, "count")
        for cmd in ("split", "train", "predict", "evaluate"):
            key = f"cli.{cmd}"
            if key in st:
                m[f"{key}.self_ms"] = (st[key][2] / st[key][0] * 1e3, "ms")
        add_corpus_metrics(m, tracer.stats(0, phase), st, rounds)
        return m


# --- per-layer metrics -------------------------------------------------------

def numeric_per_item(st, n, ops_name):
    """Calls and self time of each numeric op per training example or query;
    ops the workload never calls are left out."""
    m = {f"numeric.{ops_name}": (sum(st.get(f"numeric.{op}", (0,))[0] for op in OPS) / n, "count")}
    for op in OPS:
        if f"numeric.{op}" in st:
            calls, _, own = st[f"numeric.{op}"]
            m[f"numeric.{op}.calls"] = (calls / n, "count")
            m[f"numeric.{op}.self_us"] = (own * 1e6 / n, "us")
    return m


def add_mean(m, st, key, suffix, scale):
    if key in st:
        calls, total, _ = st[key]
        m[f"{key}.{suffix}"] = (total / calls * scale, suffix.split("_")[0])


def add_model_steps(m, st):
    for fn in ("encode", "gru_step", "attend", "decode_step"):
        key = f"seq2seq.{fn}"
        if key in st:
            calls, total, own = st[key]
            m[f"{key}.us"] = (total / calls * 1e6, "us")
            m[f"{key}.self_us"] = (own / calls * 1e6, "us")


def add_corpus_metrics(m, setup_st, st, rounds):
    """Levenshtein per call, and its calls in one set-up plus one round."""
    key = "corpus.levenshtein"
    setup_calls, setup_total, _ = setup_st.get(key, (0, 0.0, 0.0))
    calls, total, _ = st.get(key, (0, 0.0, 0.0))
    if setup_calls + calls:
        m[f"{key}.us"] = ((setup_total + total) / (setup_calls + calls) * 1e6, "us")
        m[f"{key}.calls"] = (setup_calls + calls / rounds, "count")
    add_mean(m, st, "metrics.avg_edit_distance", "ms", 1e3)


def trace_targets(hooks):
    """(owner, attribute, span name, new item, on_return) for every traced function."""
    from derivgen import baseline, cli, corpus, metrics, seq2seq, synthetic
    from derivgen import numeric as nm

    targets = [(nm, op, f"numeric.{op}", False, None) for op in OPS]
    targets += [(nm, fn, f"numeric.{fn}", False, None)
                for fn in ("backward", "adadelta_step", "load_params", "save_params")]
    targets += [
        (seq2seq, "encode", "seq2seq.encode", False, hooks.encoded),
        (seq2seq, "gru_step", "seq2seq.gru_step", False, None),
        (seq2seq, "attend", "seq2seq.attend", False, None),
        (seq2seq, "decode_step", "seq2seq.decode_step", False, hooks.stepped),
        (seq2seq, "sequence_loss", "seq2seq.sequence_loss", True, None),
        (seq2seq, "beam_search", "seq2seq.beam_search", False, hooks.searched),
        (seq2seq, "greedy_decode", "seq2seq.greedy_decode", True, None),
        (seq2seq, "predict_kbest", "seq2seq.predict_kbest", True, None),
        (seq2seq, "train", "seq2seq.train", False, None),
        (seq2seq, "load_model", "seq2seq.load_model", False, None),
        (baseline, "align", "baseline.align", False, None),
        (baseline, "featurize", "baseline.featurize", False, None),
        (baseline.PerceptronModel, "observe", "baseline.observe", False, hooks.observe),
        (baseline.PerceptronModel, "candidates", "baseline.candidates", False, None),
        (baseline, "decode_greedy", "baseline.decode_greedy", True, None),
        (baseline, "train_baseline", "baseline.train_baseline", False, None),
        (baseline, "load_baseline", "baseline.load_baseline", False, hooks.loaded),
        (baseline, "save_baseline", "baseline.save_baseline", False, None),
        (synthetic, "generate", "synthetic.generate", False, None),
    ]
    targets += [(corpus, fn, f"corpus.{fn}", False, None)
                for fn in ("levenshtein", "filter_triples", "split_dataset", "build_vocab",
                           "read_triples", "write_split", "read_split")]
    targets += [(metrics, fn, f"metrics.{fn}", False, None)
                for fn in ("accuracy", "avg_edit_distance", "evaluate")]
    targets += [(cli, f"cmd_{c}", f"cli.{c}", False, None)
                for c in ("split", "train", "predict", "evaluate")]
    return targets


# --- running a workload ----------------------------------------------------

WORKLOADS = {w.name: w for w in (S2STrain, S2SPredict, BaselineCLI)}


def run_rounds(wl, seconds, min_rounds):
    """Whole rounds until ``seconds`` have passed and ``min_rounds`` are done;
    the wall time of each round."""
    start = perf_counter()
    times = []
    while len(times) < min_rounds or perf_counter() - start < seconds:
        attempted, failed = wl.attempted, wl.failed
        round_start = perf_counter()
        try:
            wl.round(len(times))
        except Exception:
            wl.attempted = attempted + wl.ops_per_round
            wl.failed = failed + wl.ops_per_round
            log(traceback.format_exc())
        times.append(perf_counter() - round_start)
    return times


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "derivgen", "__init__.py")):
        log(f"error: no derivgen sources under {SRC}")
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import derivgen

    work = os.path.join(OUT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    wl = WORKLOADS[args.workload](args.seed, work)
    try:
        setups = []
        for _ in range(SETUPS):
            start = perf_counter()
            wl.setup()
            setups.append(perf_counter() - start)
        times = run_rounds(wl, args.seconds, wl.min_rounds)
        if not wl.samples:
            log("error: no round completed")
            return 1
        e2e = wl.metrics()
        e2e["setup_s"] = (statistics.median(setups), "s")
        if args.trace:
            from tracer import Tracer

            hooks = Hooks()
            tracer = Tracer()
            tracer.install(derivgen, trace_targets(hooks))
            try:
                wl.setup()
                phase = len(tracer)
                hooks.clear()
                wl.samples = defaultdict(list)
                traced = run_rounds(wl, 0, wl.trace_rounds)
            finally:
                tracer.remove()
            metrics = wl.layer_metrics(tracer, phase, len(traced), hooks)
            # the traced rounds repeat the first untraced ones
            overhead = sum(traced) / sum(times[:len(traced)]) - 1.0
            metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
            # a layer the workload does not run reads 0: no calls, no time
            for key, unit in PER_LAYER.items():
                metrics.setdefault(key, (0.0, unit))
            os.makedirs(OUT, exist_ok=True)
            spans = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
            tracer.write(spans)
            log(f"{len(tracer)} spans written to {os.path.relpath(spans, ROOT)}")
        else:
            e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
            metrics = e2e
        detail = wl.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in wl.problems[:20]:
        log(f"check failed: {problem}")
    listed = PER_LAYER if args.trace else END_TO_END
    result = {k: {"value": metrics[k][0], "unit": u} for k, u in listed.items()}
    correct = not wl.problems and all(math.isfinite(v) for v, _ in metrics.values())
    print(f"# {args.workload} seed={args.seed} rounds={len(times)} attempted={wl.attempted} "
          f"failed={wl.failed} correct={correct}")
    print(f"# checks: {detail}; {len(wl.problems)} problems")
    if args.trace:
        print("# untraced: " + ", ".join(f"{k}={v:.6g} {u}" for k, (v, u) in sorted(e2e.items())))
    for key, (value, unit) in sorted(metrics.items()):
        print(f"{key:<44} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
