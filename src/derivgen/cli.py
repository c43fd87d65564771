"""Command-line surface: split, train, predict, evaluate.

Defaults mirror the training recipe baked into the library (embedding
300, hidden 100, batch 20, 300 epochs, beam 12). A flat key = value
config file can supply any option; explicit flags win over the file, and
the DERIVGEN_CONFIG environment variable names a default config path.

Exit codes: 0 success, 1 usage error, 2 data error, 3 model error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import baseline as bl
from . import corpus, metrics, seq2seq

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_MODEL = 3


class DataError(Exception):
    pass


class ModelError(Exception):
    pass


# every option of 'train', as a flag and as a config-file key, with its type
OPTIONS = {
    "emb": int, "hidden": int, "batch": int, "epochs": int, "beam": int, "seed": int,
    "window": int, "history": int, "rho": float, "eps": float, "clip": float, "per_tag": bool,
}
_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false"}


def load_config_file(path):
    """Flat ``key = value`` file; '#' starts a comment and ``none`` leaves a key unset.

    Each value is parsed by its key's type in ``OPTIONS``. An unknown key,
    or a value its type cannot parse, is a data error naming the file and
    line.
    """
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in OPTIONS:
                raise DataError(f"{path}:{lineno}: unknown key {key!r}")
            kind, low = OPTIONS[key], raw.lower()
            try:
                if low in ("none", "null"):
                    values[key] = None
                elif kind is bool:
                    values[key] = {"true": True, "false": False}[low]
                else:
                    values[key] = kind(raw)
            except (KeyError, ValueError):
                raise DataError(f"{path}:{lineno}: {key} must be {_TYPE_NAMES[kind]}, not {raw}") from None
    return values


def _merged_options(args, keys):
    """Config-file values overridden by explicitly-set CLI flags."""
    values = {}
    config_path = getattr(args, "config", None) or os.environ.get("DERIVGEN_CONFIG")
    if config_path:
        file_values = load_config_file(config_path)
        for k in keys:
            if file_values.get(k) is not None:
                values[k] = file_values[k]
    for k in keys:
        v = getattr(args, k, None)
        if v is not None:
            values[k] = v
    return values


def cmd_split(args):
    raw = corpus.read_triples(args.data)
    if not raw:
        raise DataError(f"{args.data}: no triples")
    kept = corpus.filter_triples(raw)
    removed = len(raw) - len(kept)
    split = corpus.split_dataset(kept, args.seed, stratify_by_tag=args.stratify)
    manifest = corpus.write_split(args.out_dir, split, removed=removed)
    print(f"retained={len(kept)} removed={removed}")
    print(
        f"train={manifest['counts']['train']} dev={manifest['counts']['dev']} "
        f"test={manifest['counts']['test']} seed={args.seed}"
    )
    return 0


SEQ2SEQ_KEYS = ("emb", "hidden", "batch", "epochs", "beam", "rho", "eps", "clip", "seed")
BASELINE_KEYS = ("window", "history", "epochs", "seed", "per_tag")


def cmd_train(args):
    try:
        split = corpus.read_split(args.splits)
    except (OSError, ValueError, KeyError) as e:
        raise DataError(f"cannot read splits from {args.splits}: {e}") from None
    log_path = args.log or args.model + ".log"

    def write_log(lines):
        with open(log_path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")

    if args.kind == "baseline":
        opts = _merged_options(args, BASELINE_KEYS)
        if "history" in opts:
            opts["history_len"] = opts.pop("history")
        model = bl.train_baseline(split.train, **opts)
        lines = [
            f"model=baseline window={model.window} history={model.history_len} epochs={model.epochs} "
            f"seed={model.seed} per_tag={int(model.per_tag)}"
        ]
        if split.dev:
            preds = [model.predict(t.base, t.tag) for t in split.dev]
            gold = [t.derived for t in split.dev]
            lines.append(
                f"dev_acc={metrics.accuracy(preds, gold):.4f} "
                f"dev_edit={metrics.avg_edit_distance(preds, gold):.4f}"
            )
        bl.save_baseline(args.model, model)
        write_log(lines)
    else:
        opts = _merged_options(args, SEQ2SEQ_KEYS)
        config = seq2seq.Seq2SeqConfig.from_dict(opts)  # invalid values: ValueError, exit 2
        vocab = corpus.build_vocab(split.train)
        try:
            params, meta, lines = seq2seq.train(split, vocab, config)
        except (MemoryError, ValueError) as e:  # numpy: too large to allocate, or to index
            if not isinstance(e, MemoryError) and "array is too big" not in str(e):
                raise  # a ValueError that is not about the sizes
            raise DataError(f"cannot allocate a model of emb={config.emb} "
                            f"hidden={config.hidden}: {e}") from None
        seq2seq.save_model(args.model, params, vocab, meta)
        write_log(lines)
    print(f"model written to {args.model}; log in {log_path}")
    return 0


def _read_queries(path):
    """(line number, base, tag) for each base<TAB>tag row of a TSV (a third
    column, if present, is ignored). An empty base or tag is a data error,
    as in the training reader."""
    queries = []
    for lineno, parts in corpus.read_rows(path):
        if len(parts) < 2:
            raise DataError(f"{path}:{lineno}: expected base<TAB>tag")
        base, tag = parts[0], parts[1]
        if not base or not tag:
            raise DataError(f"{path}:{lineno}: {'tag' if base else 'base'} must be non-empty")
        queries.append((lineno, base, tag))
    return queries


def _detect_model_kind(path):
    """The kind of a model file from its first bytes; the loader checks the rest."""
    with open(path, "rb") as fh:
        head = fh.read(64)
    if head.startswith(bl.MODEL_FORMAT.encode()):
        return "baseline"
    return "seq2seq"


def cmd_predict(args):
    if args.k < 1:
        raise DataError("k must be >= 1")
    if args.beam is not None and args.beam < 1:
        raise DataError("beam must be >= 1")
    queries = _read_queries(args.input)
    try:
        kind = _detect_model_kind(args.model)
        if kind == "baseline" and args.k > 1:
            raise ModelError("baseline is greedy-only")
        try:
            loaded = (bl.load_baseline if kind == "baseline" else seq2seq.load_model)(args.model)
        except ValueError as e:  # corrupt, or not the model its sidecar describes
            raise ModelError(str(e)) from None
        if kind == "baseline":
            rows = [(b, t, 1, loaded.predict(b, t), 0.0) for _, b, t in queries]
        else:
            params, vocab, _ = loaded
            for lineno, b, t in queries:
                if t not in vocab.tag_to_id:
                    raise DataError(f"{args.input}:{lineno}: unknown tag: {t!r}")
                for c in b:  # an unknown character would be <unk>, which no output can hold
                    if c not in vocab.char_to_id:
                        raise DataError(f"{args.input}:{lineno}: unknown character: {c!r}")
            sources = [vocab.encode_source(b, t) for _, b, t in queries]
            kbest = seq2seq.beam_batch(sources, params, vocab,
                                       max(args.beam or params.config.beam, args.k), args.k)
            rows = [(b, t, rank, h.text(vocab), h.log_prob)
                    for (_, b, t), hyps in zip(queries, kbest) for rank, h in enumerate(hyps, 1)]
    except OSError as e:
        raise ModelError(str(e)) from None
    out = sys.stdout if args.output == "-" else open(args.output, "w", encoding="utf-8")
    try:
        for base, tag, rank, pred, logp in rows:
            out.write(f"{base}\t{tag}\t{rank}\t{pred}\t{logp:.6f}\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def read_predictions(path):
    """Prediction TSV back into per-query ranked lists, input order preserved.

    A query's rows are consecutive. A row starts a new query when its
    (base, tag) differs from the previous row's, or when its rank is already
    in the current query, so a query that the input repeats stays two
    queries."""
    queries = []  # (key, {rank: prediction})
    for lineno, parts in corpus.read_rows(path):
        if len(parts) != 5:
            raise DataError(f"{path}:{lineno}: expected 5 fields")
        base, tag, rank, pred, _logp = parts
        try:
            rank = int(rank)
        except ValueError:
            raise DataError(f"{path}:{lineno}: rank {rank!r} is not an integer") from None
        if not queries or queries[-1][0] != (base, tag) or rank in queries[-1][1]:
            queries.append(((base, tag), {}))
        queries[-1][1][rank] = pred
    return [(key, [ranked[r] for r in sorted(ranked)]) for key, ranked in queries]


def _read_affixes(path):
    """The affix inventory file: one suffix per line, with or without its
    leading '-'; blank lines and '#' comments are skipped."""
    inventory = []
    for lineno, parts in corpus.read_rows(path):
        line = "\t".join(parts).strip()
        if not line:
            continue  # blank but for spaces
        affix = line.lstrip("-")
        if not affix or "\t" in affix:
            raise DataError(f"{path}:{lineno}: expected one affix, not {line!r}")
        inventory.append(affix)
    if not inventory:
        raise DataError(f"{path}: no affixes")
    return tuple(inventory)


def cmd_evaluate(args):
    if args.k < 1:
        raise DataError("k must be >= 1")
    preds = read_predictions(args.pred)
    gold = corpus.read_triples(args.gold)
    if len(preds) != len(gold):
        raise DataError(f"row-count mismatch: {len(preds)} predictions vs {len(gold)} golds")
    for (key, _), t in zip(preds, gold):
        if key != (t.base, t.tag):
            raise DataError(f"prediction/gold misalignment at {key} vs {(t.base, t.tag)}")
    inventory = _read_affixes(args.affixes) if args.affixes else metrics.DEFAULT_AFFIXES
    kbest = [hyps[: args.k] for _, hyps in preds]
    report = metrics.evaluate(kbest, gold, inventory)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    print(report.to_table())
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="derivgen",
        description="Derivational paradigm completion: data pipeline, baseline "
        "transducer, attentional encoder-decoder, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", help="filter triples and write train/dev/test files")
    p.add_argument("--data", required=True, help="input TSV of base/tag/derived triples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--stratify", action="store_true", help="split per tag group")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train a model on an existing split")
    p.add_argument("--kind", choices=("baseline", "seq2seq"), required=True)
    p.add_argument("--splits", required=True, help="directory written by 'split'")
    p.add_argument("--model", required=True, help="output model path")
    p.add_argument("--log", help="training log path (default: <model>.log)")
    p.add_argument("--config", help="flat key = value config file")
    for key, kind in OPTIONS.items():
        if kind is bool:
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, action="store_const", const=True)
        else:
            p.add_argument(f"--{key}", type=kind)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="emit k-best predictions for base/tag queries")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="TSV of base<TAB>tag queries")
    p.add_argument("--output", default="-")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--beam", type=int)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against gold triples")
    p.add_argument("--pred", required=True, help="prediction TSV from 'predict'")
    p.add_argument("--gold", required=True, help="gold triple TSV")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--json", help="also write the report as JSON to this path")
    p.add_argument("--affixes", help="affix inventory file, one suffix per line")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except ModelError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MODEL
    except (OSError, ValueError) as e:  # a file that cannot be read or written, or bad data
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
