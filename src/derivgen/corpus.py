"""Derivational triples: ingestion, filtering, vocabularies, and splits.

A triple pairs a base form with a derivation-slot tag and the derived
surface form, e.g. (ameliorate, RESULT, amelioration). Triples live in
UTF-8 TSV files, one per line, ``base<TAB>tag<TAB>derived``; lines
starting with '#' are comments.

All functions here are pure; nothing mutates its inputs.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Triple:
    base: str
    tag: str
    derived: str

    def __post_init__(self):
        if not self.base:
            raise ValueError("Triple: base must be non-empty")
        if not self.derived:
            raise ValueError("Triple: derived must be non-empty")
        if not self.tag:
            raise ValueError("Triple: tag must be non-empty")


def suffix_distances(a, b):
    """The edit-distance table over suffixes: ``table[i][j]`` is the minimal
    number of single-character edits turning ``a[i:]`` into ``b[j:]``."""
    n, m = len(a), len(b)
    table = [[0] * m + [n - i] for i in range(n)]
    table.append(list(range(m, -1, -1)))
    for i in range(n - 1, -1, -1):
        row, nxt = table[i], table[i + 1]
        ca = a[i]
        left, diag = n - i, nxt[m]
        for j in range(m - 1, -1, -1):
            # row[j] = min(nxt[j + 1] + (ca != b[j]), nxt[j] + 1, row[j + 1] + 1),
            # compared inline: a call to min costs more
            up = nxt[j]
            diag += ca != b[j]
            left = (up if up < left else left) + 1
            row[j] = left = diag if diag < left else left
            diag = up
    return table


def levenshtein(a, b):
    """Minimal number of single-character edits turning ``a`` into ``b``."""
    return suffix_distances(a, b)[0][0]


def filter_triples(raw):
    """Drop likely mis-annotations: pairs whose edit distance exceeds half
    the summed lengths. Exact integer comparison, ties retained; input
    order preserved."""
    return [
        t for t in raw
        if 2 * levenshtein(t.base, t.derived) <= len(t.base) + len(t.derived)
    ]


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple
    dev: tuple
    test: tuple
    seed: int

    @property
    def size(self):
        return len(self.train) + len(self.dev) + len(self.test)


def split_dataset(data, seed, stratify_by_tag=False):
    """Deterministic 70/15/15 shuffle-and-cut split (train takes remainders).

    With ``stratify_by_tag`` the same proportions are applied per tag
    group independently; overall sizes then only approximate 70/15/15.
    """
    data = list(data)
    if not data:
        raise ValueError("empty dataset")
    if stratify_by_tag:
        groups = {}
        for t in data:
            groups.setdefault(t.tag, []).append(t)
        train, dev, test = [], [], []
        for tag in sorted(groups):
            part = split_dataset(groups[tag], seed, stratify_by_tag=False)
            train.extend(part.train)
            dev.extend(part.dev)
            test.extend(part.test)
        return DatasetSplit(tuple(train), tuple(dev), tuple(test), seed)
    rng = random.Random(seed)
    rng.shuffle(data)
    n = len(data)
    cut_train = (70 * n) // 100
    cut_dev = (85 * n) // 100
    return DatasetSplit(
        tuple(data[:cut_train]),
        tuple(data[cut_train:cut_dev]),
        tuple(data[cut_dev:]),
        seed,
    )


PAD, BOS, EOS, UNK = "<pad>", "<bos>", "<eos>", "<unk>"
RESERVED = (PAD, BOS, EOS, UNK)


class Vocab:
    """One symbol list shared by both models: ``id_to_symbol[i]`` is the
    symbol with id ``i``.

    Characters and tags live in a single id space (a tag is just one more
    source token). The list is the reserved symbols (ids 0..3, the class
    constants ``pad_id``..``unk_id``), then the characters sorted by
    codepoint, then the tags sorted lexicographically.
    """

    pad_id, bos_id, eos_id, unk_id = range(len(RESERVED))

    def __init__(self, chars, tags):
        chars = sorted(set(chars))
        tags = sorted(set(tags))
        overlap = set(chars) & set(tags)
        if overlap:
            raise ValueError(f"characters and tags overlap: {sorted(overlap)}")
        self.chars = chars
        self.tags = tags
        self.id_to_symbol = list(RESERVED) + chars + tags
        self.symbol_to_id = {s: i for i, s in enumerate(self.id_to_symbol)}
        self.char_to_id = {c: self.symbol_to_id[c] for c in chars}
        self.tag_to_id = {t: self.symbol_to_id[t] for t in tags}

    def __len__(self):
        return len(self.id_to_symbol)

    def char_id(self, c):
        return self.char_to_id.get(c, self.unk_id)

    def encode_source(self, base, tag):
        """Source token ids: base characters, then the tag, then EOS."""
        if tag not in self.tag_to_id:
            raise ValueError(f"unknown tag: {tag!r}")
        return [self.char_id(c) for c in base] + [self.tag_to_id[tag], self.eos_id]

    def encode_target(self, derived):
        """Target token ids: derived characters then EOS."""
        return [self.char_id(c) for c in derived] + [self.eos_id]

    def decode_output(self, ids):
        """Ids back to a string: EOS stops, ids outside the characters are skipped."""
        first, end = len(RESERVED), len(RESERVED) + len(self.chars)
        out = []
        for i in ids:
            if i == self.eos_id:
                break
            if first <= i < end:
                out.append(self.id_to_symbol[i])
        return "".join(out)

    def to_dict(self):
        return {"chars": self.chars, "tags": self.tags}

    @classmethod
    def from_dict(cls, d):
        return cls(d["chars"], d["tags"])


def build_vocab(train):
    """Vocabulary over every character and tag seen in the training triples."""
    if not train:
        raise ValueError("build_vocab: empty training set")
    chars = set()
    tags = set()
    for t in train:
        chars.update(t.base)
        chars.update(t.derived)
        tags.add(t.tag)
    return Vocab(chars, tags)


def read_rows(path):
    """``(line number, tab-separated fields)`` for each line of a TSV file that
    is neither blank nor a '#' comment. A file that is not UTF-8 text raises
    ValueError naming the file and its first line that is not."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if line and not line.startswith("#"):
                    yield lineno, line.split("\t")
    except UnicodeDecodeError:
        # the text reader decodes whole chunks: find the line by itself
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, 1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as e:
                    raise ValueError(f"{path}:{lineno}: not UTF-8 text: {e}") from None
        raise


def read_triples(path):
    """Read a TSV triple file; malformed lines are reported with their number."""
    triples = []
    for lineno, parts in read_rows(path):
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}")
        try:
            triples.append(Triple(*parts))
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from None
    return triples


def write_triples(path, triples):
    with open(path, "w", encoding="utf-8") as fh:
        for t in triples:
            fh.write(f"{t.base}\t{t.tag}\t{t.derived}\n")


def write_split(out_dir, split, removed=0):
    """Write train/dev/test TSVs plus a JSON manifest with seed and counts."""
    os.makedirs(out_dir, exist_ok=True)
    for name in ("train", "dev", "test"):
        write_triples(os.path.join(out_dir, f"{name}.tsv"), getattr(split, name))
    manifest = {
        "seed": split.seed,
        "counts": {
            "train": len(split.train),
            "dev": len(split.dev),
            "test": len(split.test),
        },
        "removed": removed,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def read_split(split_dir):
    with open(os.path.join(split_dir, "manifest.json"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    return DatasetSplit(
        tuple(read_triples(os.path.join(split_dir, "train.tsv"))),
        tuple(read_triples(os.path.join(split_dir, "dev.tsv"))),
        tuple(read_triples(os.path.join(split_dir, "test.tsv"))),
        manifest["seed"],
    )
