import random

import pytest

from derivgen.corpus import (
    Triple,
    Vocab,
    build_vocab,
    filter_triples,
    levenshtein,
    read_split,
    read_triples,
    split_dataset,
    write_split,
    write_triples,
)

from conftest import all_strings, levenshtein_oracle, levenshtein_recursive


class TestLevenshtein:
    def test_identity(self):
        assert levenshtein("abc", "abc") == 0

    def test_insertion_only(self):
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3

    def test_corrode_corrosion_matches_oracle(self):
        assert levenshtein("corrode", "corrosion") == levenshtein_oracle("corrode", "corrosion")

    def test_oracle_equals_recursion_on_a_sample(self):
        # every pair up to length 3, and random longer pairs in no useful order
        strings = all_strings("abc", 3)
        pairs = [(a, b) for a in strings for b in strings]
        rng = random.Random(0)
        words = ["".join(rng.choice("abcd") for _ in range(rng.randint(0, 9))) for _ in range(60)]
        pairs += [(rng.choice(words), rng.choice(words)) for _ in range(300)]
        for a, b in pairs:
            assert levenshtein_oracle(a, b) == levenshtein_recursive(a, b), (a, b)

    def test_symmetry_and_triangle_on_small_strings(self):
        strings = all_strings("ab", 4)
        for a in strings:
            for b in strings:
                d = levenshtein(a, b)
                assert d == levenshtein(b, a)
                assert (d == 0) == (a == b)
        # triangle inequality on a sample
        for a in strings[::3]:
            for b in strings[::5]:
                for c in strings[::7]:
                    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


class TestFilter:
    def test_worked_example_retained(self):
        t = Triple("ameliorate", "RESULT", "amelioration")
        assert filter_triples([t]) == [t]

    def test_identity_retained(self):
        t = Triple("x", "TAG", "x")
        assert filter_triples([t]) == [t]

    def test_over_distance_pair_removed(self):
        t = Triple("abc", "TAG", "xyzvw")
        assert 2 * levenshtein_oracle("abc", "xyzvw") > len("abc") + len("xyzvw")
        assert filter_triples([t]) == []

    def test_tie_retained(self):
        # distance exactly half the summed lengths is kept ("exceeds" is strict)
        t = Triple("ab", "TAG", "cd")
        assert 2 * levenshtein("ab", "cd") == 4
        assert filter_triples([t]) == [t]

    def test_preserves_order_and_idempotent(self):
        ts = [
            Triple("take", "AGENT", "taker"),
            Triple("abc", "TAG", "xyzvw"),
            Triple("run", "AGENT", "runner"),
        ]
        once = filter_triples(ts)
        assert once == [ts[0], ts[2]]
        assert filter_triples(once) == once


class TestSplit:
    def test_paper_scale_sizes(self):
        data = [Triple(f"b{i}", "T", f"d{i}") for i in range(6029)]
        s = split_dataset(data, seed=0)
        assert (len(s.train), len(s.dev), len(s.test)) == (4220, 904, 905)

    def test_small_sizes(self):
        data = [Triple(f"b{i}", "T", f"d{i}") for i in range(20)]
        for seed in (0, 1, 42):
            s = split_dataset(data, seed)
            assert (len(s.train), len(s.dev), len(s.test)) == (14, 3, 3)

    def test_deterministic(self):
        data = [Triple(f"b{i}", "T", f"d{i}") for i in range(50)]
        a = split_dataset(data, seed=7)
        b = split_dataset(data, seed=7)
        assert a == b

    def test_disjoint_union(self):
        data = [Triple(f"b{i}", "T", f"d{i}") for i in range(37)]
        s = split_dataset(data, seed=3)
        parts = list(s.train) + list(s.dev) + list(s.test)
        assert sorted(parts, key=lambda t: t.base) == sorted(data, key=lambda t: t.base)

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty dataset"):
            split_dataset([], seed=0)

    def test_stratified_keeps_all(self):
        data = [Triple(f"b{i}", f"T{i % 3}", f"d{i}") for i in range(30)]
        s = split_dataset(data, seed=0, stratify_by_tag=True)
        assert s.size == 30


class TestVocab:
    def test_minimal_vocab_ids(self):
        v = build_vocab([Triple("ab", "T", "ba")])
        assert len(v) == 7  # a, b, T, plus 4 reserved symbols
        assert set(v.char_to_id) == {"a", "b"}
        assert set(v.tag_to_id) == {"T"}

    def test_round_trip(self):
        v = build_vocab([Triple("hello", "T", "world")])
        for c, i in v.char_to_id.items():
            assert v.id_to_symbol[i] == c

    def test_reserved_distinct(self):
        v = build_vocab([Triple("abc", "T1", "abd"), Triple("xy", "T2", "yx")])
        ids = [v.pad_id, v.bos_id, v.eos_id, v.unk_id]
        assert len(set(ids)) == 4
        assert not set(ids) & set(v.char_to_id.values())
        assert not set(ids) & set(v.tag_to_id.values())

    def test_unseen_char_is_unk(self):
        v = build_vocab([Triple("ab", "T", "ba")])
        assert v.char_id("z") == v.unk_id

    def test_encode_source_layout(self):
        v = build_vocab([Triple("ameliorate", "RESULT", "amelioration")])
        t = Triple("ameliorate", "RESULT", "amelioration")
        ids = v.encode_source(t.base, t.tag)
        assert len(ids) == len("ameliorate") + 2
        assert ids[:-2] == [v.char_to_id[c] for c in "ameliorate"]
        assert ids[-2] == v.tag_to_id["RESULT"]
        assert ids[-1] == v.eos_id

    def test_encode_source_three_tokens(self):
        v = build_vocab([Triple("ab", "T", "ba")])
        assert len(v.encode_source("a", "T")) == 3

    def test_unknown_tag_errors(self):
        v = build_vocab([Triple("ab", "T", "ba")])
        with pytest.raises(ValueError, match="unknown tag"):
            v.encode_source("ab", "NOPE")

    def test_unknown_char_encodes_as_unk(self):
        v = build_vocab([Triple("ab", "T", "ba")])
        ids = v.encode_source("az", "T")
        assert ids[1] == v.unk_id

    def test_decode_inverts_encode(self):
        v = build_vocab([Triple("abc", "T", "cab")])
        for s in ("a", "abc", "ccba"):
            assert v.decode_output(v.encode_target(s)) == s


class TestIO:
    def test_round_trip_and_manifest(self, tmp_path):
        data = [Triple(f"base{i}", "T", f"base{i}ly") for i in range(20)]
        path = tmp_path / "data.tsv"
        write_triples(path, data)
        assert read_triples(path) == data
        s = split_dataset(data, seed=1)
        manifest = write_split(tmp_path / "splits", s, removed=2)
        assert manifest["counts"] == {"train": 14, "dev": 3, "test": 3}
        assert manifest["removed"] == 2
        again = read_split(tmp_path / "splits")
        assert again == s

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tT\tb\nonly-one-field\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2:"):
            read_triples(path)

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("# header\na\tT\tb\n\n", encoding="utf-8")
        assert read_triples(path) == [Triple("a", "T", "b")]
