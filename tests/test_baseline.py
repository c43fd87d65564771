import random
from pathlib import Path

import numpy as np
import pytest

from derivgen.baseline import (
    COPY,
    DEL,
    INS,
    STOP,
    SUB,
    align,
    decode_greedy,
    featurize,
    load_baseline,
    save_baseline,
    train_baseline,
    train_perceptron,
    PerceptronModel,
    _training_states,
)
from derivgen.corpus import Triple, levenshtein

from conftest import (ReferencePerceptron, all_strings, levenshtein_oracle, reference_decode, reference_states,
                      reference_train)


class TestAlign:
    def test_identity_all_copies(self):
        s = align("abc", "abc")
        assert s.actions == ((SUB, "a"), (SUB, "b"), (SUB, "c"))
        assert s.cost == 0

    def test_take_taking(self):
        s = align("take", "taking")
        assert s.apply() == "taking"
        assert s.cost == levenshtein_oracle("take", "taking")

    def test_ameliorate(self):
        s = align("ameliorate", "amelioration")
        assert s.apply() == "amelioration"
        assert s.cost == levenshtein_oracle("ameliorate", "amelioration")

    def test_cost_matches_levenshtein_small(self):
        strings = all_strings("ab", 4)
        for a in strings:
            if not a:
                continue
            for b in strings:
                s = align(a, b)
                assert s.apply() == b
                assert s.cost == levenshtein(a, b)

    def test_empty_base_errors(self):
        with pytest.raises(ValueError, match="non-empty"):
            align("", "abc")

    def test_deterministic(self):
        assert align("abcd", "acbd").actions == align("abcd", "acbd").actions


class TestFeaturize:
    def test_boundaries_at_position_zero(self):
        feats = featurize("abc", "T", 0, [])
        for off in (-3, -2, -1):
            assert f"c[{off}]=<w>" in feats

    def test_deterministic(self):
        a = featurize("abc", "T", 1, ["x"])
        b = featurize("abc", "T", 1, ["x"])
        assert a == b

    def test_single_char_difference_localized(self):
        a = featurize("abc", "T", 0, [])
        b = featurize("axc", "T", 0, [])
        diff = set(a) ^ set(b)
        # only the features mentioning offset +1 (the changed character) differ
        assert diff == {"c[1]=b", "c[1]=x", "t^c[1]=T^b", "t^c[1]=T^x"}

    def test_history_padding(self):
        feats = featurize("abc", "T", 2, ["q"])
        assert "h[-1]=q" in feats
        assert "h[-2]=<h>" in feats

    def test_position_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            featurize("abc", "T", 5, [])

    def test_tag_feature_present(self):
        assert "t=RESULT" in featurize("abc", "RESULT", 0, [])


class TestPerceptron:
    def test_memorizes_single_triple(self):
        t = Triple("ameliorate", "RESULT", "amelioration")
        model = train_perceptron([t], epochs=10, seed=0)
        assert decode_greedy(model, "ameliorate", "RESULT") == "amelioration"

    def test_identity_training_decodes_identity(self):
        data = [Triple(w, "ID", w) for w in ("abc", "bca", "cab", "aabb")]
        model = train_perceptron(data, epochs=10, seed=0)
        for t in data:
            assert decode_greedy(model, t.base, t.tag) == t.base
        assert decode_greedy(model, "baba", "ID") == "baba"

    def test_separable_actions_learned(self):
        # tag alone separates: tag A copies, tag B appends "x"
        data = [Triple(w, "A", w) for w in ("ab", "ba", "aa")]
        data += [Triple(w, "B", w + "x") for w in ("ab", "ba", "aa")]
        model = train_perceptron(data, epochs=10, seed=0)
        for t in data:
            assert decode_greedy(model, t.base, t.tag) == t.derived

    def test_deterministic(self):
        data = [Triple(w, "T", w + "ly") for w in ("abc", "bcd", "cde")]
        m1 = train_perceptron(data, epochs=5, seed=3)
        m2 = train_perceptron(data, epochs=5, seed=3)
        assert m1.averaged == m2.averaged

    def test_averaging_stable_after_convergence(self):
        # once training is mistake-free, extra epochs leave decoding unchanged
        data = [Triple("abc", "T", "abcly"), Triple("bcd", "T", "bcdly")]
        m1 = train_perceptron(data, epochs=10, seed=0)
        m2 = train_perceptron(data, epochs=20, seed=0)
        for t in data:
            assert decode_greedy(m1, t.base, t.tag) == decode_greedy(m2, t.base, t.tag)
        assert decode_greedy(m1, "cde", "T") == decode_greedy(m2, "cde", "T")

    def test_empty_data_errors(self):
        with pytest.raises(ValueError, match="empty"):
            train_perceptron([], epochs=1)

    def test_unfinalized_model_errors(self):
        m = PerceptronModel()
        with pytest.raises(ValueError, match="finalized"):
            decode_greedy(m, "abc", "T")

    def test_ins_cap_terminates(self):
        # a model whose best end-of-word action is INS must still stop
        data = [Triple("a", "T", "a" + "x" * 8)]
        model = train_perceptron(data, epochs=3, seed=0)
        out = decode_greedy(model, "b", "T")
        assert len(out) < 50


def random_corpus(seed, n=12, insert_run=0):
    """Triples over "abcd" with substitutions, deletions, insertions and
    tag-specific suffixes; ``insert_run`` more "x"s end every third one."""
    rng = random.Random(seed)
    suffix = {"P": "", "Q": "ly", "R": "ness"}
    data = []
    for i in range(n):
        base = "".join(rng.choice("abcd") for _ in range(rng.randint(1, 6)))
        tag = rng.choice("PQR")
        derived = ""
        for c in base:
            r = rng.random()
            derived += c if r < 0.75 else ("" if r < 0.85 else rng.choice("abcd") + (c if r > 0.95 else ""))
        derived += suffix[tag] + ("x" * insert_run if i % 3 == 0 else "")
        derived = derived or base
        data.append(Triple(base, tag, derived))
    return data


class TestPerceptronOracle:
    """The interned-feature perceptron against the dict-based reference in
    conftest: the same training states, the same averaged weights, bit for
    bit, and the same outputs."""

    @pytest.mark.parametrize("seed, insert_run", [(0, 0), (1, 0), (2, 0), (3, 0), (4, 7), (5, 9)])
    def test_same_weights_and_outputs_as_reference(self, seed, insert_run):
        data = random_corpus(seed, insert_run=insert_run)
        model = train_perceptron(data, epochs=3, seed=seed)
        states = [s for t in data for s in _training_states(t, 3, 2)]
        assert states == [s for t in data for s in reference_states(t)]
        past_cap = [s for s in states if s[3] >= model.max_consecutive_ins]
        assert bool(past_cap) == (insert_run > model.max_consecutive_ins)
        ref = reference_train(data, epochs=3, seed=seed)
        assert model.action_set == ref.action_set
        assert model.update_count == ref.update_count
        assert model.averaged == ref.averaged
        rng = random.Random(seed)
        queries = [(t.base, t.tag) for t in data]
        queries += [("".join(rng.choice("abcde") for _ in range(rng.randint(1, 7))), rng.choice("PQRS"))
                    for _ in range(30)]
        for base, tag in queries:
            assert decode_greedy(model, base, tag) == reference_decode(ref, base, tag)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_weights_decode_like_reference(self, seed):
        # a trained model seldom deletes right after an insertion (an optimal
        # alignment substitutes instead); random weights decode through such states
        data = random_corpus(seed)
        model = train_perceptron(data, epochs=1, seed=seed)
        model.avg_weights = np.random.default_rng(seed).normal(size=model.avg_weights.shape)
        ref = ReferencePerceptron(model.action_set)
        ref.averaged = model.averaged
        rng = random.Random(seed)
        for _ in range(50):
            base = "".join(rng.choice("abcde") for _ in range(rng.randint(1, 7)))
            tag = rng.choice("PQRS")
            assert decode_greedy(model, base, tag) == reference_decode(ref, base, tag)

    def test_ties_go_to_the_first_action(self):
        actions = [(COPY, ""), (SUB, "x"), (DEL, ""), (INS, "y"), (STOP, "")]
        model = PerceptronModel(action_set=actions, avg_weights=np.zeros((0, len(actions))))
        # all scores tie at 0: COPY wins mid-word, INS beats STOP until the cap
        assert decode_greedy(model, "ab", "T") == "ab" + "y" * model.max_consecutive_ins
        model.start_training(3)
        feats = np.array([0, 2])
        assert not model.observe(feats, 4, model.candidates(2, 2, 0))
        # the rival was INS, the first legal action other than the gold STOP
        assert model.weights[:, 3].tolist() == [-1.0, 0.0, -1.0]
        assert model.weights[:, 4].tolist() == [1.0, 0.0, 1.0]
        assert not model.weights[:, :3].any()


class TestRoundTrip:
    def test_training_pairs_round_trip(self):
        data = [
            Triple("ameliorate", "RESULT", "amelioration"),
            Triple("take", "AGENT", "taker"),
            Triple("run", "AGENT", "runner"),
            Triple("happy", "ADVERB", "happily"),
        ]
        for t in data:
            assert align(t.base, t.derived).apply() == t.derived


class TestPersistence:
    def test_save_load_bit_exact(self, tmp_path):
        data = [Triple(w, "T", w + "ly") for w in ("abc", "bcd", "cde", "abd")]
        model = train_baseline(data, epochs=5, seed=1)
        path = tmp_path / "model.tsv"
        save_baseline(path, model)
        loaded = load_baseline(path)
        assert loaded.models["*"].averaged == model.models["*"].averaged
        assert loaded.models["*"].action_set == model.models["*"].action_set
        for t in data:
            assert loaded.predict(t.base, t.tag) == model.predict(t.base, t.tag)

    def test_per_tag_save_load(self, tmp_path):
        data = [Triple(w, "A", w) for w in ("ab", "ba")]
        data += [Triple(w, "B", w + "x") for w in ("ab", "ba")]
        model = train_baseline(data, epochs=5, seed=0, per_tag=True)
        path = tmp_path / "model.tsv"
        save_baseline(path, model)
        loaded = load_baseline(path)
        assert loaded.per_tag
        assert loaded.predict("ab", "A") == "ab"
        assert loaded.predict("ab", "B") == "abx"
        # unseen tag falls back to copying the base
        assert loaded.predict("ab", "C") == "ab"

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "junk.tsv"
        path.write_text("not a model\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_baseline(path)


# Written by the dict-based perceptron that preceded interned features:
# train_baseline(V1_TRIPLES, epochs=10, seed=0), then save_baseline.
V1_MODEL = Path(__file__).parent / "data" / "baseline_v1.model"
V1_TRIPLES = [Triple("ameliorate", "RESULT", "amelioration"), Triple("take", "AGENT", "taker"),
              Triple("run", "AGENT", "runner"), Triple("happy", "ADVERB", "happily")]
V1_PREDICTIONS = {
    ("ameliorate", "RESULT"): "amelioration", ("take", "AGENT"): "taker", ("run", "AGENT"): "runner",
    ("happy", "ADVERB"): "happily", ("bake", "AGENT"): "baker", ("sing", "AGENT"): "singr",
    ("quick", "ADVERB"): "quick", ("create", "RESULT"): "creation", ("happy", "NOPE"): "happy",
}


class TestModelFileV1:
    def test_loads_predicts_and_resaves_byte_identical(self, tmp_path):
        model = load_baseline(V1_MODEL)
        assert {q: model.predict(*q) for q in V1_PREDICTIONS} == V1_PREDICTIONS
        save_baseline(tmp_path / "again.model", model)
        assert (tmp_path / "again.model").read_bytes() == V1_MODEL.read_bytes()

    def test_retraining_writes_the_same_file(self, tmp_path):
        save_baseline(tmp_path / "m.model", train_baseline(V1_TRIPLES, epochs=10, seed=0))
        assert (tmp_path / "m.model").read_bytes() == V1_MODEL.read_bytes()

    def test_weights_written_as_plain_floats(self, tmp_path):
        path = tmp_path / "m.model"
        save_baseline(path, train_baseline(V1_TRIPLES, epochs=3, seed=1))
        text = path.read_text(encoding="utf-8")
        assert "np.float64(" not in text
        weights = [line.split("\t")[3] for line in text.splitlines()[1:] if not line.startswith("!")]
        assert weights and all(repr(float(w)) == w for w in weights)

    def test_weight_for_an_unknown_action_rejected(self, tmp_path):
        path = tmp_path / "m.model"
        text = V1_MODEL.read_text(encoding="utf-8")
        path.write_text(text + "*\tt=RESULT\tins:Z\t1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"m\.model:806: action 'ins:Z'"):
            load_baseline(path)

    @pytest.mark.parametrize("actions, weights, expected", [
        (("copy:", "ins:y"), ["*\tt=T\tins:y\t0.5"], "yyyyyayyyyybyyyyy"),
        (("ins:y", "stop:"), [], "yyyyy"),
    ])
    def test_decoding_ends_when_no_action_is_legal(self, tmp_path, actions, weights, expected):
        # a file may lack STOP (no way to end after the input) or every edit
        # action (no way to consume it): decoding ends at the insertion cap
        lines = ["derivgen-perceptron v1 per_tag=0 window=3 history=2 epochs=10 seed=0"]
        lines += [f"!\t*\t{a}" for a in actions] + weights
        path = tmp_path / "m.model"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert load_baseline(path).predict("ab", "T") == expected
