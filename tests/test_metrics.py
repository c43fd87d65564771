import pytest

from derivgen.corpus import Triple
from derivgen.metrics import (
    DEFAULT_AFFIXES,
    accuracy,
    affix_f1,
    avg_edit_distance,
    evaluate,
    extract_affix,
    kbest_accuracy,
)

from conftest import levenshtein_oracle

# ``EvalReport.to_json`` of the report in ``test_json_text_is_pinned``
PINNED_REPORT_JSON = """\
{
  "accuracy": 0.3333333333333333,
  "affix_f1": [
    {
      "affix": "ly",
      "f1": 0.6666666666666666,
      "precision": 1.0,
      "recall": 0.5,
      "support": 2
    },
    {
      "affix": "er",
      "f1": 0.0,
      "precision": 0.0,
      "recall": 0.0,
      "support": 1
    },
    {
      "affix": "or",
      "f1": 0.0,
      "precision": 0.0,
      "recall": 0.0,
      "support": 0
    }
  ],
  "avg_edit": 0.6666666666666666,
  "k": 2,
  "kbest_accuracy": 0.6666666666666666,
  "n": 3,
  "per_tag": {
    "ADVERB": {
      "accuracy": 0.5,
      "avg_edit": 0.5,
      "n": 2
    },
    "AGENT": {
      "accuracy": 0.0,
      "avg_edit": 1.0,
      "n": 1
    }
  }
}"""


class TestAccuracy:
    def test_all_equal(self):
        assert accuracy(["a", "b"], ["a", "b"]) == 1.0

    def test_all_different(self):
        assert accuracy(["a", "b"], ["x", "y"]) == 0.0

    def test_mixed(self):
        assert accuracy(["a", "b", "c", "d"], ["a", "x", "c", "y"]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            accuracy(["a"], ["a", "b"])


class TestAvgEdit:
    def test_identical(self):
        assert avg_edit_distance(["abc"], ["abc"]) == 0.0

    def test_oracle_pair(self):
        pred = ["ab", "abcd"]
        gold = ["abc", "a"]
        d1 = levenshtein_oracle(pred[0], gold[0])
        d2 = levenshtein_oracle(pred[1], gold[1])
        assert (d1, d2) == (1, 3)
        assert avg_edit_distance(pred, gold) == 2.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            avg_edit_distance(["a", "b"], ["a"])


class TestExtractAffix:
    def test_ly(self):
        assert extract_affix("quickly") == "ly"

    def test_longest_match_wins(self):
        assert "ation" in DEFAULT_AFFIXES and "ion" in DEFAULT_AFFIXES
        assert extract_affix("animation") == "ation"

    def test_no_match(self):
        assert extract_affix("content") is None

    def test_empty_inventory(self):
        with pytest.raises(ValueError, match="empty"):
            extract_affix("quickly", [])


class TestAffixF1:
    def test_perfect_predictions(self):
        gold = ["quickly", "worker", "payment", "clarity"]
        rows = affix_f1(gold, gold)
        assert rows
        assert all(r.f1 == 1.0 for r in rows)

    def test_counts(self):
        # gold: 2x -ly, 1x -ment; predictions hit one -ly, miss one as -ment
        pred = ["aly", "bment", "cment"]
        gold = ["aly", "bly", "cment"]
        rows = {r.affix: r for r in affix_f1(pred, gold)}
        assert rows["ly"].precision == 1.0
        assert rows["ly"].recall == 0.5
        assert rows["ment"].precision == 0.5
        assert rows["ment"].recall == 1.0
        assert rows["ly"].support == 2
        assert rows["ment"].support == 1

    def test_correct_bounded_by_min(self):
        pred = ["aly", "bly", "cment", "dly"]
        gold = ["aly", "bment", "cly", "dly"]
        rows = affix_f1(pred, gold)
        for r in rows:
            assert 0.0 <= r.f1 <= 1.0
            # correct <= min(predicted, gold) implies prec, rec <= 1
            assert r.precision <= 1.0 and r.recall <= 1.0

    def test_sorted_by_descending_f1(self):
        pred = ["aly", "bment", "cment"]
        gold = ["aly", "bly", "cment"]
        rows = affix_f1(pred, gold)
        assert [r.f1 for r in rows] == sorted((r.f1 for r in rows), reverse=True)

    def test_whole_word_option_stricter(self):
        pred = ["xly"]
        gold = ["yly"]
        assert affix_f1(pred, gold)[0].f1 == 1.0
        assert affix_f1(pred, gold, whole_word=True)[0].f1 == 0.0


class TestEvaluate:
    def gold(self):
        return [
            Triple("quick", "ADVERB", "quickly"),
            Triple("work", "AGENT", "worker"),
            Triple("pay", "RESULT", "payment"),
        ]

    def test_perfect(self):
        gold = self.gold()
        report = evaluate([[t.derived] for t in gold], gold)
        assert report.accuracy == 1.0
        assert report.avg_edit == 0.0
        assert report.kbest_accuracy == 1.0
        assert all(r.f1 == 1.0 for r in report.affix_rows)

    def test_kbest_at_least_accuracy(self):
        gold = self.gold()
        kbest = [["wrong", t.derived] for t in gold]
        report = evaluate(kbest, gold)
        assert report.accuracy == 0.0
        assert report.kbest_accuracy == 1.0
        assert report.kbest_accuracy >= report.accuracy

    def test_accuracy_one_implies_zero_edit(self):
        gold = self.gold()
        report = evaluate([[t.derived] for t in gold], gold)
        assert report.accuracy == 1.0 and report.avg_edit == 0.0

    def test_per_tag_rows_only_for_present_tags(self):
        gold = [Triple("quick", "ADVERB", "quickly")]
        report = evaluate([["quickly"]], gold)
        assert set(report.per_tag) == {"ADVERB"}

    def test_permutation_equivariance(self):
        gold = self.gold()
        pred = ["quickly", "wrong", "payment"]
        a1 = accuracy(pred, [t.derived for t in gold])
        e1 = avg_edit_distance(pred, [t.derived for t in gold])
        perm = [2, 0, 1]
        a2 = accuracy([pred[i] for i in perm], [gold[i].derived for i in perm])
        e2 = avg_edit_distance([pred[i] for i in perm], [gold[i].derived for i in perm])
        assert a1 == a2 and e1 == e2

    def test_kbest_monotone_in_k(self):
        gold = self.gold()
        kbest = [["x", "y", t.derived] for t in gold]
        accs = [
            kbest_accuracy([h[:k] for h in kbest], [t.derived for t in gold])
            for k in (1, 2, 3)
        ]
        assert accs == sorted(accs)

    def test_serialization(self):
        gold = self.gold()
        report = evaluate([[t.derived] for t in gold], gold)
        d = report.to_dict()
        assert d["accuracy"] == 1.0
        table = report.to_table()
        assert "acc" in table and "affix" in table

    def test_json_text_is_pinned(self):
        # two tags, an affix row for each of er, ly and or, a 2-best list
        gold = [Triple("quick", "ADVERB", "quickly"), Triple("work", "AGENT", "worker"),
                Triple("slow", "ADVERB", "slowly")]
        report = evaluate([["quickly", "quickness"], ["workor", "worker"], ["slowy"]], gold)
        assert report.to_json() == PINNED_REPORT_JSON

    def test_mismatch_errors(self):
        with pytest.raises(ValueError, match="length mismatch"):
            evaluate([["x"]], self.gold())
