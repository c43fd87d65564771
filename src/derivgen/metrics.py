"""Evaluation: exact-match accuracy, average edit distance, affix F1.

Per-affix scores use a longest-suffix match against a configurable
inventory; forms matching no inventory suffix fall into a NONE bucket
that is excluded from the per-affix rows.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .corpus import levenshtein

# Union of the suffixes reported in the derivational-slot table and the
# per-affix results table.
DEFAULT_AFFIXES = (
    "ly", "er", "or", "ation", "ity", "ment", "ist", "ness", "ence", "ure",
    "ee", "age", "ion", "tion", "al", "able", "ible", "ant", "ette", "an",
    "ian", "ish", "ese", "ous", "ious", "eous",
)


def _check_aligned(pred, gold):
    if len(pred) != len(gold):
        raise ValueError(f"length mismatch: {len(pred)} predictions vs {len(gold)} golds")
    if not pred:
        raise ValueError("empty prediction list")


def accuracy(pred, gold):
    """Fraction of predictions exactly equal to gold."""
    _check_aligned(pred, gold)
    return sum(p == g for p, g in zip(pred, gold)) / len(pred)


def avg_edit_distance(pred, gold):
    """Mean Levenshtein distance from prediction to gold."""
    _check_aligned(pred, gold)
    return sum(levenshtein(p, g) for p, g in zip(pred, gold)) / len(pred)


def kbest_accuracy(kbest, gold):
    """Fraction of items whose gold form appears anywhere in the k-best list."""
    _check_aligned(kbest, gold)
    return sum(g in hyps for hyps, g in zip(kbest, gold)) / len(gold)


def extract_affix(form, inventory=DEFAULT_AFFIXES):
    """Longest inventory suffix matching the end of ``form``; None if no match."""
    if not inventory:
        raise ValueError("empty affix inventory")
    best = None
    for a in inventory:
        if form.endswith(a) and (best is None or len(a) > len(best)):
            best = a
    return best


@dataclass(frozen=True)
class AffixF1Row:
    affix: str
    precision: float
    recall: float
    f1: float
    support: int


def affix_f1(pred, gold, inventory=DEFAULT_AFFIXES, whole_word=False):
    """Per-affix precision/recall/F1, rows sorted by descending F1.

    A position counts as correct for affix ``a`` when the predicted and
    gold forms both carry affix ``a``; with ``whole_word`` the whole
    strings must also match.
    """
    if len(pred) != len(gold):
        raise ValueError(f"length mismatch: {len(pred)} predictions vs {len(gold)} golds")
    predicted = {}
    gold_counts = {}
    correct = {}
    for p, g in zip(pred, gold):
        ap = extract_affix(p, inventory)
        ag = extract_affix(g, inventory)
        if ap is not None:
            predicted[ap] = predicted.get(ap, 0) + 1
        if ag is not None:
            gold_counts[ag] = gold_counts.get(ag, 0) + 1
        if ap is not None and ap == ag and (p == g or not whole_word):
            correct[ap] = correct.get(ap, 0) + 1
    rows = []
    for a in sorted(set(predicted) | set(gold_counts)):
        c = correct.get(a, 0)
        prec = c / predicted[a] if predicted.get(a) else 0.0
        rec = c / gold_counts[a] if gold_counts.get(a) else 0.0
        f1 = 2 * prec * rec / (prec + rec) if (prec + rec) > 0 else 0.0
        rows.append(AffixF1Row(a, prec, rec, f1, gold_counts.get(a, 0)))
    rows.sort(key=lambda r: (-r.f1, r.affix))
    return rows


@dataclass
class EvalReport:
    accuracy: float
    avg_edit: float
    kbest_accuracy: float
    k: int
    per_tag: dict = field(default_factory=dict)
    affix_rows: list = field(default_factory=list)
    n: int = 0

    def to_dict(self):
        """The fields as plain JSON values: each ``per_tag`` tuple as a dict,
        and ``affix_rows`` under the key ``affix_f1``."""
        d = asdict(self)
        d["per_tag"] = {tag: dict(zip(("accuracy", "avg_edit", "n"), row))
                        for tag, row in self.per_tag.items()}
        d["affix_f1"] = d.pop("affix_rows")
        return d

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_table(self):
        """Aligned plain-text rendering: accuracy/edit block then affix block."""
        lines = []
        lines.append(f"{'':<12}{'acc':>8}{'edit':>8}{f'{self.k}-best':>9}")
        lines.append(
            f"{'all':<12}{self.accuracy * 100:>7.1f}%{self.avg_edit:>8.2f}"
            f"{self.kbest_accuracy * 100:>8.1f}%"
        )
        for tag in sorted(self.per_tag):
            a, e, _n = self.per_tag[tag]
            lines.append(f"{tag:<12}{a * 100:>7.1f}%{e:>8.2f}")
        if self.affix_rows:
            lines.append("")
            lines.append(f"{'affix':<10}{'F1':>6}{'prec':>8}{'rec':>8}{'n':>6}")
            for r in self.affix_rows:
                lines.append(
                    f"-{r.affix:<9}{r.f1:>6.2f}{r.precision:>8.2f}{r.recall:>8.2f}{r.support:>6}"
                )
        return "\n".join(lines)


def evaluate(kbest, gold_triples, inventory=DEFAULT_AFFIXES):
    """Score k-best predictions against gold triples.

    ``kbest`` is one ranked list of strings per gold triple; rank 1 is used
    for accuracy, edit distance, and affix F1.
    """
    _check_aligned(kbest, gold_triples)
    one_best = [hyps[0] if hyps else "" for hyps in kbest]
    gold = [t.derived for t in gold_triples]
    counts = {}  # tag -> [exact matches, summed edit distance, queries]
    for p, t in zip(one_best, gold_triples):
        c = counts.setdefault(t.tag, [0, 0, 0])
        c[0] += p == t.derived
        c[1] += levenshtein(p, t.derived)
        c[2] += 1
    return EvalReport(
        accuracy=sum(c[0] for c in counts.values()) / len(gold),
        avg_edit=sum(c[1] for c in counts.values()) / len(gold),
        kbest_accuracy=kbest_accuracy(kbest, gold),
        k=max(len(hyps) for hyps in kbest),
        per_tag={tag: (hits / n, dist / n, n) for tag, (hits, dist, n) in counts.items()},
        affix_rows=affix_f1(one_best, gold, inventory),
        n=len(gold),
    )
