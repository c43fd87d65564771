"""Non-neural baseline: per-character edit actions + averaged perceptron.

Training pairs are aligned with a unit-cost Levenshtein backtrace into
edit scripts (substitute / delete / insert, where substituting the current
character by itself is a copy). An averaged perceptron then learns to pick
the next action from contextual features, and decoding greedily applies
argmax actions left to right. Feature strings are interned to the rows of
dense ``(features, actions)`` weight arrays, so scoring a state sums its
feature rows and takes the argmax over the legal actions.

A terminal STOP action is used internally so the decoder can decide, once
the whole input is consumed, whether to keep inserting or finish.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass, field

import numpy as np

from .corpus import suffix_distances

SUB, DEL, INS, STOP = "sub", "del", "ins", "stop"
# COPY is the classifier's view of SUB(current char): it generalizes the
# "keep this character" decision across contexts.
COPY = "copy"
_KIND_ORDER = {COPY: 0, SUB: 1, DEL: 2, INS: 3, STOP: 4}

BOUNDARY_LEFT = "<w>"
BOUNDARY_RIGHT = "</w>"
HISTORY_PAD = "<h>"
MAX_CONSECUTIVE_INS = 5  # INS is legal only below this many insertions in a row


@dataclass(frozen=True)
class EditScript:
    source: str
    actions: tuple  # (kind, char) pairs; char is "" for DEL and STOP

    def apply(self):
        """Run the actions over the source; consumes the whole input."""
        out = []
        pos = 0
        for action in self.actions:
            if action[0] == STOP:
                break
            pos, _ = _advance(action, self.source, pos, out, 0)
        if pos != len(self.source):
            raise ValueError(
                f"script consumed {pos} of {len(self.source)} input characters"
            )
        return "".join(out)

    @property
    def cost(self):
        """Number of non-copy actions (unit edit cost)."""
        n = pos = 0
        for kind, ch in self.actions:
            n += kind != SUB or ch != self.source[pos]
            pos, _ = _advance((kind, ch), self.source, pos, [], 0)
        return n


def align(base, derived):
    """Minimal-cost edit script turning base into derived.

    Ties are broken preferring copy, then substitution, then deletion,
    then insertion, applied left to right over suffix distances, so
    alignments are deterministic and insertions attach as late as
    possible (a suffix lands after the copies that precede it).
    """
    if not base:
        raise ValueError("align: base must be non-empty")
    n, m = len(base), len(derived)
    dp = suffix_distances(base, derived)
    actions = []
    i, j = 0, 0
    while i < n or j < m:
        if i < n and j < m and dp[i][j] == dp[i + 1][j + 1] + (base[i] != derived[j]):
            actions.append((SUB, derived[j]))
            i, j = i + 1, j + 1
        elif i < n and dp[i][j] == dp[i + 1][j] + 1:
            actions.append((DEL, ""))
            i += 1
        else:
            actions.append((INS, derived[j]))
            j += 1
    return EditScript(base, tuple(actions))


def featurize(source, tag, position, history, window=3, history_len=2, inserts=0):
    """Feature strings for one decoding state.

    Covers the input window around ``position`` (with boundary sentinels),
    the most recent output characters, the tag, tag conjunctions, and the
    run length of consecutive insertions (``inserts``), which indexes into
    an affix being emitted. Deterministic; returns a tuple of distinct keys.
    """
    if not 0 <= position <= len(source):
        raise ValueError(f"position {position} out of range for source of length {len(source)}")
    current = source[position] if position < len(source) else BOUNDARY_RIGHT
    feats = [
        f"t={tag}",
        f"i={inserts}",
        f"t^i={tag}^{inserts}",
        f"i^c[0]={inserts}^{current}",
        f"t^i^c[0]={tag}^{inserts}^{current}",
    ]
    for off in range(-window, window + 1):
        idx = position + off
        if idx < 0:
            c = BOUNDARY_LEFT
        elif idx >= len(source):
            c = BOUNDARY_RIGHT
        else:
            c = source[idx]
        feats.append(f"c[{off}]={c}")
        feats.append(f"t^c[{off}]={tag}^{c}")
    recent = []
    for back in range(1, history_len + 1):
        h = history[-back] if len(history) >= back else HISTORY_PAD
        recent.append(h)
        feats.append(f"h[-{back}]={h}")
        feats.append(f"t^h[-{back}]={tag}^{h}")
        # tag + output n-gram: lets a suffix automaton be encoded directly
        feats.append(f"t^h[-1..-{back}]={tag}^{'^'.join(recent)}")
    return tuple(feats)


def _action_sort_key(action):
    return (_KIND_ORDER[action[0]], action[1])


@dataclass
class PerceptronModel:
    """Multiclass averaged perceptron over interned features.

    Feature strings map to rows through ``feature_ids``; columns follow
    ``action_set``, which is sorted by action kind, then character, so that
    ties go to the first action in it. ``weights`` and ``tick_updates`` are
    the ``(F, A)`` training state: the weights, and the sum of each update
    times the tick it came at. ``avg_weights`` holds the averaged weights
    once :meth:`finalize` has run.
    """

    window: int = 3
    history_len: int = 2
    action_set: list = field(default_factory=list)
    feature_ids: dict = field(default_factory=dict)  # feature string -> row
    weights: np.ndarray = None
    tick_updates: np.ndarray = None
    update_count: int = 0
    avg_weights: np.ndarray = None

    def __post_init__(self):
        kinds = [a[0] for a in self.action_set]
        edit = np.array([k in (COPY, SUB, DEL) for k in kinds], dtype=bool)
        ins = np.array([k == INS for k in kinds], dtype=bool)
        stop = np.array([k == STOP for k in kinds], dtype=bool)
        # _legal[input left?, insertion allowed?] -> mask over action_set
        self._legal = np.array([[stop, stop | ins], [edit, edit | ins]])

    def start_training(self, n_features):
        """Zero the training state for ``n_features`` interned features."""
        shape = (n_features, len(self.action_set))
        self.weights = np.zeros(shape)
        self.tick_updates = np.zeros(shape)
        self.update_count = 0

    def observe(self, feats, gold, candidates):
        """One online step; returns True when the prediction was correct.

        ``feats`` holds the state's feature rows, ``gold`` the gold action's
        column and ``candidates`` the legal-action mask over ``action_set``.
        The averaged weights run over every decision step, mistaken or not,
        so with enough epochs the converged vector dominates the average.
        Updates fire whenever the gold action fails to beat its best rival
        by a unit margin, not just on outright losses; on separable data
        this still converges, and the extra updates push weight onto
        features that co-fire with the gold action consistently.
        """
        self.update_count += 1
        scores = np.add.reduce(self.weights.take(feats, axis=0), axis=0)
        rivals = np.where(candidates, scores, -np.inf)
        rivals[gold] = -np.inf
        rival = int(rivals.argmax())
        if rivals[rival] == -np.inf or scores[gold] >= rivals[rival] + 1.0:
            return True
        tick = self.update_count
        cells = (feats[:, None], [gold, rival])  # every feature row, in both columns
        self.weights[cells] += (1.0, -1.0)
        self.tick_updates[cells] += (tick, -tick)
        return False

    def finalize(self):
        """Freeze the averaged weights: the mean over ticks 1..T of the weights
        after each tick. An update d at tick t counts in T + 1 - t of them, so
        the sum is ``(T + 1) * weights - tick_updates``. Below about 10**8 ticks
        every term is a whole number under 2**53, so the sum is exact."""
        tick = self.update_count
        self.avg_weights = (((tick + 1) * self.weights - self.tick_updates) / tick if tick
                            else np.zeros_like(self.weights))
        return self

    @property
    def averaged(self):
        """Nonzero averaged weights keyed by (feature, action); None until finalized."""
        if self.avg_weights is None:
            return None
        rows, cols = np.nonzero(self.avg_weights)
        feats = list(self.feature_ids)
        return {
            (feats[r], self.action_set[c]): w
            for r, c, w in zip(rows.tolist(), cols.tolist(), self.avg_weights[rows, cols].tolist())
        }

    def candidates(self, position, source_len, consecutive_ins):
        """Legal actions at a state, as a boolean mask over ``action_set``.

        COPY, SUB and DEL need input left, STOP needs it consumed, and INS
        is legal below the cap on consecutive insertions. The one legality
        rule of training and decoding: takes one state's scalars, or arrays
        over many states (one mask row each).
        """
        # "* 1" turns a bool, or an array of them, into an index
        return self._legal[(position < source_len) * 1, (consecutive_ins < MAX_CONSECUTIVE_INS) * 1]


def _advance(action, source, pos, out, inserts):
    """Apply one action to the transducer state; returns the new (pos, inserts).

    COPY writes ``source[pos]`` and SUB its own character, and both consume
    one input character. DEL only consumes. INS writes without consuming and
    extends the insertion run. Written characters are appended to ``out``.
    """
    kind, ch = action
    if kind == INS:
        out.append(ch)
        return pos, inserts + 1
    if kind == COPY:
        out.append(source[pos])
    elif kind == SUB:
        out.append(ch)
    elif kind != DEL:
        raise ValueError(f"unknown action kind: {kind}")
    return pos + 1, 0


def _training_states(triple, window, history_len):
    """(features, gold action, position, inserts) for each state of one triple."""
    script = align(triple.base, triple.derived)
    pos = 0
    history = []
    inserts = 0
    for kind, ch in script.actions:
        action = (COPY, "") if kind == SUB and ch == triple.base[pos] else (kind, ch)
        yield featurize(triple.base, triple.tag, pos, history, window, history_len, inserts), action, pos, inserts
        pos, inserts = _advance(action, triple.base, pos, history, inserts)
    yield featurize(triple.base, triple.tag, pos, history, window, history_len, inserts), (STOP, ""), pos, inserts


def train_perceptron(data, epochs=10, seed=0, window=3, history_len=2):
    """Averaged perceptron over gold edit actions from aligned triples.

    Feature strings and actions are interned once: the states become one
    ``(states, features per state)`` matrix of feature rows and a vector of
    gold columns. Examples are reshuffled each epoch with a PRNG seeded
    from ``seed``; the returned model is finalized (averaged weights frozen).
    """
    if not data:
        raise ValueError("train_perceptron: empty training data")
    if epochs < 1:
        raise ValueError("train_perceptron: epochs must be >= 1")
    feature_ids, action_ids = {}, {}
    flat_ids, golds, positions, lengths, inserts = array("i"), [], [], [], []
    starts = [0]
    for t in data:
        for feats, action, pos, ins in _training_states(t, window, history_len):
            flat_ids.extend([feature_ids.setdefault(f, len(feature_ids)) for f in feats])
            golds.append(action_ids.setdefault(action, len(action_ids)))
            positions.append(pos)
            lengths.append(len(t.base))
            inserts.append(ins)
        starts.append(len(golds))
    model = PerceptronModel(window=window, history_len=history_len,
                            action_set=sorted(action_ids, key=_action_sort_key),
                            feature_ids=feature_ids)
    column = np.empty(len(action_ids), dtype=np.intp)
    for col, a in enumerate(model.action_set):
        column[action_ids[a]] = col
    ids = np.frombuffer(flat_ids, dtype=np.int32).reshape(len(golds), -1)
    gold = column[golds]
    legal = model.candidates(np.array(positions), np.array(lengths), np.array(inserts))
    legal[np.arange(len(gold)), gold] = True  # an alignment may insert past the cap
    gold = gold.tolist()
    model.start_training(len(feature_ids))
    rng = random.Random(seed)
    order = list(range(len(data)))
    for _ in range(epochs):
        rng.shuffle(order)
        for idx in order:
            for s in range(starts[idx], starts[idx + 1]):
                model.observe(ids[s], gold[s], legal[s])
    return model.finalize()


def decode_greedy(model, base, tag):
    """Apply argmax actions left to right until STOP, or until no action is legal."""
    if model.avg_weights is None:
        raise ValueError("decode_greedy: model not finalized")
    out = []
    pos = 0
    consecutive_ins = 0
    feature_ids = model.feature_ids
    while True:
        legal = model.candidates(pos, len(base), consecutive_ins)
        feats = featurize(base, tag, pos, out, model.window, model.history_len,
                          consecutive_ins)
        rows = [feature_ids[f] for f in feats if f in feature_ids]
        scores = np.add.reduce(model.avg_weights.take(rows, axis=0), axis=0)
        best = int(np.where(legal, scores, -np.inf).argmax())
        if not legal[best]:
            break  # a model read from a file may lack STOP or every edit action
        action = model.action_set[best]
        if action[0] == STOP:
            break
        pos, consecutive_ins = _advance(action, base, pos, out, consecutive_ins)
    return "".join(out)


class BaselineModel:
    """Trained baseline: one shared perceptron, or one per tag."""

    def __init__(self, models, per_tag, window=3, history_len=2, epochs=10, seed=0):
        self.models = models  # tag -> PerceptronModel; key "*" when shared
        self.per_tag = per_tag
        self.window = window
        self.history_len = history_len
        self.epochs = epochs
        self.seed = seed

    def predict(self, base, tag):
        if self.per_tag:
            model = self.models.get(tag)
            if model is None:
                return base  # unseen tag: emit the base unchanged
        else:
            model = self.models["*"]
        return decode_greedy(model, base, tag)


def train_baseline(data, epochs=10, seed=0, window=3, history_len=2, per_tag=False):
    """One perceptron over ``data``, or one per tag; rejects out-of-range settings."""
    if epochs < 1 or window < 0 or history_len < 0:
        raise ValueError("invalid baseline hyperparameters")
    if per_tag:
        groups = {}
        for t in data:
            groups.setdefault(t.tag, []).append(t)
        models = {
            tag: train_perceptron(groups[tag], epochs, seed, window, history_len)
            for tag in sorted(groups)
        }
    else:
        models = {"*": train_perceptron(data, epochs, seed, window, history_len)}
    return BaselineModel(models, per_tag, window, history_len, epochs, seed)


MODEL_FORMAT = "derivgen-perceptron"
MODEL_VERSION = 1


def _action_str(action):
    return f"{action[0]}:{action[1]}"


def _parse_action(s, where):
    kind, _, ch = s.partition(":")
    if kind not in _KIND_ORDER:
        raise ValueError(f"{where}: unknown action kind {s!r}")
    return (kind, ch)


def save_baseline(path, model):
    """Sorted, versioned text format; floats use repr so reload is bit-exact."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"{MODEL_FORMAT} v{MODEL_VERSION} per_tag={int(model.per_tag)} "
            f"window={model.window} history={model.history_len} "
            f"epochs={model.epochs} seed={model.seed}\n"
        )
        for tag in sorted(model.models):
            m = model.models[tag]
            for a in m.action_set:
                fh.write(f"!\t{tag}\t{_action_str(a)}\n")
            for (feat, action), w in sorted(m.averaged.items()):
                fh.write(f"{tag}\t{feat}\t{_action_str(action)}\t{w!r}\n")


_HEADER_KEYS = ("per_tag", "window", "history", "epochs", "seed")


def _read_header(path, line):
    """The integer options of a model file's first line; a line that is not a
    v1 header with every key, or a value that is not an integer, raises
    ValueError naming the file."""
    fields = line.split()
    if fields[:2] != [MODEL_FORMAT, f"v{MODEL_VERSION}"]:
        raise ValueError(f"{path}: not a {MODEL_FORMAT} v{MODEL_VERSION} file")
    opts = {}
    for field in fields[2:]:
        key, eq, value = field.partition("=")
        if not eq:
            raise ValueError(f"{path}:1: header field {field!r} is not key=value")
        opts[key] = value
    for key in _HEADER_KEYS:
        if key not in opts:
            raise ValueError(f"{path}:1: header lacks {key}=")
        try:
            opts[key] = int(opts[key])
        except ValueError:
            raise ValueError(f"{path}:1: header value {key}={opts[key]} is not an integer") from None
    return opts


def load_baseline(path):
    """Inverse of save_baseline; a malformed file, one that is not UTF-8
    text, or a shared model without its '*' section, raises ValueError
    naming the file, and the line where it can."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            opts = _read_header(path, fh.readline())
            window, history_len = opts["window"], opts["history"]
            columns, entries = {}, {}  # per tag: action -> column; (feature, column, weight) rows
            for lineno, line in enumerate(fh, 2):
                parts = line.rstrip("\n").split("\t")
                if parts[0] == "!" and len(parts) == 3:
                    cols = columns.setdefault(parts[1], {})
                    cols.setdefault(_parse_action(parts[2], f"{path}:{lineno}"), len(cols))
                    entries.setdefault(parts[1], [])
                elif len(parts) == 4:
                    tag, feat, action, w = parts
                    col = columns.get(tag, {}).get(_parse_action(action, f"{path}:{lineno}"))
                    if col is None:
                        raise ValueError(f"{path}:{lineno}: action {action!r} is not in the action set of {tag!r}")
                    try:
                        weight = float(w)
                    except ValueError:
                        weight = math.nan
                    if not math.isfinite(weight):
                        raise ValueError(f"{path}:{lineno}: weight {w!r} is not a finite number")
                    entries[tag].append((feat, col, weight))
                else:
                    raise ValueError(f"{path}:{lineno}: malformed model line")
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not UTF-8 text: {e}") from None
    if not opts["per_tag"] and "*" not in columns:
        raise ValueError(f"{path}: a shared model (per_tag=0) has no '*' section")
    models = {}
    for tag, cols in columns.items():
        feature_ids = {}
        rows = [feature_ids.setdefault(feat, len(feature_ids)) for feat, _, _ in entries[tag]]
        avg = np.zeros((len(feature_ids), len(cols)))
        avg[rows, [col for _, col, _ in entries[tag]]] = [w for _, _, w in entries[tag]]
        models[tag] = PerceptronModel(window=window, history_len=history_len, action_set=list(cols),
                                      feature_ids=feature_ids, avg_weights=avg)
    return BaselineModel(
        models,
        per_tag=bool(opts["per_tag"]),
        window=window,
        history_len=history_len,
        epochs=opts["epochs"],
        seed=opts["seed"],
    )
