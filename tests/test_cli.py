import base64
import json
import os

import numpy as np
import pytest

from derivgen import numeric as nm
from derivgen import seq2seq
from derivgen.cli import load_config_file, main
from derivgen.corpus import DatasetSplit, Triple, Vocab, write_split, write_triples
from derivgen.seq2seq import Seq2SeqConfig, Seq2SeqParams, load_model, predict_kbest, save_model
from derivgen.synthetic import generate

BENCH_CHECKPOINT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench", "checkpoint", "s2s-emb32-h64.ckpt")


def run(args):
    return main(args)


@pytest.fixture()
def toy_dataset(tmp_path):
    data = generate(60, seed=0)
    path = tmp_path / "data.tsv"
    write_triples(path, data)
    return path


def make_queries(tmp_path, gold_path, name="queries.tsv"):
    qpath = tmp_path / name
    with open(gold_path, encoding="utf-8") as fh:
        rows = [line.split("\t") for line in fh.read().splitlines()]
    qpath.write_text("".join(f"{b}\t{t}\n" for b, t, _ in rows), encoding="utf-8")
    return qpath


class TestSplit:
    def test_counts_and_files(self, tmp_path, toy_dataset, capsys):
        out = tmp_path / "splits"
        assert run(["split", "--data", str(toy_dataset), "--seed", "3", "--out-dir", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "retained=60 removed=0" in captured
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["counts"] == {"train": 42, "dev": 9, "test": 9}

    def test_removed_counted(self, tmp_path, capsys):
        data = [Triple("abcdef", "T", "abcdefly"), Triple("abc", "T", "zzzzzzz")]
        path = tmp_path / "d.tsv"
        write_triples(path, data)
        out = tmp_path / "s"
        assert run(["split", "--data", str(path), "--seed", "0", "--out-dir", str(out)]) == 0
        assert "removed=1" in capsys.readouterr().out
        assert json.loads((out / "manifest.json").read_text())["removed"] == 1

    def test_rerun_byte_identical(self, tmp_path, toy_dataset):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run(["split", "--data", str(toy_dataset), "--seed", "9", "--out-dir", str(out)])
        for name in ("train.tsv", "dev.tsv", "test.tsv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_missing_file_is_data_error(self, tmp_path):
        assert run(["split", "--data", str(tmp_path / "nope.tsv"), "--out-dir", str(tmp_path / "o")]) == 2

    def test_malformed_line_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tT\tb\nbroken line\n", encoding="utf-8")
        assert run(["split", "--data", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert ":2:" in capsys.readouterr().err


class TestTrainPredictEvaluate:
    def pipeline(self, tmp_path, toy_dataset, kind, extra=()):
        splits = tmp_path / "splits"
        run(["split", "--data", str(toy_dataset), "--seed", "1", "--out-dir", str(splits)])
        model = tmp_path / f"{kind}.model"
        args = ["train", "--kind", kind, "--splits", str(splits), "--model", str(model)]
        if kind == "seq2seq":
            args += ["--emb", "8", "--hidden", "8", "--epochs", "2", "--batch", "10"]
        args += list(extra)
        assert run(args) == 0
        return splits, model

    def test_baseline_end_to_end(self, tmp_path, toy_dataset, capsys):
        splits, model = self.pipeline(tmp_path, toy_dataset, "baseline")
        queries = make_queries(tmp_path, splits / "test.tsv")
        pred = tmp_path / "pred.tsv"
        assert run(["predict", "--model", str(model), "--input", str(queries),
                    "--output", str(pred)]) == 0
        rows = pred.read_text().splitlines()
        assert len(rows) == 9
        assert all(len(r.split("\t")) == 5 for r in rows)
        report_json = tmp_path / "report.json"
        assert run(["evaluate", "--pred", str(pred), "--gold", str(splits / "test.tsv"),
                    "--json", str(report_json)]) == 0
        report = json.loads(report_json.read_text())
        assert 0.0 <= report["accuracy"] <= 1.0
        assert "affix_f1" in report

    def test_baseline_k_greater_one_rejected(self, tmp_path, toy_dataset, capsys):
        splits, model = self.pipeline(tmp_path, toy_dataset, "baseline")
        queries = make_queries(tmp_path, splits / "test.tsv")
        code = run(["predict", "--model", str(model), "--input", str(queries), "--k", "5"])
        assert code == 3
        assert "greedy-only" in capsys.readouterr().err

    def test_seq2seq_kbest_ranks(self, tmp_path, toy_dataset):
        splits, model = self.pipeline(tmp_path, toy_dataset, "seq2seq")
        queries = make_queries(tmp_path, splits / "test.tsv")
        pred = tmp_path / "pred.tsv"
        assert run(["predict", "--model", str(model), "--input", str(queries),
                    "--output", str(pred), "--k", "3", "--beam", "5"]) == 0
        by_query = {}
        for line in pred.read_text().splitlines():
            b, t, rank, p, logp = line.split("\t")
            by_query.setdefault((b, t), []).append(int(rank))
            float(logp)
        for ranks in by_query.values():
            assert ranks == list(range(1, len(ranks) + 1))
            assert len(ranks) <= 3

    def test_seq2seq_predict_in_batches_equals_per_query(self, tmp_path, toy_dataset):
        # the model's batch is 3, so 8 queries decode in batches of 3, 3 and 2
        splits, model = self.pipeline(tmp_path, toy_dataset, "seq2seq", ["--batch", "3"])
        queries = make_queries(tmp_path, splits / "test.tsv")
        rows = queries.read_text(encoding="utf-8").splitlines()[:8]
        queries.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
        pred = tmp_path / "pred.tsv"
        assert run(["predict", "--model", str(model), "--input", str(queries),
                    "--output", str(pred), "--k", "3"]) == 0
        params, vocab, _ = load_model(str(model))
        assert params.config.batch == 3
        want = [f"{b}\t{t}\t{rank}\t{p}\t{logp:.6f}"
                for b, t in (row.split("\t") for row in rows)
                for rank, (p, logp) in enumerate(predict_kbest(params, vocab, b, t, beam=12, k=3), 1)]
        assert pred.read_text(encoding="utf-8").splitlines() == want

    def test_log_header_echoes_recipe_defaults(self, tmp_path, toy_dataset):
        splits = tmp_path / "splits"
        run(["split", "--data", str(toy_dataset), "--seed", "1", "--out-dir", str(splits)])
        model = tmp_path / "m.ckpt"
        # epochs reduced so the test is fast; other recipe values left at defaults
        assert run(["train", "--kind", "seq2seq", "--splits", str(splits),
                    "--model", str(model), "--epochs", "1", "--emb", "300",
                    "--hidden", "100", "--batch", "20", "--beam", "12"]) == 0
        header = (tmp_path / "m.ckpt.log").read_text().splitlines()[0]
        for piece in ("emb=300", "hidden=100", "batch=20", "beam=12"):
            assert piece in header

    def test_evaluate_row_mismatch(self, tmp_path, toy_dataset, capsys):
        splits, model = self.pipeline(tmp_path, toy_dataset, "baseline")
        queries = make_queries(tmp_path, splits / "test.tsv")
        pred = tmp_path / "pred.tsv"
        run(["predict", "--model", str(model), "--input", str(queries), "--output", str(pred)])
        assert run(["evaluate", "--pred", str(pred), "--gold", str(splits / "dev.tsv")]) == 2

    def test_perfect_predictions_score_one(self, tmp_path, toy_dataset, capsys):
        splits = tmp_path / "splits"
        run(["split", "--data", str(toy_dataset), "--seed", "1", "--out-dir", str(splits)])
        gold = splits / "test.tsv"
        pred = tmp_path / "gold_as_pred.tsv"
        with open(gold, encoding="utf-8") as fh:
            rows = [line.split("\t") for line in fh.read().splitlines()]
        pred.write_text("".join(f"{b}\t{t}\t1\t{d}\t0.0\n" for b, t, d in rows), encoding="utf-8")
        rpt = tmp_path / "r.json"
        assert run(["evaluate", "--pred", str(pred), "--gold", str(gold), "--json", str(rpt)]) == 0
        report = json.loads(rpt.read_text())
        assert report["accuracy"] == 1.0
        assert report["avg_edit"] == 0.0
        assert all(row["f1"] == 1.0 for row in report["affix_f1"])

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_evaluate_k_below_one(self, tmp_path, capsys, k):
        gold, pred = tmp_path / "gold.tsv", tmp_path / "pred.tsv"
        gold.write_text("ab\tT\tabx\n", encoding="utf-8")
        pred.write_text("".join(f"ab\tT\t{r}\tab{c}\t0.0\n" for r, c in ((1, "y"), (2, "z"), (3, "x"))),
                        encoding="utf-8")
        assert run(["evaluate", "--pred", str(pred), "--gold", str(gold), "--k", "3"]) == 0
        assert "3-best" in capsys.readouterr().out
        assert run(["evaluate", "--pred", str(pred), "--gold", str(gold), "--k", k]) == 2
        assert capsys.readouterr() == ("", "error: k must be >= 1\n")

    @pytest.mark.parametrize("content, where", [
        (b"-ly\n-\n", ":2: expected one affix, not '-'"),  # the empty affix matches every form
        (b"\n  \n", ": no affixes"),
        (b"-ly\n-n\xe9ss\n", ":2: not UTF-8 text"),
    ], ids=["dash", "blank", "not_utf8"])
    def test_bad_affix_file_names_the_file(self, tmp_path, capsys, content, where):
        gold, pred, affixes = tmp_path / "gold.tsv", tmp_path / "pred.tsv", tmp_path / "affixes.txt"
        gold.write_text("ab\tT\tably\n", encoding="utf-8")
        pred.write_text("ab\tT\t1\tably\t0.0\n", encoding="utf-8")
        args = ["evaluate", "--pred", str(pred), "--gold", str(gold), "--affixes", str(affixes)]
        affixes.write_bytes(b"# suffixes\n-ly\n")
        assert run(args) == 0
        assert "-ly" in capsys.readouterr().out
        affixes.write_bytes(content)
        assert run(args) == 2
        assert capsys.readouterr().err.startswith(f"error: {affixes}{where}")

    def test_invalid_hyperparameters_rejected(self, tmp_path, toy_dataset, capsys):
        splits = tmp_path / "splits"
        run(["split", "--data", str(toy_dataset), "--seed", "1", "--out-dir", str(splits)])
        # a negative clip would train on negated gradients, a zero one not at all
        for bad in (["--epochs", "0"], ["--batch", "0"], ["--clip", "-1"], ["--clip", "0"]):
            capsys.readouterr()
            assert run(["train", "--kind", "seq2seq", "--splits", str(splits),
                        "--model", str(tmp_path / "m"), "--epochs", "1"] + bad) == 2
            assert capsys.readouterr().err.startswith("error: invalid seq2seq hyperparameters")
        # a non-finite eps would make every weight NaN, from a flag or a config file
        cfg = tmp_path / "train.cfg"
        cfg.write_text("eps = nan\n", encoding="utf-8")
        for bad in (["--eps", "nan"], ["--eps", "inf"], ["--config", str(cfg)]):
            capsys.readouterr()
            assert run(["train", "--kind", "seq2seq", "--splits", str(splits),
                        "--model", str(tmp_path / "m"), "--epochs", "1"] + bad) == 2
            assert capsys.readouterr().err.startswith("error: eps must be positive and finite")
        assert not (tmp_path / "m").exists()

    def test_explicit_zero_is_a_value(self, tmp_path, toy_dataset, capsys):
        splits = tmp_path / "splits"
        run(["split", "--data", str(toy_dataset), "--seed", "1", "--out-dir", str(splits)])
        model = tmp_path / "b.model"
        assert run(["train", "--kind", "baseline", "--splits", str(splits), "--model", str(model),
                    "--window", "0", "--history", "0", "--epochs", "1"]) == 0
        header = (tmp_path / "b.model.log").read_text().splitlines()[0]
        assert "window=0 history=0 epochs=1 seed=0" in header
        # the range checks still apply to explicit values
        capsys.readouterr()
        for bad in (["--epochs", "0"], ["--window", "-1"], ["--history", "-1"]):
            assert run(["train", "--kind", "baseline", "--splits", str(splits),
                        "--model", str(model)] + bad) == 2
            assert capsys.readouterr().err == "error: invalid baseline hyperparameters\n"

    @pytest.mark.parametrize("config, values", [
        (None, "window=3 history=2 epochs=10 seed=0"),
        ("window = 2\nhistory = 1\nper_tag = true\nepochs = 1\n", "window=2 history=1 epochs=1 seed=0"),
    ])
    def test_baseline_log_and_model_headers(self, tmp_path, toy_dataset, config, values):
        extra = []
        if config is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config, encoding="utf-8")
            extra = ["--config", str(cfg)]
        _, model = self.pipeline(tmp_path, toy_dataset, "baseline", extra)
        per_tag = int(config is not None)
        log_header = (tmp_path / "baseline.model.log").read_text().splitlines()[0]
        assert log_header == f"model=baseline {values} per_tag={per_tag}"
        model_header = model.read_text().splitlines()[0]
        assert model_header == f"derivgen-perceptron v1 per_tag={per_tag} {values}"

    def test_blank_comment_and_gold_rows_in_queries(self, tmp_path, toy_dataset):
        splits, model = self.pipeline(tmp_path, toy_dataset, "baseline")
        plain = make_queries(tmp_path, splits / "test.tsv")
        gold = (splits / "test.tsv").read_text(encoding="utf-8")
        messy = tmp_path / "messy.tsv"
        messy.write_text("\n# a comment\n" + gold, encoding="utf-8")  # base, tag and derived columns
        outputs = []
        for queries in (plain, messy):
            pred = tmp_path / f"{queries.stem}.pred.tsv"
            assert run(["predict", "--model", str(model), "--input", str(queries),
                        "--output", str(pred)]) == 0
            outputs.append(pred.read_text(encoding="utf-8"))
        assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) == len(gold.splitlines())

    def test_short_query_and_long_prediction_rows_name_the_line(self, tmp_path, toy_dataset, capsys):
        splits, model = self.pipeline(tmp_path, toy_dataset, "baseline")
        queries = tmp_path / "q.tsv"
        queries.write_text("abc\tT\nabc\n", encoding="utf-8")
        assert run(["predict", "--model", str(model), "--input", str(queries)]) == 2
        assert f"{queries}:2:" in capsys.readouterr().err
        # a '#' line is skipped, so the bad row is the third line, not the first
        pred = tmp_path / "p.tsv"
        pred.write_text("# a comment\nabc\tT\t1\tabcx\t0.0\nabc\tT\t2\tabcy\n", encoding="utf-8")
        assert run(["evaluate", "--pred", str(pred), "--gold", str(splits / "test.tsv")]) == 2
        assert f"{pred}:3:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["baseline", "seq2seq"])
    def test_empty_base_or_tag_names_the_line(self, tmp_path, toy_dataset, capsys, kind):
        _, model = self.pipeline(tmp_path, toy_dataset, kind)
        queries = tmp_path / "q.tsv"
        for row, field in (("\tADVERB", "base"), ("abc\t", "tag"), ("\t", "base")):
            capsys.readouterr()
            queries.write_text(f"abc\tADVERB\n{row}\n", encoding="utf-8")
            assert run(["predict", "--model", str(model), "--input", str(queries)]) == 2
            out, err = capsys.readouterr()
            assert f"{queries}:2: {field} must be non-empty" in err
            assert out == ""

    def test_unallocatable_sizes_are_data_error(self, tmp_path, toy_dataset, capsys):
        # 2**51 float64 columns per embedding row are beyond any 57-bit address
        # space (a MemoryError), and att_W's 2**90 elements at hidden 2**45 beyond
        # numpy's largest array size (a ValueError): numpy refuses either at once
        # and allocates nothing
        splits = tmp_path / "splits"
        run(["split", "--data", str(toy_dataset), "--seed", "1", "--out-dir", str(splits)])
        capsys.readouterr()
        for emb, hidden in ((2 ** 51, 4), (4, 2 ** 45)):
            assert run(["train", "--kind", "seq2seq", "--splits", str(splits),
                        "--model", str(tmp_path / "m"), "--emb", str(emb), "--hidden", str(hidden),
                        "--epochs", "1"]) == 2
            err = capsys.readouterr().err
            assert f"cannot allocate a model of emb={emb} hidden={hidden}" in err
            assert not (tmp_path / "m").exists()

    def test_dev_tag_unseen_in_training_is_data_error(self, tmp_path, capsys, monkeypatch):
        splits = tmp_path / "splits"
        write_split(splits, DatasetSplit(
            (Triple("walk", "AGENT", "walker"), Triple("talk", "AGENT", "talker"),
             Triple("bold", "ADVERB", "boldly")),
            (Triple("kind", "NOMINAL", "kindness"),), (), seed=0))

        def no_epoch(*args):
            raise AssertionError("a training batch ran")

        monkeypatch.setattr(seq2seq, "sequence_loss", no_epoch)
        assert run(["train", "--kind", "seq2seq", "--splits", str(splits), "--model",
                    str(tmp_path / "m"), "--emb", "4", "--hidden", "4", "--epochs", "1"]) == 2
        err = capsys.readouterr().err
        assert "kind\tNOMINAL\tkindness" in err and "'NOMINAL'" in err
        assert not (tmp_path / "m").exists()

    def test_missing_splits_is_data_error(self, tmp_path):
        assert run(["train", "--kind", "baseline", "--splits", str(tmp_path / "none"),
                    "--model", str(tmp_path / "m")]) == 2

    def test_non_integer_rank_names_the_line(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        gold.write_text("abc\tT\tabcx\n", encoding="utf-8")
        pred = tmp_path / "p.tsv"
        pred.write_text("abc\tT\tx\tabcx\t0.0\n", encoding="utf-8")
        assert run(["evaluate", "--pred", str(pred), "--gold", str(gold)]) == 2
        err = capsys.readouterr().err
        assert f"{pred}:1:" in err and "'x'" in err

    @pytest.mark.parametrize("k", ["1", "2"])
    def test_repeated_query_is_evaluated_twice(self, tmp_path, toy_dataset, capsys, k):
        # predict writes one block of rows per query line, repeats included
        splits, model = tmp_path / "splits", tmp_path / "m.ckpt"
        run(["split", "--data", str(toy_dataset), "--seed", "0", "--out-dir", str(splits)])
        assert run(["train", "--kind", "seq2seq", "--splits", str(splits), "--model", str(model),
                    "--emb", "4", "--hidden", "4", "--epochs", "1"]) == 0
        gold = tmp_path / "gold.tsv"
        gold.write_text("abc\tADVERB\tabcly\nabc\tADVERB\tabcly\nab\tAGENT\tabber\n",
                        encoding="utf-8")
        pred = tmp_path / "pred.tsv"
        assert run(["predict", "--model", str(model), "--input", str(gold), "--output", str(pred),
                    "--k", k]) == 0
        assert len(pred.read_text(encoding="utf-8").splitlines()) == 3 * int(k)
        capsys.readouterr()
        assert run(["evaluate", "--pred", str(pred), "--gold", str(gold)]) == 0
        assert capsys.readouterr().err == ""


def _corrupt_checkpoint(path, params, vocab):
    text = path.read_text(encoding="utf-8")
    path.write_text(text[:26] + "\x01" + text[27:], encoding="utf-8")


def _truncate_checkpoint(path, params, vocab):
    path.write_text(path.read_text(encoding="utf-8")[:100], encoding="utf-8")


def _wrong_shape(path, params, vocab):
    params.tensors["att_U"] = nm.parameter(np.zeros((3, 5)))
    save_model(str(path), params, vocab)


def _missing_tensor(path, params, vocab):
    del params.tensors["out_b2"]
    save_model(str(path), params, vocab)


def _stacked_name(path, params, vocab):
    # the file holds each GRU as nine per-gate tensors, never a stacked one
    payload = json.loads(path.read_text(encoding="utf-8"))
    w = params["enc_f_W"].values
    payload["params"]["enc_f_W"] = {"shape": list(w.shape), "dtype": "<f8",
                                    "data": base64.b64encode(w.tobytes()).decode("ascii")}
    path.write_text(json.dumps(payload), encoding="utf-8")


def _set_sidecar_config(path, **values):
    sidecar = path.parent / (path.name + ".meta.json")
    meta = json.loads(sidecar.read_text(encoding="utf-8"))
    meta["config"].update(values)
    sidecar.write_text(json.dumps(meta), encoding="utf-8")


def _sidecar_disagrees(path, params, vocab):
    _set_sidecar_config(path, hidden=5)


def _float_size_in_sidecar(path, params, vocab):
    _set_sidecar_config(path, hidden=3.0)  # the right size, but not an integer


def _corrupt_sidecar(path, params, vocab):
    (path.parent / (path.name + ".meta.json")).write_text("{not json", encoding="utf-8")


def _fractional_beam(path, params, vocab):
    _set_sidecar_config(path, beam=2.5)


def _fractional_max_extra(path, params, vocab):
    _set_sidecar_config(path, max_extra=1.5)


def _negative_max_extra(path, params, vocab):
    _set_sidecar_config(path, max_extra=-20)  # a length cap below 1 for every query


def _zero_batch(path, params, vocab):
    _set_sidecar_config(path, batch=0)  # predict decodes in batches of this many queries


def _nan_in_checkpoint(path, params, vocab):
    params["out_b2"].values[0] = np.nan  # every hypothesis would score NaN
    save_model(str(path), params, vocab)


def _not_utf8_checkpoint(path, params, vocab):
    path.write_bytes(b"\xff\xfe" + path.read_bytes())


class TestModelFiles:
    """A seq2seq model file that cannot be read, or does not fit the model its
    sidecar describes, is a model error (exit 3) naming the file."""

    @staticmethod
    def predict(model, tmp_path, queries="ab\tT\nba\tT\n"):
        path = tmp_path / "q.tsv"
        path.write_text(queries, encoding="utf-8")
        return run(["predict", "--model", str(model), "--input", str(path), "--k", "2"])

    @staticmethod
    def saved(tmp_path):
        vocab = Vocab(list("ab"), ["T"])
        params = Seq2SeqParams(len(vocab), Seq2SeqConfig(emb=4, hidden=3, seed=2))
        path = tmp_path / "m.ckpt"
        save_model(str(path), params, vocab)
        return path, params, vocab

    def test_intact_model_predicts(self, tmp_path, capsys):
        path, _, _ = self.saved(tmp_path)
        assert self.predict(path, tmp_path) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4

    @pytest.mark.parametrize("damage, names", [
        (_corrupt_checkpoint, ("m.ckpt", "unreadable checkpoint")),
        (_truncate_checkpoint, ("m.ckpt", "unreadable checkpoint")),
        (_wrong_shape, ("m.ckpt", "att_U", "(3, 5)", "(3, 6)")),
        (_missing_tensor, ("m.ckpt", "out_b2", "missing")),
        (_sidecar_disagrees, ("m.ckpt", "m.ckpt.meta.json")),
        (_corrupt_sidecar, ("m.ckpt.meta.json",)),
        (_stacked_name, ("m.ckpt", "enc_f_W", "not a model tensor")),
        (_float_size_in_sidecar, ("m.ckpt.meta.json", "unreadable model sidecar")),
        (_fractional_beam, ("m.ckpt.meta.json", "unreadable model sidecar")),
        (_fractional_max_extra, ("m.ckpt.meta.json", "unreadable model sidecar")),
        (_negative_max_extra, ("m.ckpt.meta.json", "unreadable model sidecar")),
        (_zero_batch, ("m.ckpt.meta.json", "unreadable model sidecar")),
        (_not_utf8_checkpoint, ("m.ckpt", "unreadable checkpoint")),
        (_nan_in_checkpoint, ("m.ckpt", "out_b2", "non-finite")),
    ])
    def test_damaged_model_is_model_error(self, tmp_path, capsys, damage, names):
        path, params, vocab = self.saved(tmp_path)
        damage(path, params, vocab)
        assert self.predict(path, tmp_path) == 3
        err = capsys.readouterr().err
        assert str(path) in err
        for name in names:
            assert name in err

    def test_committed_benchmark_checkpoint_loads(self, tmp_path, capsys):
        assert self.predict(BENCH_CHECKPOINT, tmp_path, "bold\tADVERB\nbead\tAGENT\n") == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert [r[2] for r in rows] == ["1", "2", "1", "2"]

    def test_committed_benchmark_checkpoint_resaves_byte_identical(self, tmp_path):
        params, vocab, meta = load_model(BENCH_CHECKPOINT)
        path = tmp_path / "m.ckpt"
        save_model(str(path), params, vocab, meta)
        for suffix in ("", ".meta.json"):
            with open(BENCH_CHECKPOINT + suffix, "rb") as fh:
                assert (tmp_path / ("m.ckpt" + suffix)).read_bytes() == fh.read()


class TestPredictArguments:
    """Bad predict input is a data error (exit 2), found before any decoding."""

    @pytest.mark.parametrize("beam", ["0", "-3"])
    def test_beam_below_one(self, tmp_path, capsys, beam):
        path, _, _ = TestModelFiles.saved(tmp_path)
        queries = tmp_path / "q.tsv"
        queries.write_text("ab\tT\n", encoding="utf-8")
        assert run(["predict", "--model", str(path), "--input", str(queries), "--beam", beam]) == 2
        assert "beam must be >= 1" in capsys.readouterr().err

    def test_unknown_tag_names_the_line(self, tmp_path, capsys):
        path, _, _ = TestModelFiles.saved(tmp_path)
        assert TestModelFiles.predict(path, tmp_path, "ab\tT\n# a comment\nba\tNOPE\n") == 2
        out, err = capsys.readouterr()
        assert f"{tmp_path / 'q.tsv'}:3: unknown tag: 'NOPE'" in err
        assert out == ""

    def test_unknown_character_names_the_line(self, tmp_path, capsys):
        # the encoder would read it as <unk>, which no output can contain
        path, _, _ = TestModelFiles.saved(tmp_path)
        assert TestModelFiles.predict(path, tmp_path, "ab\tT\nabé\tT\n") == 2
        out, err = capsys.readouterr()
        assert f"{tmp_path / 'q.tsv'}:2: unknown character: 'é'" in err
        assert out == ""


BASELINE_V1 = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "baseline_v1.model")


def _drop_header_key(lines):
    lines[0] = lines[0].replace(" window=3", "")


def _one_token_header(lines):
    lines[0] = "derivgen-perceptron"


def _header_token_without_equals(lines):
    lines[0] = lines[0].replace("window=3", "window3")


def _non_numeric_weight(lines):
    i = next(i for i, line in enumerate(lines) if not line.startswith("!") and i)
    lines[i] = lines[i].rsplit("\t", 1)[0] + "\tabc"


def _nan_weight(lines):
    i = next(i for i, line in enumerate(lines) if not line.startswith("!") and i)
    lines[i] = lines[i].rsplit("\t", 1)[0] + "\tnan"


def _non_integer_header_value(lines):
    lines[0] = lines[0].replace("window=3", "window=x")


def _unknown_action_kind(lines):
    lines[1] = lines[1].replace("copy:", "copy2:")


def _not_utf8_after_header(lines):
    lines[1] = "\udcff" + lines[1]  # written as the byte 0xff


def _header_only(lines):
    del lines[1:]


def _sections_under_a_tag(lines):
    for i, line in enumerate(lines[1:], 1):  # the shared "*" sections become T's
        parts = line.split("\t")
        parts[parts[0] == "!"] = "T"
        lines[i] = "\t".join(parts)


class TestBaselineModelFiles:
    """A baseline model file with a bad header or weight is a model error
    (exit 3) naming the file, and the line where it can."""

    @pytest.mark.parametrize("damage, names", [
        (_drop_header_key, (":1:", "window")),
        (_one_token_header, ("not a derivgen-perceptron v1 file",)),
        (_header_token_without_equals, (":1:", "'window3'")),
        (_non_numeric_weight, (":11:", "'abc'")),  # the file's first weight line
        (_unknown_action_kind, (":2:", "'copy2:'")),
        (_non_integer_header_value, (":1:", "window=x")),
        (_not_utf8_after_header, ("not UTF-8 text",)),
        (_header_only, ("per_tag=0", "'*'")),
        (_sections_under_a_tag, ("per_tag=0", "'*'")),
        (_nan_weight, (":11:", "'nan'")),  # the file's first weight line
    ])
    def test_damaged_baseline_is_model_error(self, tmp_path, capsys, damage, names):
        with open(BASELINE_V1, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        damage(lines)
        model = tmp_path / "m.model"
        model.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
        queries = tmp_path / "q.tsv"
        queries.write_text("take\tAGENT\n", encoding="utf-8")
        assert run(["predict", "--model", str(model), "--input", str(queries)]) == 3
        err = capsys.readouterr().err
        assert str(model) in err
        for name in names:
            assert name in err

    def test_intact_baseline_predicts(self, tmp_path, capsys):
        queries = tmp_path / "q.tsv"
        queries.write_text("take\tAGENT\n", encoding="utf-8")
        assert run(["predict", "--model", BASELINE_V1, "--input", str(queries)]) == 0
        assert capsys.readouterr().out == "take\tAGENT\t1\ttaker\t0.000000\n"


class TestConfigFile:
    def test_config_supplies_values_flags_override(self, tmp_path, toy_dataset):
        splits = tmp_path / "splits"
        run(["split", "--data", str(toy_dataset), "--seed", "1", "--out-dir", str(splits)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("emb = 16\nhidden = 8\nepochs = 5\nbatch = 10\n", encoding="utf-8")
        model = tmp_path / "m.ckpt"
        assert run(["train", "--kind", "seq2seq", "--splits", str(splits),
                    "--model", str(model), "--config", str(cfg), "--epochs", "1"]) == 0
        header = (tmp_path / "m.ckpt.log").read_text().splitlines()[0]
        assert "emb=16" in header      # from the file
        assert "epochs=1" in header    # flag wins over file

    def test_env_var_default(self, tmp_path, toy_dataset, monkeypatch):
        splits = tmp_path / "splits"
        run(["split", "--data", str(toy_dataset), "--seed", "1", "--out-dir", str(splits)])
        cfg = tmp_path / "env.cfg"
        cfg.write_text("emb = 12\nhidden = 6\nepochs = 1\nbatch = 10\n", encoding="utf-8")
        monkeypatch.setenv("DERIVGEN_CONFIG", str(cfg))
        model = tmp_path / "m.ckpt"
        assert run(["train", "--kind", "seq2seq", "--splits", str(splits),
                    "--model", str(model)]) == 0
        assert "emb=12" in (tmp_path / "m.ckpt.log").read_text().splitlines()[0]

    def test_malformed_config(self, tmp_path, toy_dataset):
        splits = tmp_path / "splits"
        run(["split", "--data", str(toy_dataset), "--seed", "1", "--out-dir", str(splits)])
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not key value\n", encoding="utf-8")
        assert run(["train", "--kind", "seq2seq", "--splits", str(splits),
                    "--model", str(tmp_path / "m"), "--config", str(cfg)]) == 2


    @pytest.mark.parametrize("text, where, names", [
        ('emb = 16\nemb = "x"\n', ":2:", ("emb", "an integer")),
        ("hidden = 8\nper_tag = 3\n", ":2:", ("per_tag", "true or false")),
        ("rho = fast\n", ":1:", ("rho", "a number")),
        ("emb = 16\nwindoww = 5\n", ":2:", ("unknown key", "windoww")),
    ])
    def test_bad_config_value_or_key_names_the_line(self, tmp_path, toy_dataset, capsys, text, where, names):
        splits = tmp_path / "splits"
        run(["split", "--data", str(toy_dataset), "--seed", "1", "--out-dir", str(splits)])
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text, encoding="utf-8")
        for kind in ("seq2seq", "baseline"):
            assert run(["train", "--kind", kind, "--splits", str(splits),
                        "--model", str(tmp_path / "m"), "--config", str(cfg)]) == 2
            err = capsys.readouterr().err
            assert f"{cfg}{where}" in err
            for name in names:
                assert name in err

    def test_none_leaves_a_key_unset(self, tmp_path, toy_dataset):
        splits = tmp_path / "splits"
        run(["split", "--data", str(toy_dataset), "--seed", "1", "--out-dir", str(splits)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("emb = none\nhidden = 6\nepochs = 1\nbatch = 10\nclip = none\n", encoding="utf-8")
        model = tmp_path / "m.ckpt"
        assert run(["train", "--kind", "seq2seq", "--splits", str(splits),
                    "--model", str(model), "--config", str(cfg)]) == 0
        assert "emb=300" in (tmp_path / "m.ckpt.log").read_text().splitlines()[0]


    def test_each_value_takes_its_key_type(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps = 1\nrho = 0.5\nemb = 8\nper_tag = True\nclip = null\n", encoding="utf-8")
        values = load_config_file(str(cfg))
        assert values == {"eps": 1.0, "rho": 0.5, "emb": 8, "per_tag": True, "clip": None}
        assert type(values["eps"]) is float


class TestMissingFiles:
    """A named input file that does not exist is a data error (exit 2) naming it."""

    def test_predict_input(self, tmp_path, capsys):
        missing = tmp_path / "queries.tsv"
        assert run(["predict", "--model", str(tmp_path / "m"), "--input", str(missing)]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_evaluate_pred_and_gold(self, tmp_path, capsys):
        pred, gold = tmp_path / "pred.tsv", tmp_path / "gold.tsv"
        assert run(["evaluate", "--pred", str(pred), "--gold", str(gold)]) == 2
        assert str(pred) in capsys.readouterr().err
        pred.write_text("ab\tT\t1\tabx\t0.0\n", encoding="utf-8")
        assert run(["evaluate", "--pred", str(pred), "--gold", str(gold)]) == 2
        assert str(gold) in capsys.readouterr().err

    def test_config_file(self, tmp_path, toy_dataset, capsys):
        splits = tmp_path / "splits"
        run(["split", "--data", str(toy_dataset), "--seed", "1", "--out-dir", str(splits)])
        missing = tmp_path / "run.cfg"
        assert run(["train", "--kind", "baseline", "--splits", str(splits),
                    "--model", str(tmp_path / "m"), "--config", str(missing)]) == 2
        assert str(missing) in capsys.readouterr().err


class TestInputEncoding:
    @pytest.mark.parametrize("command", ["split", "predict", "evaluate", "train"])
    def test_tsv_not_utf8_names_the_line(self, tmp_path, toy_dataset, capsys, command):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"# triples\ncaf\xe9\tAGENT\tcafer\n")
        splits = tmp_path / "splits"
        if command == "train":  # the bad file as its config
            assert run(["split", "--data", str(toy_dataset), "--out-dir", str(splits)]) == 0
        args = {"split": ["split", "--data", str(bad), "--out-dir", str(splits)],
                "predict": ["predict", "--model", BASELINE_V1, "--input", str(bad)],
                "evaluate": ["evaluate", "--pred", str(bad), "--gold", str(bad)],
                "train": ["train", "--kind", "baseline", "--splits", str(splits),
                          "--model", str(tmp_path / "m"), "--config", str(bad)]}[command]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert f"{bad}:2: not UTF-8 text: 'utf-8' codec can't decode byte 0xe9" in err


class TestUsage:
    def test_unknown_command_is_usage_error(self):
        assert run(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert run(["split"]) == 1
