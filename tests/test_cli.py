import dataclasses
import json

import numpy as np
import pytest

from pacedrank import gradcheck
from pacedrank.cli import GRADCHECK_TOLERANCE, main
from pacedrank.data import SplitSpec, load_features, save_features, split_indices
from pacedrank.evaluation import mean_ap, retrieve
from pacedrank.gradcheck import run_gradient_check
from pacedrank.trainer import (
    Checkpoint,
    CHECKPOINT_VERSION,
    TrainConfig,
    init_params,
    load_checkpoint,
    save_checkpoint,
)


def write_config(tmp_path, **overrides):
    config = {
        "output_dir": str(tmp_path / "run"),
        "data": {"synth": {"n": 24, "latent": 3, "p": 6, "q": 6, "noise": 0.1, "seed": 1}},
        "split": {"train": 0.5, "validation": 0.25, "test": 0.25, "seed": 1},
        "train": {"embedding_dim": 4, "max_outer_iters": 3, "seed": 1},
        "eval": {"direction": "i2t", "r": "all", "mode": "by_relevant"},
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path, config


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--help"],
        ["eval", "--help"],
        ["retrieve", "--help"],
        ["gradcheck", "--help"],
        ["synth", "--help"],
    ],
)
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


USAGE_ERRORS = {
    "no-command": [],
    "unknown-command": ["serve"],
    "missing-required": ["eval", "--checkpoint", "x"],
    "bad-choice": ["eval", "--checkpoint", "c", "--images", "i", "--texts", "t", "--direction", "x2y"],
    "bad-int": ["retrieve", "--checkpoint", "c", "--query", "q", "--corpus", "c", "--top-k", "abc"],
    "unknown-option": ["gradcheck", "--seeds", "1"],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_error_exits_one(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1  # 2 is a runtime failure
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert err[0].startswith("usage: pacedrank")
    assert err[-1].startswith("pacedrank") and ": error: " in err[-1]


class TestSynthCommand:
    def test_writes_files_with_n_rows(self, tmp_path):
        out = tmp_path / "corpus"
        code = main(
            ["synth", "--n", "10", "--p", "4", "--q", "5", "--latent", "2",
             "--noise", "0.1", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        images = load_features(out / "images.txt")
        texts = load_features(out / "texts.txt")
        assert images.shape == (10, 4)
        assert texts.shape == (10, 5)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n"] == 10

    def test_same_seed_identical_bytes(self, tmp_path):
        args = ["synth", "--n", "8", "--p", "3", "--q", "3", "--latent", "2",
                "--noise", "0.2", "--seed", "9"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        for name in ("images.txt", "texts.txt", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_hard_fraction_writes_ids(self, tmp_path):
        out = tmp_path / "c"
        code = main(
            ["synth", "--n", "10", "--p", "4", "--q", "4", "--latent", "2",
             "--noise", "0.1", "--seed", "0", "--hard-fraction", "0.5", "--out", str(out)]
        )
        assert code == 0
        ids = (out / "ids.txt").read_text().strip().splitlines()
        assert sum(s.endswith(":hard") for s in ids) == 5

    def test_invalid_spec_exits_one(self, tmp_path, capsys):
        code = main(
            ["synth", "--n", "10", "--p", "2", "--q", "2", "--latent", "5",
             "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(
            ["synth", "--n", "10", "--p", "2", "--q", "2", "--latent", "1", "--seed", "-1", "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: seed must be a nonnegative integer")
        assert not out.exists()


class TestTrainCommand:
    def test_successful_run_writes_artifacts(self, tmp_path):
        path, config = write_config(tmp_path)
        assert main(["train", "--config", str(path)]) == 0
        run = tmp_path / "run"
        assert (run / "checkpoint.bin").exists()
        history = (run / "history.csv").read_text().strip().splitlines()
        assert history[0] == "iteration,objective,lambda,gamma,selected_fraction,val_map"
        assert len(history) - 1 <= config["train"]["max_outer_iters"]
        summary = json.loads((run / "summary.json").read_text())
        assert 0.0 <= summary["test_map_i2t"] <= 1.0
        split_lines = (run / "split.txt").read_text().strip().splitlines()
        assert [ln.split()[0] for ln in split_lines] == ["train", "validation", "test"]

    def test_split_file_bytes_equal_per_index_writer(self, tmp_path):
        path, config = write_config(tmp_path, train={"embedding_dim": 2, "max_outer_iters": 1})
        assert main(["train", "--config", str(path)]) == 0
        parts = split_indices(config["data"]["synth"]["n"], SplitSpec(**config["split"]))
        want = "".join(
            name + " " + " ".join(str(int(i)) for i in idx) + "\n"
            for name, idx in zip(("train", "validation", "test"), parts)
        )
        assert (tmp_path / "run" / "split.txt").read_bytes() == want.encode()

    def test_saturated_cosine_rows_exit_two(self, tmp_path, capsys):
        # features times 1e150 saturate the sigmoid: some embedded row squares to a
        # norm of 0, so cosine scores are undefined (a runtime failure, not bad input)
        rng = np.random.default_rng(0)
        paths = {}
        for side in ("images", "texts"):
            paths[side] = str(tmp_path / f"{side}.txt")
            save_features(paths[side], rng.standard_normal((30, 5)) * 1e150)
        train = {"embedding_dim": 3, "max_outer_iters": 2, "seed": 1}
        path, _ = write_config(tmp_path, data=paths, train=dict(train, normalized_similarity=True))
        assert main(["train", "--config", str(path)]) == 2
        assert "row norm" in capsys.readouterr().err
        path, _ = write_config(tmp_path, data=paths, train=train)
        assert main(["train", "--config", str(path)]) == 0  # raw scores still train

    def test_overflowing_gradient_norm_exits_two(self, tmp_path, capsys):
        # features times 1e300 with raw scores: the gradient is finite but its squared
        # norm overflows, so no line-search trial could pass (a runtime failure)
        rng = np.random.default_rng(0)
        paths = {}
        for side in ("images", "texts"):
            paths[side] = str(tmp_path / f"{side}.txt")
            save_features(paths[side], rng.standard_normal((30, 5)) * 1e300)
        path, _ = write_config(tmp_path, data=paths, train={"embedding_dim": 3, "max_outer_iters": 2, "seed": 1})
        assert main(["train", "--config", str(path)]) == 2
        assert "squared norm overflows" in capsys.readouterr().err

    def test_overflowing_pacing_growth_exits_one_before_training(self, tmp_path, capsys):
        train = {"embedding_dim": 4, "max_outer_iters": 5, "seed": 1, "lam_growth": 1e300}
        path, _ = write_config(tmp_path, train=train)
        assert main(["train", "--config", str(path)]) == 1
        assert "lam_growth = 1e+300 overflows the pacing" in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoint.bin").exists()

    def test_missing_config_exits_one(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_non_utf8_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"output_dir": "r\xe9sum\xe9"}')
        assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {path} is not UTF-8 text")
        assert len(err.splitlines()) == 1

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        config = json.loads(path.read_text())
        config["trian"] = {}
        path.write_text(json.dumps(config))
        assert main(["train", "--config", str(path)]) == 1
        assert "trian" in capsys.readouterr().err

    def test_unknown_train_key_exits_one(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        assert main(["train", "--config", str(path), "--set", "train.learning_rate=0.1"]) == 1
        assert "learning_rate" in capsys.readouterr().err

    @pytest.mark.parametrize("config, override", [([1, 2], "a=1"), ("x", "a.b=1")], ids=["list", "string"])
    def test_non_object_config_with_override_exits_one(self, tmp_path, capsys, config, override):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["train", "--config", str(path), "--set", override]) == 1
        assert capsys.readouterr().err == "error: config must be a JSON object\n"

    def test_set_override_applies(self, tmp_path):
        path, _ = write_config(tmp_path)
        assert main(["train", "--config", str(path), "--set", "train.max_outer_iters=1"]) == 0
        history = (tmp_path / "run" / "history.csv").read_text().strip().splitlines()
        assert len(history) - 1 == 1

    def test_overrides_do_not_carry_to_the_next_run(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        assert main(["train", "--config", str(path), "--set", "a=1", "--set", "b=2"]) == 1
        assert capsys.readouterr().err == "error: unknown keys in config: ['a', 'b']\n"
        assert main(["train", "--config", str(path)]) == 0

    @pytest.mark.parametrize(
        "section, value",
        [
            ("data", {"synth": {"latent": 3, "p": 6, "q": 6}}),
            ("data", {"synth": {"n": 24.5, "latent": 3, "p": 6, "q": 6}}),
            ("train", {"embedding_dim": "4"}),
            ("split", {"train": "half", "validation": 0.25, "test": 0.25}),
            ("split", {"train": 0.5, "validation": 0.25, "test": 0.25, "seed": "1"}),
            ("split", {"train": 0.5, "validation": 0.25, "test": 0.25, "seed": 1.5}),
            ("split", {"train": 0.5, "validation": 0.25, "test": 0.25, "seed": True}),
            ("split", {"train": 0.5, "validation": 0.25, "test": 0.25, "seed": -1}),
            ("data", {"synth": {"n": 24, "latent": 3, "p": 6, "q": 6, "seed": -2}}),
            ("data", {"synth": {"n": 24, "latent": 3, "p": 6, "q": 6, "seed": True}}),
        ],
        ids=[
            "synth-without-n", "synth-float-n", "train-string-dim", "split-string-fraction",
            "split-string-seed", "split-float-seed", "split-bool-seed", "split-negative-seed",
            "synth-negative-seed", "synth-bool-seed",
        ],
    )
    def test_malformed_section_exits_one(self, tmp_path, capsys, section, value):
        path, _ = write_config(tmp_path, **{section: value})
        assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid ")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("normalized_similarity", "false"),
            ("symmetric_tetrads", 1),
            ("max_outer_iters", 2.5),
            ("embedding_dim", 4.0),
            ("max_inner_steps", True),
            ("seed", "1"),
            ("sample_negatives", 3.0),
            ("early_stop_patience", 2.5),
            ("seed", -1),
            ("margin", True),
            ("margin", float("inf")),
            ("gamma_ratio", float("nan")),
            ("lam_growth", float("nan")),
            ("lam_growth", float("inf")),
            ("rel_tol", float("inf")),
            pytest.param("margin", 10**400, id="margin-int-beyond-float"),
        ],
    )
    def test_mistyped_train_value_exits_one_before_training(self, tmp_path, capsys, key, value):
        path, _ = write_config(tmp_path, train={"embedding_dim": 4, "max_outer_iters": 3, "seed": 1, key: value})
        assert main(["train", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: invalid train section: " + key)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key, raw", [("noise", "true"), ("n", "24.0"), ("latent", "false")])
    def test_mistyped_synth_override_exits_one_before_writing(self, tmp_path, capsys, key, raw):
        path, _ = write_config(tmp_path)
        assert main(["train", "--config", str(path), "--set", f"data.synth.{key}={raw}"]) == 1
        assert capsys.readouterr().err.startswith("error: invalid data.synth section: " + key)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "section, value",
        [
            # the 24 pairs split into 12 training pairs: at most 11 negatives per query
            ("train", {"embedding_dim": 4, "max_outer_iters": 3, "seed": 1, "sample_negatives": 12}),
            ("train", {"embedding_dim": 4, "max_outer_iters": 3, "seed": 1, "sample_negatives": 30}),
            ("split", {"train": 0.9, "validation": 0.02, "test": 0.08, "seed": 1}),
        ],
        ids=["sample-equals-split", "sample-above-split", "empty-validation-split"],
    )
    def test_config_too_large_for_split_exits_one_before_writing(self, tmp_path, capsys, section, value):
        path, _ = write_config(tmp_path, **{section: value})
        assert main(["train", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "key, value", [("direction", "x2y"), ("r", "ten"), ("r", 2.7), ("r", True), ("mode", "nope")]
    )
    def test_bad_eval_value_exits_one_before_training(self, tmp_path, key, value):
        eval_sec = {"direction": "i2t", "r": "all", "mode": "by_relevant", key: value}
        path, _ = write_config(tmp_path, eval=eval_sec)
        assert main(["train", "--config", str(path)]) == 1
        assert not (tmp_path / "run" / "checkpoint.bin").exists()

    def test_rerun_byte_identical(self, tmp_path):
        path_a, _ = write_config(tmp_path, output_dir=str(tmp_path / "a"))
        main(["train", "--config", str(path_a)])
        path_b, _ = write_config(tmp_path, output_dir=str(tmp_path / "b"))
        main(["train", "--config", str(path_b)])
        for name in ("checkpoint.bin", "history.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def perfect_fixture(tmp_path):
    """Identity-feature corpus on which the aligned pair always ranks first."""
    n = 4
    eye = np.eye(n)
    from pacedrank.data import save_features

    save_features(tmp_path / "imgs.txt", eye)
    save_features(tmp_path / "txts.txt", eye)
    from pacedrank.core import EmbeddingParams

    params = EmbeddingParams.from_arrays(5.0 * eye, np.zeros(n), 5.0 * eye, np.zeros(n))
    cfg = TrainConfig(embedding_dim=n, seed=0)
    ckpt = Checkpoint(CHECKPOINT_VERSION, params, cfg, 0, 0)
    save_checkpoint(tmp_path / "ckpt.bin", ckpt)
    return tmp_path / "ckpt.bin", tmp_path / "imgs.txt", tmp_path / "txts.txt"


class TestEvalCommand:
    def test_perfect_fixture_prints_one(self, tmp_path, capsys):
        ckpt, imgs, txts = perfect_fixture(tmp_path)
        code = main(
            ["eval", "--checkpoint", str(ckpt), "--images", str(imgs), "--texts", str(txts),
             "--out", str(tmp_path / "res.txt")]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "1.0000"
        assert (tmp_path / "res.txt").read_text().splitlines()[-1] == "mode by_relevant"

    def test_both_directions_run(self, tmp_path, capsys):
        ckpt, imgs, txts = perfect_fixture(tmp_path)
        for direction in ("i2t", "t2i"):
            code = main(
                ["eval", "--checkpoint", str(ckpt), "--images", str(imgs), "--texts", str(txts),
                 "--direction", direction, "--out", str(tmp_path / f"res_{direction}.txt")]
            )
            assert code == 0
        outs = capsys.readouterr().out.strip().splitlines()
        assert outs == ["1.0000", "1.0000"]

    def test_defaults_hold_after_a_run_that_set_them(self, tmp_path):
        ckpt, imgs, txts = perfect_fixture(tmp_path)
        base = ["eval", "--checkpoint", str(ckpt), "--images", str(imgs), "--texts", str(txts)]
        assert main([*base, "--direction", "t2i", "--r", "5", "--mode", "by_r", "--out", str(tmp_path / "a.txt")]) == 0
        assert (tmp_path / "a.txt").read_text().splitlines()[-3:] == ["R 5", "direction t2i", "mode by_r"]
        assert main([*base, "--out", str(tmp_path / "b.txt")]) == 0
        assert (tmp_path / "b.txt").read_text().splitlines()[-3:] == ["R all", "direction i2t", "mode by_relevant"]

    def test_cli_value_matches_library(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        from pacedrank.data import save_features
        from pacedrank.core import validate_dataset

        images = rng.standard_normal((6, 3))
        texts = rng.standard_normal((6, 4))
        save_features(tmp_path / "i.txt", images)
        save_features(tmp_path / "t.txt", texts)
        params = init_params(rng, 2, 3, 4)
        ckpt = Checkpoint(CHECKPOINT_VERSION, params, TrainConfig(embedding_dim=2), 0, 0)
        save_checkpoint(tmp_path / "c.bin", ckpt)
        code = main(
            ["eval", "--checkpoint", str(tmp_path / "c.bin"), "--images", str(tmp_path / "i.txt"),
             "--texts", str(tmp_path / "t.txt"), "--r", "3", "--mode", "by_r",
             "--out", str(tmp_path / "r.txt")]
        )
        assert code == 0
        printed = capsys.readouterr().out.strip()
        lib = mean_ap(params, validate_dataset(images, texts), "i2t", 3, "by_r").mean
        assert printed == f"{lib:.4f}"

    def test_non_utf8_feature_file_exits_one(self, tmp_path, capsys):
        ckpt, imgs, txts = perfect_fixture(tmp_path)
        imgs.write_bytes(imgs.read_bytes() + b"\xff 1 0 0\n")
        code = main(
            ["eval", "--checkpoint", str(ckpt), "--images", str(imgs), "--texts", str(txts),
             "--out", str(tmp_path / "r.txt")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {imgs} is not UTF-8 text")
        assert len(err.splitlines()) == 1

    def test_non_integer_cutoff_exits_one(self, tmp_path, capsys):
        ckpt, imgs, txts = perfect_fixture(tmp_path)
        code = main(
            ["eval", "--checkpoint", str(ckpt), "--images", str(imgs), "--texts", str(txts),
             "--r", "ten", "--out", str(tmp_path / "r.txt")]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: cutoff must be a positive integer")
        assert not (tmp_path / "r.txt").exists()

    def test_dimension_mismatch_exits_one(self, tmp_path, capsys):
        ckpt, imgs, _ = perfect_fixture(tmp_path)
        from pacedrank.data import save_features

        save_features(tmp_path / "bad.txt", np.zeros((4, 9)))
        code = main(
            ["eval", "--checkpoint", str(ckpt), "--images", str(imgs),
             "--texts", str(tmp_path / "bad.txt"), "--out", str(tmp_path / "r.txt")]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestRetrieveCommand:
    def test_single_item_corpus(self, tmp_path, capsys):
        ckpt, imgs, txts = perfect_fixture(tmp_path)
        from pacedrank.data import save_features

        save_features(tmp_path / "query.txt", np.eye(4)[:1])
        save_features(tmp_path / "corpus1.txt", np.eye(4)[:1])
        code = main(
            ["retrieve", "--checkpoint", str(ckpt), "--query", str(tmp_path / "query.txt"),
             "--corpus", str(tmp_path / "corpus1.txt")]
        )
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].split()[0] == "0"

    def test_scores_non_increasing_and_match_library(self, tmp_path, capsys):
        ckpt, imgs, txts = perfect_fixture(tmp_path)
        from pacedrank.data import save_features

        rng = np.random.default_rng(3)
        corpus = rng.standard_normal((5, 4))
        save_features(tmp_path / "corpus.txt", corpus)
        save_features(tmp_path / "query.txt", np.eye(4)[:1])
        code = main(
            ["retrieve", "--checkpoint", str(ckpt), "--query", str(tmp_path / "query.txt"),
             "--corpus", str(tmp_path / "corpus.txt")]
        )
        assert code == 0
        lines = [ln.split() for ln in capsys.readouterr().out.strip().splitlines()]
        scores = [float(s) for _, s in lines]
        assert (np.diff(scores) <= 0).all()
        loaded = load_checkpoint(ckpt)
        ranked = retrieve(loaded.params, np.eye(4)[0], corpus)
        assert [int(i) for i, _ in lines] == [int(i) for i in ranked.indices]

    def test_dimension_mismatch_exits_one(self, tmp_path, capsys):
        ckpt, imgs, txts = perfect_fixture(tmp_path)
        from pacedrank.data import save_features

        save_features(tmp_path / "query.txt", np.zeros((1, 7)))
        code = main(
            ["retrieve", "--checkpoint", str(ckpt), "--query", str(tmp_path / "query.txt"),
             "--corpus", str(txts)]
        )
        assert code == 1
        capsys.readouterr()

    def test_invalid_top_k_prints_nothing(self, tmp_path, capsys):
        ckpt, imgs, txts = perfect_fixture(tmp_path)  # four queries, each with a header
        code = main(
            ["retrieve", "--checkpoint", str(ckpt), "--query", str(imgs), "--corpus", str(txts),
             "--top-k", "0"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: top_k must be a positive integer")


@pytest.mark.parametrize(
    "case", ["train-dir-is-file", "train-dir-under-file", "eval-out-in-missing-dir", "synth-dir-is-file"]
)
def test_unwritable_output_exits_one(tmp_path, capsys, case):
    blocker = tmp_path / "file"
    blocker.write_text("")
    if case.startswith("train"):
        target = blocker if case == "train-dir-is-file" else blocker / "run"
        path, _ = write_config(tmp_path, output_dir=str(target))
        argv = ["train", "--config", str(path)]
    elif case.startswith("eval"):
        ckpt, imgs, txts = perfect_fixture(tmp_path)
        target = tmp_path / "nodir" / "x.txt"
        argv = ["eval", "--checkpoint", str(ckpt), "--images", str(imgs), "--texts", str(txts),
                "--out", str(target)]
    else:
        target = blocker
        argv = ["synth", "--n", "10", "--p", "4", "--q", "4", "--latent", "2", "--out", str(target)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # eval prints its mAP only once the result file is written
    assert captured.err.startswith("error: ") and str(target) in captured.err
    assert len(captured.err.splitlines()) == 1


class TestGradcheckCommand:
    def test_passes_and_prints_single_float(self, capsys):
        code = main(["gradcheck", "--seed", "0", "--instances", "5"])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert float(out) < 1e-5

    def test_sixty_instances_cover_every_gradient_shape(self):
        # instance i takes its shape from i mod 3 (sampled), 4 (directions) and
        # 5 (cosine), so 60 instances check every combination
        assert run_gradient_check(n_instances=60) < GRADCHECK_TOLERANCE

    def test_corrupted_gradient_fails_with_code_three(self, capsys):
        code = main(["gradcheck", "--seed", "0", "--instances", "3", "--corrupt"])
        out = capsys.readouterr().out.strip()
        assert code == 3
        assert float(out) >= 1e-5

    def test_nan_gradient_fails_with_code_three(self, monkeypatch, capsys):
        # Python's max(0.0, nan) is 0.0: a NaN error must reach the result, not be dropped
        assert not run_gradient_check(3, 0, corrupt=float("nan")) < GRADCHECK_TOLERANCE
        real = gradcheck.grad_params

        def one_nan_entry(*args):
            grad = real(*args)
            W2 = grad.W2.copy()
            W2.flat[0] = np.nan
            return dataclasses.replace(grad, W2=W2)

        monkeypatch.setattr(gradcheck, "grad_params", one_nan_entry)
        assert not run_gradient_check(3, 0) < GRADCHECK_TOLERANCE
        code = main(["gradcheck", "--seed", "0", "--instances", "3"])
        assert code == 3
        assert np.isnan(float(capsys.readouterr().out))

    @pytest.mark.parametrize("corrupt", [[], ["--corrupt"]], ids=["plain", "corrupt"])
    @pytest.mark.parametrize("instances", ["0", "-2"])
    def test_no_instances_exits_one(self, capsys, instances, corrupt):
        # no instance checks nothing, so it must not print a passing error of 0
        code = main(["gradcheck", "--instances", instances] + corrupt)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: a gradient check needs at least one instance")
        assert len(captured.err.splitlines()) == 1

    def test_negative_seed_exits_one(self, capsys):
        code = main(["gradcheck", "--seed", "-1", "--instances", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: seed must be a nonnegative integer")
        assert len(captured.err.splitlines()) == 1
