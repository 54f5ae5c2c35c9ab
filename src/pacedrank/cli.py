"""Command-line surface: train, eval, retrieve, gradcheck, synth.

Every number the CLI prints or writes comes from a library call; commands
only parse arguments, move files, and format. Exit codes: 0 success,
1 usage, configuration or input error or a file that cannot be written,
2 runtime failure (non-finite objective), 3 gradient check failure.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import functools
import json
import os
import sys
from typing import Optional

from . import data as data_mod
from . import evaluation as eval_mod
from .core import check_direction, check_sample_size, validate_dataset
from .errors import ConfigInvalid, InvalidCutoff, NonFiniteObjective, PacedRankError
from .gradcheck import run_gradient_check
from .trainer import (
    Checkpoint,
    CHECKPOINT_VERSION,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
)

_DATA_KEYS = {"images", "texts", "synth"}
_SYNTH_KEYS = {"n", "latent", "p", "q", "noise", "seed", "hard_fraction"}
_SPLIT_KEYS = {"train", "validation", "test", "seed"}
_EVAL_KEYS = {"direction", "r", "mode"}

GRADCHECK_TOLERANCE = 1e-5


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config {path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigInvalid(f"config {path} is not UTF-8 text: {exc}") from exc


def _apply_overrides(config: dict, overrides: list[str]) -> dict:
    if not isinstance(config, dict):
        raise ConfigInvalid("config must be a JSON object")
    config = copy.deepcopy(config)
    for item in overrides:
        if "=" not in item:
            raise ConfigInvalid(f"override {item!r} must look like key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigInvalid(f"override {key!r} descends into a non-object")
        node[parts[-1]] = value
    return config


def _check_keys(section, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigInvalid(f"{where} must be a JSON object")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigInvalid(f"unknown keys in {where}: {sorted(unknown)}")


@contextlib.contextmanager
def _section(where: str):
    """Report a missing key or a wrongly typed or invalid value in a config section.

    Building a spec fails with TypeError on a missing key; validating or
    using it fails with TypeError or ConfigInvalid on a bad value. Both
    become ConfigInvalid naming the section.
    """
    try:
        yield
    except (TypeError, ConfigInvalid) as exc:
        raise ConfigInvalid(f"invalid {where} section: {exc}") from exc


def _parse_run_config(config: dict):
    import dataclasses

    _check_keys(config, {"output_dir", "data", "split", "train", "eval"}, "config")
    if "output_dir" not in config:
        raise ConfigInvalid("config requires output_dir")
    if "data" not in config:
        raise ConfigInvalid("config requires a data section")

    data_sec = config["data"]
    _check_keys(data_sec, _DATA_KEYS, "data")
    if "synth" in data_sec:
        if "images" in data_sec or "texts" in data_sec:
            raise ConfigInvalid("data section must give either synth or file paths, not both")
        _check_keys(data_sec["synth"], _SYNTH_KEYS, "data.synth")
        synth_sec = dict(data_sec["synth"])
        hard = synth_sec.pop("hard_fraction", None)
        with _section("data.synth"):  # a mistyped hard_fraction fails in the generator
            spec = data_mod.SynthSpec(**synth_sec)
            dataset = data_mod.skewed_synth(spec, hard) if hard is not None else data_mod.synth_generate(spec)
    else:
        if "images" not in data_sec or "texts" not in data_sec:
            raise ConfigInvalid("data section requires images and texts paths (or synth)")
        dataset = validate_dataset(
            data_mod.load_features(data_sec["images"]),
            data_mod.load_features(data_sec["texts"]),
        )

    split_sec = config.get("split", {})
    _check_keys(split_sec, _SPLIT_KEYS, "split")
    with _section("split"):
        split_spec = data_mod.SplitSpec(**split_sec)

    train_sec = config.get("train", {})
    known = {f.name for f in dataclasses.fields(TrainConfig)}
    _check_keys(train_sec, known, "train")
    with _section("train"):
        train_cfg = TrainConfig(**train_sec)

    eval_sec = config.get("eval", {})
    _check_keys(eval_sec, _EVAL_KEYS, "eval")
    eval_cfg = {
        "direction": eval_sec.get("direction", "i2t"),
        "r": _parse_r(eval_sec.get("r", "all")),
        "mode": eval_sec.get("mode", "by_relevant"),
    }
    check_direction(eval_cfg["direction"])
    eval_mod._resolve_r(eval_cfg["r"], dataset.n)
    eval_mod._check_mode(eval_cfg["mode"])
    return config["output_dir"], dataset, split_spec, train_cfg, eval_cfg


def _parse_r(text):
    """Turn a command-line cutoff string into "all" or an int; other values pass to _resolve_r."""
    if not isinstance(text, str):
        return text
    if text.lower() == "all":
        return "all"
    try:
        return int(text)
    except ValueError as exc:
        raise InvalidCutoff(f"cutoff must be a positive integer or 'all', got {text!r}") from exc


def _fmt(value) -> str:
    return f"{value:.17g}"


def _write_history_csv(path, history) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "objective", "lambda", "gamma", "selected_fraction", "val_map"])
        for rec in history.records:
            writer.writerow(
                [
                    rec.iteration,
                    _fmt(rec.objective),
                    _fmt(rec.lam),
                    _fmt(rec.gamma),
                    _fmt(rec.selected_fraction),
                    "" if rec.val_map is None else _fmt(rec.val_map),
                ]
            )


def cmd_train(args) -> int:
    config = _apply_overrides(_load_json(args.config), args.set or [])
    out_dir, dataset, split_spec, train_cfg, eval_cfg = _parse_run_config(config)
    idx_train, idx_val, idx_test = data_mod.split_indices(dataset.n, split_spec)
    train_ds, val_ds, test_ds = data_mod.split(dataset, split_spec)
    if train_cfg.sample_negatives is not None:  # fail before the run directory exists
        check_sample_size(train_cfg.sample_negatives, train_ds.n)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "split.txt"), "w", encoding="utf-8") as fh:
        for name, idx in (("train", idx_train), ("validation", idx_val), ("test", idx_test)):
            fh.write(("%s " + " ".join(["%d"] * len(idx)) + "\n") % (name, *idx.tolist()))

    params, history = train(train_ds, train_cfg, val_dataset=val_ds)

    ckpt = Checkpoint(
        version=CHECKPOINT_VERSION,
        params=params,
        config=train_cfg,
        seed=train_cfg.seed,
        iteration=len(history),
    )
    save_checkpoint(os.path.join(out_dir, "checkpoint.bin"), ckpt)
    _write_history_csv(os.path.join(out_dir, "history.csv"), history)

    normalized = train_cfg.normalized_similarity
    test_i2t = eval_mod.mean_ap(params, test_ds, "i2t", eval_cfg["r"], eval_cfg["mode"], normalized)
    test_t2i = eval_mod.mean_ap(params, test_ds, "t2i", eval_cfg["r"], eval_cfg["mode"], normalized)
    summary = {
        "iterations": len(history),
        "final_objective": history.records[-1].objective if history.records else None,
        "final_selected_fraction": history.records[-1].selected_fraction if history.records else None,
        "val_map_last": history.records[-1].val_map if history.records else None,
        "test_map_i2t": test_i2t.mean,
        "test_map_t2i": test_t2i.mean,
        "eval": eval_cfg,
        "sizes": {"train": train_ds.n, "validation": val_ds.n, "test": test_ds.n},
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    dataset = validate_dataset(
        data_mod.load_features(args.images), data_mod.load_features(args.texts)
    )
    if dataset.p != ckpt.params.p or dataset.q != ckpt.params.q:
        raise ConfigInvalid(
            f"checkpoint expects p={ckpt.params.p}, q={ckpt.params.q} but dataset "
            f"has p={dataset.p}, q={dataset.q}"
        )
    result = eval_mod.mean_ap(
        ckpt.params,
        dataset,
        direction=args.direction,
        r=_parse_r(args.r),
        mode=args.mode,
        normalized=ckpt.config.normalized_similarity,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(result.to_text())
    print(f"{result.mean:.4f}")
    return 0


def cmd_retrieve(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    queries = data_mod.load_features(args.query)
    corpus = data_mod.load_features(args.corpus)
    expected_q = ckpt.params.p if args.direction == "i2t" else ckpt.params.q
    expected_c = ckpt.params.q if args.direction == "i2t" else ckpt.params.p
    if queries.shape[1] != expected_q or corpus.shape[1] != expected_c:
        raise ConfigInvalid(
            f"direction {args.direction} expects query dim {expected_q} and corpus "
            f"dim {expected_c}, got {queries.shape[1]} and {corpus.shape[1]}"
        )
    for qi, query in enumerate(queries):
        ranked = eval_mod.retrieve(
            ckpt.params,
            query,
            corpus,
            direction=args.direction,
            top_k=args.top_k,
            normalized=ckpt.config.normalized_similarity,
        )
        if len(queries) > 1:
            print(f"# query {qi}")
        for idx, score in zip(ranked.indices, ranked.scores):
            print(f"{int(idx)} {score:.17g}")
    return 0


def cmd_gradcheck(args) -> int:
    corrupt = 1e-3 if args.corrupt else 0.0
    worst = run_gradient_check(n_instances=args.instances, base_seed=args.seed, corrupt=corrupt)
    print(f"{worst:.6e}")
    return 0 if worst < GRADCHECK_TOLERANCE else 3


def cmd_synth(args) -> int:
    spec = data_mod.SynthSpec(
        n=args.n, latent=args.latent, p=args.p, q=args.q, noise=args.noise, seed=args.seed
    )
    if args.hard_fraction is not None:
        dataset = data_mod.skewed_synth(spec, args.hard_fraction)
    else:
        dataset = data_mod.synth_generate(spec)
    os.makedirs(args.out, exist_ok=True)
    data_mod.save_features(os.path.join(args.out, "images.txt"), dataset.images)
    data_mod.save_features(os.path.join(args.out, "texts.txt"), dataset.texts)
    manifest = {
        "n": spec.n,
        "latent": spec.latent,
        "p": spec.p,
        "q": spec.q,
        "noise": spec.noise,
        "seed": spec.seed,
        "hard_fraction": args.hard_fraction,
        "files": {"images": "images.txt", "texts": "texts.txt"},
    }
    if dataset.ids is not None:
        with open(os.path.join(args.out, "ids.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(dataset.ids) + "\n")
        manifest["files"]["ids"] = "ids.txt"
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but a usage error exits 1 (exit code 2 means a runtime failure)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="pacedrank",
        description="Cross-modal embedding trainer with paced, diversity-aware sample selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train from a JSON config file")
    p_train.add_argument("--config", required=True, help="path to the JSON run config")
    p_train.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="override a config entry, dotted keys allowed (e.g. train.margin=0.2)",
    )
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a paired dataset")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--images", required=True)
    p_eval.add_argument("--texts", required=True)
    p_eval.add_argument("--direction", choices=["i2t", "t2i"], default="i2t")
    p_eval.add_argument("--r", default="all", help="cutoff: a positive integer or 'all'")
    p_eval.add_argument("--mode", choices=["by_relevant", "by_r"], default="by_relevant")
    p_eval.add_argument("--out", default="eval_result.txt", help="per-query result file")
    p_eval.set_defaults(func=cmd_eval)

    p_retr = sub.add_parser("retrieve", help="rank a corpus against query vectors")
    p_retr.add_argument("--checkpoint", required=True)
    p_retr.add_argument("--query", required=True, help="feature file of query rows")
    p_retr.add_argument("--corpus", required=True, help="feature file of corpus rows")
    p_retr.add_argument("--direction", choices=["i2t", "t2i"], default="i2t")
    p_retr.add_argument("--top-k", type=int, default=None)
    p_retr.set_defaults(func=cmd_retrieve)

    p_grad = sub.add_parser("gradcheck", help="verify gradients by finite differences")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--instances", type=int, default=20)
    p_grad.add_argument(
        "--corrupt", action="store_true",
        help="negative control: perturb the analytic gradient so the check fails",
    )
    p_grad.set_defaults(func=cmd_gradcheck)

    p_synth = sub.add_parser("synth", help="generate a planted synthetic corpus")
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--p", type=int, required=True)
    p_synth.add_argument("--q", type=int, required=True)
    p_synth.add_argument("--latent", type=int, required=True)
    p_synth.add_argument("--noise", type=float, default=0.0)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--hard-fraction", type=float, default=None)
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NonFiniteObjective as exc:
        return _fail(str(exc), 2)
    except (PacedRankError, OSError) as exc:  # OSError: an output file or directory that cannot be made
        return _fail(str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
