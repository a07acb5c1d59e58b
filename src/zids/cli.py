"""Command-line pipeline: prepare, train, evaluate, explain, report.

Every command writes a manifest.json naming the tool version, every seed
it consumed, and the thread count, so runs can be reproduced byte for
byte (timestamps aside).
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import json
import os
import socket
import sys
import time
import zlib
from dataclasses import dataclass, asdict, replace
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__, _blas
from . import dataset as ds
from . import metrics
from . import mlp
from . import preprocess as pp
from . import shap as kshap
from ._atomic import write_atomic
from .errors import (
    BadBudgetError,
    BadDimsError,
    ChangedInputError,
    DamagedGzipError,
    EmptyInputError,
    MalformedReportError,
    MissingClassError,
    NonFiniteLossError,
    NotUtf8Error,
    OutOfRangeError,
    ShapeMismatchError,
    SingularSystemError,
    VocabularyTooLargeError,
    ZidsError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# variant -> (label granularity, class weights on, default hidden layers)
VARIANTS = {
    "base": ("fine", False, (256, 112)),
    "weighted-base": ("fine", True, (256, 112)),
    "truncated": ("coarse", False, (112,)),
    "weighted-truncated": ("coarse", True, (112,)),
}


class ConfigError(ZidsError):
    """Bad flag or config-file value; exits with the usage code."""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


@dataclass
class ExperimentConfig:
    """Every knob of the pipeline, with reproduction-ready defaults.

    The master seed fills any per-stage seed left unset. The explain
    sample defaults to the background sample (same rows in both roles).
    """

    data_path: str = "data/kddcup.data"
    prepared_dir: str = "prepared"
    output_dir: Optional[str] = None
    variant: str = "truncated"
    hidden_dims: Optional[list[int]] = None
    epochs: int = 20
    batch_size: int = 1024
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    test_fraction: float = 0.33
    seed: int = 0
    split_seed: Optional[int] = None
    train_seed: Optional[int] = None
    background_n: int = 50
    explain_n: int = 50
    budget: Optional[int] = None
    background_seed: Optional[int] = None
    explain_seed: Optional[int] = None
    coalition_seed: Optional[int] = None
    top_k: int = 5

    def resolved(self) -> "ExperimentConfig":
        cfg = ExperimentConfig(**asdict(self))
        if cfg.variant not in VARIANTS:
            raise ConfigError(
                f"variant must be one of {sorted(VARIANTS)}: {cfg.variant!r}"
            )
        for name in ("split_seed", "train_seed", "background_seed", "coalition_seed"):
            if getattr(cfg, name) is None:
                setattr(cfg, name, cfg.seed)
        if cfg.explain_seed is None:
            cfg.explain_seed = cfg.background_seed
        # mlp.TrainConfig checks the training knobs; these fields would
        # fail later with a traceback, or as a data error once an input
        # is found missing.
        if cfg.hidden_dims is not None and (
            not cfg.hidden_dims or any(d < 1 for d in cfg.hidden_dims)
        ):
            raise ConfigError(f"hidden dims must be positive: {cfg.hidden_dims!r}")
        if not 0.0 < cfg.test_fraction < 1.0:
            raise ConfigError(f"test_fraction must be in (0, 1): {cfg.test_fraction}")
        if cfg.budget is not None and cfg.budget < 2:
            raise ConfigError(f"budget must be >= 2: {cfg.budget}")
        for field_name in ("background_n", "explain_n", "top_k"):
            if getattr(cfg, field_name) < 1:
                raise ConfigError(f"{field_name} must be >= 1")
        for field_name in ("seed", "split_seed", "train_seed", "background_seed",
                           "explain_seed", "coalition_seed"):
            if getattr(cfg, field_name) < 0:
                raise ConfigError(f"{field_name} must be >= 0: {getattr(cfg, field_name)}")
        return cfg


_CONFIG_TYPES = get_type_hints(ExperimentConfig)


def _has_type(value, hint) -> bool:
    """Whether a JSON value fits a field type; bool never passes as a
    number, an int passes as a float."""
    if get_origin(hint) is Union:
        return any(_has_type(value, arg) for arg in get_args(hint))
    if get_origin(hint) is list:
        (item,) = get_args(hint)
        return isinstance(value, list) and all(_has_type(v, item) for v in value)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    """Config file first, then explicit flags on top, then defaults."""
    values = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            doc = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(
                f"{config_path}: config file is not valid JSON: {exc}") from None
        except OSError as exc:  # missing, a directory, unreadable
            raise ConfigError(
                f"{config_path}: cannot read config file: {exc.strerror or exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"{config_path}: config file must hold a JSON object")
        unknown = set(doc) - set(_CONFIG_TYPES)
        if unknown:
            raise ConfigError(f"{config_path}: unknown config fields: {sorted(unknown)}")
        for name, value in doc.items():
            hint = _CONFIG_TYPES[name]
            if not _has_type(value, hint):
                expected = str(hint).replace("typing.", "")
                if isinstance(hint, type):
                    expected = hint.__name__
                raise ConfigError(
                    f"{config_path}: config field {name} must be {expected}: {value!r}")
        values.update(doc)
    for name in _CONFIG_TYPES:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    return ExperimentConfig(**values).resolved()


def _parse_hidden_dims(text: str) -> list[int]:
    """Comma-separated sizes; ExperimentConfig.resolved checks the values."""
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"hidden dims must be comma-separated integers: {text!r}"
        ) from None


def _dead_owner(text: str) -> Optional[int]:
    """The pid of a lock whose text says "pid host", if that host is this
    one, the pid is ASCII decimal digits that os.kill takes, and no
    process has it any more; None for any other lock."""
    pid, _, host = text.partition(" ")
    if (host != socket.gethostname() or not (pid.isascii() and pid.isdigit())
            or int(pid) < 1):
        return None
    try:
        os.kill(int(pid), 0)
    except ProcessLookupError:
        return int(pid)
    except OverflowError:
        pass  # no process can have the pid
    except OSError:
        pass  # the process exists and belongs to someone else
    return None


def _take_lock(lock: Path) -> int:
    """Create the lock exclusively, taking over a stale one: a lock this
    host wrote for a process that has since died."""
    try:
        return os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        pass
    locked = ConfigError(
        f"output directory is locked by {lock}; remove the file if no "
        "other command is running"
    )
    try:
        text = lock.read_text(encoding="utf-8", errors="replace")
    except FileNotFoundError:
        text = ""
    pid = _dead_owner(text)
    if pid is None:
        raise locked
    # Renaming claims the stale file atomically; a racing command that
    # renamed a fresh lock instead puts it back.
    claimed = lock.with_name(f"{lock.name}.{os.getpid()}")
    try:
        os.rename(lock, claimed)
    except FileNotFoundError:
        raise locked from None
    try:
        if claimed.read_text(encoding="utf-8", errors="replace") != text:
            with contextlib.suppress(FileExistsError):
                os.link(claimed, lock)
            raise locked
    finally:
        claimed.unlink()
    print(f"warning: took over the lock {lock} of dead process {pid}", file=sys.stderr)
    try:
        return os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise locked from None


@contextlib.contextmanager
def _locked_dir(path: Path):
    """One command per output directory.

    The lock file holds "pid host". A lock left by a process of this
    host that has died is taken over; any other lock stops the command.
    The directories this command created, the output directory and any
    missing parents, are removed again, deepest first, when the command
    fails and leaves them empty.
    """
    created = []
    for directory in reversed((path, *path.parents)):
        if directory.is_dir():
            continue
        try:
            directory.mkdir()
        except FileExistsError:
            continue
        created.append(directory)
    lock = path / ".zids.lock"
    fd = _take_lock(lock)
    succeeded = False
    try:
        try:
            os.write(fd, f"{os.getpid()} {socket.gethostname()}".encode("utf-8"))
        finally:
            os.close(fd)
        yield path
        succeeded = True
    finally:
        with contextlib.suppress(OSError):
            os.unlink(lock)
        if not succeeded:
            for directory in reversed(created):
                with contextlib.suppress(OSError):
                    directory.rmdir()  # fails, and keeps it, unless empty


def _thread_info() -> dict:
    # blas_threads is None when numpy bundles no OpenBLAS
    info = {"cpu_count": os.cpu_count(), "blas_threads": _blas.get_num_threads()}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        if var in os.environ:
            info[var] = os.environ[var]
    return info


def _write_manifest(out_dir: Path, command: str, body: dict) -> None:
    doc = {
        "tool": f"zids {__version__}",
        "command": command,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "threads": _thread_info(),
    }
    doc.update(body)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    write_atomic(out_dir / "manifest.json", [text.encode("utf-8")])


@contextlib.contextmanager
def _open_text(path):
    """A UTF-8 text file, gunzipped if its name ends in .gz. A byte that
    does not decode, or gzip data that is cut short or damaged, read
    anywhere in the block, is a data error naming the file."""
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        with opener(path, "rt", encoding="utf-8") as stream:
            yield stream
    except UnicodeDecodeError as exc:
        raise NotUtf8Error(path, exc) from None
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise DamagedGzipError(path, exc) from None


def cmd_prepare(args) -> int:
    cfg = load_config(args)
    data_path = cfg.data_path
    out_dir = Path(cfg.prepared_dir)

    with _locked_dir(out_dir):
        # Pass 1 reads only the four string fields (protocol_type,
        # service, flag, label): each field's sorted vocabulary and the
        # code of each row into it, held as u16.
        pass_1 = ds.ChunkStats()
        vocabs, codes = ds.string_fields(
            ds.iter_strings(lambda: _open_text(data_path), pass_1))
        if not codes:
            raise EmptyInputError(f"no records in {data_path}")
        fine_names = vocabs.pop()
        fields = tuple(
            (ds.FEATURE_NAMES[pos], tuple(vocab))
            for pos, vocab in zip(ds.CATEGORICAL_POSITIONS, vocabs)
        )
        for name, values in fields:
            if len(values) > pp.MAX_VOCABULARY:
                raise VocabularyTooLargeError(name, len(values), pp.MAX_VOCABULARY)
        float_names = tuple(ds.FEATURE_NAMES[pos] for pos in ds.CONTINUOUS_POSITIONS)
        d = len(float_names) + sum(len(values) for _, values in fields)
        # (fields + 1, n), all in range: every label is one of CATEGORY_OF's
        codes = np.array(codes, dtype=np.uint16)
        codes, y_fine = codes[:-1], codes[-1]
        n = y_fine.size

        fine_to_cat = np.asarray(
            [ds.CATEGORIES.index(ds.CATEGORY_OF[l]) for l in fine_names],
            dtype=np.uint16,
        )
        y_coarse = fine_to_cat[y_fine]
        counts = dict(zip(ds.CATEGORIES, np.bincount(
            y_coarse, minlength=len(ds.CATEGORIES)).tolist()))

        # The split is stratified on the fine labels; the coarse view
        # rides on the same rows.
        train_idx, test_idx = pp.split_indices(
            y_fine, len(fine_names), cfg.test_fraction, cfg.split_seed
        )
        splits = {"train": train_idx, "test": test_idx}

        # Pass 2 hands each block's train and test rows, in file order, to
        # the two containers as they are read, unscaled. Both record the
        # scaling of the train rows, taken as they pass, and
        # read_container applies it.
        start = 0
        pass_2 = ds.ChunkStats()
        with contextlib.ExitStack() as stack:
            streams = {
                name: stack.enter_context(pp.stream_container(
                    out_dir / f"{name}.zids", idx.size, float_names, fields))
                for name, idx in splits.items()
            }
            with _open_text(data_path) as text:
                for block in ds.iter_continuous(text, stats=pass_2):
                    stop = start + len(block)
                    if stop <= n:  # else counted for the error below
                        block = block.astype(np.float32)  # the containers' dtype
                        for name, idx in splits.items():
                            # in idx's dtype: no conversion of all of idx
                            at, end = idx.searchsorted(np.array((start, stop), idx.dtype))
                            streams[name].add(block.take(idx[at:end] - start, 0))
                    start = stop
            if start != n:
                raise ChangedInputError(data_path, n, start)
            # Checked only now: a bad cell in a one-row file is the data error.
            for name, idx in splits.items():
                if idx.size == 0:
                    raise ConfigError(
                        f"test fraction {cfg.test_fraction} leaves the {name} "
                        f"split of {n} rows empty"
                    )
            scaling = streams["train"].fit_scaling()
            for name, idx in splits.items():
                streams[name].finish(scaling, codes[:, idx], [
                    pp.LabelColumn("coarse", list(ds.CATEGORIES), y_coarse[idx]),
                    pp.LabelColumn("fine", fine_names, y_fine[idx]),
                ])
        container_bytes = {
            f"{name}.zids": (out_dir / f"{name}.zids").stat().st_size for name in splits
        }

        write_atomic(out_dir / "counts.csv", [ds.counts_csv(counts)])
        _write_manifest(
            out_dir,
            "prepare",
            {
                "config": {
                    "data_path": str(data_path),
                    "test_fraction": cfg.test_fraction,
                },
                "seeds": {"split": cfg.split_seed},
                # per pass: text chunks read, and those that took the
                # per-line path
                "chunks": {"pass_1": asdict(pass_1), "pass_2": asdict(pass_2)},
                "data": {
                    "rows": n,
                    "train_rows": int(train_idx.size),
                    "test_rows": int(test_idx.size),
                    "encoded_width": d,
                    "container_bytes": container_bytes,
                    "fine_classes": len(fine_names),
                    "coarse_classes": len(ds.CATEGORIES),
                    "vocabulary_sizes": {name: len(values) for name, values in fields},
                    "category_counts": counts,
                },
            },
        )
    print(
        f"prepared {n} rows -> {train_idx.size} train / {test_idx.size} test, "
        f"width {d}, at {out_dir}"
    )
    return EXIT_OK


def _read_like(path: Path, column: str, like, like_name: str) -> pp.EncodedDataset:
    """The container at path under its label column `column`. It must name
    the same columns and classes, in order, as `like`: a dataset, or a
    model, called like_name in the error."""
    data = pp.read_container(path, column)
    for kind, names, expected in (("column", data.feature_names, like.feature_names),
                                  ("class", data.class_names, like.class_names)):
        at = next((i for i, (a, b) in enumerate(zip(names, expected)) if a != b), None)
        if at is not None:
            raise ShapeMismatchError(f"{path} names {kind} {at} {names[at]!r} "
                                     f"where {like_name} names {expected[at]!r}")
        if len(names) != len(expected):
            raise ShapeMismatchError(f"{path} has {len(names)} {kind} names "
                                     f"where {like_name} has {len(expected)}")
    return data


def cmd_train(args) -> int:
    cfg = load_config(args)
    prepared = Path(cfg.prepared_dir)
    out_dir = Path(cfg.output_dir or Path("runs") / cfg.variant)
    granularity, weighted, default_hidden = VARIANTS[cfg.variant]

    # Every knob is checked before a container is read.
    try:
        train_config = mlp.TrainConfig(
            epochs=cfg.epochs,
            batch_size=cfg.batch_size,
            learning_rate=cfg.learning_rate,
            optimizer=cfg.optimizer,
            seed=cfg.train_seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    with _locked_dir(out_dir):
        train_ds = pp.read_container(prepared / "train.zids", granularity)
        test_ds = _read_like(prepared / "test.zids", granularity, train_ds, "train.zids")
        hidden = cfg.hidden_dims if cfg.hidden_dims is not None else list(default_hidden)
        dims = [train_ds.d] + list(hidden) + [train_ds.k]
        try:
            weights = pp.class_weights(train_ds.y, train_ds.k) if weighted else None
        except MissingClassError as exc:
            raise MissingClassError(exc.class_index, (
                f"{prepared / 'train.zids'} has no row of class "
                f"{train_ds.class_names[exc.class_index]!r} ({granularity}); "
                "class weights need every class")) from None
        train_config = replace(train_config, class_weights=weights)

        model = mlp.init(dims, cfg.train_seed, dtype=np.float32)
        model.label_column = granularity
        model.feature_names = train_ds.feature_names
        model.class_names = train_ds.class_names
        # Per the training regime, the full test split doubles as the
        # per-epoch validation set.
        model, history = mlp.train(model, train_ds, test_ds, train_config)

        mlp.save(model, out_dir / "model.zmlp")
        write_atomic(out_dir / "history.csv", [mlp.history_csv(history)])
        _write_manifest(
            out_dir,
            "train",
            {
                "config": {
                    "variant": cfg.variant,
                    "granularity": granularity,
                    "weighted": weighted,
                    "dims": dims,
                    "epochs": cfg.epochs,
                    "batch_size": cfg.batch_size,
                    "learning_rate": cfg.learning_rate,
                    "optimizer": cfg.optimizer,
                    "prepared_dir": str(prepared),
                },
                "seeds": {"train": cfg.train_seed},
                "model": {
                    "parameter_count": mlp.count_parameters(model),
                    "class_names": train_ds.class_names,
                    "class_weights": None if weights is None else list(weights.w),
                },
                "result": {
                    "final_val_accuracy": history[-1].val_accuracy,
                    "final_val_loss": history[-1].val_loss,
                },
            },
        )
    print(
        f"trained {cfg.variant}: {mlp.count_parameters(model)} parameters, "
        f"val_accuracy {history[-1].val_accuracy:.4f}, at {out_dir}"
    )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    model = mlp.load(args.model)
    test_path = Path(args.test)
    out_dir = Path(args.out)
    with _locked_dir(out_dir):
        test_ds = _read_like(test_path, model.label_column, model, "the model")
        preds = mlp.predict(model, test_ds.rows())
        cm = metrics.confusion(test_ds.y, preds, test_ds.k, test_ds.class_names)
        rep = metrics.report(cm)
        for fmt, suffix in (("text", "txt"), ("csv", "csv"), ("json", "json")):
            write_atomic(out_dir / f"report.{suffix}", [metrics.render_report(rep, fmt)])
        write_atomic(out_dir / "confusion.csv", [metrics.render_confusion_csv(cm)])
        _write_manifest(
            out_dir,
            "evaluate",
            {
                "config": {"model": str(args.model), "test": str(test_path)},
                "seeds": {},
                "result": {
                    "accuracy": rep.accuracy,
                    "macro_recall": rep.macro_avg.recall,
                    "total_support": rep.total_support,
                },
            },
        )
    print(f"accuracy {rep.accuracy:.4f} over {rep.total_support} rows, at {out_dir}")
    return EXIT_OK


def cmd_explain(args) -> int:
    cfg = load_config(args)
    model = mlp.load(args.model)
    if model.label_column != "coarse":
        raise ShapeMismatchError(
            f"explain needs a coarse model; this one predicts the "
            f"{model.label_column!r} column"
        )
    prepared = Path(cfg.prepared_dir)
    out_dir = Path(cfg.output_dir or Path(args.model).parent / "explain")
    with _locked_dir(out_dir):
        test_path = prepared / "test.zids"
        test_ds = _read_like(test_path, model.label_column, model, "the model")
        for knob in ("background_n", "explain_n"):
            if getattr(cfg, knob) > test_ds.n:
                raise OutOfRangeError(
                    f"{test_path} has {test_ds.n} rows; {knob} is {getattr(cfg, knob)}")

        bg_idx = pp.sample_indices(test_ds.n, cfg.background_n, cfg.background_seed)
        fg_idx = pp.sample_indices(test_ds.n, cfg.explain_n, cfg.explain_seed)
        # float32, as stored and as the model computes: kernel_shap then
        # compares and builds the masked rows in 4-byte words
        background, foreground = (
            test_ds.rows(idx).dense(np.empty((idx.size, test_ds.d), np.float32))
            for idx in (bg_idx, fg_idx))

        def model_fn(z):
            return mlp.forward(model, z)

        expl = kshap.kernel_shap(
            model_fn,
            foreground,
            background,
            budget=cfg.budget,
            seed=cfg.coalition_seed,
            feature_names=model.feature_names,
            class_names=model.class_names,
        )
        if expl.ridge_used:
            print("warning: the coalition system was singular; its ridge "
                  "fallback solved it (numerics.ridge_used)", file=sys.stderr)
        residuals = kshap.efficiency_residuals(expl, expl.fx)
        per_class_residual = dict(
            zip(model.class_names, residuals.max(axis=1).tolist())
        )
        for c, name in enumerate(model.class_names):
            write_atomic(out_dir / f"shap_{name}.csv", [kshap.explanation_csv(expl, c)])
        write_atomic(out_dir / "top5.csv", [kshap.top_features_csv(expl, cfg.top_k)])
        _write_manifest(
            out_dir,
            "explain",
            {
                "config": {
                    "model": str(args.model),
                    "prepared_dir": str(prepared),
                    "background_n": cfg.background_n,
                    "explain_n": cfg.explain_n,
                    "budget": expl.budget,
                    "top_k": cfg.top_k,
                },
                "seeds": {
                    "background": cfg.background_seed,
                    "explain": cfg.explain_seed,
                    "coalitions": cfg.coalition_seed,
                },
                "samples": {
                    "background_indices": [int(i) for i in bg_idx],
                    "explained_indices": [int(i) for i in fg_idx],
                },
                "efficiency_max_residual": per_class_residual,
                "numerics": {
                    "masked_rows": expl.masked_rows,
                    "model_rows": expl.model_rows,
                    "shared_pairs": expl.shared_pairs,
                    "ridge_used": expl.ridge_used,
                    "gram_condition": expl.gram_condition,
                    "workers": expl.workers,
                    "constant_features": dict(
                        zip(("min", "max"), expl.constant_features)
                    ),
                },
            },
        )
        worst = max(per_class_residual.values())
        for name, value in per_class_residual.items():
            print(f"efficiency residual {name}: {value:.3e}", file=sys.stderr)
    print(f"explained {cfg.explain_n} rows, max residual {worst:.3e}, at {out_dir}")
    return EXIT_OK


def cmd_report(args) -> int:
    with _open_text(args.report) as fh:
        try:
            rep = metrics.report_from_dict(json.load(fh))
        except (json.JSONDecodeError, MalformedReportError) as exc:
            raise MalformedReportError(f"{args.report}: {exc}") from None
    sys.stdout.write(metrics.render_report(rep, "text").decode("utf-8"))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zids", description=__doc__)
    parser.add_argument("--version", action="version", version=f"zids {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_config_flags(p, names):
        p.add_argument("--config", help="JSON config file; flags override it")
        if "data_path" in names:
            p.add_argument("--data", dest="data_path", help="KDD99 CSV (optionally .gz)")
        if "prepared_dir" in names:
            p.add_argument("--prepared", dest="prepared_dir", help="prepared data dir")
        if "output_dir" in names:
            p.add_argument("--out", dest="output_dir", help="output directory")
        if "seed" in names:
            p.add_argument("--seed", type=int, help="master seed for all unset seeds")
        if "test_fraction" in names:
            p.add_argument("--test-fraction", dest="test_fraction", type=float)
        if "variant" in names:
            p.add_argument("--variant", choices=sorted(VARIANTS))
        if "train" in names:
            p.add_argument("--epochs", type=int)
            p.add_argument("--batch-size", dest="batch_size", type=int)
            p.add_argument("--learning-rate", dest="learning_rate", type=float)
            p.add_argument("--optimizer", choices=["adam", "sgd"])
            p.add_argument(
                "--hidden-dims",
                dest="hidden_dims",
                type=_parse_hidden_dims,
                help="comma-separated hidden layer sizes, e.g. 256,112",
            )
            p.add_argument("--train-seed", dest="train_seed", type=int)
        if "split_seed" in names:
            p.add_argument("--split-seed", dest="split_seed", type=int)
        if "shap" in names:
            p.add_argument("--background-n", dest="background_n", type=int)
            p.add_argument("--explain-n", dest="explain_n", type=int)
            p.add_argument("--budget", type=int)
            p.add_argument("--background-seed", dest="background_seed", type=int)
            p.add_argument("--explain-seed", dest="explain_seed", type=int)
            p.add_argument("--coalition-seed", dest="coalition_seed", type=int)
            p.add_argument("--top-k", dest="top_k", type=int)

    p = sub.add_parser("prepare", help="parse, encode, split, and write containers")
    add_config_flags(p, {"data_path", "seed", "test_fraction", "split_seed"})
    p.add_argument("--out", dest="prepared_dir",
                   help="output directory for prepared artifacts")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train one of the four experiment variants")
    add_config_flags(
        p, {"prepared_dir", "output_dir", "seed", "variant", "train"}
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="classification report and confusion matrix")
    p.add_argument("--model", required=True, help="trained model file")
    p.add_argument("--test", required=True, help="test container (.zids)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("explain", help="KernelSHAP attributions for a coarse model")
    p.add_argument("--model", required=True, help="trained model file")
    add_config_flags(p, {"prepared_dir", "output_dir", "seed", "shap"})
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("report", help="pretty-print an existing report.json")
    p.add_argument("--report", required=True, help="path to report.json")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (ConfigError, BadDimsError, BadBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # numpy's message names the allocation
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    except (NonFiniteLossError, SingularSystemError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ZidsError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
