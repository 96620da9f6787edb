"""Deterministic synthetic source-to-target transfer tasks, labeled/unlabeled
splitting, CSV ingestion, and `load_task`, which reads the data of a run.

A task is a set of Gaussian clusters. Source clusters sit on mutually
orthogonal unit directions; the target task reuses a subset of the source
cluster means, rotated in a random plane and shifted, so one knob pair
(rotation, shift) controls how related the two domains are.
"""

import csv
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, InvalidSplit, ParseError


@dataclass
class SyntheticTaskSpec:
    input_dim: int = 16
    source_classes: int = 10
    target_classes: int = 4
    cluster_std: float = 0.475
    transfer_rotation_deg: float = 30.0
    transfer_shift: float = 0.2
    source_train: int = 4000
    target_train: int = 2000
    target_test: int = 1000
    seed: int = 0

    def validate(self):
        """Check the task's fields; each ConfigError names its fields as a
        run's config does (`task.<field>`)."""
        if self.target_classes < 2 or self.source_classes < self.target_classes:
            raise ConfigError(
                "need task.source_classes >= task.target_classes >= 2")
        if self.input_dim < 2:
            raise ConfigError("task.input_dim must be >= 2")
        if self.cluster_std <= 0:
            raise ConfigError("task.cluster_std must be > 0")
        small = [f"task.{name}" for name in ("source_train", "target_train", "target_test")
                 if getattr(self, name) < 1]
        if small:
            raise ConfigError(f"split sizes must be >= 1: {', '.join(small)}")
        return self


@dataclass
class SplitSet:
    """Labeled (x, y), unlabeled x, and test (x, y)."""

    labeled_x: np.ndarray
    labeled_y: np.ndarray
    unlabeled_x: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    label_map: dict = field(default_factory=dict)
    feature_names: tuple = ()  # a CSV file's feature columns; () if synthetic

    @property
    def n_classes(self) -> int:
        pool = [self.labeled_y, self.test_y]
        return int(max(y.max() for y in pool if y.size) + 1)

    def all_train_x(self) -> np.ndarray:
        """Full target training pool (labels ignored) for unlabeled sampling."""
        return np.vstack([self.labeled_x, self.unlabeled_x])


def _balanced_labels(n: int, n_classes: int, rng) -> np.ndarray:
    y = np.arange(n) % n_classes
    rng.shuffle(y)
    return y


def _orthogonal_means(n: int, dim: int, rng) -> np.ndarray:
    if n <= dim:
        q, _ = np.linalg.qr(rng.normal(size=(dim, n)))
        return q.T[:n]
    m = rng.normal(size=(n, dim))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _plane_rotation(dim: int, angle_rad: float, rng) -> np.ndarray:
    """Rotation by angle_rad in a random 2-plane."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, 2)))
    e1, e2 = q[:, 0], q[:, 1]
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    r = np.eye(dim)
    r += (c - 1.0) * (np.outer(e1, e1) + np.outer(e2, e2))
    r += s * (np.outer(e2, e1) - np.outer(e1, e2))
    return r


def _sample_clusters(means, std, n, rng):
    y = _balanced_labels(n, means.shape[0], rng)
    x = means[y] + rng.normal(0.0, std, size=(n, means.shape[1]))
    return x, y


def generate_task(spec: SyntheticTaskSpec):
    """Build (source, target) SplitSets, fully determined by spec.seed.

    The source set is fully labeled (used for pre-training); the target set
    starts fully labeled too and is split with `split_labeled`.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    means_s = _orthogonal_means(spec.source_classes, spec.input_dim, rng)

    rot = _plane_rotation(spec.input_dim, np.deg2rad(spec.transfer_rotation_deg), rng)
    shift_dir = rng.normal(size=spec.input_dim)
    shift_dir /= np.linalg.norm(shift_dir)
    means_t = means_s[: spec.target_classes] @ rot.T + spec.transfer_shift * shift_dir

    sx, sy = _sample_clusters(means_s, spec.cluster_std, spec.source_train, rng)
    tx, ty = _sample_clusters(means_t, spec.cluster_std, spec.target_train, rng)
    ex, ey = _sample_clusters(means_t, spec.cluster_std, spec.target_test, rng)

    empty = np.zeros((0, spec.input_dim))
    source = SplitSet(
        labeled_x=sx, labeled_y=sy,
        unlabeled_x=empty.copy(),
        test_x=empty.copy(), test_y=np.zeros(0, dtype=int),
    )
    target = SplitSet(
        labeled_x=tx, labeled_y=ty,
        unlabeled_x=empty.copy(),
        test_x=ex, test_y=ey,
    )
    return source, target


def split_labeled(target: SplitSet, n: int, seed: int) -> SplitSet:
    """Keep a class-stratified draw of n examples labeled; the rest become
    unlabeled. Per-class labeled counts differ by at most one."""
    x, y = target.labeled_x, target.labeled_y
    n_classes = int(y.max()) + 1
    if n < n_classes:
        raise InvalidSplit(
            f"n_labeled={n} < {n_classes} classes (imprinting needs each)")
    if n > x.shape[0]:
        raise InvalidSplit(
            f"n_labeled={n} exceeds available {x.shape[0]} examples")
    rng = np.random.default_rng(seed)
    per_class, extra = divmod(n, n_classes)
    order = rng.permutation(n_classes)
    chosen = []
    for rank, c in enumerate(order):
        idx = np.flatnonzero(y == c)
        rng.shuffle(idx)
        take = per_class + (1 if rank < extra else 0)
        if take > idx.size:
            raise InvalidSplit(
                f"n_labeled={n}: class {c} has only {idx.size} examples, need {take}")
        chosen.append(idx[:take])
    chosen = np.sort(np.concatenate(chosen))
    mask = np.zeros(x.shape[0], dtype=bool)
    mask[chosen] = True
    return replace(
        target,
        labeled_x=x[mask], labeled_y=y[mask], unlabeled_x=x[~mask],
    )


def load_csv(path, label_map=None) -> SplitSet:
    """Read a header-bearing numeric CSV with an integer `label` column into
    a fully labeled SplitSet whose `feature_names` are the header's other
    columns, in file order.

    Labels are remapped to dense 0..C-1; the mapping is recorded in
    `label_map` (original -> dense). A given `label_map` (e.g. that of the
    training file, when reading its test file) is used instead, and a label
    outside it is a ParseError, and so is a non-finite cell (nan, inf).
    Parse failures report line and column. A file that cannot be read or
    is not UTF-8 text, or a header that names a column twice or has no
    column besides `label`, is a ParseError naming the file. A leading
    UTF-8 byte order mark (as spreadsheet programs write) is skipped.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return _parse_csv(path, csv.reader(fh), label_map)
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not UTF-8 text: byte {exc.object[exc.start]:#04x}") from None


def _parse_csv(path, reader, label_map) -> SplitSet:
    """The SplitSet of `load_csv`, read from the rows of a csv reader."""
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{path}: empty file") from None
    if "label" not in header:
        raise ParseError(f"{path}: no 'label' column in header")
    repeated = [name for name, count in Counter(header).items() if count > 1]
    if repeated:
        raise ParseError(f"{path}: header names column {repeated[0]!r} more than once")
    if len(header) < 2:
        raise ParseError(f"{path}: no feature column besides 'label'")
    j = header.index("label")
    rows, labels = [], []
    for line_no, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise ParseError(
                f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}"
            )
        try:
            labels.append(int(row[j]))
            rows.append([float(c) for c in row[:j] + row[j + 1:]])
        except ValueError:  # name the first cell that does not parse
            for col, cell in enumerate(row):
                parse, what = (int, "bad label") if col == j else (float, "non-numeric")
                try:
                    parse(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}:{line_no}:{col + 1}: {what} {cell!r}") from None
        if label_map is not None and labels[-1] not in label_map:
            raise ParseError(
                f"{path}:{line_no}:{j + 1}: label {labels[-1]} "
                "is not among the training labels"
            )
    if not rows:
        raise ParseError(f"{path}: no data rows")
    x = np.asarray(rows, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(x))
    if bad.size:  # the first in file order; columns after the label shift by one
        r, c = bad[0]
        raise ParseError(
            f"{path}:{r + 2}:{c + (c >= j) + 1}: non-finite value {x[r, c]}"
        )
    if label_map is None:
        label_map = {orig: dense for dense, orig in enumerate(sorted(set(labels)))}
    y = np.asarray([label_map[v] for v in labels], dtype=int)
    dim = x.shape[1]
    return SplitSet(
        labeled_x=x, labeled_y=y,
        unlabeled_x=np.zeros((0, dim)),
        test_x=np.zeros((0, dim)), test_y=np.zeros(0, dtype=int),
        label_map=label_map, feature_names=tuple(header[:j] + header[j + 1:]),
    )


def load_task(cfg):
    """(source, target) SplitSets of a run: the three CSV files of `cfg` if
    it names a target training file, else its synthetic task offset by the
    run seed. The CSV source and target training files need at least 2
    classes, and the target files the source file's feature columns."""
    if not cfg.target_train_csv:
        return generate_task(replace(cfg.task, seed=cfg.task.seed + cfg.seed))
    if not (cfg.source_train_csv and cfg.target_test_csv):
        raise ConfigError(
            "CSV mode needs source_train_csv, target_train_csv and "
            "target_test_csv"
        )
    source = load_csv(cfg.source_train_csv)
    target = load_csv(cfg.target_train_csv)
    for path, split in ((cfg.source_train_csv, source), (cfg.target_train_csv, target)):
        if len(split.label_map) < 2:
            raise ParseError(
                f"{path} has {len(split.label_map)} class; a run needs at least 2"
            )
    test = load_csv(cfg.target_test_csv, label_map=target.label_map)
    want = source.feature_names
    for path, split in ((cfg.target_train_csv, target), (cfg.target_test_csv, test)):
        got = split.feature_names
        if got == want:
            continue
        if len(got) != len(want):
            raise ParseError(
                f"{path} has {len(got)} features but "
                f"{cfg.source_train_csv} has {len(want)}"
            )
        raise ParseError(
            f"{path} has feature columns {list(got)} but "
            f"{cfg.source_train_csv} has {list(want)}"
        )
    target.test_x, target.test_y = test.labeled_x, test.labeled_y
    return source, target
