"""Loss assembly, SGD with momentum under a cosine schedule, batch sampling,
and the pre-train / imprint / fine-tune pipeline with per-epoch metrics."""

import contextlib
import contextvars
import copy
import csv
import dataclasses
import functools
import json
import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import consistency, model, ssl_baselines
from .config import ExperimentConfig
from .data import SplitSet, SyntheticTaskSpec, load_task, split_labeled
from .errors import ConfigError, EmptyInput, InvalidInput, InvalidLabel, ShapeError
from .model import Classifier, LinearHead, MlpExtractor, ModelPair, imprint

METRICS_SCHEMA_VERSION = 1
METRICS_COLUMNS = [
    "epoch", "lr", "loss_ce", "loss_ssl", "loss_akc", "loss_arc",
    "akc_fraction", "arc_labeled_fraction", "arc_unlabeled_fraction",
    "train_acc", "test_acc",
]
# The per-step values that `total_loss` reports; each epoch logs their mean.
STEP_COLUMNS = ("loss_ce", "loss_ssl", "loss_akc", "loss_arc",
                "arc_labeled_fraction", "arc_unlabeled_fraction")
# The config fields `prepare` reads: configs that agree on all of them get
# equal Setups, so a grid's sub-runs may share one.
SETUP_FIELDS = tuple(f"task.{f.name}" for f in dataclasses.fields(SyntheticTaskSpec)) + (
    "source_train_csv", "target_train_csv", "target_test_csv", "seed",
    "hidden_dims", "feature_dim", "source_epochs", "source_eta0", "batch_labeled",
)


def cosine_lr(t: int, total_steps: int, eta0: float) -> float:
    """eta0 * cos(7 pi t / (16 T)); decreasing on [0, T], always positive."""
    if total_steps < 1:
        raise InvalidInput("total_steps must be >= 1")
    if t < 0 or t > total_steps:
        raise InvalidInput(f"step {t} outside [0, {total_steps}]")
    return eta0 * float(np.cos(7.0 * np.pi * t / (16.0 * total_steps)))


class SgdMomentum:
    """SGD with momentum 0.9 and cosine-decayed learning rate over one flat
    parameter vector. `step` updates the vector it was built with (a
    `Classifier`'s `theta`) in place."""

    def __init__(self, theta: np.ndarray, eta0: float, total_steps: int):
        self.theta = theta
        self.eta0 = eta0
        self.total_steps = max(total_steps, 1)
        self.t = 0
        self.velocity = np.zeros_like(theta)

    def lr(self) -> float:
        return cosine_lr(self.t, self.total_steps, self.eta0)

    def step(self, grad: np.ndarray):
        """v <- 0.9 v + grad; theta <- theta - lr * v."""
        if grad.shape != self.theta.shape:
            raise ShapeError(f"gradient shape {grad.shape} != {self.theta.shape}")
        v = self.velocity
        v *= 0.9
        v += grad
        self.theta -= self.lr() * v
        self.t += 1


class BatchSampler:
    """Uniform without-replacement batches, reshuffled every epoch.

    When fewer than batch_size indices remain the epoch wraps: the sampler
    reshuffles and completes the batch from the fresh permutation.
    """

    def __init__(self, n: int, batch_size: int, rng):
        if n < 1:
            raise EmptyInput("cannot sample from an empty set")
        self.n = n
        self.batch_size = batch_size
        self.rng = rng
        self._order = rng.permutation(n)
        self._pos = 0

    def next(self) -> np.ndarray:
        out = []
        need = self.batch_size
        while need > 0:
            avail = self.n - self._pos
            if avail == 0:
                self._order = self.rng.permutation(self.n)
                self._pos = 0
                avail = self.n
            take = min(need, avail)
            out.append(self._order[self._pos : self._pos + take])
            self._pos += take
            need -= take
        return np.concatenate(out)


def sample_batches(*samplers: BatchSampler) -> tuple:
    """One index batch per sampler for a training step, drawn in order:
    (labeled, unlabeled) when fine-tuning, (labeled,) when pre-training."""
    return tuple(s.next() for s in samplers)


def _step_loop(opt: SgdMomentum, samplers, epochs: int, steps_per_epoch: int,
               step, after_step, end_epoch):
    """The SGD loop of pre-training and fine-tuning: `epochs` epochs of
    `steps_per_epoch` steps. A step draws one index batch per sampler,
    `step(*batches)` returns the flat gradient, `opt` steps, and then
    `after_step()` runs; `end_epoch(epoch, lr at the epoch's first step)`
    follows each epoch. Either hook may be None.

    An InvalidInput raised inside the loop (a diverging run's finite check)
    is re-raised with "epoch E, step S: " in front of its message (S counts
    the steps of epoch E from 1). A diverging run overflows inside numpy
    before the typed finite checks see it, so numpy's overflow and invalid
    warnings are kept off stderr: the InvalidInput is the report."""
    epoch = s = 0
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(1, epochs + 1):
                lr = opt.lr()
                for s in range(1, steps_per_epoch + 1):
                    opt.step(step(*sample_batches(*samplers)))
                    if after_step is not None:
                        after_step()
                if end_epoch is not None:
                    end_epoch(epoch, lr)
    except InvalidInput as exc:
        raise InvalidInput(f"epoch {epoch}, step {s}: {exc}") from exc


def total_loss(target: Classifier, x_l, y_l, x_u, cfg: ExperimentConfig,
               arc, source, rng=None, teacher=None):
    """Composite objective: L_CE + lambda_S L_S + lambda_K R_K + lambda_R R_R.

    The active terms, their weights, the AKC mode, the pseudo-label
    confidence and the gate thresholds are read from `cfg`. Runs the target
    extractor once over the rows the active terms read ([x_l; x_u] and, for
    mean teacher, the noisy student view of x_u), sums the terms' gradients
    w.r.t. logits and features, and backpropagates once. `source` is (frozen
    source features, AKC gate weights) of the rows [x_l; x_u], computed once
    per pool at set-up. `arc` is the run's `consistency.ArcState` (None
    without ARC). `teacher` is (EMA teacher model, absolute input-noise
    std) for mean teacher.

    Returns (scalar, gradient, breakdown dict). The gradient is the flat
    vector `target.grad` (laid out like `target.theta`), which the next
    backward of `target` overwrites. The breakdown maps each of
    STEP_COLUMNS to its raw term value or ARC gate selected fraction; the
    scalar equals the weighted sum of the terms. A non-finite term is an
    InvalidInput naming its column.
    """
    x_l = np.asarray(x_l, dtype=np.float64)
    n_l, n_u = x_l.shape[0], x_u.shape[0]
    parts = cfg.method_parts()
    use_akc = "akc" in parts
    use_arc = "arc" in parts and n_u > 0
    use_ssl = cfg.lambda_s > 0 and n_u > 0
    use_pl = use_ssl and "pseudo_label" in parts
    use_mt = use_ssl and "mean_teacher" in parts
    rows = [x_l, x_u] if n_u > 0 and (use_akc or use_arc or use_pl) else [x_l]
    n_lu = sum(r.shape[0] for r in rows)
    if use_mt:
        teacher_model, noise_std = teacher
        x_s, x_t = ssl_baselines.noisy_views(x_u, noise_std, rng)
        rows.append(x_s)
    acts = target.extractor.activations(np.vstack(rows))
    feats = acts[-1]
    logits = target.head.forward(feats)

    value, d_ce = ssl_baselines.cross_entropy_loss(logits[:n_l], y_l)
    d_logits = np.zeros_like(logits)
    d_logits[:n_l] = d_ce
    d_feats = np.zeros_like(feats) if use_akc or use_arc else None
    breakdown = dict.fromkeys(STEP_COLUMNS, 0.0)
    breakdown["loss_ce"] = value

    if use_pl or use_mt:
        # the last n_u rows: x_u for pseudo-label, the student view for
        # mean teacher
        z_u = logits[-n_u:]
        if use_pl:
            v_s, d_s = ssl_baselines.pseudo_label_loss(z_u, cfg.pl_confidence)
        else:
            v_s, d_s = ssl_baselines.mean_teacher_loss(z_u, teacher_model.forward(x_t))
        breakdown["loss_ssl"] = v_s
        value += cfg.lambda_s * v_s
        d_logits[-n_u:] += cfg.lambda_s * d_s

    if use_akc:
        f0, akc_w = source
        v_k, d_k, _ = consistency.akc_loss(feats[:n_lu], f0, akc_w, cfg.akc_mode)
        breakdown["loss_akc"] = v_k
        value += cfg.lambda_k * v_k
        d_feats[:n_lu] += cfg.lambda_k * d_k

    if use_arc:
        v_r, (d_rl, d_ru), frac_rl, frac_ru = consistency.arc_loss(
            feats[:n_l], feats[n_l:n_lu], logits[:n_l], logits[n_l:n_lu],
            cfg.eps_r(target.head.n_classes), arc,
        )
        breakdown["loss_arc"] = v_r
        breakdown["arc_labeled_fraction"] = frac_rl
        breakdown["arc_unlabeled_fraction"] = frac_ru
        value += cfg.lambda_r * v_r
        d_feats[:n_l] += cfg.lambda_r * d_rl
        d_feats[n_l:n_lu] += cfg.lambda_r * d_ru

    for column in STEP_COLUMNS:
        if not math.isfinite(breakdown[column]):
            raise InvalidInput(f"{column} is not finite")
    return float(value), target.backward(acts, d_logits, d_feats), breakdown


@dataclass
class MetricsLog:
    """Per-epoch training records with a fixed, versioned column schema."""

    records: list = field(default_factory=list)

    def append(self, **kwargs):
        rec = {k: kwargs[k] for k in METRICS_COLUMNS}
        self.records.append(rec)

    def to_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(METRICS_COLUMNS)
            for rec in self.records:
                writer.writerow(
                    [rec["epoch"]] + [repr(float(rec[c])) for c in METRICS_COLUMNS[1:]]
                )

    def to_json(self, path):
        payload = {"schema_version": METRICS_SCHEMA_VERSION, "records": self.records}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)

    def best(self):
        """Best test accuracy over the logged epochs."""
        return max(r["test_acc"] for r in self.records)

    def last(self):
        """Test accuracy of the last logged epoch."""
        return self.records[-1]["test_acc"]


def accuracy(classifier: Classifier, x, y) -> float:
    if np.asarray(x).shape[0] == 0:
        raise EmptyInput("accuracy of no rows is undefined")
    return float((classifier.predict(x) == np.asarray(y)).mean())


def train_supervised(classifier: Classifier, x, y, epochs: int, batch_size: int,
                     eta0: float, rng):
    """Plain cross-entropy training of `classifier` in place (used for
    source pre-training). The labels must lie in [0, classes of the head).

    An InvalidInput raised by a step (the logits of a diverging run are not
    finite) is re-raised with "epoch E, step S: " in front of its message,
    and numpy's overflow warnings are kept off stderr, as in fine-tuning."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=int)
    n = x.shape[0]
    c = classifier.head.n_classes
    if n and (y.min() < 0 or y.max() >= c):
        raise InvalidLabel(f"labels must be in [0, {c})")
    steps_per_epoch = max(1, int(np.ceil(n / batch_size)))
    opt = SgdMomentum(classifier.theta, eta0, steps_per_epoch * max(epochs, 1))
    sampler = BatchSampler(n, min(batch_size, n), rng)
    ext, head = classifier.extractor, classifier.head

    def step(idx):
        acts = ext.activations(x[idx])
        d_logits = ssl_baselines.cross_entropy_grad(head.forward(acts[-1]), y[idx])
        return classifier.backward(acts, d_logits)

    _step_loop(opt, (sampler,), epochs, steps_per_epoch, step, None, None)


@dataclass
class RunResult:
    """What `run_pipeline` returns. `source_model` is the pre-trained source
    model: read-only, and shared by the sub-runs of a grid that share its
    set-up. `pair.source` is a private copy of it."""

    metrics: MetricsLog
    pair: ModelPair
    source_model: Classifier
    target_split: SplitSet
    akc_pool_fraction: float


@dataclass(frozen=True)
class Setup:
    """The part of a run that depends only on the SETUP_FIELDS of its
    config: the source set, the target set before its labeled split (test
    rows included) and `source`, the source model pre-trained on the source
    set. `source` is pre-trained by calling `pre_train` the first time it is
    read, so a run that fails before it reads it (at its labeled split)
    pre-trains nothing. A pre-training that diverged runs once: each read
    raises an InvalidInput with its message. Every array, the model's
    parameters and gradient included, is read-only, so runs can share one
    Setup."""

    source_set: SplitSet
    target_set: SplitSet
    pre_train: Callable[[], Classifier] = field(repr=False)

    @functools.cached_property
    def _pre_trained(self):  # the model, or the InvalidInput pre-training raised
        try:
            return self.pre_train()
        except InvalidInput as exc:
            return exc

    @property
    def source(self) -> Classifier:
        if isinstance(self._pre_trained, InvalidInput):
            raise InvalidInput(str(self._pre_trained)) from self._pre_trained
        return self._pre_trained


# The Setups of the grid being run, keyed by their SETUP_FIELDS; None outside
# `shared_setups`, so that a lone run prepares its own.
_setups = contextvars.ContextVar("setups", default=None)


@contextlib.contextmanager
def shared_setups():
    """Within the block, `run_pipeline` prepares each set-up key once and
    reuses that Setup for every later config with the same key (the
    sub-runs of one seed of a grid). A `prepare` that raises stores
    nothing. The Setups are dropped when the block ends."""
    token = _setups.set({})
    try:
        yield
    finally:
        _setups.reset(token)


def _rngs(seed: int) -> list:
    """The run's six generators: source init, pre-training, target init,
    labeled split, fine-tuning batches, mean-teacher noise."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(6)]


def _read_only(arrays):
    for a in arrays:  # a view keeps its own flag, so views are frozen one by one
        a.flags.writeable = False


def prepare(cfg) -> Setup:
    """Read the run's data; the Setup pre-trains its source model when its
    `source` is first read. Reads only the SETUP_FIELDS of `cfg`, which must
    be valid, and all of them here. A diverging pre-training is an
    InvalidInput that starts with "source pre-training, epoch E, step S"."""
    source_set, target_set = load_task(cfg)
    for split in (source_set, target_set):
        _read_only([split.labeled_x, split.labeled_y, split.unlabeled_x,
                    split.test_x, split.test_y])
    dims = [source_set.labeled_x.shape[1]] + list(cfg.hidden_dims) + [cfg.feature_dim]
    return Setup(source_set, target_set, functools.partial(
        _pre_train, source_set, dims, cfg.seed, cfg.source_epochs,
        cfg.batch_labeled, cfg.source_eta0))


def _pre_train(source_set, dims, seed, epochs, batch_size, eta0) -> Classifier:
    """A read-only source model of extractor layer sizes `dims`, trained on
    `source_set` from the generators of `seed`; each call starts afresh."""
    rng_init_src, rng_pretrain = _rngs(seed)[:2]
    src = Classifier(
        MlpExtractor(dims, rng_init_src),
        LinearHead(source_set.n_classes, dims[-1], rng_init_src),
    )
    try:
        train_supervised(src, source_set.labeled_x, source_set.labeled_y,
                         epochs, batch_size, eta0, rng_pretrain)
    except InvalidInput as exc:
        raise InvalidInput(f"source pre-training, {exc}") from exc
    _read_only([src.theta, src.grad, *src.extractor.weights, *src.extractor.biases,
                src.head.w, src.head.b])
    return src


def _prepared(cfg) -> Setup:
    """`prepare(cfg)`, or inside `shared_setups` the stored Setup of its key."""
    store = _setups.get()
    if store is None:
        return prepare(cfg)
    values = operator.attrgetter(*SETUP_FIELDS)(cfg)
    key = tuple(tuple(v) if isinstance(v, list) else v for v in values)  # hidden_dims
    if key not in store:
        store[key] = prepare(cfg)
    return store[key]


def run_pipeline(cfg) -> RunResult:
    """Pre-train on the source task, copy and freeze, imprint the target
    head, then fine-tune with the composite loss. Deterministic per seed.

    The set-up comes from `prepare`, or inside `shared_setups` from an
    earlier run whose config agrees on every SETUP_FIELDS; the result is
    the same. The labeled split, the target model and the pool's source
    features and AKC weights are built per run.

    Pre-training and fine-tuning run the same SGD loop over the model's
    flat parameter vector. An InvalidInput raised by a fine-tuning step, or
    by the evaluation after the last step of an epoch, is re-raised with
    "epoch E, step S: " in front of its message (S counts the steps of
    epoch E from 1)."""
    if not isinstance(cfg, ExperimentConfig):
        raise ConfigError(
            f"run_pipeline needs an ExperimentConfig, got {type(cfg).__name__}"
        )
    cfg.validate()

    _, _, rng_init_tgt, rng_split, rng_train, rng_noise = _rngs(cfg.seed)
    setup = _prepared(cfg)
    target_set = split_labeled(setup.target_set, cfg.n_labeled,
                               int(rng_split.integers(2**31)))
    src = setup.source  # pre-trained only once the split has succeeded
    c_s = setup.source_set.n_classes
    c_t = target_set.n_classes
    del setup  # outside a grid, the data the run no longer reads can go

    tgt_ext = copy.deepcopy(src.extractor)
    tgt_head = LinearHead(c_t, cfg.feature_dim, rng_init_tgt)
    if cfg.imprint_head:
        imprint(tgt_head, tgt_ext.forward(target_set.labeled_x),
                target_set.labeled_y)
    target_model = Classifier(tgt_ext, tgt_head)
    pair = ModelPair(source=src, target=target_model)

    pool_x = target_set.all_train_x()
    n_l = target_set.labeled_x.shape[0]
    pool_f0 = pair.source.extractor.forward(pool_x)  # the source is frozen
    pool_akc_w = consistency.akc_weights(pair.source.head, pool_f0, cfg.eps_k(c_s))
    akc_pool_fraction = float(pool_akc_w.mean())

    teacher = ema = None
    if "mean_teacher" in cfg.method_parts():
        # cfg.noise_std is relative to the pool's mean per-feature std
        teacher = (target_model.copy(),
                   cfg.noise_std * float(pool_x.std(axis=0).mean()))

        def ema():
            model.ema_update(teacher[0].theta, target_model.theta, cfg.ema_alpha)

    steps_per_epoch = max(1, int(np.ceil(pool_x.shape[0] / cfg.batch_unlabeled)))
    metrics = MetricsLog()
    sums = dict.fromkeys(STEP_COLUMNS, 0.0)  # this epoch's per-step values

    def log_epoch(epoch, lr):
        metrics.append(
            epoch=epoch, lr=lr, akc_fraction=akc_pool_fraction,
            train_acc=accuracy(target_model, target_set.labeled_x,
                               target_set.labeled_y),
            test_acc=accuracy(target_model, target_set.test_x,
                              target_set.test_y),
            **{k: sums[k] / steps_per_epoch for k in STEP_COLUMNS},
        )
        sums.update(dict.fromkeys(STEP_COLUMNS, 0.0))

    log_epoch(0, cfg.eta0)
    total_steps = steps_per_epoch * cfg.epochs
    # ARC's window size: a window never holds more rows than the run pushes
    w = max(1, min(cfg.buffer_capacity, cfg.buffer_k,
                   total_steps * max(cfg.batch_labeled, cfg.batch_unlabeled)))
    arc = consistency.ArcState(w) if "arc" in cfg.method_parts() else None

    def step(idx_l, idx_u):
        idx_lu = np.concatenate([idx_l, idx_u])
        _, grad, bd = total_loss(
            target_model, target_set.labeled_x[idx_l], target_set.labeled_y[idx_l],
            pool_x[idx_u], cfg, arc, (pool_f0[idx_lu], pool_akc_w[idx_lu]),
            rng=rng_noise, teacher=teacher,
        )
        for k in sums:
            sums[k] += bd[k]
        return grad

    _step_loop(
        SgdMomentum(target_model.theta, cfg.eta0, total_steps),
        (BatchSampler(n_l, min(cfg.batch_labeled, n_l), rng_train),
         BatchSampler(pool_x.shape[0], cfg.batch_unlabeled, rng_train)),
        cfg.epochs, steps_per_epoch, step, ema, log_epoch,
    )
    return RunResult(metrics, pair, src, target_set, akc_pool_fraction)
