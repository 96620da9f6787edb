"""Loss assembly, SGD with momentum under a cosine schedule, batch sampling,
and the pre-train / imprint / fine-tune pipeline with per-epoch metrics."""

import copy
import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import consistency, model, ssl_baselines
from .config import ExperimentConfig
from .data import SplitSet, load_task, split_labeled
from .errors import ConfigError, EmptyInput, InvalidInput, ShapeError
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


def cosine_lr(t: int, total_steps: int, eta0: float) -> float:
    """eta0 * cos(7 pi t / (16 T)); decreasing on [0, T], always positive."""
    if total_steps < 1:
        raise InvalidInput("total_steps must be >= 1")
    if t < 0 or t > total_steps:
        raise InvalidInput(f"step {t} outside [0, {total_steps}]")
    return eta0 * float(np.cos(7.0 * np.pi * t / (16.0 * total_steps)))


class SgdMomentum:
    """SGD with momentum 0.9 and cosine-decayed learning rate. `step`
    updates the arrays of the parameter dict it was built with in place."""

    def __init__(self, params: dict, eta0: float, total_steps: int):
        self.params = params
        self.eta0 = eta0
        self.total_steps = max(total_steps, 1)
        self.t = 0
        self.velocity = {k: np.zeros_like(v) for k, v in params.items()}

    def lr(self) -> float:
        return cosine_lr(self.t, self.total_steps, self.eta0)

    def step(self, grads: dict):
        eta = self.lr()
        for name, p in self.params.items():
            g = grads[name]
            if g.shape != p.shape:
                raise ShapeError(f"gradient shape mismatch for {name}")
            v = self.velocity[name]
            v *= 0.9
            v += g
            p -= eta * v
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


def sample_batches(labeled: BatchSampler, unlabeled: BatchSampler):
    """One (labeled, unlabeled) index pair per training step."""
    return labeled.next(), unlabeled.next()


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

    Returns (scalar, grads dict over target params, breakdown dict). The
    breakdown maps each of STEP_COLUMNS to its raw term value or ARC gate
    selected fraction; the scalar equals the weighted sum of the terms. A
    non-finite term is an InvalidInput naming its column.
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
    grads = target.backward(acts, d_logits, d_feats)
    return float(value), grads, breakdown


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
    source pre-training).

    An InvalidInput raised by a step (the logits of a diverging run are not
    finite) is re-raised with "epoch E, step S: " in front of its message,
    and numpy's overflow warnings are kept off stderr, as in fine-tuning."""
    n = x.shape[0]
    steps_per_epoch = max(1, int(np.ceil(n / batch_size)))
    total = steps_per_epoch * max(epochs, 1)
    opt = SgdMomentum(classifier.params(), eta0, total)
    sampler = BatchSampler(n, min(batch_size, n), rng)
    epoch = step = 0
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(1, epochs + 1):
                for step in range(1, steps_per_epoch + 1):
                    idx = sampler.next()
                    acts = classifier.extractor.activations(x[idx])
                    _, d_logits = ssl_baselines.cross_entropy_loss(
                        classifier.head.forward(acts[-1]), y[idx]
                    )
                    opt.step(classifier.backward(acts, d_logits))
    except InvalidInput as exc:
        raise InvalidInput(f"epoch {epoch}, step {step}: {exc}") from exc


@dataclass
class RunResult:
    metrics: MetricsLog
    pair: ModelPair
    source_model: Classifier
    target_split: SplitSet
    akc_pool_fraction: float


def run_pipeline(cfg) -> RunResult:
    """Pre-train on the source task, copy and freeze, imprint the target
    head, then fine-tune with the composite loss. Deterministic per seed.

    An InvalidInput raised by a fine-tuning step, or by the evaluation after
    the last step of an epoch, is re-raised with "epoch E, step S: " in
    front of its message (S counts the steps of epoch E from 1)."""
    if not isinstance(cfg, ExperimentConfig):
        raise ConfigError(
            f"run_pipeline needs an ExperimentConfig, got {type(cfg).__name__}"
        )
    cfg.validate()

    seeds = np.random.SeedSequence(cfg.seed).spawn(6)
    rngs = [np.random.default_rng(s) for s in seeds]
    rng_init_src, rng_pretrain, rng_init_tgt, rng_split, rng_train, rng_noise = rngs

    source_set, target_set = load_task(cfg)
    target_set = split_labeled(target_set, cfg.n_labeled,
                               int(rng_split.integers(2**31)))

    d = source_set.labeled_x.shape[1]
    c_s = source_set.n_classes
    c_t = target_set.n_classes
    dims = [d] + list(cfg.hidden_dims) + [cfg.feature_dim]

    src = Classifier(
        MlpExtractor(dims, rng_init_src),
        LinearHead(c_s, cfg.feature_dim, rng_init_src),
    )
    try:
        train_supervised(
            src, source_set.labeled_x, source_set.labeled_y,
            cfg.source_epochs, cfg.batch_labeled, cfg.source_eta0, rng_pretrain,
        )
    except InvalidInput as exc:
        raise InvalidInput(f"source pre-training, {exc}") from exc

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

    teacher = None
    if cfg.ssl_method() == "mean_teacher":
        # cfg.noise_std is relative to the pool's mean per-feature std
        teacher = (copy.deepcopy(target_model),
                   cfg.noise_std * float(pool_x.std(axis=0).mean()))
        teacher_params = teacher[0].params()

    steps_per_epoch = max(1, int(np.ceil(pool_x.shape[0] / cfg.batch_unlabeled)))
    metrics = MetricsLog()

    def log_epoch(epoch, lr, sums):
        metrics.append(
            epoch=epoch, lr=lr, akc_fraction=akc_pool_fraction,
            train_acc=accuracy(target_model, target_set.labeled_x,
                               target_set.labeled_y),
            test_acc=accuracy(target_model, target_set.test_x,
                              target_set.test_y),
            **{k: sums[k] / steps_per_epoch for k in STEP_COLUMNS},
        )

    log_epoch(0, cfg.eta0, dict.fromkeys(STEP_COLUMNS, 0.0))
    total_steps = steps_per_epoch * cfg.epochs
    # ARC's window size: a window never holds more rows than the run pushes
    w = max(1, min(cfg.buffer_capacity, cfg.buffer_k,
                   total_steps * max(cfg.batch_labeled, cfg.batch_unlabeled)))
    arc = consistency.ArcState(w) if "arc" in cfg.method_parts() else None
    opt = SgdMomentum(target_model.params(), cfg.eta0, total_steps)
    sampler_l = BatchSampler(n_l, min(cfg.batch_labeled, n_l), rng_train)
    sampler_u = BatchSampler(pool_x.shape[0], cfg.batch_unlabeled, rng_train)

    epoch = step = 0
    try:
        # A diverging run overflows inside numpy before the typed finite
        # checks (total_loss's terms, softmax_rows, accuracy) see it; their
        # InvalidInput is the report, so numpy's warnings are kept off stderr.
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(1, cfg.epochs + 1):
                sums = dict.fromkeys(STEP_COLUMNS, 0.0)
                lr_at_epoch_start = opt.lr()
                for step in range(1, steps_per_epoch + 1):
                    idx_l, idx_u = sample_batches(sampler_l, sampler_u)
                    x_l = target_set.labeled_x[idx_l]
                    y_l = target_set.labeled_y[idx_l]
                    x_u = pool_x[idx_u]
                    idx_lu = np.concatenate([idx_l, idx_u])
                    _, grads, bd = total_loss(
                        target_model, x_l, y_l, x_u, cfg, arc,
                        (pool_f0[idx_lu], pool_akc_w[idx_lu]),
                        rng=rng_noise, teacher=teacher,
                    )
                    opt.step(grads)
                    if teacher is not None:
                        model.ema_update(teacher_params, opt.params, cfg.ema_alpha)
                    for k in sums:
                        sums[k] += bd[k]
                log_epoch(epoch, lr_at_epoch_start, sums)
    except InvalidInput as exc:
        raise InvalidInput(f"epoch {epoch}, step {step}: {exc}") from exc

    return RunResult(metrics, pair, src, target_set, akc_pool_fraction)
