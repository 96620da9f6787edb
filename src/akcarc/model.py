"""Two-part network (feature extractor + linear head), its backward pass,
imprinting initialization, EMA copies, and checkpoint round-tripping."""

import copy

import numpy as np

from .errors import MissingClassError, ShapeError, StateError
from .numerics import as_tensor2, check_finite

CHECKPOINT_VERSION = 1


def glorot_uniform(rng, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class MlpExtractor:
    """Fully connected feature extractor.

    Hidden layers use relu; the output layer is linear so features live in
    all of R^h. `dims` is [input_dim, hidden..., feature_dim].
    """

    def __init__(self, dims, rng=None):
        if len(dims) < 2:
            raise ShapeError("extractor needs at least input and output dims")
        self.dims = list(dims)
        rng = rng or np.random.default_rng(0)
        self.weights = [
            glorot_uniform(rng, dims[i], dims[i + 1]) for i in range(len(dims) - 1)
        ]
        self.biases = [np.zeros((1, dims[i + 1])) for i in range(len(dims) - 1)]

    def activations(self, x) -> list:
        """Layer activations [x, hidden..., features] of a batch; `backward`
        takes them back."""
        a = as_tensor2(x)
        if a.shape[1] != self.dims[0]:
            raise ShapeError(f"input dim {a.shape[1]} != {self.dims[0]}")
        acts = [a]
        n_layers = len(self.weights)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ w + b
            a = np.maximum(z, 0.0) if i < n_layers - 1 else z
            acts.append(a)
        return acts

    def forward(self, x) -> np.ndarray:
        """Features of a batch."""
        return self.activations(x)[-1]

    def backward(self, acts, d_features: np.ndarray):
        """Parameter gradients from dL/dF at the activations `acts` of one
        batch. Returns {"W0": ..., "b0": ..., ...}; does not mutate
        parameters.
        """
        d = as_tensor2(d_features)
        if d.shape != acts[-1].shape:
            raise ShapeError(f"gradient shape {d.shape} != {acts[-1].shape}")
        grads = {}
        for i in reversed(range(len(self.weights))):
            # hidden layers ended in relu; acts[i+1] > 0 marks active units
            if i < len(self.weights) - 1:
                d = d * (acts[i + 1] > 0)
            grads[f"W{i}"] = acts[i].T @ d
            grads[f"b{i}"] = d.sum(axis=0, keepdims=True)
            d = d @ self.weights[i].T
        return grads

    def params(self):
        out = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"W{i}"] = w
            out[f"b{i}"] = b
        return out


class LinearHead:
    """Linear classifier: logits = F @ W.T + b, with W of shape (C, h)."""

    def __init__(self, n_classes: int, feature_dim: int, rng=None):
        if n_classes < 2:
            raise ShapeError("head needs at least 2 classes")
        rng = rng or np.random.default_rng(0)
        self.w = glorot_uniform(rng, n_classes, feature_dim)
        self.b = np.zeros((1, n_classes))

    @property
    def n_classes(self) -> int:
        return self.w.shape[0]

    def forward(self, features) -> np.ndarray:
        f = as_tensor2(features)
        if f.shape[1] != self.w.shape[1]:
            raise ShapeError(f"feature dim {f.shape[1]} != {self.w.shape[1]}")
        return f @ self.w.T + self.b

    def backward(self, features: np.ndarray, d_logits: np.ndarray):
        """Returns ({"W": dW, "b": db}, dL/dFeatures)."""
        f, d = as_tensor2(features), as_tensor2(d_logits)
        if d.shape != (f.shape[0], self.w.shape[0]):
            raise ShapeError(f"bad logits-gradient shape {d.shape}")
        return {"W": d.T @ f, "b": d.sum(axis=0, keepdims=True)}, d @ self.w

    def params(self):
        return {"W": self.w, "b": self.b}


class Classifier:
    """Extractor plus head; parameters exposed as a flat name -> array dict."""

    def __init__(self, extractor: MlpExtractor, head: LinearHead):
        self.extractor = extractor
        self.head = head

    def forward(self, x) -> np.ndarray:
        return self.head.forward(self.extractor.forward(x))

    def predict(self, x) -> np.ndarray:
        return np.argmax(check_finite(self.forward(x), "logits"), axis=1)

    def backward(self, acts, d_logits, d_features=None):
        """Gradients keyed like params() from dL/dlogits and an optional
        extra dL/dF, both at the extractor activations `acts` of one batch."""
        head_grads, d_f = self.head.backward(acts[-1], d_logits)
        if d_features is not None:
            d_f = d_f + d_features
        grads = {f"ext.{k}": v for k, v in self.extractor.backward(acts, d_f).items()}
        grads.update({f"head.{k}": v for k, v in head_grads.items()})
        return grads

    def params(self):
        out = {f"ext.{k}": v for k, v in self.extractor.params().items()}
        out.update({f"head.{k}": v for k, v in self.head.params().items()})
        return out

    def copy(self) -> "Classifier":
        return copy.deepcopy(self)


class ModelPair:
    """Frozen source model and trainable target model sharing the extractor
    architecture. The source side is copied defensively and never updated."""

    def __init__(self, source: Classifier, target: Classifier):
        if source.extractor.dims != target.extractor.dims:
            raise ShapeError("source/target extractor architectures differ")
        self.source = source.copy()
        self.target = target


def imprint(head: LinearHead, features, labels) -> LinearHead:
    """Set each head row to the normalized mean of normalized class features.

    Every class 0..C-1 must have at least one example; bias is zeroed.
    """
    f = as_tensor2(features)
    y = np.asarray(labels, dtype=int)
    if f.shape[0] != y.shape[0]:
        raise ShapeError("features/labels length mismatch")
    c = head.n_classes
    norms = np.linalg.norm(f, axis=1, keepdims=True)
    fn = f / np.maximum(norms, 1e-12)
    w = np.zeros_like(head.w)
    for k in range(c):
        rows = fn[y == k]
        if rows.shape[0] == 0:
            raise MissingClassError(f"class {k} has no labeled example")
        mean = rows.mean(axis=0)
        w[k] = mean / max(np.linalg.norm(mean), 1e-12)
    head.w = w
    head.b = np.zeros_like(head.b)
    return head


def ema_update(teacher_params: dict, student_params: dict, alpha: float):
    """In-place teacher <- alpha * teacher + (1 - alpha) * student."""
    for name, t in teacher_params.items():
        s = student_params[name]
        if t.shape != s.shape:
            raise ShapeError(f"shape mismatch for {name}: {t.shape} vs {s.shape}")
        t *= alpha
        t += (1.0 - alpha) * s


def save_checkpoint(path, model: Classifier):
    """Write a versioned npz dump of shapes and parameters (bit-exact)."""
    arrays = {name.replace(".", "__"): v for name, v in model.params().items()}
    np.savez(
        path,
        __version=np.array([CHECKPOINT_VERSION]),
        __dims=np.array(model.extractor.dims),
        __classes=np.array([model.head.n_classes]),
        **arrays,
    )


def load_checkpoint(path) -> Classifier:
    with np.load(path) as z:
        version = int(z["__version"][0])
        if version != CHECKPOINT_VERSION:
            raise StateError(f"unsupported checkpoint version {version}")
        dims = [int(d) for d in z["__dims"]]
        n_classes = int(z["__classes"][0])
        ext = MlpExtractor(dims)
        head = LinearHead(n_classes, dims[-1])
        model = Classifier(ext, head)
        for name, param in model.params().items():
            param[...] = z[name.replace(".", "__")]
    return model
