"""Two-part network (feature extractor + linear head) over one flat
parameter vector, its backward pass into one flat gradient vector,
imprinting initialization, EMA copies, and `.npz` checkpoint writing."""

import copy

import numpy as np

from .errors import MissingClassError, ShapeError
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
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = a @ w
            a += b
            if i < last:
                np.maximum(a, 0.0, out=a)
            acts.append(a)
        return acts

    def forward(self, x) -> np.ndarray:
        """Features of a batch."""
        return self.activations(x)[-1]

    def backward(self, acts, d_features: np.ndarray, out):
        """Write the parameter gradients of one batch into `out` = (weight
        gradients, bias gradients), two lists of arrays shaped like
        `weights` and `biases`, from dL/dF at the activations `acts` of that
        batch. Mutates neither the parameters nor `d_features`.
        """
        if d_features.shape != acts[-1].shape:
            raise ShapeError(f"gradient shape {d_features.shape} != {acts[-1].shape}")
        d_w, d_b = out
        d = d_features
        for i in reversed(range(len(self.weights))):
            np.matmul(acts[i].T, d, out=d_w[i])
            np.add.reduce(d, axis=0, keepdims=True, out=d_b[i])
            if i:
                d = d @ self.weights[i].T
                # layer i - 1 ended in relu; acts[i] > 0 marks active units
                d *= acts[i] > 0

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
        z = f @ self.w.T
        z += self.b
        return z

    def backward(self, features: np.ndarray, d_logits: np.ndarray, out):
        """Write dL/dW and dL/db into `out` = (dW, db), arrays shaped like
        `w` and `b`, and return dL/dFeatures."""
        if d_logits.shape != (features.shape[0], self.w.shape[0]):
            raise ShapeError(f"bad logits-gradient shape {d_logits.shape}")
        np.matmul(d_logits.T, features, out=out[0])
        np.add.reduce(d_logits, axis=0, keepdims=True, out=out[1])
        return d_logits @ self.w

    def params(self):
        return {"W": self.w, "b": self.b}


class Classifier:
    """Extractor plus head over one contiguous float64 parameter vector.

    `theta` holds every parameter: the extractor's W0, b0, W1, b1, ...,
    then the head's W and b, each in C order. The classifier takes over
    the extractor and head it is given: their `weights`, `biases`, `w` and
    `b` become views into `theta`, so updating `theta` in place updates
    the layers. `grad` has the same layout and is where `backward`
    writes. `params()` and `named(vec)` name the views.
    """

    def __init__(self, extractor: MlpExtractor, head: LinearHead):
        self.extractor = extractor
        self.head = head
        arrays = {f"ext.{k}": v for k, v in extractor.params().items()}
        arrays.update({f"head.{k}": v for k, v in head.params().items()})
        self._layout = [(name, a.shape) for name, a in arrays.items()]
        self.theta = np.concatenate([a.ravel() for a in arrays.values()],
                                    dtype=np.float64)
        self.grad = np.zeros_like(self.theta)
        p = list(self.params().values())
        g = list(self.named(self.grad).values())
        n = len(extractor.weights)
        extractor.weights, extractor.biases = p[0:2 * n:2], p[1:2 * n:2]
        head.w, head.b = p[2 * n:]
        self._ext_grads = (g[0:2 * n:2], g[1:2 * n:2])
        self._head_grads = g[2 * n:]

    def named(self, vec: np.ndarray) -> dict:
        """Views of a vector laid out like `theta` (`theta`, `grad`, or a
        copy of either), keyed "ext.W0", "ext.b0", ..., "head.W", "head.b"."""
        out, at = {}, 0
        for name, shape in self._layout:
            size = int(np.prod(shape))
            out[name] = vec[at:at + size].reshape(shape)
            at += size
        return out

    def params(self):
        return self.named(self.theta)

    def forward(self, x) -> np.ndarray:
        return self.head.forward(self.extractor.forward(x))

    def predict(self, x) -> np.ndarray:
        return np.argmax(check_finite(self.forward(x), "logits"), axis=1)

    def backward(self, acts, d_logits, d_features=None):
        """Write the parameter gradient of dL/dlogits and an optional extra
        dL/dF, both at the extractor activations `acts` of one batch, into
        `grad`, and return `grad`. The next backward overwrites it."""
        d_f = self.head.backward(acts[-1], d_logits, self._head_grads)
        if d_features is not None:
            d_f += d_features
        self.extractor.backward(acts, d_f, self._ext_grads)
        return self.grad

    def copy(self) -> "Classifier":
        """An equal classifier that shares no memory with this one: a new
        parameter vector, with new layer views into it."""
        return Classifier(copy.deepcopy(self.extractor), copy.deepcopy(self.head))

    def __deepcopy__(self, memo):
        return self.copy()


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
    head.w[...] = w
    head.b[...] = 0.0
    return head


def ema_update(teacher: np.ndarray, student: np.ndarray, alpha: float):
    """In-place teacher <- alpha * teacher + (1 - alpha) * student, over two
    parameter vectors (a `Classifier`'s `theta`) or any equal-shaped arrays."""
    if teacher.shape != student.shape:
        raise ShapeError(f"shape mismatch: {teacher.shape} vs {student.shape}")
    teacher *= alpha
    teacher += (1.0 - alpha) * student


def save_checkpoint(path, model: Classifier):
    """Write `model` to the `.npz` file `path`: its `params()` arrays bit
    for bit, keyed "ext__W0", "ext__b0", ..., "head__W", "head__b", beside
    `__dims` (layer sizes), `__classes` and `__version`."""
    arrays = {name.replace(".", "__"): v for name, v in model.params().items()}
    np.savez(
        path,
        __version=np.array([CHECKPOINT_VERSION]),
        __dims=np.array(model.extractor.dims),
        __classes=np.array([model.head.n_classes]),
        **arrays,
    )

