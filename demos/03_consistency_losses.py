"""The two consistency regularizers on a single batch, step by step.

AKC (adaptive knowledge consistency) penalizes divergence between the
frozen source extractor's features and the current target extractor's
features, but only on examples the source model recognizes confidently
(low prediction entropy). ARC (adaptive representation consistency)
penalizes the MMD between confidently predicted labeled and unlabeled
representation sets, stabilized by replay buffers of recent selections.
"""

import copy

import numpy as np

from akcarc.config import ExperimentConfig
from akcarc.consistency import (
    ArcState,
    akc_loss,
    akc_weights,
    arc_loss,
)
from akcarc.model import Classifier, LinearHead, MlpExtractor, ModelPair
from akcarc.numerics import entropy_rows, mmd2_value_grad, softmax_rows

rng = np.random.default_rng(0)

# a source/target pair whose target extractor has drifted a little
ext = MlpExtractor([8, 16, 6], rng)
source = Classifier(ext, LinearHead(5, 6, rng))
tgt_ext = copy.deepcopy(ext)
for w in tgt_ext.weights:
    w += rng.normal(0, 0.05, size=w.shape)
pair = ModelPair(source=source, target=Classifier(tgt_ext, LinearHead(3, 6, rng)))

x = rng.normal(size=(12, 8))
cfg = ExperimentConfig()  # the gate thresholds are scales of ln C
eps_k, eps_r = cfg.eps_k(5), cfg.eps_r(3)
print(f"gates: eps_k = 0.7 ln 5 = {eps_k:.3f} nats, "
      f"eps_r = 0.7 ln 3 = {eps_r:.3f} nats")

# --- AKC -------------------------------------------------------------
# Each loss is a function of features: it returns its value and its
# gradient w.r.t. those features. The frozen source is evaluated once.
probs = softmax_rows(source.forward(x))
ents = entropy_rows(probs)
w = akc_weights(source, x, eps_k)
f0 = source.extractor.forward(x)
print(f"\nsource prediction entropies: {np.round(ents, 2).tolist()}")
print(f"AKC gate weights:            {w.astype(int).tolist()}")

acts = tgt_ext.activations(x)  # one forward; backward takes these back
value, d_f, frac = akc_loss(acts[-1], f0, w, mode="mse")
print(f"AKC loss {value:.4f}, selected fraction {frac:.2f}")
# backward writes each layer's gradient into arrays shaped like its
# parameters (a Classifier passes views of its one flat gradient vector)
d_w = [np.empty_like(w) for w in tgt_ext.weights]
d_b = [np.empty_like(b) for b in tgt_ext.biases]
tgt_ext.backward(acts, d_f, (d_w, d_b))
print(f"gradient shapes (target extractor only): "
      f"{[g.shape for g in d_w]}, {[g.shape for g in d_b]}")

# identical extractors -> zero penalty regardless of the gate
v0, _, _ = akc_loss(f0, f0, w, "mse")
print(f"with theta == theta0 the penalty is exactly {v0}")

# --- ARC -------------------------------------------------------------
state = ArcState(w=64)
x_l = rng.normal(size=(6, 8))
x_u = rng.normal(size=(10, 8)) + 0.3  # slightly shifted unlabeled stream
head = pair.target.head

print("\nARC over three steps (buffers fill up):")
for step in range(3):
    f_l, f_u = tgt_ext.forward(x_l), tgt_ext.forward(x_u)
    v, (d_l, d_u), frac_l, frac_u = arc_loss(
        f_l, f_u, head.forward(f_l), head.forward(f_u), np.log(3), state
    )
    print(f"  step {step}: R_R = {v:.5f}, selected "
          f"{frac_l:.2f} labeled / {frac_u:.2f} unlabeled, "
          f"buffers hold {len(state.buf_l)}/{len(state.buf_u)} rows")

# the penalty is the MMD of the fetched sets, computed from the pair
# distances an ArcState records when the sets are pushed; equal sets give
# zero, up to rounding
f = tgt_ext.forward(x_l)
same = ArcState(w=len(f))
same.buf_l.update(f)
same.buf_u.update(f)
same.push()
value, _, _ = mmd2_value_grad(f, f, [1.0], same)
print(f"\nMMD^2 of a set against itself: {value:.2e}")
