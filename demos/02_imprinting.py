"""Head imprinting: classify before any gradient step on the target task.

After pre-training an extractor on the source task, the target head's
weight rows are set to the L2-normalized class-mean features of the few
labeled target examples. This gives far-above-chance accuracy immediately,
and fine-tuning starts from that point instead of from a random head.
"""

import copy

import numpy as np

from akcarc.data import SyntheticTaskSpec, generate_task, split_labeled
from akcarc.model import Classifier, LinearHead, MlpExtractor, imprint
from akcarc.ssl_baselines import cross_entropy_loss
from akcarc.training import accuracy, train_supervised

rng = np.random.default_rng(0)
spec = SyntheticTaskSpec(source_train=2000, target_train=1000,
                         target_test=800, cluster_std=0.5, seed=0)
source, target = generate_task(spec)
target = split_labeled(target, n=40, seed=1)

# pre-train the source model
src = Classifier(MlpExtractor([16, 64, 64, 32], rng), LinearHead(10, 32, rng))
train_supervised(src, source.labeled_x, source.labeled_y,
                 epochs=15, batch_size=64, eta0=0.01,
                 rng=np.random.default_rng(1))
print(f"source train accuracy: "
      f"{accuracy(src, source.labeled_x, source.labeled_y):.3f}")

# copy the extractor; compare an imprinted head against a random head
ext = copy.deepcopy(src.extractor)

random_head = Classifier(ext, LinearHead(4, 32, np.random.default_rng(2)))
print(f"random head, no training:    test acc "
      f"{accuracy(random_head, target.test_x, target.test_y):.3f}")

imprinted = Classifier(copy.deepcopy(ext), LinearHead(4, 32))
feats = imprinted.extractor.forward(target.labeled_x)
imprint(imprinted.head, feats, target.labeled_y)
acc0 = accuracy(imprinted, target.test_x, target.test_y)
print(f"imprinted head, no training: test acc {acc0:.3f} "
      f"(chance = {1 / 4:.2f})")

# every imprinted weight row is a unit vector
norms = np.linalg.norm(imprinted.head.w, axis=1)
print(f"imprinted row norms: {np.round(norms, 6).tolist()}")

# fine-tuning starts here: one forward (`activations`), a loss on the
# logits, and one `backward` that takes those activations back
acts = imprinted.extractor.activations(target.labeled_x)
loss, d_logits = cross_entropy_loss(imprinted.head.forward(acts[-1]),
                                    target.labeled_y)
# the parameters are one flat vector `theta`, and backward writes the
# gradient into the flat vector `grad` of the same layout
imprinted.theta -= 0.01 * imprinted.backward(acts, d_logits)
print(f"one gradient step from the imprinted head: CE {loss:.4f} -> "
      f"{cross_entropy_loss(imprinted.forward(target.labeled_x), target.labeled_y)[0]:.4f}")
