"""Generate a synthetic source-to-target transfer task and inspect it.

The source task is a set of Gaussian clusters on orthogonal unit
directions; the target task reuses a subset of the source cluster means,
rotated in a random plane and shifted. The rotation/shift pair controls
how related the two domains are (small rotation = near domain, large =
far), which is the knob the regularization study turns.
"""

import numpy as np

from akcarc.data import SyntheticTaskSpec, generate_task, split_labeled

spec = SyntheticTaskSpec(
    input_dim=16,
    source_classes=10,
    target_classes=4,
    cluster_std=0.5,
    transfer_rotation_deg=30.0,
    transfer_shift=0.2,
    source_train=1000,
    target_train=600,
    target_test=400,
    seed=0,
)

source, target = generate_task(spec)
print(f"source: {source.labeled_x.shape[0]} examples, "
      f"{source.n_classes} classes, dim {source.labeled_x.shape[1]}")
print(f"target: {target.labeled_x.shape[0]} train / "
      f"{target.test_x.shape[0]} test, {target.n_classes} classes")

# class balance is exact up to rounding
counts = np.bincount(target.labeled_y)
print(f"target class counts: {counts.tolist()}")

# distance between corresponding source/target cluster means grows with
# the rotation angle; empirical class means show the shift
for c in range(target.n_classes):
    mu_s = source.labeled_x[source.labeled_y == c].mean(axis=0)
    mu_t = target.labeled_x[target.labeled_y == c].mean(axis=0)
    print(f"class {c}: ||source mean - target mean|| = "
          f"{np.linalg.norm(mu_s - mu_t):.3f}")

# the semi-supervised split keeps a small stratified labeled set
labeled = split_labeled(target, n=40, seed=1)
print(f"\nafter split_labeled(n=40): {labeled.labeled_x.shape[0]} labeled, "
      f"{labeled.unlabeled_x.shape[0]} unlabeled")
print(f"labeled per class: {np.bincount(labeled.labeled_y).tolist()}")
# the labeled and unlabeled rows partition the original training rows
rows = sorted(map(tuple, np.vstack([labeled.labeled_x, labeled.unlabeled_x]).tolist()))
assert rows == sorted(map(tuple, target.labeled_x.tolist()))
print("labeled/unlabeled rows partition the target training set")
