"""Forward-forward basics: goodness, the logistic layer objective, and
goodness-voting inference, on a small synthetic dataset.

Run with:  python3 demos/01_forward_forward_basics.py
"""

from ffnet import FfConfig, init_network, make_rng, positive_prob, synthetic_pair
from ffnet.ff import label_goodness_scores, predict, test_error, train

# ---------------------------------------------------------------------------
# A layer's goodness is the squared sum of its ReLU activities. The layer is
# trained so goodness lands above a threshold theta on true-label inputs
# ("positive") and below it on wrong-label inputs ("negative").
# ---------------------------------------------------------------------------

print("sigmoid objective around theta = 10:")
for g in (2.0, 8.0, 10.0, 12.0, 25.0):
    p = float(positive_prob(g, gamma=0.0, theta=10.0))
    print(f"  goodness {g:5.1f} -> p(positive) = {p:.4f}")

# ---------------------------------------------------------------------------
# Train a 3-layer net, one layer at a time (the layerwise schedule).
# Inputs are the sample pixels with a 10-dim one-hot label block appended.
# ---------------------------------------------------------------------------

train_ds, test_ds = synthetic_pair(800, 400, d=48, seed=3)
dims = [train_ds.d + 10, 40, 30, 20]
cfg = FfConfig(theta=5.0, epochs=6, batch_size=50, seed=1, schedule="layerwise")

net = init_network(dims, make_rng(1))
net, history = train(net, train_ds, cfg)

print("\nper-layer training loss (first vs last epoch):")
for layer in (1, 2, 3):
    rows = [r for r in history if r["layer"] == layer]
    print(
        f"  layer {layer}: {rows[0]['loss']:.3f} -> {rows[-1]['loss']:.3f}   "
        f"goodness pos/neg at end: {rows[-1]['mean_goodness_pos']:.2f} / "
        f"{rows[-1]['mean_goodness_neg']:.2f}"
    )

# ---------------------------------------------------------------------------
# Inference tries every candidate label and votes by summed goodness. The
# (sample, label, layer) goodness tensor behind it feeds every evaluation.
# ---------------------------------------------------------------------------

sample, label = test_ds.images[0], int(test_ds.labels[0])
scores = label_goodness_scores(net, sample[None, :])[0].sum(axis=1)
print(f"\nper-label goodness sums for one test sample (true label {label}):")
print("  " + "  ".join(f"{y}:{s:6.2f}" for y, s in enumerate(scores)))
print(f"predicted: {predict(net, sample[None, :])[0]}")

print(f"\ntest error over {test_ds.n} samples: {test_error(net, test_ds):.3f}")
