"""Functional entropy: the estimator, its identities, and how it evolves
while a network trains.

Ent(h) = E[h * log(h / E[h])] for non-negative h. It is zero exactly for
constant h, scales linearly with h, and equals E[h] times the KL divergence
between the prior sample weights and the goodness-tilted posterior. Over a
(samples x layers) goodness grid it splits into an across-layer term plus
the average within-layer term.

Run with:  python3 demos/03_functional_entropy.py
Writes:    demo_out/entropy/trajectory.csv
"""

from pathlib import Path

import numpy as np

from ffnet import (
    FfConfig,
    entropy_decompose,
    functional_entropy,
    init_network,
    make_rng,
    scaled_kl_identity,
    synthetic_pair,
)
from ffnet.entropy import goodness_entropy_reports
from ffnet.ff import train
from ffnet.reports import entropy_fields, entropy_row, write_csv

OUT = Path("demo_out/entropy")

# ---------------------------------------------------------------------------
# The estimator on hand-checkable inputs.
# ---------------------------------------------------------------------------

print("functional entropy on small inputs:")
print(f"  constant [2,2,2,2]      -> {functional_entropy([2.0] * 4):.2e}")
print(f"  [1, e] (uniform)        -> {functional_entropy([1.0, np.e]):.6f}")
print(f"  [0, 3] (0 log 0 := 0)   -> {functional_entropy([0.0, 3.0]):.6f}")

lhs, rhs = scaled_kl_identity(make_rng(0).uniform(0.0, 10.0, size=20))
print(f"\nscaled-KL identity on random h: Ent={lhs:.6f}  E[h]*KL={rhs:.6f}")

values = make_rng(1).uniform(0.0, 20.0, size=(40, 3))
report = entropy_decompose(values)
print(
    "decomposition on a random 40x3 grid: "
    f"overall={report.overall:.4f} ~ across={report.across_layers:.4f} "
    f"+ mean(within)={report.within_layer.mean():.4f}"
)

# ---------------------------------------------------------------------------
# Entropy trajectory while a collaborative net trains. The pooled entropy
# climbs as the layers learn to spread goodness over positive samples.
# ---------------------------------------------------------------------------

train_ds, test_ds = synthetic_pair(600, 300, d=48, seed=3, noise=0.2)
net = init_network([train_ds.d + 10, 40, 30, 20], make_rng(1))
rows = []


def snapshot(epoch, current):
    reports = goodness_entropy_reports(current, test_ds, n_samples=300, seed=0)
    for split in ("both", "positive", "negative"):
        rows.append(entropy_row(epoch, split, reports[split]))


snapshot(0, net)
cfg = FfConfig(
    theta=5.0, epochs=10, batch_size=50, seed=1,
    schedule="alternating", gamma_mode="all_other_layers",
)
net, _ = train(net, train_ds, cfg, on_epoch=snapshot)

print("\npooled-entropy trajectory (epoch: overall = across + mean within):")
for row in rows:
    if row["split"] == "both":
        within = np.mean([row[f] for f in entropy_fields(3)[4:]])
        print(
            f"  epoch {row['epoch']:>2}: {row['overall']:6.3f} = "
            f"{row['across_layers']:.3f} + {within:.3f}"
        )

write_csv(OUT / "trajectory.csv", entropy_fields(3), rows)
print(f"\nfull trajectory (all splits) in {OUT / 'trajectory.csv'}")
