"""Layer collaboration: why layer-local training stalls and how the
detached goodness offset (gamma) fixes it.

Trains the same architecture two ways on synthetic data, then evaluates
every interesting layer subset as its own classifier. Under plain
layer-local training the first layer alone is about as good as the whole
vote and later layers can have negative marginal value; with the
collaborative offset the ensemble beats every single layer.

Run with:  python3 demos/02_layer_collaboration.py
Writes:    demo_out/collaboration/*.csv
"""

from pathlib import Path

from ffnet import FfConfig, init_network, make_rng, synthetic_pair
from ffnet.analysis import (
    default_subset_family,
    evaluate_subsets,
    marginal_contributions,
    subset_label,
)
from ffnet.ff import test_error, train
from ffnet.reports import marginals_table, subsets_table, write_csv

OUT = Path("demo_out/collaboration")

train_ds, test_ds = synthetic_pair(600, 300, d=48, seed=3, noise=0.25)
dims = [train_ds.d + 10, 40, 30, 20]

# Both runs make 12 passes over the data, but not the same updates per layer:
# layerwise trains each of the 3 layers for 4 epochs in turn, while alternating
# updates every layer on every batch of its 12 epochs, 3x ff's updates per layer.
# Comparisons are made at equal epochs, which is equal updates per layer:
# tests/test_phenomena.py pins that collab_ff still wins at 4 epochs each.
vanilla = init_network(dims, make_rng(1))
vanilla, _ = train(
    vanilla, train_ds, FfConfig(theta=5.0, epochs=4, batch_size=50, seed=1)
)
collab = init_network(dims, make_rng(1))
collab, _ = train(
    collab,
    train_ds,
    FfConfig(
        theta=5.0, epochs=12, batch_size=50, seed=1,
        schedule="alternating", gamma_mode="all_other_layers",
    ),
)

family = default_subset_family(3)
for tag, net in (("vanilla", vanilla), ("collaborative", collab)):
    report = evaluate_subsets(net, test_ds, family)
    marginals = marginal_contributions(report, 3)
    print(f"\n{tag} forward-forward (test error {test_error(net, test_ds):.3f})")
    print("  subset   error")
    for entry in report.entries:
        print(f"  {subset_label(entry.layers):<7}  {entry.error:.3f}")
    print(
        "  marginal value of each layer (error without it minus error with it):"
    )
    for i, m in enumerate(marginals):
        verdict = "helps" if m > 0 else ("hurts" if m < 0 else "neutral")
        print(f"    layer {i + 1}: {m:+.3f}  ({verdict})")
    out_dir = OUT / tag
    write_csv(out_dir / "subsets.csv", *subsets_table(report))
    write_csv(out_dir / "marginals.csv", *marginals_table(marginals))

print(f"\nCSV reports under {OUT}/")
