"""Backpropagation baselines and the theta sweep.

The pairwise baseline consumes the same linked inputs as forward-forward
and maximizes/minimizes the last layer's goodness, but backpropagates
through the whole stack. The classic baseline is an ordinary
softmax-cross-entropy MLP. The sweep shows how sensitive the goodness
threshold theta is, which is why it is a first-class knob here.

Run with:  python3 demos/04_baselines_and_sweep.py
Writes:    demo_out/sweep/sweep.csv and per-theta run directories
"""

from pathlib import Path

from ffnet import FfConfig, RunConfig, init_network, make_rng, synthetic_pair
from ffnet.baselines import classic_test_error, train_classic, train_pairwise
from ffnet.ff import test_error, train
from ffnet.runner import run_training

OUT = Path("demo_out/sweep")

train_ds, test_ds = synthetic_pair(600, 300, d=48, seed=9, noise=0.2)
hidden = (40, 30, 20)

# ---------------------------------------------------------------------------
# Three models, equal epoch budgets.
# ---------------------------------------------------------------------------

cfg = FfConfig(theta=5.0, epochs=12, batch_size=50, seed=1, schedule="alternating",
               gamma_mode="all_other_layers")
collab = init_network([train_ds.d + 10, *hidden], make_rng(1))
collab, _ = train(collab, train_ds, cfg)
print(f"collaborative forward-forward:  {test_error(collab, test_ds):.3f}")

pairwise = init_network([train_ds.d + 10, *hidden], make_rng(1))
pairwise, _ = train_pairwise(
    pairwise, train_ds, FfConfig(theta=5.0, epochs=12, batch_size=50, seed=1)
)
print(f"backprop pairwise (last-layer): "
      f"{test_error(pairwise, test_ds, mask=[len(hidden) - 1]):.3f}")

classic = init_network([train_ds.d, *hidden, 10], make_rng(1))
classic, _ = train_classic(
    classic, train_ds, FfConfig(epochs=12, batch_size=50, seed=1)
)
print(f"backprop classic (label head):  {classic_test_error(classic, test_ds):.3f}")

# ---------------------------------------------------------------------------
# Theta sweep through the run orchestrator (same code path as the CLI).
# run_training writes checkpoint/history/entropy/summary per run directory.
# ---------------------------------------------------------------------------

print("\ntheta sweep, vanilla forward-forward:")
rows = []
for theta in (1.0, 5.0, 10.0, 20.0):
    cfg = RunConfig(
        dataset="synthetic", method="ff", theta=theta, epochs=4, batch_size=50,
        seed=1, layer_dims=[train_ds.d + 10, *hidden],
        output_dir=str(OUT / f"theta_{theta:g}"), entropy_eval_n=150, eval_every=4,
    )
    summary = run_training(cfg, train_ds, test_ds)
    rows.append((theta, summary["final_test_error"]))
    print(f"  theta {theta:5.1f} -> test error {summary['final_test_error']:.3f}")

best = min(rows, key=lambda r: r[1])
print(f"best theta here: {best[0]:g} (error {best[1]:.3f})")
print(f"per-run artifacts under {OUT}/")
