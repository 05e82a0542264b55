#!/usr/bin/env python3
"""Train the §6 LSTM usage predictor and use it for early reclaiming.

Trains the from-scratch NumPy LSTM (window 10, two hidden layers, Adam,
MSE) on a synthetic inference-utilization trace, shows its next-interval
predictions against the ground truth, and compares a reactive Lyra run
with one whose orchestrator reclaims ahead of predicted traffic rises.

Run:  python examples/predictor_demo.py
"""

import numpy as np

from repro.predictor.predictor import UsagePredictor
from repro.scenarios import default_setup, run_scheme


def main() -> None:
    setup = default_setup(
        num_jobs=300,
        days=1.5,
        training_servers=12,
        inference_servers=16,
        seed=2,
        target_load=1.0,
    )
    trace = setup.inference_trace

    predictor = UsagePredictor(window=10, hidden_dim=16, lr=1e-2, seed=0)
    print("training the LSTM predictor ...")
    history = predictor.fit_trace(trace, epochs=10, max_samples=800)
    print(f"  epoch 1 MSE {history[0]:.5f} -> epoch {len(history)} "
          f"MSE {history[-1]:.5f} (paper reports 4.8e-4)")

    print("\nnext-interval predictions vs truth (5-minute samples):")
    util = np.asarray(trace.utilization)
    for start in range(200, 260, 12):
        window = util[start : start + 10]
        truth = util[start + 10]
        predicted = predictor.predict_next(window)
        print(f"  t={start * 5:>5} min  predicted {predicted:.3f}  "
              f"actual {truth:.3f}  error {abs(predicted - truth):.3f}")

    print("\nrunning Lyra reactive vs predictive ...")
    reactive = run_scheme(setup, "lyra")
    predictive = run_scheme(setup, "lyra", predictor=predictor)
    print(f"  reactive:   preemption ratio "
          f"{reactive.preemption_ratio:.2%}, mean JCT "
          f"{reactive.jct_summary().mean:,.0f}s")
    print(f"  predictive: preemption ratio "
          f"{predictive.preemption_ratio:.2%}, mean JCT "
          f"{predictive.jct_summary().mean:,.0f}s")
    print("\npredictive reclaiming lets the orchestrator shrink loans "
          "before the inference peak instead of during it.")


if __name__ == "__main__":
    main()
