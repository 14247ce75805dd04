"""Coin-position correlations and purity under the three noise models.

Mutual information bounds the total correlation between coin and position;
measurement-induced disturbance (MID) and quantum discord capture its
quantum share, with discord a strict lower bound on MID. Under
underdamped telegraph noise all three revive periodically — information
flowing back from the environment — and the coin's entropy temporarily
drops (a purity revival). The monotone kernels (OUN/PLN) produce no
noise-driven revivals; the only oscillation left is the one the position
lattice itself imprints on the coin.

Run:  python demos/correlation_revivals.py
"""

import numpy as np

from nmqwalk import OunParams, PlnParams, RtnParams, WalkConfig, witness_series

SETTINGS = [
    ("telegraph, underdamped", RtnParams(a=0.05, gamma=0.008)),
    ("Ornstein-Uhlenbeck    ", OunParams(Gamma=0.1, gamma=0.01)),
    ("power-law             ", PlnParams(Gamma=0.1, gamma=0.01)),
]


def main():
    cfg = WalkConfig(steps=60)
    for label, noise in SETTINGS:
        found = witness_series(cfg, noise, witnesses=("MI", "MID", "QD", "Entropy"))
        mi, mid_v, qd, ent = (found[tag] for tag in ("MI", "MID", "QD", "Entropy"))
        print(f"{label}  (T = {cfg.steps})")
        print(f"  final MI / MID / QD : {mi[-1]:.3f} / {mid_v[-1]:.3f} / {qd[-1]:.3f}")
        print(f"  discord <= MID everywhere: {bool(np.all(qd <= mid_v + 1e-6))}")
        print(f"  QD rises after t=5 : {int(np.sum(np.diff(qd[5:]) > 1e-9))}")
        drops = int(np.sum(np.diff(ent[10:]) < -1e-9))
        print(f"  entropy drops after t=10 (purity revivals): {drops}")
        print()


if __name__ == "__main__":
    main()
