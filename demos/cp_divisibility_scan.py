"""Complete positivity of the intermediate dephasing maps, model by model.

The map from time t1 to t2 is a dephasing map with ratio r = k(t2)/k(t1);
it is completely positive iff |r| <= 1, i.e. iff the kernel magnitude did
not grow. The Choi eigenvalue lambda3 = 1 - r dips below zero exactly when
it did. The scan starts at t1 = 1 only, so it counts the revivals of |k|
above |k(1)| on the grid; it is not a verdict on the whole channel. Only
telegraph noise in its underdamped regime shows non-CP maps here; the
Ornstein-Uhlenbeck and power-law kernels decay monotonically.

Run:  python demos/cp_divisibility_scan.py
"""

import numpy as np

from nmqwalk import OunParams, PlnParams, RtnParams, cp_divisibility_scan

SETTINGS = [
    ("RTN  underdamped ", RtnParams(a=0.9, gamma=0.05)),
    ("RTN  overdamped  ", RtnParams(a=0.9, gamma=5.0)),
    ("OUN  slow bath   ", OunParams(Gamma=1.0, gamma=0.05)),
    ("OUN  fast bath   ", OunParams(Gamma=1.0, gamma=5.0)),
    ("PLN  slow bath   ", PlnParams(Gamma=5.0, gamma=0.05)),
    ("PLN  fast bath   ", PlnParams(Gamma=5.0, gamma=2.0)),
]


def main():
    grid = 1.0 + 0.1 * np.arange(1, 191)
    print(f"{'noise setting':<18} {'min lambda3':>12} {'non-CP E(t2, 1)':>16}")
    for label, noise in SETTINGS:
        points = cp_divisibility_scan(noise, t1=1.0, t2_grid=grid).points
        n_bad = int(np.sum(~points["is_cp"]))
        print(f"{label:<18} {points['lambda3'].min():>12.4f} {n_bad:>10} / {len(grid)}")


if __name__ == "__main__":
    main()
