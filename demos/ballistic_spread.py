"""Ballistic spread of the noiseless walk vs. diffusive spread under noise.

A closed quantum walk spreads ballistically: the position variance grows
as t^2, in contrast to the linear growth of a classical random walk. Noise
interleaved with the walk (stepwise mode) decoheres the coin and pulls the
exponent back toward the classical value.

Run:  python demos/ballistic_spread.py
"""

import numpy as np

from nmqwalk import RtnParams, WalkConfig, witness_series


def loglog_slope(values, t_min=20):
    t = np.arange(len(values))
    mask = t >= t_min
    return np.polyfit(np.log(t[mask]), np.log(values[mask]), 1)[0]


def main():
    cfg = WalkConfig(steps=100)

    free = witness_series(cfg, None, witnesses=("Variance",))["Variance"]
    print("noiseless walk:")
    print(f"  Var(t=100) = {free[-1]:10.2f}")
    print(f"  log-log slope over t >= 20 = {loglog_slope(free):.3f}"
          "  (ballistic: 2)")

    noisy = witness_series(
        cfg, RtnParams(a=1.0, gamma=7.0), mode="stepwise", witnesses=("Variance",)
    )["Variance"]
    print("strong Markovian telegraph noise, applied every step:")
    print(f"  Var(t=100) = {noisy[-1]:10.2f}")
    print(f"  log-log slope over t >= 20 = {loglog_slope(noisy):.3f}"
          "  (classical diffusion: 1)")


if __name__ == "__main__":
    main()
