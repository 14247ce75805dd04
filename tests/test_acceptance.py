"""End-to-end acceptance gate for the full analysis pipeline.

Each test prints one PASS/FAIL line (outside pytest's capture) and then
asserts, so the acceptance status of every criterion is visible in a plain
``pytest -v`` run regardless of which tests fail.

Three criteria measure a derived quantity rather than raw samples, so that
each tolerance applies to the quantity its label names:

* criterion 4 (asymptotic coin entropy): the noiseless coin populations of
  the default initial state psi(pi/4, 0) alternate in pairs, so the coin
  entropy cycles with period 4 around its asymptote. The half-amplitude of
  the cycle decays roughly as t^(-1/2) (about 0.038 near t = 100, 0.011
  near t = 1000) and t = 100 falls on a trough (0.8336). The asymptote is
  estimated as the mean over whole periods ending at t = 100 (0.8697).
* criteria 7 and 8 (noise-driven revivals): one-shot dephasing scales only
  the coin coherences by k(t), so every series keeps the walk's own
  position-induced steps (0.03-0.14 per step) whatever the kernel. Each
  step of a witness W splits exactly into an internal part
  W(D_k(t-1)[sigma(t)]) - W(D_k(t-1)[sigma(t-1)]) and a noise part
  W(D_k(t)[sigma(t)]) - W(D_k(t-1)[sigma(t)]), with sigma(t) the noiseless
  state. The OUN/PLN tail tolerances and the RTN existence checks apply to
  the noise part; the RTN whole-series checks are kept as well.
"""

import math
import time

import numpy as np
from conftest import (
    apply_kraus,
    apply_signed,
    evolve_noiseless,
    intermediate_kraus,
    one_shot_witnesses,
    random_qubit_states,
    trace_distance,
    von_neumann_entropy,
)

from nmqwalk.divisibility import cp_divisibility_scan, kernel_ratio
from nmqwalk.noise import (
    OunParams,
    PlnParams,
    RtnParams,
    kernel_value,
    kraus_at,
)
from nmqwalk.qops import partial_trace
from nmqwalk.spectral import TimeSeries, disambiguate, fit_mfbf, power_spectrum
from nmqwalk.walk import WalkConfig
from nmqwalk.witness import witness_series

T_STEPS = 100
SPLIT_CFG = WalkConfig(steps=T_STEPS)
#: period of the noiseless coin-population cycle of the default walk
COIN_PERIOD = 4


def report(capsys, number: int, label: str, checks: dict[str, bool]) -> None:
    """Print the per-criterion verdict outside capture, then assert."""
    ok = all(checks.values())
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label}", flush=True)
    failed = [name for name, good in checks.items() if not good]
    assert ok, f"criterion {number} failed sub-checks: {failed}"


def series(noise, *witnesses, td_pair=None, cfg=SPLIT_CFG):
    """Values of each requested witness series, keyed by tag, from one walk."""
    return witness_series(cfg, noise, witnesses=witnesses, td_pair=td_pair)


def noise_driven_steps(noise, tag, values, after, cfg=SPLIT_CFG):
    """The noise part of the steps t = after+1 .. T of a one-shot series.

    In one-shot mode rho(t) = D_k(t)[sigma(t)], with sigma(t) the noiseless
    state. The step W(rho(t)) - W(rho(t-1)) of a witness W splits exactly
    into an internal part W(D_k(t-1)[sigma(t)]) - W(D_k(t-1)[sigma(t-1)]),
    driven by the walk alone, and a noise part W(D_k(t)[sigma(t)]) -
    W(D_k(t-1)[sigma(t)]), driven by the change of the kernel alone.
    ``values[t]`` is the series value W(rho(t)), the first term of the noise
    part. The held states D_k(t-1)[sigma(t)], the noiseless states of steps
    after+1 .. T with the kernel values of the steps before them, are
    measured in one stack, as ``witness_series`` measures its own.
    """
    steps = np.arange(after + 1, cfg.steps + 1)
    k = np.clip(kernel_value(noise, steps - 1.0), -1.0, 1.0)
    held = one_shot_witnesses(evolve_noiseless(cfg)[steps], k, (tag,))[tag]
    return values[steps] - held


def test_criterion_1_kraus_completeness(capsys):
    start = time.perf_counter()
    models = [
        RtnParams(a=0.9, gamma=0.05),
        RtnParams(a=0.9, gamma=5.0),
        OunParams(Gamma=1.0, gamma=0.05),
        PlnParams(Gamma=5.0, gamma=0.05),
    ]
    worst = 0.0
    for noise in models:
        for t in np.arange(0.0, 50.5, 0.5):
            k1, k2 = kraus_at(noise, float(t))
            dev = np.max(np.abs(k1.conj().T @ k1 + k2.conj().T @ k2 - np.eye(2)))
            worst = max(worst, float(dev))
    elapsed = time.perf_counter() - start
    report(
        capsys,
        1,
        "Kraus completeness for all noise models",
        {"max deviation <= 1e-14": worst <= 1e-14, "runtime < 1 s": elapsed < 1.0},
    )


def test_criterion_2_cp_divisibility(capsys):
    start = time.perf_counter()
    grid = 1.0 + 0.1 * np.arange(1, 191)

    def lambda3(noise):
        return cp_divisibility_scan(noise, 1.0, grid).points["lambda3"]

    l3_nm = lambda3(RtnParams(a=0.9, gamma=0.05))
    sign_changes = int(np.sum(np.abs(np.diff(np.sign(l3_nm))) > 0))
    markovian = [
        RtnParams(a=0.9, gamma=5.0),
        OunParams(Gamma=1.0, gamma=0.05),
        OunParams(Gamma=1.0, gamma=5.0),
        PlnParams(Gamma=5.0, gamma=0.05),
        PlnParams(Gamma=5.0, gamma=2.0),
    ]
    all_cp = all(np.min(lambda3(n)) >= -1e-12 for n in markovian)
    elapsed = time.perf_counter() - start
    report(
        capsys,
        2,
        "CP-divisibility of intermediate maps over the regime grid",
        {
            "RTN non-Markovian has lambda3 < 0": bool(np.any(l3_nm < 0)),
            "RTN non-Markovian lambda3 changes sign >= 2 times": sign_changes >= 2,
            "all Markovian regimes stay CP": all_cp,
            "runtime < 1 s": elapsed < 1.0,
        },
    )


def test_criterion_3_composition_consistency(capsys):
    rng = np.random.default_rng(101)
    states = random_qubit_states(100, seed=103)
    noises = [RtnParams(a=0.9, gamma=0.05), OunParams(Gamma=1.0, gamma=0.05)]
    worst = 0.0
    for i, rho in enumerate(states):
        noise = noises[i % 2]
        while True:
            t1 = float(rng.uniform(0.1, 10.0))
            t2 = t1 + float(rng.uniform(0.1, 10.0))
            if abs(kernel_value(noise, t1)) > 1e-3:
                break
        rho_t1 = apply_kraus(rho, kraus_at(noise, t1))
        via = apply_signed(rho_t1, intermediate_kraus(kernel_ratio(noise, t1, t2)))
        direct = apply_kraus(rho, kraus_at(noise, t2))
        worst = max(worst, float(np.max(np.abs(via - direct))))
    report(
        capsys,
        3,
        "intermediate map composed with the full map reproduces the longer map",
        {"max deviation <= 1e-10": worst <= 1e-10},
    )


def test_criterion_4_noiseless_walk_quantumness(capsys):
    start = time.perf_counter()
    found = series(None, "Variance", "Entropy")
    var, ent = found["Variance"], found["Entropy"]
    t = np.arange(T_STEPS + 1)
    mask = (t >= 20) & (t <= T_STEPS)
    slope = float(np.polyfit(np.log(t[mask]), np.log(var[mask]), 1)[0])
    # the coin entropy cycles with period 4: average the last four periods
    asymptote = float(np.mean(ent[T_STEPS - 4 * COIN_PERIOD + 1 :]))
    elapsed = time.perf_counter() - start
    report(
        capsys,
        4,
        "noiseless walk: ballistic variance and asymptotic coin entropy",
        {
            "log-log variance slope in 2.0 +/- 0.05": abs(slope - 2.0) <= 0.05,
            "mean coin entropy over t=85..100 in 0.875 +/- 0.02": (
                abs(asymptote - 0.875) <= 0.02
            ),
            "runtime < 30 s": elapsed < 30.0,
        },
    )


def low_frequency_peaks(values, family="exponential"):
    report_ = disambiguate(
        TimeSeries(times=np.arange(len(values), dtype=float), values=values),
        family=family,
        min_prominence=0.05,
    )
    return report_, [p for p in report_.peaks if p.frequency <= 0.05]


def test_criterion_5_backflow_witnesses(capsys):
    td_free = series(None, "TD")["TD"]
    rises = int(np.sum(np.diff(td_free) > 0))
    _, low_nm = low_frequency_peaks(series(RtnParams(a=0.08, gamma=0.001), "TD")["TD"])
    _, low_m = low_frequency_peaks(series(RtnParams(a=1.0, gamma=7.0), "TD")["TD"])
    report(
        capsys,
        5,
        "trace-distance backflow: recurrences and the noise-induced slow peak",
        {
            "noiseless TD has >= 5 strict rises": rises >= 5,
            "non-Markovian RTN has a low-frequency detrended peak": len(low_nm) >= 1,
            "Markovian RTN has none": len(low_m) == 0,
        },
    )


def test_criterion_6_spectral_disambiguation(capsys):
    # parameters chosen so both backflow sources are visible at
    # comparable strength in a 101-sample spectrum
    pair = (math.pi / 4, math.pi / 3, -math.pi / 4, math.pi / 3)
    rep_rtn, _ = low_frequency_peaks(
        series(RtnParams(a=0.03, gamma=0.011), "TD", td_pair=pair)["TD"]
    )
    checks = {"exactly two prominent peaks (RTN)": len(rep_rtn.peaks) == 2}
    if len(rep_rtn.peaks) == 2:
        low, high = sorted(rep_rtn.peaks, key=lambda p: p.frequency)
        checks["low-frequency peak in [0.01, 0.05]"] = 0.01 <= low.frequency <= 0.05
        checks["high-frequency peak in [0.2, 0.3]"] = 0.2 <= high.frequency <= 0.3
        ratio = high.power / low.power
        checks["high/low power ratio in [0.75, 3.0]"] = 0.75 <= ratio <= 3.0
    _, low_oun = low_frequency_peaks(
        series(OunParams(Gamma=1.0, gamma=0.01), "TD", td_pair=pair)["TD"]
    )
    checks["no low-frequency peak for OUN"] = len(low_oun) == 0
    report(capsys, 6, "two-source spectral disambiguation of TD backflow", checks)


def test_criterion_7_correlation_ordering(capsys):
    settings = {
        "RTN": RtnParams(a=0.05, gamma=0.008),
        "OUN": OunParams(Gamma=0.1, gamma=0.01),
        "PLN": PlnParams(Gamma=0.1, gamma=0.01),
    }
    checks = {}
    for tag, noise in settings.items():
        found = series(noise, "MI", "MID", "QD")
        mi, mid_v, qd = found["MI"], found["MID"], found["QD"]
        checks[f"{tag}: MI >= 0"] = bool(np.min(mi) >= -1e-9)
        checks[f"{tag}: QD >= 0"] = bool(np.min(qd) >= -1e-6)
        checks[f"{tag}: QD <= MID"] = bool(np.max(qd - mid_v) <= 1e-6)
        if tag == "RTN":
            checks["RTN: MID rises after t=5"] = bool(np.any(np.diff(mid_v[5:]) > 0))
            checks["RTN: QD rises after t=5"] = bool(np.any(np.diff(qd[5:]) > 0))
            checks["RTN: noise-driven MID rise > 1e-6 after t=5"] = any(
                step > 1e-6 for step in noise_driven_steps(noise, "MID", mid_v, 5)
            )
            checks["RTN: noise-driven QD rise > 1e-6 after t=5"] = any(
                step > 1e-6 for step in noise_driven_steps(noise, "QD", qd, 5)
            )
        else:
            checks[f"{tag}: MID tail has no noise-driven rise > 1e-6"] = (
                max(noise_driven_steps(noise, "MID", mid_v, 30)) <= 1e-6
            )
            checks[f"{tag}: QD tail has no noise-driven rise > 1e-6"] = (
                max(noise_driven_steps(noise, "QD", qd, 30)) <= 1e-6
            )
    report(capsys, 7, "MID/discord ordering and revival structure", checks)


def test_criterion_8_purity_revival(capsys):
    rtn = RtnParams(a=0.1, gamma=0.01)
    ent_rtn = series(rtn, "Entropy")["Entropy"]
    checks = {
        "RTN entropy strictly decreases after t=10": bool(
            np.any(np.diff(ent_rtn[10:]) < 0)
        ),
        "RTN: noise-driven entropy drop < -1e-9 after t=10": any(
            step < -1e-9
            for step in noise_driven_steps(rtn, "Entropy", ent_rtn, 10)
        ),
    }
    for tag, noise in (
        ("OUN", OunParams(Gamma=1.0, gamma=0.01)),
        ("PLN", PlnParams(Gamma=1.0, gamma=0.01)),
    ):
        ent = series(noise, "Entropy")["Entropy"]
        checks[f"{tag}: entropy tail has no noise-driven drop below -1e-9"] = (
            min(noise_driven_steps(noise, "Entropy", ent, 30)) >= -1e-9
        )
    report(capsys, 8, "temporary purity increase only under RTN", checks)


def exhaustive_isotonic(values, weights):
    """The weighted least-squares fit, constant on blocks of consecutive
    points whose means do not rise by more than 1e-12 from block to block,
    over every one of the 2^(n - 1) partitions into blocks."""
    import itertools

    n = len(values)
    best, best_cost = None, np.inf
    for cuts in itertools.product([0, 1], repeat=n - 1):
        bounds = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [n]
        fit = np.empty(n)
        means = []
        for lo, hi in zip(bounds, bounds[1:]):
            m = np.average(values[lo:hi], weights=weights[lo:hi])
            means.append(m)
            fit[lo:hi] = m
        if any(b > a + 1e-12 for a, b in zip(means, means[1:])):
            continue
        cost = np.sum(weights * (values - fit) ** 2)
        if cost < best_cost:
            best, best_cost = fit, cost
    return best


def dynamic_isotonic(values, weights):
    """The fit of ``exhaustive_isotonic`` in O(n^3) time, over the same partitions.

    The partitions are feasible exactly when each pair of consecutive blocks
    is, so the cheapest feasible partition of points 0 .. hi - 1 whose last
    block is lo .. hi - 1 extends the cheapest one of 0 .. lo - 1 whose last
    block that block may follow. Block means are formed as the exhaustive
    search forms them.
    """
    n = len(values)
    mean, cost = {}, {}
    for lo in range(n):
        for hi in range(lo + 1, n + 1):
            mean[lo, hi] = np.average(values[lo:hi], weights=weights[lo:hi])
            cost[lo, hi] = np.sum(weights[lo:hi] * (values[lo:hi] - mean[lo, hi]) ** 2)
    # (least cost, start of the block before) of 0 .. hi - 1 ending in block lo .. hi - 1
    best = {(0, hi): (cost[0, hi], None) for hi in range(1, n + 1)}
    for hi in range(2, n + 1):
        for lo in range(1, hi):
            options = [
                (best[p, lo][0], p)
                for p in range(lo)
                if (p, lo) in best and not mean[lo, hi] > mean[p, lo] + 1e-12
            ]
            if options:
                c, p = min(options)
                best[lo, hi] = (c + cost[lo, hi], p)
    _, lo = min((best[lo, n][0], lo) for lo in range(n) if (lo, n) in best)
    fit, hi = np.empty(n), n
    while lo is not None:
        fit[lo:hi] = mean[lo, hi]
        lo, hi = best[lo, hi][1], lo
    return fit


def test_criterion_9_oracle_suites(capsys):
    rng = np.random.default_rng(211)

    # the dynamic program is the oracle of every fit; it is checked against
    # the exhaustive search wherever that costs at most 2^7 partitions
    worst_iso = worst_dynamic = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 13))
        values = rng.normal(size=n)
        weights = rng.uniform(0.2, 3.0, size=n)
        fitted = fit_mfbf(
            TimeSeries(np.arange(n, dtype=float), values, weights), "isotonic"
        ).fitted
        expected = dynamic_isotonic(values, weights)
        worst_iso = max(worst_iso, float(np.max(np.abs(fitted - expected))))
        if n <= 8:
            worst_dynamic = max(
                worst_dynamic,
                float(np.max(np.abs(expected - exhaustive_isotonic(values, weights)))),
            )

    worst_parseval = 0.0
    for n in (16, 33, 101, 128):
        y = rng.normal(size=n)
        sp = power_spectrum(TimeSeries(np.arange(n, dtype=float), y))
        worst_parseval = max(
            worst_parseval, abs(float(np.sum(sp.power)) - n * float(np.var(y)))
        )

    worst_contraction = -np.inf
    pairs = random_qubit_states(2000, seed=223).reshape(1000, 2, 2, 2)
    for rho1, rho2 in pairs:
        k = float(rng.uniform(-1.0, 1.0))
        before = trace_distance(rho1, rho2)
        d = np.array([[1.0, k], [k, 1.0]])
        after = trace_distance(rho1 * d, rho2 * d)
        worst_contraction = max(worst_contraction, after - before)

    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    analytic = (
        abs(trace_distance(np.diag([1.0, 0.0]), np.eye(2) / 2) - 0.5) <= 1e-12
        and abs(von_neumann_entropy(np.diag([0.75, 0.25])) - 0.8112781244591328)
        <= 1e-12
        and np.max(np.abs(partial_trace(bell, (2, 2), "coin") - np.eye(2) / 2))
        <= 1e-14
    )
    report(
        capsys,
        9,
        "independent oracles: isotonic, Parseval, TD contraction, analytic values",
        {
            "isotonic matches the exact dynamic program <= 1e-9": worst_iso <= 1e-9,
            "dynamic program matches exhaustive search (n <= 8) <= 1e-9": worst_dynamic <= 1e-9,
            "Parseval identity <= 1e-9": worst_parseval <= 1e-9,
            "TD contraction violation <= 1e-10": worst_contraction <= 1e-10,
            "analytic examples": analytic,
        },
    )
