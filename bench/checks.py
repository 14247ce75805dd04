"""Output checks for every workload, written without calling nmqwalk.

The oracle re-derives what it compares against from the config alone: the
closed-form kernels, its own amplitude walk, dense one-shot and stepwise
density matrices, entropies from ``numpy.linalg.eigvalsh`` and a Bloch-sphere
grid for discord. It runs after the timed passes, in the parent process, so
its cost is never counted as program cost.

``check_outputs`` returns one (CLI step, message) pair per failed check; a
file that cannot be read or parsed is a failed check, never a crash.
"""

from __future__ import annotations

import csv
import filecmp
import json
import math
import random
from collections import defaultdict
from pathlib import Path

import numpy as np

CUTOFF = 1e-12
TOL = 1e-9

#: data files each workload's CLI steps write, by producing step; metadata.json
#: holds a timestamp and is left out of the byte-for-byte comparison
DATA_FILES = {
    "correlations": {"witness": ["mi.csv", "mid.csv", "qd.csv", "entropy.csv"]},
    "backflow": {
        "choi": ["choi.csv"],
        "witness": ["td.csv", "variance.csv"],
        "spectrum": [
            "spectrum/fit.csv",
            "spectrum/residual.csv",
            "spectrum/spectrum.csv",
            "spectrum/peaks.json",
        ],
    },
    "stepwise": {
        "walk": ["distribution.csv", "variance.csv"],
        "witness": ["entropy.csv", "mi.csv"],
    },
}


class CheckFailed(Exception):
    pass


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- independent physics -------------------------------------------------


def kernel(noise: dict, t) -> np.ndarray:
    """Closed-form dephasing kernel k(t) of the paper's three noise models."""
    t = np.asarray(t, dtype=float)
    model = noise["model"]
    if model == "rtn":
        a, g = noise["a"], noise["gamma"]
        ratio2 = (2.0 * a / g) ** 2 - 1.0
        if abs(ratio2) < 1e-12:
            return np.exp(-g * t) * (1.0 + g * t)
        if ratio2 > 0:
            root = math.sqrt(ratio2)
            return np.exp(-g * t) * (np.cos(g * root * t) + np.sin(g * root * t) / root)
        root = math.sqrt(-ratio2)
        return np.exp(-g * t) * (np.cosh(g * root * t) + np.sinh(g * root * t) / root)
    big, g = noise["Gamma"], noise["gamma"]
    if model == "oun":
        return np.exp(-0.5 * big * (t + (np.exp(-g * t) - 1.0) / g))
    if model == "pln":
        return np.exp(-t * (t * g + 2.0) * big * g / (2.0 * (t * g + 1.0) ** 2))
    raise ValueError(f"unknown noise model {model!r}")


def amplitudes(walk: dict, delta: float | None = None, eta: float | None = None) -> np.ndarray:
    """Noiseless amplitudes, shape (T+1, 2, n); coin 0 steps left, coin 1 right."""
    steps = walk["steps"]
    n = 2 * (steps + 1) + 1
    d = math.radians(walk["delta"] if delta is None else delta)
    e = math.radians(walk["eta"] if eta is None else eta)
    th = math.radians(walk["coin_angle"])
    c, s = math.cos(th), math.sin(th)
    out = np.zeros((steps + 1, 2, n), dtype=complex)
    x0 = walk.get("initial_position", 0) + steps + 1
    out[0, 0, x0] = math.cos(d)
    out[0, 1, x0] = np.exp(-1j * e) * math.sin(d)
    for t in range(1, steps + 1):
        a0, a1 = out[t - 1]
        out[t, 0, :-1] = (c * a0 + s * a1)[1:]
        out[t, 1, 1:] = (s * a0 - c * a1)[:-1]
    return out


def positions(steps: int) -> np.ndarray:
    return np.arange(-(steps + 1), steps + 2, dtype=float)


def one_shot_state(amps: np.ndarray, k: float) -> np.ndarray:
    psi = amps.reshape(-1)
    rho = np.outer(psi, psi.conj())
    n = amps.shape[1]
    rho[:n, n:] *= k
    rho[n:, :n] *= k
    return rho


def stepwise_states(walk: dict, noise: dict, upto: int):
    """Yield (t, rho_t) for t = 0..upto with the intermediate map after each step."""
    steps = walk["steps"]
    n = 2 * (steps + 1) + 1
    th = math.radians(walk["coin_angle"])
    coin = np.array([[math.cos(th), math.sin(th)], [math.sin(th), -math.cos(th)]])
    shift = np.zeros((2 * n, 2 * n))
    for x in range(1, n):
        shift[x - 1, x] = 1.0  # coin 0: x -> x - 1
        shift[n + x, n + x - 1] = 1.0  # coin 1: x -> x + 1
    w = shift @ np.kron(coin, np.eye(n))
    rho = one_shot_state(amplitudes(walk)[0], 1.0)
    yield 0, rho
    ks = kernel(noise, np.arange(upto + 1))
    for t in range(1, upto + 1):
        rho = w @ rho @ w.T
        ratio = ks[t] / ks[t - 1]
        rho[:n, n:] *= ratio
        rho[n:, :n] *= ratio
        yield t, rho


def entropy(w: np.ndarray) -> float:
    w = np.asarray(w, dtype=float)
    w = w[w > CUTOFF]
    return float(-np.sum(w * np.log2(w)))


def reductions(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = rho.shape[0] // 2
    r = rho.reshape(2, n, 2, n)
    return np.trace(r, axis1=1, axis2=3), np.trace(r, axis1=0, axis2=2)


def mutual_information(rho: np.ndarray) -> float:
    rc, rp = reductions(rho)
    return (
        entropy(np.linalg.eigvalsh(rc))
        + entropy(np.linalg.eigvalsh(rp))
        - entropy(np.linalg.eigvalsh(rho))
    )


def grid_discord(rho: np.ndarray, n_theta: int = 65, n_phi: int = 128) -> float:
    """I(rho) - max J over a grid of projective coin measurements.

    With rho = A A^dag, the unnormalized position state after outcome m has
    the nonzero spectrum of B^dag B, B = sum_c conj(m_c) A_c.
    """
    n = rho.shape[0] // 2
    w, v = np.linalg.eigh(rho)
    keep = w > CUTOFF
    a = (v[:, keep] * np.sqrt(w[keep])).reshape(2, n, -1)
    gram = np.einsum("cjr,djs->cdrs", a.conj(), a)
    th, ph = np.meshgrid(
        np.linspace(0.0, math.pi, n_theta),
        np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False),
        indexing="ij",
    )
    th, ph = th.ravel(), ph.ravel()
    outcomes = (
        np.stack([np.cos(th / 2), np.exp(1j * ph) * np.sin(th / 2)], axis=1),
        np.stack([-np.exp(-1j * ph) * np.sin(th / 2), np.cos(th / 2)], axis=1),
    )
    cond = np.zeros(len(th))
    for m in outcomes:
        lam = np.clip(np.linalg.eigvalsh(np.einsum("nc,nd,cdrs->nrs", m, m.conj(), gram)), 0, None)
        p = lam.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            s_un = -np.sum(np.where(lam > CUTOFF, lam * np.log2(lam), 0.0), axis=1)
            cond += np.where(p > CUTOFF, s_un + p * np.log2(p), 0.0)
    _, rp = reductions(rho)
    j_max = entropy(np.linalg.eigvalsh(rp)) - float(np.min(cond))
    return mutual_information(rho) - j_max


# --- reading outputs ------------------------------------------------------


def read_rows(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    expect(rows and rows[0] == header, f"{path.name}: header {rows[:1]} != {header}")
    return rows[1:]


def read_series(path: Path, steps: int, column: str = "value") -> np.ndarray:
    rows = read_rows(path, ["step", column])
    expect(
        [int(r[0]) for r in rows] == list(range(steps + 1)),
        f"{path.name}: steps are not 0..{steps}",
    )
    values = np.array([float(r[1]) for r in rows])
    expect(np.all(np.isfinite(values)), f"{path.name}: non-finite value")
    return values


def close(a, b, tol: float = TOL, relative: bool = False) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = np.maximum(1.0, np.abs(b)) if relative else 1.0
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol * scale))


def check_steps(seed: int, workload: str, steps: int, count: int = 3) -> list[int]:
    """The seeded steps at which the dense oracle recomputes values."""
    rng = random.Random(f"check:{workload}:{seed}")
    return sorted(rng.sample(range(1, steps + 1), min(count, steps)))


# --- per-workload checks --------------------------------------------------


def _correlations(cfg: dict, out: Path, seed: int):
    steps = cfg["walk"]["steps"]
    series = {}

    def load(tag):
        if tag not in series:
            series[tag] = read_series(out / f"{tag}.csv", steps)
        return series[tag]

    def bounds():
        mi, mid, qd, ent = load("mi"), load("mid"), load("qd"), load("entropy")
        expect(np.min(mi) >= -1e-9, f"MI below -1e-9: {np.min(mi)}")
        expect(np.min(qd) >= -1e-6, f"QD below -1e-6: {np.min(qd)}")
        expect(np.max(qd - mid) <= 1e-6, f"QD exceeds MID by {np.max(qd - mid)}")
        expect(np.min(ent) >= -CUTOFF and np.max(ent) <= 1 + CUTOFF, "Entropy outside [0, 1]")

    def dense():
        mi, qd, ent = load("mi"), load("qd"), load("entropy")
        amps = amplitudes(cfg["walk"])
        ks = kernel(cfg["noise"], np.arange(steps + 1))
        for t in check_steps(seed, "correlations", steps):
            rho = one_shot_state(amps[t], ks[t])
            rc, _ = reductions(rho)
            expect(close(mi[t], mutual_information(rho)), f"MI at t={t} differs from dense oracle")
            expect(close(ent[t], entropy(np.linalg.eigvalsh(rc))), f"Entropy at t={t} differs")
            grid = grid_discord(rho)
            expect(qd[t] <= grid + 1e-6, f"QD at t={t} is {qd[t]}, grid search finds {grid}")

    return [("witness", bounds), ("witness", dense)]


def _backflow(cfg: dict, out: Path, seed: int):
    steps = cfg["walk"]["steps"]
    noise = cfg["noise"]

    def choi():
        c = cfg["choi"]
        rows = read_rows(out / "choi.csv", ["t2", "lambda3", "lambda4", "is_cp", "invertible"])
        n = int(round((c["t2_max"] - c["t1"]) / c["dt"]))
        expect(len(rows) == n, f"choi.csv has {len(rows)} rows, expected {n}")
        t2 = np.array([float(r[0]) for r in rows])
        expect(close(t2, c["t1"] + c["dt"] * np.arange(1, n + 1)), "choi.csv t2 grid is wrong")
        r = kernel(noise, t2) / float(kernel(noise, c["t1"]))
        expect(close([float(x[1]) for x in rows], 1 - r), "lambda3 != 1 - r")
        expect(close([float(x[2]) for x in rows], 1 + r), "lambda4 != 1 + r")
        expect(all(x[4] == "true" for x in rows), "a grid point is marked non-invertible")
        margin = np.minimum(1 - r, 1 + r)
        for row, m in zip(rows, margin):
            if abs(m) > 1e-9:  # the verdict at a numerically tied point is not checked
                expect(row[3] == ("true" if m >= -1e-12 else "false"), f"is_cp wrong at t2={row[0]}")

    def td():
        values = read_series(out / "td.csv", steps)
        expect(np.min(values) >= -CUTOFF and np.max(values) <= 1 + CUTOFF, "TD outside [0, 1]")
        d1, e1, d2, e2 = cfg["td_pair"]
        a1 = amplitudes(cfg["walk"], d1, e1)
        a2 = amplitudes(cfg["walk"], d2, e2)
        overlap = abs(np.vdot(a1[0].sum(axis=1), a2[0].sum(axis=1)))
        expect(close(values[0], math.sqrt(max(0.0, 1 - overlap**2))), "TD(0) != initial-pair distance")
        ks = kernel(noise, np.arange(steps + 1))
        coin1 = np.einsum("tcx,tdx->tcd", a1, a1.conj())
        coin2 = np.einsum("tcx,tdx->tcd", a2, a2.conj())
        diff = coin1 - coin2
        diff[:, 0, 1] *= ks
        diff[:, 1, 0] *= ks
        expected = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=1)
        expect(close(values, expected), "TD series differs from the amplitude oracle")

    def variance():
        values = read_series(out / "variance.csv", steps)
        probs = np.sum(np.abs(amplitudes(cfg["walk"])) ** 2, axis=1)
        x = positions(steps)
        mean = probs @ x
        expected = np.einsum("tx,tx->t", probs, (x[None, :] - mean[:, None]) ** 2)
        expect(close(values, expected, relative=True), "variance differs from noiseless walk")

    def spectrum():
        td = read_series(out / "td.csv", steps)
        fit = read_series(out / "spectrum/fit.csv", steps)
        residual = read_series(out / "spectrum/residual.csv", steps)
        expect(np.all(np.diff(fit) <= 1e-12), "fit is not non-increasing")
        expect(close(residual, td - fit), "residual != TD - fit")
        rows = read_rows(out / "spectrum/spectrum.csv", ["frequency", "power"])
        power = np.array([float(r[1]) for r in rows])
        expect(len(power) == len(residual) // 2 + 1, "spectrum has the wrong number of bins")
        total = len(residual) * np.var(residual)
        expect(abs(power.sum() - total) <= TOL * max(total, 1e-6), "power != N var(residual)")
        peaks = json.loads((out / "spectrum/peaks.json").read_text(encoding="utf-8"))
        expect(isinstance(peaks, list), "peaks.json is not a list")

    return [("choi", choi), ("witness", td), ("witness", variance), ("spectrum", spectrum)]


def _stepwise(cfg: dict, out: Path, seed: int):
    steps = cfg["walk"]["steps"]
    x = positions(steps)
    dist = {}

    def load_dist():
        if not dist:
            probs = defaultdict(lambda: np.zeros(len(x)))
            for s, pos, p in read_rows(out / "distribution.csv", ["step", "x", "probability"]):
                probs[int(s)][int(pos) + steps + 1] = float(p)
            expect(sorted(probs) == list(range(steps + 1)), "distribution.csv misses steps")
            dist.update(probs)
        return dist

    def walk():
        probs = load_dist()
        var = read_series(out / "variance.csv", steps, "variance")
        for t in range(steps + 1):
            p = probs[t]
            expect(abs(p.sum() - 1.0) <= TOL, f"distribution at t={t} sums to {p.sum()}")
            mean = p @ x
            expect(close(var[t], p @ (x - mean) ** 2, relative=True), f"variance at t={t}")

    def dense():
        probs = load_dist()
        mi = read_series(out / "mi.csv", steps)
        ent = read_series(out / "entropy.csv", steps)
        expect(np.min(mi) >= -1e-9, f"MI below -1e-9: {np.min(mi)}")
        expect(np.min(ent) >= -CUTOFF and np.max(ent) <= 1 + CUTOFF, "Entropy outside [0, 1]")
        wanted = set(check_steps(seed, "stepwise", steps))
        for t, rho in stepwise_states(cfg["walk"], cfg["noise"], max(wanted)):
            if t not in wanted:
                continue
            rc, rp = reductions(rho)
            expect(np.linalg.eigvalsh(rho)[0] >= -1e-10, f"oracle state at t={t} is not physical")
            expect(close(mi[t], mutual_information(rho)), f"MI at t={t} differs from dense oracle")
            expect(close(ent[t], entropy(np.linalg.eigvalsh(rc))), f"Entropy at t={t} differs")
            expect(close(probs[t], np.real(np.diag(rp))), f"distribution at t={t} differs")

    return [("walk", walk), ("witness", dense)]


_CHECKS = {"correlations": _correlations, "backflow": _backflow, "stepwise": _stepwise}


def check_outputs(workload: str, cfg: dict, out: Path, seed: int) -> list[tuple[str, str]]:
    """Failed checks of one pass's outputs, as (CLI step, message)."""
    failures = []
    for step, check in _CHECKS[workload](cfg, out, seed):
        try:
            check()
        except CheckFailed as exc:
            failures.append((step, str(exc)))
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            failures.append((step, f"unreadable output: {type(exc).__name__}: {exc}"))
    return failures


def compare_passes(workload: str, first: Path, last: Path) -> list[tuple[str, str]]:
    """Data files that differ byte for byte between two passes, as (CLI step, message)."""
    failures = []
    for step, names in DATA_FILES[workload].items():
        for name in names:
            a, b = first / name, last / name
            if not (a.is_file() and b.is_file() and filecmp.cmp(a, b, shallow=False)):
                failures.append((step, f"{name} differs between passes"))
    return failures
