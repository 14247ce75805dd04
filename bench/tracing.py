"""In-memory span recorder wrapped around the calls between nmqwalk modules.

Spans are recorded from outside the package: each wrapped name is a
module-level global through which one ``nmqwalk`` module calls a function of
another (for example ``nmqwalk.witness.partial_trace``), and calls resolve
those globals at call time, so replacing them reroutes every call. Numpy's
LAPACK entry points are reached through a copy of ``numpy`` installed as the
``np`` global of each package module, so only calls made from ``nmqwalk``
are counted. A name that does not exist is skipped: a refactor that deletes
a call reads as a zero count, never as an error.

A span is (name, start, end, parent index); the layer of a span is the part
of its name before the first dot. Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
import types
from collections import Counter, defaultdict

import numpy

PACKAGE_MODULES = ("cli", "witness", "walk", "qops", "noise", "divisibility", "spectral")
LAYERS = (*PACKAGE_MODULES, "linalg")
_EIG_FUNCS = ("eigh", "eigvalsh", "eig", "eigvals")
_OTHER_LAPACK_FUNCS = ("svd", "inv", "solve", "lstsq", "det", "cond")


class Tracer:
    """Spans of one traced pass, plus counters noted at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), math.nan, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def totals(self) -> tuple[Counter, dict, dict]:
        """Per span name: call count, summed duration and summed self time."""
        calls: Counter = Counter()
        inclusive: defaultdict = defaultdict(float)
        self_time: defaultdict = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), children in zip(self.spans, child_time):
            calls[name] += 1
            inclusive[name] += end - start
            self_time[name] += (end - start) - children
        return calls, dict(inclusive), dict(self_time)


def _wrap_call(tracer: Tracer, name: str, fn, note=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if note is not None:
            note(tracer.counts, args, kwargs, result)
        return result

    return wrapper


def _wrap_evolve(tracer: Tracer, fn):
    """One span per yielded state: the time the generator spends producing it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts["walk.evolve_calls"] += 1
        return _states(fn(*args, **kwargs))

    def _states(gen):
        while True:
            idx = tracer.begin("walk.state")
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tracer.end(idx)
            tracer.counts["walk.states"] += 1
            tracer.counts["walk.state_bytes"] += item[1].nbytes
            yield item

    return wrapper


def _note_eig(counts, args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    shape = numpy.shape(a)
    n = shape[-1]
    batch = math.prod(shape[:-2])
    counts["linalg.eig_ops"] += batch * n**3
    counts["linalg.eig_dim_max"] = max(counts["linalg.eig_dim_max"], n)


def _note_partial_trace(counts, args, kwargs, result):
    counts["qops.partial_trace_bytes"] += numpy.asarray(args[0]).nbytes


def _make_optimizer(tracer: Tracer, minimize):
    """Nelder-Mead refinement; 'useful' when it ends below its starting value.

    The objective's first evaluation is at the starting point, which the
    discord code takes from the grid optimum.
    """

    @functools.wraps(minimize)
    def wrapper(fun, x0, *args, **kwargs):
        first = []

        def objective(x, *fargs):
            value = fun(x, *fargs)
            if not first:
                first.append(value)
            return value

        idx = tracer.begin("witness.optimizer")
        try:
            res = minimize(objective, x0, *args, **kwargs)
        finally:
            tracer.end(idx)
        tracer.counts["witness.optimizer_nfev"] += int(res.nfev)
        if first and res.fun < first[0]:
            tracer.counts["witness.optimizer_useful"] += 1
        return res

    return wrapper


def _note_points(counts, args, kwargs, result):
    counts["divisibility.points"] += len(result.points)


def _note_peaks(counts, args, kwargs, result):
    counts["spectral.peaks"] += len(result.peaks)


# (module, global name, span name, counter hook); entries whose global is
# missing are skipped
_CALL_SITES = (
    ("cli", "parse_config", "cli.parse", None),
    ("cli", "run_walk", "cli.walk", None),
    ("cli", "run_witness", "cli.witness", None),
    ("cli", "run_choi_scan", "cli.choi", None),
    ("cli", "run_spectrum", "cli.spectrum", None),
    ("cli", "witness_series", "witness.series", None),
    ("cli", "cp_divisibility_scan", "divisibility.scan", _note_points),
    ("cli", "disambiguate", "spectral.disambiguate", _note_peaks),
    ("witness", "mutual_information", "witness.mi", None),
    ("witness", "mid", "witness.mid", None),
    ("witness", "discord", "witness.discord", None),
    ("witness", "partial_trace", "qops.partial_trace", _note_partial_trace),
    ("witness", "entropy_of_spectrum", "qops.entropy", None),
    ("witness", "trace_norm", "qops.trace_norm", None),
    ("walk", "evolve_noiseless", "walk.amplitude", None),
    ("walk", "kernel_value", "noise.kernel", None),
    ("divisibility", "kernel_value", "noise.kernel", None),
    ("divisibility", "is_cp", "divisibility.is_cp", None),
    ("spectral", "fit_mfbf", "spectral.fit", None),
    ("spectral", "power_spectrum", "spectral.spectrum", None),
)
_EVOLVE_SITES = (
    ("cli", "evolve_one_shot"),
    ("cli", "evolve_stepwise"),
    ("witness", "evolve_one_shot"),
    ("witness", "evolve_stepwise"),
)


def _traced_numpy(tracer: Tracer) -> types.ModuleType:
    linalg = types.ModuleType("numpy.linalg")
    linalg.__dict__.update(numpy.linalg.__dict__)
    for fname in _EIG_FUNCS:
        if hasattr(numpy.linalg, fname):
            setattr(linalg, fname, _wrap_call(tracer, "linalg.eig", getattr(numpy.linalg, fname), _note_eig))
    for fname in _OTHER_LAPACK_FUNCS:
        if hasattr(numpy.linalg, fname):
            setattr(linalg, fname, _wrap_call(tracer, f"linalg.{fname}", getattr(numpy.linalg, fname)))
    proxy = types.ModuleType("numpy")
    proxy.__dict__.update(numpy.__dict__)
    proxy.linalg = linalg
    return proxy


class Instrumentation:
    """Installs the wrappers for one tracer and restores the originals on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _replace(self, module, name: str, value) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def __enter__(self) -> Tracer:
        mods = {m: importlib.import_module(f"nmqwalk.{m}") for m in PACKAGE_MODULES}
        for mod_name, attr, span, note in _CALL_SITES:
            mod = mods[mod_name]
            if hasattr(mod, attr):
                self._replace(mod, attr, _wrap_call(self.tracer, span, getattr(mod, attr), note))
        for mod_name, attr in _EVOLVE_SITES:
            mod = mods[mod_name]
            if hasattr(mod, attr):
                self._replace(mod, attr, _wrap_evolve(self.tracer, getattr(mod, attr)))
        if hasattr(mods["witness"], "minimize"):
            self._replace(
                mods["witness"], "minimize", _make_optimizer(self.tracer, mods["witness"].minimize)
            )
        proxy = _traced_numpy(self.tracer)
        for mod in mods.values():
            if getattr(mod, "np", None) is numpy:
                self._replace(mod, "np", proxy)
        return self.tracer

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, name, value = self._saved.pop()
            setattr(module, name, value)


def layer_metrics(tracer: Tracer, bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, by the names BENCHMARK.json lists.

    ``*_s`` of a named call is its inclusive time; ``walk.state_s`` and
    ``<layer>.self_s`` are self times.
    """
    calls, incl, self_time = tracer.totals()
    layer_self: defaultdict = defaultdict(float)
    for name, t in self_time.items():
        layer_self[name.split(".", 1)[0]] += t
    c = tracer.counts
    optimizer_calls = calls.get("witness.optimizer", 0)
    return {
        "linalg.eig_calls": calls.get("linalg.eig", 0),
        "linalg.eig_s": incl.get("linalg.eig", 0.0),
        "linalg.eig_dim_max": c["linalg.eig_dim_max"],
        "linalg.eig_ops": c["linalg.eig_ops"],
        "qops.entropy_calls": calls.get("qops.entropy", 0),
        "qops.entropy_s": incl.get("qops.entropy", 0.0),
        "witness.mi_s": incl.get("witness.mi", 0.0),
        "witness.mid_s": incl.get("witness.mid", 0.0),
        "witness.discord_s": incl.get("witness.discord", 0.0),
        "witness.optimizer_calls": optimizer_calls,
        "witness.optimizer_s": incl.get("witness.optimizer", 0.0),
        "witness.optimizer_nfev": c["witness.optimizer_nfev"],
        "witness.optimizer_useful_ratio": (
            c["witness.optimizer_useful"] / optimizer_calls if optimizer_calls else 0.0
        ),
        "walk.evolve_calls": c["walk.evolve_calls"],
        "walk.states": c["walk.states"],
        "witness.series_calls": calls.get("witness.series", 0),
        "walk.amplitude_s": incl.get("walk.amplitude", 0.0),
        "walk.state_s": self_time.get("walk.state", 0.0),
        "walk.state_bytes": c["walk.state_bytes"],
        "qops.partial_trace_calls": calls.get("qops.partial_trace", 0),
        "qops.partial_trace_s": incl.get("qops.partial_trace", 0.0),
        "qops.partial_trace_bytes": c["qops.partial_trace_bytes"],
        "qops.trace_norm_s": incl.get("qops.trace_norm", 0.0),
        "noise.kernel_calls": calls.get("noise.kernel", 0),
        "noise.kernel_s": incl.get("noise.kernel", 0.0),
        "divisibility.scan_s": incl.get("divisibility.scan", 0.0),
        "divisibility.points": c["divisibility.points"],
        "divisibility.is_cp_calls": calls.get("divisibility.is_cp", 0),
        "spectral.fit_s": incl.get("spectral.fit", 0.0),
        "spectral.spectrum_s": incl.get("spectral.spectrum", 0.0),
        "spectral.peaks": c["spectral.peaks"],
        "cli.parse_s": incl.get("cli.parse", 0.0),
        "cli.walk_s": incl.get("cli.walk", 0.0),
        "cli.witness_s": incl.get("cli.witness", 0.0),
        "cli.choi_s": incl.get("cli.choi", 0.0),
        "cli.spectrum_s": incl.get("cli.spectrum", 0.0),
        "cli.bytes_written": bytes_written,
        **{f"{layer}.self_s": layer_self.get(layer, 0.0) for layer in LAYERS},
    }
