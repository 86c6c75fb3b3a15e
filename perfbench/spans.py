"""Traced runs: spans around calls into tespect's public functions.

``install`` replaces each target function, at every ``tespect`` module
attribute bound to it, with a wrapper that records a span (name, start,
end, parent) in a ``Recorder``; ``uninstall`` puts the originals back.
Hot per-point functions are aggregated into a call count and total time
instead of one span per call.  Every call, hot or not, adds its duration
to its parent's child time, so a span's self time is its duration minus
the time of the wrapped calls made inside it.

A target whose name no longer exists is skipped and listed as absent; the
metrics that depend on it read zero.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import statistics
import sys
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

LAYERS = ("cli", "assembly", "companion", "densela", "diagnostics", "counting", "oracles")


@dataclass(frozen=True)
class Target:
    """A public function to wrap, named ``<layer>.<function>``."""

    name: str
    module: str
    attr: str  # "Class.method" for methods
    hot: bool = False
    # real flops of one call, from the bound arguments (a stated model)
    flops: Optional[Callable[[dict], float]] = None
    # contour points the caller asked for, from the bound arguments
    points: Optional[Callable[[dict], float]] = None


def _n(args: dict, key: str) -> int:
    return int(args[key].shape[0])


# Flop models: dense nonsymmetric eig ~10 n^3 for eigenvalues and ~25 n^3
# with eigenvectors (Golub & Van Loan, Matrix Computations, sec. 7.5.6);
# a complex LU is 8 n^3 / 3 real flops.
TARGETS = (
    Target("cli.run", "tespect.cli", "run"),
    Target("assembly.build_basis", "tespect.assembly", "build_basis"),
    Target("assembly.assemble_system", "tespect.assembly", "assemble_system"),
    Target("assembly.whiten", "tespect.assembly", "whiten"),
    Target("companion.build_companion", "tespect.companion", "build_companion"),
    Target("companion.eigen_data", "tespect.companion", "CompanionSystem.eigen_data"),
    Target("companion.extract_spectrum", "tespect.companion", "extract_spectrum"),
    Target(
        "densela.nonsym_eig",
        "tespect.densela",
        "nonsym_eig",
        flops=lambda a: (25.0 if a["want_vectors"] else 10.0) * _n(a, "m") ** 3,
    ),
    Target("densela.sym_eig", "tespect.densela", "sym_eig"),
    Target(
        "densela.complex_det",
        "tespect.densela",
        "complex_det",
        hot=True,
        flops=lambda a: 8.0 * _n(a, "m") ** 3 / 3.0,
    ),
    Target("diagnostics.trace_report", "tespect.diagnostics", "trace_report"),
    Target("diagnostics.numerical_range", "tespect.diagnostics", "numerical_range"),
    Target("diagnostics.potential_scan", "tespect.diagnostics", "potential_scan"),
    Target("diagnostics.trace_functional", "tespect.diagnostics", "trace_functional"),
    Target(
        "counting.growth_profile",
        "tespect.counting",
        "growth_profile",
        points=lambda a: float(len(a["radii"]) * a["points"]),
    ),
    Target("counting.fredholm_det", "tespect.counting", "fredholm_det", hot=True),
    Target("oracles.oracle_1d", "tespect.oracles", "oracle_1d"),
    Target("oracles.oracle_disk", "tespect.oracles", "oracle_disk"),
    Target("oracles.interval_determinant", "tespect.oracles", "interval_determinant", hot=True),
    Target("oracles.disk_determinant", "tespect.oracles", "disk_determinant", hot=True),
    Target("oracles.bessel_row", "tespect.oracles", "bessel_row", hot=True),
)


class Recorder:
    """Spans and per-name totals of the wrapped calls, kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [span id or None, child time]
        self._ids = itertools.count()

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + value

    def call(self, name: str, hot: bool, fn: Callable, args: tuple, kwargs: dict):
        parent = next((f[0] for f in reversed(self._stack) if f[0] is not None), None)
        span_id = None if hot else next(self._ids)
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            duration = end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + duration
            self.self_time[name] = self.self_time.get(name, 0.0) + duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
            if not hot:
                self.spans.append((span_id, parent, name, start, end))

    def layer_self_times(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, value in self.self_time.items():
            out[name.split(".", 1)[0]] += value
        return out


def _resolve(target: Target):
    """(owner, attribute, original) or None when the name is gone."""
    try:
        module = importlib.import_module(target.module)
    except ImportError:
        return None
    owner, attr = module, target.attr
    if "." in attr:
        cls_name, attr = attr.split(".", 1)
        owner = getattr(module, cls_name, None)
    original = getattr(owner, attr, None) if owner is not None else None
    if not callable(original):
        return None
    return owner, attr, original


def _wrapper(rec: Recorder, target: Target, original: Callable) -> Callable:
    signature = inspect.signature(original)
    quadrature_warning = None
    if target.name == "assembly.assemble_system":
        quadrature_warning = getattr(importlib.import_module("tespect.errors"), "QuadratureWarning", None)

    def body(*args, **kwargs):
        if quadrature_warning is None:
            return original(*args, **kwargs)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = original(*args, **kwargs)
        rec.add("quadrature_warnings", sum(issubclass(w.category, quadrature_warning) for w in caught))
        return result

    def count(args, kwargs):
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            if target.flops:
                rec.add(f"{target.name}.flops", target.flops(bound.arguments))
            if target.points:
                rec.add("requested_points", target.points(bound.arguments))
        except (TypeError, KeyError, AttributeError):
            pass  # the function's parameters changed; its counter reads zero

    def wrapper(*args, **kwargs):
        if target.flops or target.points:
            count(args, kwargs)
        return rec.call(target.name, target.hot, body, args, kwargs)

    wrapper.__wrapped__ = original
    return wrapper


class Installation:
    """Wrapped names of one traced pass, for ``uninstall``."""

    def __init__(self):
        self.replaced: list[tuple] = []  # (owner, attr, original)
        self.absent: list[str] = []


def install(rec: Recorder, targets=TARGETS) -> Installation:
    """Wrap every target wherever a tespect module binds it."""
    inst = Installation()
    for target in targets:
        found = _resolve(target)
        if found is None:
            inst.absent.append(f"{target.module}.{target.attr}")
            continue
        owner, attr, original = found
        wrapped = _wrapper(rec, target, original)
        owners = [owner]
        if owner is sys.modules.get(target.module):  # also where other modules imported it
            owners += [
                m
                for key, m in list(sys.modules.items())
                if (key == "tespect" or key.startswith("tespect."))
                and m is not owner
                and getattr(m, attr, None) is original
            ]
        for o in owners:
            setattr(o, attr, wrapped)
            inst.replaced.append((o, attr, original))
    return inst


def uninstall(inst: Installation) -> None:
    for owner, attr, original in reversed(inst.replaced):
        setattr(owner, attr, original)
    inst.replaced.clear()


def layer_metrics(rec: Recorder, pass_s: float) -> dict[str, float]:
    """Per-layer totals of one traced pass."""
    t, c = rec.total, rec.calls

    def total(name):
        return t.get(name, 0.0)

    def calls(name):
        return float(c.get(name, 0))

    def rate(name):
        secs = total(name)
        return rec.counters.get(f"{name}.flops", 0.0) / secs / 1e9 if secs > 0 else 0.0

    det_calls = calls("counting.fredholm_det")
    requested = rec.counters.get("requested_points", 0.0)
    out = {
        "cli.bytes_written": rec.counters.get("bytes_written", 0.0),
        "assembly.basis_s": total("assembly.build_basis"),
        "assembly.assemble_s": total("assembly.assemble_system"),
        "assembly.assemble_calls": calls("assembly.assemble_system"),
        "assembly.quadrature_warnings": rec.counters.get("quadrature_warnings", 0.0),
        "assembly.whiten_s": total("assembly.whiten"),
        "companion.build_s": total("companion.build_companion"),
        "companion.eig_s": total("companion.eigen_data"),
        # the eigensolve it triggers is companion.eig_s, so it is left out here
        "companion.extract_s": rec.self_time.get("companion.extract_spectrum", 0.0),
        "densela.nonsym_eig_s": total("densela.nonsym_eig"),
        "densela.nonsym_eig_calls": calls("densela.nonsym_eig"),
        "densela.nonsym_eig_gflops": rate("densela.nonsym_eig"),
        "densela.sym_eig_s": total("densela.sym_eig"),
        "densela.sym_eig_calls": calls("densela.sym_eig"),
        "densela.complex_det_s": total("densela.complex_det"),
        "densela.complex_det_calls": calls("densela.complex_det"),
        "densela.complex_det_gflops": rate("densela.complex_det"),
        "diagnostics.trace_s": total("diagnostics.trace_report"),
        "diagnostics.range_s": total("diagnostics.numerical_range"),
        "diagnostics.scan_s": total("diagnostics.potential_scan"),
        "diagnostics.trace_functional_calls": calls("diagnostics.trace_functional"),
        "diagnostics.trace_functional_s": total("diagnostics.trace_functional"),
        "counting.growth_s": total("counting.growth_profile"),
        "counting.det_calls": det_calls,
        "counting.det_us": 1e6 * total("counting.fredholm_det") / det_calls if det_calls else 0.0,
        "counting.points_useful_ratio": requested / det_calls if det_calls else 0.0,
        "oracles.oracle1d_s": total("oracles.oracle_1d"),
        "oracles.disk_s": total("oracles.oracle_disk"),
        "oracles.det_evals": calls("oracles.interval_determinant") + calls("oracles.disk_determinant"),
        "oracles.bessel_rows": calls("oracles.bessel_row"),
        "traced_pass_s": pass_s,
    }
    for layer, value in rec.layer_self_times().items():
        out[f"{layer}.self_s"] = value
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
