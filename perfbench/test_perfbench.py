"""Tests of the benchmark's own reference routines, span arithmetic and inputs."""

from __future__ import annotations

import math
import types

import numpy as np
import pytest

import refs
import spans
import workloads


def _matching_det(k: float, eta: float) -> float:
    """The 4x4 value/derivative matching determinant, unreduced."""
    ek = eta * k
    m = np.array(
        [
            [1.0, 0.0, -1.0, 0.0],
            [0.0, k, 0.0, -ek],
            [math.cos(k), math.sin(k), -math.cos(ek), -math.sin(ek)],
            [-k * math.sin(k), k * math.cos(k), ek * math.sin(ek), -ek * math.cos(ek)],
        ]
    )
    return float(np.linalg.det(m))


def test_contrast_three_interval_roots_are_two_pi_j():
    ks = refs.interval_roots(3.0, 0.5, 20.0)
    assert np.array_equal(ks, 2.0 * math.pi * np.arange(1, 4))
    assert np.array_equal(ks**2, 4.0 * math.pi**2 * np.arange(1, 4) ** 2)
    assert np.max(np.abs(refs.interval_function(ks, 2.0))) < 1e-12


def test_interval_closed_form_matches_the_matching_determinant():
    eta = math.sqrt(3.0)
    for k in np.linspace(0.7, 19.3, 23):
        # eliminating the x = 0 rows scales the determinant by k^2 eta
        assert _matching_det(k, eta) == pytest.approx(k * k * refs.interval_function(k, eta), abs=1e-9 * k * k)
    roots = refs.interval_roots(2.0, 0.5, 20.0)
    assert roots.size == 4
    for k in roots:
        assert _matching_det(k - 1e-6, eta) * _matching_det(k + 1e-6, eta) < 0


def test_disk_roots_count_and_residual():
    pairs = refs.disk_roots(3.0, 8, 0.5, 20.0)
    assert len(pairs) == 53
    ks = np.array([k for _, k in pairs])
    assert np.all(np.diff(ks) >= 0)
    for l, k in pairs:
        scale = abs(refs.disk_function(np.array([k + 1e-3]), 2.0, l)[0])
        assert abs(refs.disk_function(np.array([k]), 2.0, l)[0]) < 1e-9 * max(scale, 1.0)


def test_digits_and_matching():
    assert refs.digits(1e-10) == pytest.approx(10.0)
    assert refs.digits(0.0) == 16.0
    ref = np.array([1 + 2j, 1 - 2j, 5.0])
    # a conjugate pair split at the cut still finds its partner
    assert refs.worst_relative_error(np.array([1 - 2j * (1 + 1e-9)]), ref) < 1e-8
    assert refs.worst_relative_error(np.array([]), ref) == math.inf


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_synthetic_span_tree():
    clock = _FakeClock()
    rec = spans.Recorder(clock)

    def work(seconds, *children):
        def fn():
            clock.now += seconds
            for name, hot, child in children:
                rec.call(name, hot, child, (), {})
        return fn

    # cli.run [0, 10]: assembly 3 s holding densela 1 s, then 4 hot dets of 0.5 s
    det = work(0.5)
    assemble = work(2.0, ("densela.sym_eig", False, work(1.0)))
    root = work(
        1.0,
        ("assembly.assemble_system", False, assemble),
        *[("counting.fredholm_det", True, det)] * 4,
        ("cli.tail", False, work(4.0)),
    )
    rec.call("cli.run", False, root, (), {})

    assert clock.now == pytest.approx(10.0)
    assert rec.total["cli.run"] == pytest.approx(10.0)
    assert rec.self_time["cli.run"] == pytest.approx(1.0)
    assert rec.self_time["assembly.assemble_system"] == pytest.approx(2.0)
    assert rec.calls["counting.fredholm_det"] == 4
    assert rec.total["counting.fredholm_det"] == pytest.approx(2.0)
    layers = rec.layer_self_times()
    assert layers["cli"] == pytest.approx(5.0)
    assert layers["densela"] == pytest.approx(1.0)
    assert sum(layers.values()) == pytest.approx(rec.total["cli.run"])
    # hot calls leave no span; the others record their parent
    by_name = {s[2]: s for s in rec.spans}
    assert len(rec.spans) == 4
    assert by_name["densela.sym_eig"][1] == by_name["assembly.assemble_system"][0]
    assert by_name["cli.run"][1] is None


def test_missing_name_is_absent_not_fatal(monkeypatch):
    module = types.ModuleType("tespect_fake_layer")
    module.present = lambda x: x + 1
    monkeypatch.setitem(__import__("sys").modules, "tespect_fake_layer", module)
    targets = (
        spans.Target("assembly.whiten", "tespect_fake_layer", "whiten"),
        spans.Target("densela.present", "tespect_fake_layer", "present"),
    )
    rec = spans.Recorder()
    inst = spans.install(rec, targets)
    try:
        assert module.present(1) == 2
    finally:
        spans.uninstall(inst)
    assert inst.absent == ["tespect_fake_layer.whiten"]
    assert rec.calls == {"densela.present": 1}
    assert module.present(1) == 2 and not hasattr(module.present, "__wrapped__")
    metrics = spans.layer_metrics(rec, 1.0)
    assert metrics["assembly.whiten_s"] == 0.0
    assert metrics["densela.self_s"] >= 0.0


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_inputs(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)


def test_seed_draws_the_potentials():
    grid = [t for t in workloads.generate("ladder-1d", 1) if "grid" in t.label]
    assert grid and grid != [t for t in workloads.generate("ladder-1d", 2) if "grid" in t.label]
    poly = dict(next(t for t in workloads.generate("square-2d", 3) if "poly" in t.label).settings)
    coeffs = np.array([[float(v) for v in row.split(",")] for row in poly["problem.potential"][5:].split(";")])
    xs = np.linspace(0.0, 1.0, 41)
    values = np.polynomial.polynomial.polygrid2d(xs, xs, coeffs)
    assert values.min() >= 1.0
    assert np.max(np.abs(values - values[::-1, :])) > 0.1  # not invariant under x -> 1 - x


@pytest.mark.parametrize(
    "command, files, bad",
    [
        ("count", {"count.json": {"windings": [3, 5], "cross_counts": [3, 5]}}, False),
        ("count", {"count.json": {"windings": [3, 5], "cross_counts": [3, 6]}}, True),
        ("trace", {"trace.json": {"identity_residuals": [1e-13, 2e-14], "trace_re": 0.2, "trace_im": 0.0}}, False),
        ("trace", {"trace.json": {"identity_residuals": [1e-9, 2e-14], "trace_re": 0.2, "trace_im": 0.0}}, True),
    ],
)
def test_output_checks_flag_bad_outputs(tmp_path, command, files, bad):
    import json

    import checks

    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    task = workloads.Task("synthetic", command)
    assert bool(checks.Checker().problems(task, tmp_path)) is bad


def test_eigenvalue_check_rejects_non_finite(tmp_path):
    import checks

    header = "# te-spect\nindex,re_lambda,im_lambda,re_mu,im_mu,qep_residual,cluster_id,multiplicity\n"
    task = workloads.Task("synthetic", "solve")
    (tmp_path / "eigenvalues.csv").write_text(header + "0,1.5,0,0.66,0,1e-12,0,1\n")
    assert checks.Checker().problems(task, tmp_path) == []
    (tmp_path / "eigenvalues.csv").write_text(header + "0,nan,0,0.66,0,1e-12,0,1\n")
    assert checks.Checker().problems(task, tmp_path)
    (tmp_path / "eigenvalues.csv").write_text(header)
    assert checks.Checker().problems(task, tmp_path)


def test_scaled_time_cancels_host_speed():
    import run

    ref = run.REFERENCE_PROBE_S
    assert run.scaled(2.0, [ref]) == pytest.approx(2.0)
    # a host twice as slow doubles both the probes and the measured time
    assert run.scaled(4.0, [2 * ref, 1.5 * ref, 2.5 * ref]) == pytest.approx(2.0)
