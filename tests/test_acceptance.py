"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `[ACCEPT] ...` pass/fail line (run pytest with -s to see
them all); tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np

from conftest import cached_system, companion_eigenvalues, dense_d, random_spd_pencil
from tespect import (
    assembly,
    companion,
    counting,
    diagnostics,
    model,
    oracles,
)
from tespect.cli import RunConfig, convergence_table
from tespect.util import match_multisets


def report(num: int, label: str, ok: bool) -> None:
    print(f"[ACCEPT] C{num:02d} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {num}: {label}"


def toy_system():
    return assembly.WhitenedSystem.from_matrices([[4.0]], [[5.0]])


def test_c01_toy_scalar_identities():
    start = time.perf_counter()
    wh = toy_system()
    comp = companion.build_companion(wh)
    spec = companion.extract_spectrum(comp)
    mus = sorted(t.mu.real for t in spec)
    lams = sorted(t.lam.real for t in spec)
    ok = np.allclose(mus, [0.25, 1.0], atol=1e-12)
    ok &= np.allclose(lams, [1.0, 4.0], atol=1e-12)
    ok &= abs(diagnostics.trace_power(comp, 1) - 1.25) < 1e-12
    tr2 = diagnostics.trace_power(comp, 2)
    ok &= abs(tr2 - 1.0625) < 1e-12 and abs(tr2 - 17.0 / 16.0) < 1e-12
    r1, r2 = diagnostics.trace_identity_check(comp)
    ok &= r1 < 1e-12 and r2 < 1e-12
    for lam in (2.0, -1.0, 0.3 + 0.4j):
        f = counting.fredholm_det(wh, lam).value
        ok &= abs(f - (1.0 - lam) * (1.0 - lam / 4.0)) < 1e-12
    ok &= counting.winding_count(wh, 2.0) == 1
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report(1, f"toy scalar system exact identities ({elapsed:.2f}s)", bool(ok))


def test_c02_interval_contrast_three_oracle():
    start = time.perf_counter()
    _, _, _, wh = cached_system(operator="laplacian", size=48, contrast=3.0)
    comp = companion.build_companion(wh)
    spec = companion.extract_spectrum(comp)
    target = 4.0 * math.pi**2
    best = min(spec, key=lambda t: abs(t.lam - target))
    ok = abs(best.lam - target) / target < 1e-4
    ok &= best.qep_residual < 1e-8
    roots = oracles.oracle_1d(3.0, 5.0, 7.0)
    ok &= bool(roots) and abs(roots[0].k - 2.0 * math.pi) <= 1e-8
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    report(2, f"contrast-3 eigenvalue matches 4 pi^2 ({elapsed:.2f}s)", bool(ok))


def test_c03_reciprocal_correspondence():
    start = time.perf_counter()
    ok = True
    for operator, size in (("laplacian", 32), ("bilaplacian", 24)):
        _, _, _, wh = cached_system(operator=operator, size=size, contrast=2.5)
        comp = companion.build_companion(wh)
        recips = 1.0 / companion_eigenvalues(comp)
        direct = companion.pencil_eigenvalues(wh)
        ok &= match_multisets(recips, direct) < 1e-7
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    report(3, f"reciprocal correspondence vs direct pencil ({elapsed:.2f}s)", bool(ok))


def suite_systems():
    yield "toy", toy_system()
    yield "interval-2nd-V3-N32", cached_system(operator="laplacian", size=32, contrast=3.0)[3]
    yield "interval-2nd-V3-N48", cached_system(operator="laplacian", size=48, contrast=3.0)[3]
    yield "interval-4th-V3-N24", cached_system(operator="bilaplacian", size=24, contrast=3.0)[3]
    yield "interval-2nd-V1-N32", cached_system(operator="laplacian", size=32, contrast=1.0)[3]
    yield "square-2nd-V3-N12", cached_system(
        operator="laplacian", dimension=2, size=12, contrast=3.0
    )[3]


def test_c04_lidskii_and_conjugate_symmetry():
    ok = True
    for name, wh in suite_systems():
        comp = companion.build_companion(wh)
        mus = np.array([t.mu for t in companion.extract_spectrum(comp)])
        tr = np.trace(dense_d(comp))
        ok &= abs(mus.sum() - tr) <= 1e-8 * max(abs(tr), 1e-300)
        lams = 1.0 / mus
        ok &= match_multisets(lams, lams.conj()) < 1e-8
    report(4, "finite trace-sum identity and conjugate pairing", bool(ok))


def test_c05_trace_identities():
    ok = True
    for name, wh in (
        ("toy", toy_system()),
        ("interval-2nd", cached_system(operator="laplacian", size=32, contrast=3.0)[3]),
        ("interval-4th", cached_system(operator="bilaplacian", size=24, contrast=3.0)[3]),
    ):
        comp = companion.build_companion(wh)
        r1, r2 = diagnostics.trace_identity_check(comp)
        ok &= r1 < 1e-10 and r2 < 1e-10
    rng = np.random.default_rng(20255)
    for _ in range(20):
        wh = random_spd_pencil(rng, 20)
        comp = companion.build_companion(wh)
        r1, r2 = diagnostics.trace_identity_check(comp)
        ok &= r1 < 1e-10 and r2 < 1e-10
    report(5, "closed-form trace identities below 1e-10", bool(ok))


def test_c06_resolvent_block_formula():
    rng = np.random.default_rng(606)
    ok = True
    for wh in (
        toy_system(),
        cached_system(operator="laplacian", size=32, contrast=3.0)[3],
        cached_system(operator="bilaplacian", size=12, contrast=3.0)[3],
    ):
        lams = companion.pencil_eigenvalues(wh)
        done = 0
        while done < 5:
            lam = complex(rng.uniform(-50.0, 200.0), rng.uniform(-50.0, 50.0))
            if np.min(np.abs(lams - lam) / np.maximum(np.abs(lams), 1e-300)) < 1e-5:
                continue
            ok &= companion.resolvent_block_check(wh, lam) < 1e-8
            done += 1
    report(6, "resolvent block formula below 1e-8 off spectrum", bool(ok))


def test_c07_schatten_decay():
    start = time.perf_counter()
    ok = True
    for operator, size, dimension, family, theory, tol in (
        ("laplacian", 32, 1, assembly.POLYNOMIAL, -2.0, 0.15),
        ("bilaplacian", 24, 1, assembly.POLYNOMIAL, -4.0, 0.15),
        ("laplacian", 20, 2, assembly.TRIG, -1.0, 0.20),
    ):
        _, _, _, wh = cached_system(
            operator=operator,
            dimension=dimension,
            size=size,
            contrast=3.0,
            family=family,
        )
        profile = diagnostics.schatten_profile(wh)
        ok &= abs(profile.decay_exponent - theory) <= tol * abs(theory)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    report(7, f"singular-value decay exponents ({elapsed:.2f}s)", bool(ok))


def test_c08_counting_and_growth():
    _, _, _, wh = cached_system(operator="laplacian", size=48, contrast=3.0)
    comp = companion.build_companion(wh)
    lams = np.array([t.lam for t in companion.extract_spectrum(comp)])
    moduli = np.abs(lams)
    radii = counting.auto_radii(lams)
    ok = True
    for r in radii:
        ok &= counting.winding_count(wh, r) == int(np.sum(moduli < r))
        ok &= counting.jensen_bound(wh, r) >= int(np.sum(moduli < r / 2.0))
    profile = counting.growth_profile(wh, radii, spectrum=lams)
    ok &= abs(profile.growth_exponent - 0.5) <= 0.15
    report(8, "winding counts, half-radius bound, growth fit", bool(ok))


def test_c09_unit_potential_existence():
    ok = True
    for operator, size in (("laplacian", 32), ("bilaplacian", 24)):
        _, _, _, wh = cached_system(operator=operator, size=size, contrast=1.0)
        comp = companion.build_companion(wh)
        trace = diagnostics.trace_power(comp, 1)
        ok &= trace.real > 0 and abs(trace.imag) < 1e-12
        rng_report = diagnostics.numerical_range(wh, 10000, seed=2025)
        ok &= float(np.min(rng_report.samples.real)) >= -1e-10
        ok &= len(companion.extract_spectrum(comp)) > 0
    report(9, "unit potential: positive trace, sector, nonempty spectrum", bool(ok))


def test_c10_generic_existence_scan():
    prob = model.validate_problem(
        model.OperatorSpec.laplacian(1),
        model.DomainSpec("interval"),
        model.PotentialSpec.constant(1.0, 1),
    )
    direction = model.PotentialSpec.constant(1.0, 1)
    s_grid = np.linspace(0.0, 2.0, 21)
    scan = diagnostics.potential_scan(prob, direction, s_grid, 16, refine_check=True)
    ok = bool(np.all(scan.t_values > 0))
    ok &= scan.near_zeros.size == 0 and scan.sign_changes.shape[0] == 0
    ratio = scan.refined_max_increment / scan.max_increment
    ok &= abs(ratio - 0.5) <= 0.1  # increments halve under 2x refinement
    worst = 0.0
    for s in s_grid:
        pot = model.PotentialSpec.affine(prob.potential, direction, float(s))
        prob_s = model.ProblemSpec(prob.operator, prob.domain, pot)
        white, raw = diagnostics.trace_functional_routes(prob_s, 16)
        worst = max(worst, abs(white - raw) / max(abs(white), abs(raw), 1.0))
    ok &= worst < 1e-10
    report(10, f"family scan continuity, positivity, cyclicity {worst:.1e}", bool(ok))


def test_c11_square_self_convergence():
    start = time.perf_counter()
    cfg = RunConfig.load(
        None,
        [
            "problem.dimension=2",
            "problem.domain=square",
            "problem.potential=constant:3.0",
            "convergence.n_list=12,16,20,24",
        ],
    )
    rows = convergence_table(cfg)
    elapsed = time.perf_counter() - start
    ok = rows[-1]["rel_diff"] < 1e-3 and rows[-1]["cauchy"]
    ok &= elapsed < 300.0
    report(11, f"square self-convergence, final change {rows[-1]['rel_diff']:.1e} ({elapsed:.1f}s)", bool(ok))


def test_c12_bessel_and_disk_oracle():
    zero = oracles._bisect(lambda x: oracles.bessel_j(0, x), 2.0, 3.0)
    ok = abs(zero - 2.404825558) <= 1e-8
    rng = np.random.default_rng(12)
    for _ in range(100):
        x = float(rng.uniform(0.5, 50.0))
        l = int(rng.integers(1, 21))
        row = oracles.bessel_row(l + 1, x)
        lhs = row[l - 1] + row[l + 1]
        rhs = (2.0 * l / x) * row[l]
        ok &= abs(lhs - rhs) <= 1e-10 * max(abs(row[l - 1]), abs(row[l + 1]), abs(rhs), 1e-30)
    eta = 2.0
    roots = oracles.oracle_disk(3.0, 3, 0.5, 12.0, points_per_unit=500)
    ok &= bool(roots)
    for root in roots:
        ok &= root.residual < 1e-10
        lo, hi = root.bracket
        ok &= oracles.disk_determinant(lo, eta, root.l) * oracles.disk_determinant(
            hi, eta, root.l
        ) < 0
    report(12, "Bessel zero, recurrence, disk-root residuals", bool(ok))


def test_c13_generalized_eigenvector_chains():
    defective = assembly.WhitenedSystem.from_matrices(np.eye(2), 2.0 * np.eye(2))
    comp = companion.build_companion(defective)
    spec = companion.extract_spectrum(comp)
    chains = companion.jordan_chains(comp, spec)
    ok = any(len(c.vectors) >= 2 for c in chains)
    ok &= all(max(c.residuals) < 1e-10 for c in chains)

    toy = companion.build_companion(toy_system())
    toy_spec = companion.extract_spectrum(toy)
    for cid in {t.cluster_id for t in toy_spec}:
        cluster = [t for t in toy_spec if t.cluster_id == cid]
        for chain in companion.jordan_chains(toy, cluster):
            ok &= len(chain.vectors) == 1
    report(13, "defective pencil chains found, none spurious", bool(ok))
