"""Command-line front end and run configuration.

One INI-style config file with flat sections drives every subcommand; every
key has a default, unknown keys are rejected, and the fully resolved
configuration is echoed next to the outputs as ``config.resolved`` so a run
can be reproduced from its artifacts alone.  ``--set section.key=value``
overrides config keys one-to-one.  Numeric CSV output uses 17 significant
digits so doubles round-trip exactly; every output file carries a header
with the tool version and the resolved-config hash.

Exit codes: 0 success, 1 domain error (JSON record on stderr), 2 usage.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, companion, counting, diagnostics, oracles
from .assembly import POLYNOMIAL, TRIG, WhitenedSystem, assemble_system, build_basis, whiten
from .errors import ComputationError
from .model import PRESET_ORDERS, DomainSpec, OperatorSpec, PotentialSpec, validate_problem

_SCHEMA = {
    "problem": {
        "operator": "laplacian",
        "dimension": "1",
        "domain": "interval",
        "potential": "constant:3.0",
    },
    "basis": {
        "family": POLYNOMIAL,
        "n": "32",
    },
    "solve": {
        "cluster_tol": "1e-6",
        "mu_floor": "1e-12",
        "want_states": "false",
    },
    "trace": {
        "p": "1,2",
        "samples": "10000",
        "seed": "2025",
    },
    "count": {
        "radii": "auto",
    },
    "scan": {
        "direction": "constant:1.0",
        "s_min": "0.0",
        "s_max": "2.0",
        "s_count": "21",
        "zero_tol": "1e-6",
        "refine_check": "true",
    },
    "oracle": {
        "contrast": "3.0",
        "k_min": "0.5",
        "k_max": "20.0",
        "points_per_unit": "2000",
        "l_max": "8",
    },
    "convergence": {
        "n_list": "16,24,32,48",
        "real_tol": "1e-6",
        "cauchy_tol": "1e-3",
    },
    "output": {
        "dir": "out",
    },
}

SUBCOMMANDS = (
    "assemble",
    "solve",
    "trace",
    "range",
    "count",
    "scan",
    "oracle1d",
    "oracle-disk",
    "convergence",
    "selftest",
)


class UsageError(Exception):
    pass


def _fmt(x) -> str:
    return f"{x:.17g}"


class RunConfig:
    """Resolved configuration: every schema key present, typed accessors."""

    def __init__(self, values: dict[str, dict[str, str]]):
        self.values = values

    @classmethod
    def load(cls, path: str | None, overrides: list[str]) -> "RunConfig":
        values = {s: dict(d) for s, d in _SCHEMA.items()}
        if path is not None:
            parser = configparser.ConfigParser()
            read = parser.read(path)
            if not read:
                raise UsageError(f"config file {path!r} not found")
            for section in parser.sections():
                if section not in values:
                    raise UsageError(f"unknown config section [{section}]")
                for key, val in parser.items(section):
                    if key not in values[section]:
                        raise UsageError(f"unknown config key {section}.{key}")
                    values[section][key] = val
        for item in overrides:
            if "=" not in item or "." not in item.split("=", 1)[0]:
                raise UsageError(f"override {item!r} is not section.key=value")
            target, val = item.split("=", 1)
            section, key = target.split(".", 1)
            if section not in values or key not in values[section]:
                raise UsageError(f"unknown config key {section}.{key}")
            values[section][key] = val
        return cls(values)

    # typed accessors ---------------------------------------------------------

    def str_(self, section: str, key: str) -> str:
        return self.values[section][key].strip()

    def int_(self, section: str, key: str) -> int:
        try:
            return int(self.str_(section, key))
        except ValueError as exc:
            raise UsageError(f"{section}.{key} must be an integer") from exc

    def float_(self, section: str, key: str) -> float:
        try:
            return float(self.str_(section, key))
        except ValueError as exc:
            raise UsageError(f"{section}.{key} must be a number") from exc

    def bool_(self, section: str, key: str) -> bool:
        raw = self.str_(section, key).lower()
        if raw in ("true", "1", "yes", "on"):
            return True
        if raw in ("false", "0", "no", "off"):
            return False
        raise UsageError(f"{section}.{key} must be a boolean")

    def choice(self, section: str, key: str, options) -> str:
        raw = self.str_(section, key)
        if raw not in options:
            raise UsageError(f"{section}.{key} must be one of {', '.join(options)}")
        return raw

    def list_int(self, section: str, key: str) -> list[int]:
        try:
            return [int(tok) for tok in self.str_(section, key).split(",") if tok.strip()]
        except ValueError as exc:
            raise UsageError(f"{section}.{key} must be a comma list of integers") from exc

    def list_float(self, section: str, key: str) -> list[float]:
        try:
            return [float(tok) for tok in self.str_(section, key).split(",") if tok.strip()]
        except ValueError as exc:
            raise UsageError(f"{section}.{key} must be a comma list of numbers") from exc

    # serialization -------------------------------------------------------------

    def resolved_text(self) -> str:
        parser = configparser.ConfigParser()
        for section, keys in self.values.items():
            parser[section] = dict(keys)
        buf = io.StringIO()
        parser.write(buf)
        return buf.getvalue()

    def digest(self) -> str:
        return hashlib.sha256(self.resolved_text().encode()).hexdigest()[:12]


def _parse_potential(token: str, dimension: int) -> PotentialSpec:
    if ":" not in token:
        raise UsageError(f"potential {token!r} needs a kind prefix")
    kind, payload = token.split(":", 1)
    try:
        if kind == "constant":
            return PotentialSpec.constant(float(payload), dimension)
        rows = [
            [float(v) for v in row.split(",") if v.strip()]
            for row in payload.split(";")
            if row.strip()
        ]
    except ValueError as exc:
        raise UsageError(f"potential {token!r} has non-numeric data") from exc
    if kind == "poly":
        data = rows[0] if dimension == 1 else rows
        return PotentialSpec.polynomial(np.array(data), dimension)
    if kind == "grid":
        data = rows[0] if dimension == 1 else rows
        return PotentialSpec.grid(np.array(data), dimension)
    raise UsageError(f"unknown potential kind {kind!r}")


def _build_problem(cfg: RunConfig):
    dom = DomainSpec(cfg.choice("problem", "domain", ("interval", "square")))
    dim = int(cfg.choice("problem", "dimension", ("1", "2")))
    if dim != dom.dimension:
        raise UsageError(
            f"problem.domain={dom.shape} needs problem.dimension={dom.dimension}, not {dim}"
        )
    op = OperatorSpec.preset_by_name(cfg.choice("problem", "operator", PRESET_ORDERS), dim)
    pot = _parse_potential(cfg.str_("problem", "potential"), dim)
    return validate_problem(op, dom, pot)


def _build_pipeline(cfg: RunConfig, size: int | None = None):
    problem = _build_problem(cfg)
    family = cfg.choice("basis", "family", (POLYNOMIAL, TRIG))
    basis = build_basis(problem, size or cfg.int_("basis", "n"), family)
    system = assemble_system(problem, basis)
    wh = whiten(system)
    return problem, basis, system, wh


class OutputWriter:
    """Writes artifacts under the output directory with version headers."""

    def __init__(self, cfg: RunConfig, out_dir: str | None):
        self.cfg = cfg
        self.dir = Path(out_dir or cfg.str_("output", "dir"))
        self.digest = cfg.digest()

    def header(self) -> str:
        return f"# te-spect {__version__} config={self.digest}"

    def prepare(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        text = self.header() + "\n" + self.cfg.resolved_text()
        (self.dir / "config.resolved").write_text(text)

    def csv(self, name: str, columns: list[str], rows) -> Path:
        path = self.dir / name
        lines = [self.header(), ",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
        path.write_text("\n".join(lines) + "\n")
        return path

    def json(self, name: str, payload: dict) -> Path:
        path = self.dir / name
        record = {"tool_version": __version__, "config_hash": self.digest}
        record.update(payload)
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        return path


# -- subcommand implementations ----------------------------------------------


def _cmd_assemble(cfg: RunConfig, out: OutputWriter) -> int:
    problem, basis, system, _ = _build_pipeline(cfg)
    for name, mat in (("G", system.gram), ("A", system.a), ("B", system.b), ("C", system.c)):
        rows = ([float(v) for v in row] for row in mat)
        out.csv(f"{name}.csv", [f"c{j}" for j in range(mat.shape[1])], rows)
    out.json(
        "system.json",
        {
            "operator": problem.operator.preset,
            "order": problem.order,
            "dimension": problem.dimension,
            "basis_family": basis.family,
            "basis_size_per_dim": basis.size,
            "matrix_size": system.size,
            "block_sizes": [int(idx.size) for idx in system.blocks],
            "trace_class": problem.trace_class,
            "hilbert_schmidt": problem.hilbert_schmidt,
            "p_min": problem.p_min,
        },
    )
    return 0


def _solve_spectrum(cfg: RunConfig, wh: WhitenedSystem):
    comp = companion.build_companion(wh)
    spec = companion.extract_spectrum(
        comp,
        cluster_tol=cfg.float_("solve", "cluster_tol"),
        mu_floor=cfg.float_("solve", "mu_floor"),
    )
    return comp, spec


def _cmd_solve(cfg: RunConfig, out: OutputWriter) -> int:
    _, _, _, wh = _build_pipeline(cfg)
    comp, spec = _solve_spectrum(cfg, wh)
    rows = [
        (
            i,
            float(t.lam.real),
            float(t.lam.imag),
            float(t.mu.real),
            float(t.mu.imag),
            float(t.qep_residual),
            t.cluster_id,
            t.multiplicity,
        )
        for i, t in enumerate(spec)
    ]
    out.csv(
        "eigenvalues.csv",
        ["index", "re_lambda", "im_lambda", "re_mu", "im_mu", "qep_residual", "cluster_id", "multiplicity"],
        rows,
    )
    if cfg.bool_("solve", "want_states"):
        data = comp.eigen_data()
        srows = []
        for i, t in enumerate(spec):
            state = companion.recover_state(comp, t.mu, data.eigenvectors[:, t.eigenvector_index])
            for j in range(state.u.size):
                srows.append(
                    (
                        i,
                        j,
                        float(state.u[j].real),
                        float(state.u[j].imag),
                        float(state.v[j].real),
                        float(state.v[j].imag),
                        float(state.w[j].real),
                        float(state.w[j].imag),
                    )
                )
        out.csv(
            "states.csv",
            ["index", "coef", "re_u", "im_u", "re_v", "im_v", "re_w", "im_w"],
            srows,
        )
    return 0


def _cmd_trace(cfg: RunConfig, out: OutputWriter) -> int:
    _, _, _, wh = _build_pipeline(cfg)
    comp = companion.build_companion(wh)
    p_list = cfg.list_int("trace", "p")
    report = diagnostics.trace_report(comp, p_list)
    out.json(
        "trace.json",
        {
            "p": report.p,
            "trace_re": report.trace.real,
            "trace_im": report.trace.imag,
            "powers": [
                {"p": p, "trace_re": t.real, "trace_im": t.imag} for p, t in report.powers
            ],
            "schatten_1": report.schatten_1,
            "schatten_2": report.schatten_2,
            "spectral_radius": report.spectral_radius,
            "decay_exponent": report.profile.decay_exponent,
            "decay_theory": report.profile.decay_theory,
            "identity_residuals": list(report.identity_residuals),
        },
    )
    return 0


def _cmd_range(cfg: RunConfig, out: OutputWriter) -> int:
    _, _, _, wh = _build_pipeline(cfg)
    comp = companion.build_companion(wh)
    problem = wh.system.problem
    report = diagnostics.numerical_range(
        comp,
        cfg.int_("trace", "samples"),
        seed=cfg.int_("trace", "seed"),
        p=problem.p_min,
    )
    samples_path = out.csv(
        "samples.csv",
        ["re_z", "im_z"],
        ((float(z.real), float(z.imag)) for z in report.samples),
    )
    out.json(
        "range.json",
        {
            "samples_csv_path": samples_path.name,
            "max_abs_arg": report.max_abs_arg,
            "sector_opening": report.sector_opening,
            "pi_over_p": report.pi_over_p,
            "within_angle": report.within_angle,
            "sample_count": report.sample_count,
            "seed": report.seed,
            "note": report.note,
        },
    )
    return 0


def _cmd_count(cfg: RunConfig, out: OutputWriter) -> int:
    _, _, _, wh = _build_pipeline(cfg)
    comp, spec = _solve_spectrum(cfg, wh)
    lams = np.array([t.lam for t in spec])
    if cfg.str_("count", "radii") == "auto":
        radii = counting.auto_radii(lams)
    else:
        radii = sorted(cfg.list_float("count", "radii"))
    report = counting.growth_profile(wh, radii, spectrum=lams)
    out.csv(
        "count.csv",
        ["radius", "winding", "jensen_bound", "max_log_f"],
        (
            (float(r), int(w), float(j), float(m))
            for r, w, j, m in zip(
                report.radii, report.windings, report.jensen_bounds, report.max_log_det
            )
        ),
    )
    out.json(
        "count.json",
        {
            "radii": [float(r) for r in report.radii],
            "grid_sizes": [int(g) for g in report.grid_sizes],
            "windings": [int(w) for w in report.windings],
            "cross_counts": [int(c) for c in report.cross_counts],
            "jensen_bounds": [float(j) for j in report.jensen_bounds],
            "growth_exponent": report.growth_exponent,
            "growth_ceiling": report.growth_ceiling,
            "resolved": [bool(b) for b in report.resolved],
        },
    )
    return 0


def _cmd_scan(cfg: RunConfig, out: OutputWriter) -> int:
    problem = _build_problem(cfg)
    direction = _parse_potential(cfg.str_("scan", "direction"), problem.dimension)
    s_grid = np.linspace(
        cfg.float_("scan", "s_min"),
        cfg.float_("scan", "s_max"),
        cfg.int_("scan", "s_count"),
    )
    report = diagnostics.potential_scan(
        problem,
        direction,
        s_grid,
        cfg.int_("basis", "n"),
        family=cfg.choice("basis", "family", (POLYNOMIAL, TRIG)),
        zero_tol=cfg.float_("scan", "zero_tol"),
        refine_check=cfg.bool_("scan", "refine_check"),
    )
    out.csv(
        "scan.csv",
        ["s", "t", "dt", "d2t"],
        (
            (float(s), float(t), float(d1), float(d2))
            for s, t, d1, d2 in zip(
                report.s_values,
                report.t_values,
                report.first_derivative,
                report.second_derivative,
            )
        ),
    )
    out.json(
        "scan.json",
        {
            "s_values": [float(s) for s in report.s_values],
            "t_values": [float(t) for t in report.t_values],
            "near_zeros": [float(s) for s in report.near_zeros],
            "sign_changes": [[float(a), float(b)] for a, b in report.sign_changes],
            "zero_tol": report.zero_tol,
            "max_increment": report.max_increment,
            "refined_max_increment": report.refined_max_increment,
        },
    )
    return 0


def _oracle_rows(roots):
    return (
        ((-1 if r.l is None else r.l), float(r.k), float(r.lam), float(r.residual))
        for r in roots
    )


def _cmd_oracle1d(cfg: RunConfig, out: OutputWriter) -> int:
    roots = oracles.oracle_1d(
        cfg.float_("oracle", "contrast"),
        cfg.float_("oracle", "k_min"),
        cfg.float_("oracle", "k_max"),
        cfg.int_("oracle", "points_per_unit"),
    )
    out.csv("roots.csv", ["l", "k", "lambda", "residual"], _oracle_rows(roots))
    return 0


def _cmd_oracle_disk(cfg: RunConfig, out: OutputWriter) -> int:
    roots = oracles.oracle_disk(
        cfg.float_("oracle", "contrast"),
        cfg.int_("oracle", "l_max"),
        cfg.float_("oracle", "k_min"),
        cfg.float_("oracle", "k_max"),
        cfg.int_("oracle", "points_per_unit"),
    )
    out.csv("roots.csv", ["l", "k", "lambda", "residual"], _oracle_rows(roots))
    return 0


def first_real_eigenvalue(spec, real_tol: float) -> complex:
    """Smallest positive real eigenvalue under the given imaginary tolerance."""
    real = [
        t.lam
        for t in spec
        if t.lam.real > 0 and abs(t.lam.imag) <= real_tol * max(1.0, abs(t.lam.real))
    ]
    if not real:
        raise ComputationError("no real eigenvalue found")
    return min(real, key=lambda z: z.real)


def convergence_table(cfg: RunConfig) -> list[dict]:
    """First real eigenvalue per basis size with successive relative changes."""
    n_list = cfg.list_int("convergence", "n_list")
    if any(b < a for a, b in zip(n_list, n_list[1:])):
        raise UsageError("convergence.n_list must be ascending")
    real_tol = cfg.float_("convergence", "real_tol")
    cauchy_tol = cfg.float_("convergence", "cauchy_tol")
    rows = []
    prev = None
    for n in n_list:
        _, _, _, wh = _build_pipeline(cfg, size=n)
        _, spec = _solve_spectrum(cfg, wh)
        lam = first_real_eigenvalue(spec, real_tol).real
        rel = abs(lam - prev) / abs(lam) if prev is not None else float("nan")
        rows.append({"n": n, "lambda": lam, "rel_diff": rel})
        prev = lam
    tail = [r["rel_diff"] for r in rows[1:]]
    cauchy = bool(tail) and tail[-1] < cauchy_tol
    for r in rows:
        r["cauchy"] = cauchy
    return rows


def _cmd_convergence(cfg: RunConfig, out: OutputWriter) -> int:
    rows = convergence_table(cfg)
    out.csv(
        "convergence.csv",
        ["n", "lambda", "rel_diff", "cauchy"],
        ((r["n"], float(r["lambda"]), float(r["rel_diff"]), r["cauchy"]) for r in rows),
    )
    for r in rows:
        print(f"N={r['n']:4d}  lambda={r['lambda']:.12g}  rel_diff={r['rel_diff']:.3e}")
    print(f"cauchy={rows[-1]['cauchy']}")
    return 0


def _cmd_selftest(cfg: RunConfig, out: OutputWriter) -> int:
    """Scalar golden case: two-point spectrum and all closed-form identities."""
    wh = WhitenedSystem.from_matrices([[4.0]], [[5.0]])
    comp = companion.build_companion(wh)
    spec = companion.extract_spectrum(comp)
    lams = sorted(t.lam.real for t in spec)
    mus = sorted(t.mu.real for t in spec)
    checks = [
        ("spectrum of D is {0.25, 1}", np.allclose(mus, [0.25, 1.0], atol=1e-12)),
        ("eigenvalues are {1, 4}", np.allclose(lams, [1.0, 4.0], atol=1e-12)),
        ("tr D = 1.25", abs(diagnostics.trace_power(comp, 1) - 1.25) < 1e-12),
        ("tr D^2 = 17/16", abs(diagnostics.trace_power(comp, 2) - 17.0 / 16.0) < 1e-12),
        (
            "trace identities hold",
            max(diagnostics.trace_identity_check(wh, comp)) < 1e-12,
        ),
        (
            "f(2) = (1-2)(1-1/2)",
            abs(counting.fredholm_det(wh, 2.0).value - (-0.5)) < 1e-12,
        ),
        ("winding at R=2 is 1", counting.winding_count(wh, 2.0) == 1),
        ("resolvent block formula at 2", companion.resolvent_block_check(wh, 2.0) < 1e-12),
    ]
    ok = True
    for label, passed in checks:
        print(f"[{'PASS' if passed else 'FAIL'}] {label}")
        ok = ok and passed
    return 0 if ok else 1


_COMMANDS = {
    "assemble": _cmd_assemble,
    "solve": _cmd_solve,
    "trace": _cmd_trace,
    "range": _cmd_range,
    "count": _cmd_count,
    "scan": _cmd_scan,
    "oracle1d": _cmd_oracle1d,
    "oracle-disk": _cmd_oracle_disk,
    "convergence": _cmd_convergence,
    "selftest": _cmd_selftest,
}


def run(argv) -> int:
    """Execute one subcommand; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="te-spect",
        description="transmission-eigenvalue computation and diagnostics",
    )
    parser.add_argument("command", choices=SUBCOMMANDS)
    parser.add_argument("-c", "--config", default=None, help="INI config file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a config key (repeatable)",
    )
    parser.add_argument("--out", default=None, help="output directory")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        cfg = RunConfig.load(args.config, args.overrides)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

    writer = OutputWriter(cfg, args.out)
    try:
        if args.command != "selftest":
            writer.prepare()
        return _COMMANDS[args.command](cfg, writer)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        record = {"error": {"code": exc.code, "message": str(exc)}}
        print(json.dumps(record), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
