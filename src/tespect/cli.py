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
import itertools
import json
import math
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

_CSV_CHUNK_ROWS = 1 << 14  # rows formatted per write: bounds the transient memory


class UsageError(Exception):
    pass


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

    def int_(self, section: str, key: str, low: int | None = None) -> int:
        try:
            value = int(self.str_(section, key))
        except ValueError as exc:
            raise UsageError(f"{section}.{key} must be an integer") from exc
        if low is not None and value < low:
            raise UsageError(f"{section}.{key} must be at least {low}")
        return value

    def float_(self, section: str, key: str, positive: bool = False) -> float:
        try:
            value = float(self.str_(section, key))
        except ValueError as exc:
            raise UsageError(f"{section}.{key} must be a number") from exc
        if not math.isfinite(value):
            raise UsageError(f"{section}.{key} must be a finite number")
        if positive and not value > 0:
            raise UsageError(f"{section}.{key} must be positive")
        return value

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
        """A nonempty comma list of positive integers."""
        try:
            values = [int(tok) for tok in self.str_(section, key).split(",") if tok.strip()]
        except ValueError as exc:
            raise UsageError(f"{section}.{key} must be a comma list of integers") from exc
        if not values or min(values) < 1:
            raise UsageError(f"{section}.{key} must list one or more positive integers")
        return values

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


def _parse_potential(cfg: RunConfig, section: str, key: str, dimension: int) -> PotentialSpec:
    name, token = f"{section}.{key}", cfg.str_(section, key)
    if ":" not in token:
        raise UsageError(f"{name}: potential {token!r} needs a kind prefix")
    kind, payload = token.split(":", 1)
    try:
        if kind == "constant":
            rows = [[float(payload)]]
        else:
            rows = [
                [float(v) for v in row.split(",") if v.strip()]
                for row in payload.split(";")
                if row.strip()
            ]
    except ValueError as exc:
        raise UsageError(f"{name}: potential {token!r} has non-numeric data") from exc
    if not all(math.isfinite(v) for row in rows for v in row):
        raise UsageError(f"{name}: potential {token!r} has non-finite data")
    if kind == "constant":
        return PotentialSpec.constant(rows[0][0], dimension)
    if kind not in ("poly", "grid"):
        raise UsageError(f"{name}: unknown potential kind {kind!r}")
    if not rows or not rows[0] or len({len(row) for row in rows}) > 1:
        raise UsageError(f"{name}: potential {token!r} needs non-empty rows of equal length")
    if dimension == 1 and len(rows) > 1:
        raise UsageError(f"{name}: a 1D potential {token!r} takes one row")
    arr = np.array(rows[0] if dimension == 1 else rows)
    if kind == "poly":
        return PotentialSpec.polynomial(arr, dimension)
    if min(arr.shape) < 2:
        raise UsageError(f"{name}: grid {token!r} needs two or more samples per axis")
    return PotentialSpec.grid(arr, dimension)


def _build_problem(cfg: RunConfig):
    dom = DomainSpec(cfg.choice("problem", "domain", ("interval", "square")))
    dim = int(cfg.choice("problem", "dimension", ("1", "2")))
    if dim != dom.dimension:
        raise UsageError(
            f"problem.domain={dom.shape} needs problem.dimension={dom.dimension}, not {dim}"
        )
    op = OperatorSpec.preset_by_name(cfg.choice("problem", "operator", PRESET_ORDERS), dim)
    pot = _parse_potential(cfg, "problem", "potential", dim)
    return validate_problem(op, dom, pot)


def _build_pipeline(cfg: RunConfig, size: int | None = None):
    problem = _build_problem(cfg)
    family = cfg.choice("basis", "family", (POLYNOMIAL, TRIG))
    basis = build_basis(problem, size or cfg.int_("basis", "n", low=1), family)
    system = assemble_system(problem, basis)
    wh = whiten(system)
    return problem, basis, system, wh


class OutputWriter:
    """Writes artifacts under the output directory with version headers.

    The directory and ``config.resolved`` are made with the first artifact
    (``prepare``), so a run refused before it writes anything leaves nothing.
    """

    def __init__(self, cfg: RunConfig, out_dir: str | None):
        self.cfg = cfg
        self.dir = Path(out_dir or cfg.str_("output", "dir"))
        self.digest = cfg.digest()
        self.prepared = False

    def header(self) -> str:
        return f"# te-spect {__version__} config={self.digest}"

    def prepare(self):
        if not self.prepared:
            self.dir.mkdir(parents=True, exist_ok=True)
            (self.dir / "config.resolved").write_text(self.header() + "\n" + self.cfg.resolved_text())
            self.prepared = True

    def csv(self, name: str, columns: list[str], rows) -> Path:
        """Write a table given as a 2D float array or as an iterable of rows.

        The first row's types fix each column's format: 17 significant
        digits for a float, ``str`` otherwise.  The body is written in chunks
        of ``_CSV_CHUNK_ROWS`` rows, each formatted by one ``%`` over the
        repeated row format.
        """
        if isinstance(rows, np.ndarray):
            chunks = (rows[i : i + _CSV_CHUNK_ROWS].tolist() for i in range(0, len(rows), _CSV_CHUNK_ROWS))
        else:
            it = iter(rows)
            chunks = iter(lambda: list(itertools.islice(it, _CSV_CHUNK_ROWS)), [])
        self.prepare()
        path = self.dir / name
        with path.open("w") as f:
            f.write(f"{self.header()}\n{','.join(columns)}\n")
            line = None
            for chunk in chunks:
                if line is None:
                    line = ",".join("%.17g" if isinstance(v, float) else "%s" for v in chunk[0]) + "\n"
                f.write(line * len(chunk) % tuple(itertools.chain.from_iterable(chunk)))
        return path

    def json(self, name: str, payload: dict) -> Path:
        self.prepare()
        path = self.dir / name
        record = {"tool_version": __version__, "config_hash": self.digest}
        record.update(payload)
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        return path


# -- subcommand implementations ----------------------------------------------


def _cmd_assemble(cfg: RunConfig, out: OutputWriter) -> int:
    problem, basis, system, wh = _build_pipeline(cfg)
    for name, mat in (("G", system.gram), ("A", system.a), ("B", system.b), ("C", system.c)):
        out.csv(f"{name}.csv", [f"c{j}" for j in range(mat.shape[1])], mat)
    out.json(
        "system.json",
        {
            "operator": problem.operator.preset,
            "order": problem.order,
            "dimension": problem.dimension,
            "basis_family": basis.family,
            "basis_size_per_dim": basis.size,
            "matrix_size": system.size,
            "block_sizes": [blk.stop - blk.start for blk in wh.blocks],
            "block_copies": list(wh.twin_of),
            "deflated": wh.deflated,
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
        cluster_tol=cfg.float_("solve", "cluster_tol", positive=True),
        mu_floor=cfg.float_("solve", "mu_floor"),
    )
    return comp, spec


def _solve_eigenvalues(cfg: RunConfig, wh: WhitenedSystem) -> np.ndarray:
    comp = companion.build_companion(wh)
    return companion.extract_eigenvalues(comp, mu_floor=cfg.float_("solve", "mu_floor"))


def _cmd_solve(cfg: RunConfig, out: OutputWriter) -> int:
    want_states = cfg.bool_("solve", "want_states")
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
    if want_states:
        states = [
            np.column_stack(
                (np.full(s.u.size, i), np.arange(s.u.size), s.u.real, s.u.imag, s.v.real, s.v.imag, s.w.real, s.w.imag)
            )
            for i, s in enumerate(companion.recover_states(comp, spec))
        ]
        out.csv(
            "states.csv",
            ["index", "coef", "re_u", "im_u", "re_v", "im_v", "re_w", "im_w"],
            np.vstack(states) if states else [],
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
        cfg.int_("trace", "samples", low=100),
        seed=cfg.int_("trace", "seed", low=0),
        p=problem.p_min,
    )
    samples_path = out.csv(
        "samples.csv", ["re_z", "im_z"], np.column_stack((report.samples.real, report.samples.imag))
    )
    out.json(
        "range.json",
        {
            "samples_csv_path": samples_path.name,
            "max_abs_arg": report.max_abs_arg,
            "sector_opening": report.sector_opening,
            "lambda_min_k": list(report.lambda_min_k),
            "exact_opening": report.exact_opening,
            "pi_over_p": report.pi_over_p,
            "within_angle": report.within_angle,
            "sample_count": report.sample_count,
            "seed": report.seed,
            "note": report.note,
        },
    )
    return 0


def _cmd_count(cfg: RunConfig, out: OutputWriter) -> int:
    auto = cfg.str_("count", "radii") == "auto"
    radii = [] if auto else sorted(cfg.list_float("count", "radii"))
    if not auto and not (
        radii and np.all(np.isfinite(radii)) and radii[0] > 0 and np.all(np.diff(radii) > 0)
    ):
        raise UsageError("count.radii must be auto or finite, positive and distinct numbers")
    _, _, _, wh = _build_pipeline(cfg)
    lams = _solve_eigenvalues(cfg, wh)
    if auto:
        radii = counting.auto_radii(lams)
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
    direction = _parse_potential(cfg, "scan", "direction", problem.dimension)
    s_grid = np.linspace(
        cfg.float_("scan", "s_min"),
        cfg.float_("scan", "s_max"),
        cfg.int_("scan", "s_count", low=2),
    )
    report = diagnostics.potential_scan(
        problem,
        direction,
        s_grid,
        cfg.int_("basis", "n", low=1),
        family=cfg.choice("basis", "family", (POLYNOMIAL, TRIG)),
        zero_tol=cfg.float_("scan", "zero_tol"),
        refine_check=cfg.bool_("scan", "refine_check"),
    )
    out.csv(
        "scan.csv",
        ["s", "t", "dt", "d2t"],
        np.column_stack(
            (report.s_values, report.t_values, report.first_derivative, report.second_derivative)
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


def _oracle_band(cfg: RunConfig) -> tuple[float, float]:
    """oracle.k_min and oracle.k_max, checked to satisfy 0 < k_min < k_max."""
    k_min, k_max = cfg.float_("oracle", "k_min", positive=True), cfg.float_("oracle", "k_max")
    if not k_max > k_min:
        raise UsageError("oracle.k_max must exceed oracle.k_min")
    return k_min, k_max


def _cmd_oracle1d(cfg: RunConfig, out: OutputWriter) -> int:
    roots = oracles.oracle_1d(
        cfg.float_("oracle", "contrast"),
        *_oracle_band(cfg),
        cfg.int_("oracle", "points_per_unit", low=1),
    )
    out.csv("roots.csv", ["l", "k", "lambda", "residual"], _oracle_rows(roots))
    return 0


def _cmd_oracle_disk(cfg: RunConfig, out: OutputWriter) -> int:
    roots = oracles.oracle_disk(
        cfg.float_("oracle", "contrast"),
        cfg.int_("oracle", "l_max", low=0),
        *_oracle_band(cfg),
        cfg.int_("oracle", "points_per_unit", low=1),
    )
    out.csv("roots.csv", ["l", "k", "lambda", "residual"], _oracle_rows(roots))
    return 0


def first_real_eigenvalue(lams: np.ndarray, real_tol: float) -> complex:
    """Smallest positive real eigenvalue under the given imaginary tolerance."""
    real = lams[(lams.real > 0) & (np.abs(lams.imag) <= real_tol * np.maximum(1.0, np.abs(lams.real)))]
    if not real.size:
        raise ComputationError("no real eigenvalue found")
    return complex(real[np.argmin(real.real)])


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
        lam = first_real_eigenvalue(_solve_eigenvalues(cfg, wh), real_tol).real
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
    parser.add_argument("command", choices=_COMMANDS)
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
        return _COMMANDS[args.command](cfg, writer)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        writer.prepare()
        record = {"error": {"code": exc.code, "message": str(exc)}}
        print(json.dumps(record), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
