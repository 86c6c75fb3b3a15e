"""Command-line front end and run configuration.

One INI-style config file with flat sections drives every subcommand; every
key has a default, unknown keys are rejected, and the fully resolved
configuration is echoed next to the outputs as ``config.resolved`` so a run
can be reproduced from its artifacts alone.  ``--set section.key=value``
overrides config keys one-to-one.  Every key is typed and bounded by its
``_SCHEMA`` entry when the config is loaded, whatever the command.  Numeric
CSV output uses 17 significant digits so doubles round-trip exactly; every
output file carries a header with the tool version and the resolved-config
hash.

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
from .oracles import L_MAX_DISK, MIN_CONTRAST

_CSV_CHUNK_ROWS = 1 << 14  # rows formatted per write: bounds the transient memory


class UsageError(Exception):
    pass


def _value(cast, what: str, test=lambda v: True):
    """Parser of one key: ``cast`` the stripped text, then require ``test``."""

    def parse(raw: str):
        try:
            value = cast(raw)
            valid = test(value)
        except (ValueError, KeyError):
            valid = False
        if not valid:
            raise ValueError(f"must be {what}")
        return value

    return parse


def _one_of(*options: str):
    return _value(str, f"one of {', '.join(options)}", lambda v: v in options)


def _int_at_least(least: int):
    return _value(int, f"an integer >= {least}", lambda v: v >= least)


def _sizes(ascending: bool):
    """A nonempty comma list of positive integers, ascending if asked."""
    return _value(
        lambda raw: [int(tok) for tok in raw.split(",") if tok.strip()],
        f"{'an ascending' if ascending else 'a'} comma list of positive integers",
        lambda v: v and min(v) >= 1 and (not ascending or v == sorted(v)),
    )


def _radii(raw: str) -> list[float] | None:
    """``auto`` (None), or finite, positive and distinct radii, sorted."""
    if raw == "auto":
        return None
    radii = sorted(float(tok) for tok in raw.split(",") if tok.strip())
    if not (radii and np.all(np.isfinite(radii)) and radii[0] > 0 and np.all(np.diff(radii) > 0)):
        raise ValueError(raw)
    return radii


_FINITE = _value(float, "a finite number", math.isfinite)
_POSITIVE = _value(float, "a finite positive number", lambda v: 0 < v < math.inf)
_NON_NEGATIVE = _value(float, "a finite non-negative number", lambda v: 0 <= v < math.inf)
_TRUTH = dict.fromkeys(("true", "1", "yes", "on"), True) | dict.fromkeys(("false", "0", "no", "off"), False)
_BOOLEAN = _value(lambda raw: _TRUTH[raw.lower()], "a boolean")


def _potential(raw: str) -> tuple[str, list[list[float]]]:
    """A potential token as (name of a ``PotentialSpec`` constructor, rows of data).

    ``constant:v`` is the polynomial of degree 0, rows [[v]].  The rows are
    shaped against ``problem.dimension`` by ``_check_rules``.
    """
    if ":" not in raw:
        raise ValueError("needs a kind prefix: constant, poly or grid")
    kind, payload = raw.split(":", 1)
    if kind not in ("constant", "poly", "grid"):
        raise ValueError(f"has unknown kind {kind!r}")
    try:
        if kind == "constant":
            rows = [[float(payload)]]
        else:
            rows = [[float(v) for v in row.split(",") if v.strip()] for row in payload.split(";") if row.strip()]
    except ValueError:
        raise ValueError("has non-numeric data") from None
    if not all(math.isfinite(v) for row in rows for v in row):
        raise ValueError("has non-finite data")
    if not rows or not rows[0] or len({len(row) for row in rows}) > 1:
        raise ValueError("needs non-empty rows of equal length")
    return ("grid" if kind == "grid" else "polynomial"), rows


# every key: (default text, parser); a parser raises ValueError saying what is wrong

_SCHEMA = {
    "problem": {
        "operator": ("laplacian", _one_of(*PRESET_ORDERS)),
        "dimension": ("1", _value(int, "1 or 2", lambda v: v in (1, 2))),
        "domain": ("interval", _one_of("interval", "square")),
        "potential": ("constant:3.0", _potential),
    },
    "basis": {
        "family": (POLYNOMIAL, _one_of(POLYNOMIAL, TRIG)),
        "n": ("32", _int_at_least(1)),
    },
    "solve": {
        "cluster_tol": ("1e-6", _POSITIVE),
        "mu_floor": ("1e-12", _NON_NEGATIVE),
        "want_states": ("false", _BOOLEAN),
    },
    "trace": {
        "p": ("1,2", _sizes(ascending=False)),
        "samples": ("10000", _int_at_least(100)),
        "seed": ("2025", _int_at_least(0)),
    },
    "count": {
        "radii": ("auto", _value(_radii, "auto or finite, positive and distinct numbers")),
    },
    "scan": {
        "direction": ("constant:1.0", _potential),
        "s_min": ("0.0", _FINITE),
        "s_max": ("2.0", _FINITE),
        "s_count": ("21", _int_at_least(2)),
        "zero_tol": ("1e-6", _NON_NEGATIVE),
        "refine_check": ("true", _BOOLEAN),
    },
    "oracle": {
        "contrast": (
            "3.0",
            _value(float, f"a finite number >= {MIN_CONTRAST:g}", lambda v: MIN_CONTRAST <= v < math.inf),
        ),
        "k_min": ("0.5", _POSITIVE),
        "k_max": ("20.0", _FINITE),
        "points_per_unit": ("2000", _int_at_least(1)),
        "l_max": ("8", _value(int, f"an integer from 0 to {L_MAX_DISK}", lambda v: 0 <= v <= L_MAX_DISK)),
    },
    "convergence": {
        "n_list": ("16,24,32,48", _sizes(ascending=True)),
        "real_tol": ("1e-6", _NON_NEGATIVE),
        "cauchy_tol": ("1e-3", _NON_NEGATIVE),
    },
    "output": {
        "dir": ("out", str),
    },
}


def _check_rules(typed: dict) -> None:
    """The rules that span two keys, on the parsed values; shapes the potentials."""
    dim, dom = typed["problem.dimension"], DomainSpec(typed["problem.domain"])
    if dim != dom.dimension:
        raise UsageError(f"problem.domain={dom.shape} needs problem.dimension={dom.dimension}, not {dim}")
    for name in ("problem.potential", "scan.direction"):
        kind, rows = typed[name]
        if dim == 1 and len(rows) > 1:
            raise UsageError(f"{name}: a 1D potential takes one row")
        data = np.array(rows[0] if dim == 1 else rows)
        if kind == "grid" and min(data.shape) < 2:
            raise UsageError(f"{name}: a grid needs two or more samples per axis")
        typed[name] = kind, data
    if not typed["oracle.k_max"] > typed["oracle.k_min"]:
        raise UsageError("oracle.k_max must exceed oracle.k_min")
    if not 0 < abs(typed["scan.s_max"] - typed["scan.s_min"]) < math.inf:
        raise UsageError("scan.s_min and scan.s_max must differ by a finite amount")


class RunConfig:
    """Resolved configuration: the raw text of every key and its typed value.

    ``cfg["section.key"]`` reads a typed value; ``values`` keeps the text,
    which ``config.resolved`` echoes.
    """

    def __init__(self, values: dict[str, dict[str, str]]):
        self.values = values
        self.typed = {}
        for section, keys in _SCHEMA.items():
            for key, (_, parse) in keys.items():
                raw = values[section][key].strip()
                try:
                    self.typed[f"{section}.{key}"] = parse(raw)
                except ValueError as exc:
                    raise UsageError(f"{section}.{key} {exc} (given {raw!r})") from None
        _check_rules(self.typed)

    def __getitem__(self, name: str):
        return self.typed[name]

    @classmethod
    def load(cls, path: str | None, overrides: list[str]) -> "RunConfig":
        values = {s: {k: default for k, (default, _) in keys.items()} for s, keys in _SCHEMA.items()}
        if path is not None:
            parser = configparser.ConfigParser(interpolation=None)
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

    def resolved_text(self) -> str:
        parser = configparser.ConfigParser(interpolation=None)
        for section, keys in self.values.items():
            parser[section] = dict(keys)
        buf = io.StringIO()
        parser.write(buf)
        return buf.getvalue()

    def digest(self) -> str:
        return hashlib.sha256(self.resolved_text().encode()).hexdigest()[:12]


def _potential_spec(cfg: RunConfig, name: str) -> PotentialSpec:
    kind, data = cfg[name]
    return getattr(PotentialSpec, kind)(data, cfg["problem.dimension"])


def _build_problem(cfg: RunConfig):
    dim = cfg["problem.dimension"]
    op = OperatorSpec.preset_by_name(cfg["problem.operator"], dim)
    return validate_problem(op, DomainSpec(cfg["problem.domain"]), _potential_spec(cfg, "problem.potential"))


def _build_pipeline(cfg: RunConfig, size: int | None = None) -> WhitenedSystem:
    problem = _build_problem(cfg)
    basis = build_basis(problem, size or cfg["basis.n"], cfg["basis.family"])
    return whiten(assemble_system(problem, basis))


class OutputWriter:
    """Writes artifacts under the output directory with version headers.

    The directory and ``config.resolved`` are made with the first artifact
    (``prepare``), so a run refused before it writes anything leaves nothing.
    """

    def __init__(self, cfg: RunConfig, out_dir: str | None):
        self.cfg = cfg
        self.dir = Path(out_dir or cfg["output.dir"])
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
    wh = _build_pipeline(cfg)
    system = wh.system
    problem, basis = system.problem, system.basis
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


def _cmd_solve(cfg: RunConfig, out: OutputWriter) -> int:
    comp = companion.build_companion(_build_pipeline(cfg))
    spec = companion.extract_spectrum(comp, cluster_tol=cfg["solve.cluster_tol"], mu_floor=cfg["solve.mu_floor"])
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
    if cfg["solve.want_states"]:
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
    comp = companion.build_companion(_build_pipeline(cfg))
    report = diagnostics.trace_report(comp, cfg["trace.p"])
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
    wh = _build_pipeline(cfg)
    report = diagnostics.numerical_range(wh, cfg["trace.samples"], seed=cfg["trace.seed"], p=wh.system.problem.p_min)
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
    wh = _build_pipeline(cfg)
    lams = companion.extract_eigenvalues(companion.build_companion(wh), mu_floor=cfg["solve.mu_floor"])
    radii = cfg["count.radii"] or counting.auto_radii(lams)
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
            "resolved": [bool(b) for b in report.resolved],
        },
    )
    return 0


def _cmd_scan(cfg: RunConfig, out: OutputWriter) -> int:
    problem = _build_problem(cfg)
    report = diagnostics.potential_scan(
        problem,
        _potential_spec(cfg, "scan.direction"),
        np.linspace(cfg["scan.s_min"], cfg["scan.s_max"], cfg["scan.s_count"]),
        cfg["basis.n"],
        family=cfg["basis.family"],
        zero_tol=cfg["scan.zero_tol"],
        refine_check=cfg["scan.refine_check"],
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


def _cmd_oracle1d(cfg: RunConfig, out: OutputWriter) -> int:
    roots = oracles.oracle_1d(
        cfg["oracle.contrast"], cfg["oracle.k_min"], cfg["oracle.k_max"], cfg["oracle.points_per_unit"]
    )
    out.csv("roots.csv", ["l", "k", "lambda", "residual"], _oracle_rows(roots))
    return 0


def _cmd_oracle_disk(cfg: RunConfig, out: OutputWriter) -> int:
    roots = oracles.oracle_disk(
        cfg["oracle.contrast"],
        cfg["oracle.l_max"],
        cfg["oracle.k_min"],
        cfg["oracle.k_max"],
        cfg["oracle.points_per_unit"],
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
    rows = []
    prev = None
    for n in cfg["convergence.n_list"]:
        comp = companion.build_companion(_build_pipeline(cfg, size=n))
        lams = companion.extract_eigenvalues(comp, mu_floor=cfg["solve.mu_floor"])
        lam = first_real_eigenvalue(lams, cfg["convergence.real_tol"]).real
        rel = abs(lam - prev) / abs(lam) if prev is not None else float("nan")
        rows.append({"n": n, "lambda": lam, "rel_diff": rel})
        prev = lam
    tail = [r["rel_diff"] for r in rows[1:]]
    cauchy = bool(tail) and tail[-1] < cfg["convergence.cauchy_tol"]
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
            max(diagnostics.trace_identity_check(comp)) < 1e-12,
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
