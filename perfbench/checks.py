"""Output checks and reference scores for one task's output directory.

``problems`` lists what is wrong with a task's files; any entry fails the
task.  ``reference_error`` scores a task against an independent reference
(see ``refs``); the references are computed once per run and cached.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import refs

IDENTITY_RESIDUAL_MAX = 1e-10
# A reference gap above this fails the task: the results are wrong, not
# merely less accurate (today's worst gap is 2e-4, Bilaplacian n=40).
REFERENCE_GAP_MAX = 1e-2
_REAL_TOL = 1e-6  # |Im lambda| <= tol * |Re lambda| counts as real
_PENCIL_COMPARED = 16
_INTERVAL_COMPARED = 4


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Columns and numeric rows of a te-spect CSV (version header skipped)."""
    lines = path.read_text().splitlines()
    columns = lines[1].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[2:] if line]
    return columns, np.array(rows, dtype=float).reshape(len(rows), len(columns))


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _eigenvalues(out: Path) -> np.ndarray:
    columns, rows = read_csv(out / "eigenvalues.csv")
    return rows[:, columns.index("re_lambda")] + 1j * rows[:, columns.index("im_lambda")]


def _finite_rows(name: str, rows: np.ndarray) -> list[str]:
    if rows.size == 0:
        return [f"{name} is empty"]
    if not np.all(np.isfinite(rows)):
        return [f"{name} has non-finite entries"]
    return []


class Checker:
    """Checks task outputs; holds the references of one workload run."""

    def __init__(self):
        self._cache: dict = {}

    def _cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    # -- references -------------------------------------------------------------

    def _oracle_reference(self, task) -> np.ndarray:
        """Reference (l, k) rows for an oracle task, l = -1 on the interval."""
        s = dict(task.settings)
        contrast = float(s["oracle.contrast"])
        k_lo, k_hi = float(s["oracle.k_min"]), float(s["oracle.k_max"])
        if task.command == "oracle1d":
            ks = refs.interval_roots(contrast, k_lo, k_hi)
            return np.column_stack([-np.ones_like(ks), ks])
        pairs = refs.disk_roots(contrast, int(s["oracle.l_max"]), k_lo, k_hi)
        return np.array(pairs, dtype=float).reshape(len(pairs), 2)

    def oracle_reference(self, task) -> np.ndarray:
        return self._cached(("oracle", task.settings), lambda: self._oracle_reference(task))

    def interval_reference(self, potential: str) -> np.ndarray:
        """The smallest real eigenvalues k^2 of -Laplacian on the interval, constant V."""
        contrast = float(potential.split(":", 1)[1])
        roots = self._cached(("interval", contrast), lambda: refs.interval_roots(contrast, 0.1, 30.0))
        return roots[:_INTERVAL_COMPARED] ** 2

    def pencil_reference(self, task) -> np.ndarray:
        """Pencil roots of the task's problem through the first-order linearization."""
        return self._cached(("pencil", task.settings), lambda: _pencil_roots(dict(task.settings)))

    def reference_error(self, task, out: Path) -> float | None:
        """Relative gap to the task's independent reference, or None without one."""
        s = dict(task.settings)
        if task.reference == "interval":
            lams = _eigenvalues(out)
            real = lams[(lams.real > 0) & (np.abs(lams.imag) <= _REAL_TOL * np.abs(lams.real))]
            real = np.sort(real.real)[:_INTERVAL_COMPARED]
            if real.size < _INTERVAL_COMPARED:
                return math.inf
            return refs.worst_relative_error(real, self.interval_reference(s["problem.potential"]))
        if task.reference == "pencil":
            lams = _eigenvalues(out)
            smallest = lams[np.argsort(np.abs(lams), kind="stable")[:_PENCIL_COMPARED]]
            ref = self.pencil_reference(task)
            ref = ref[np.argsort(np.abs(ref), kind="stable")[: _PENCIL_COMPARED + 8]]
            return refs.worst_relative_error(smallest, ref)
        if task.reference == "scan-t0":
            t0 = _read_json(out / "scan.json")["t_values"][0]
            return abs(t0 - refs.TRACE_T0_VPOT1_N32) / refs.TRACE_T0_VPOT1_N32
        if task.reference in ("interval-oracle", "disk-oracle"):
            columns, rows = read_csv(out / "roots.csv")
            ref = self.oracle_reference(task)
            if rows.shape[0] != ref.shape[0]:
                return math.inf
            lam = rows[:, columns.index("lambda")]
            ref_lam = ref[:, 1] ** 2
            return float(np.max(np.abs(lam - ref_lam) / ref_lam))
        return None

    # -- checks -------------------------------------------------------------------

    def problems(self, task, out: Path) -> list[str]:
        """Everything wrong with a task's outputs; empty when they pass."""
        try:
            found = self._problems(task, out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]
        return found

    def _problems(self, task, out: Path) -> list[str]:
        cmd = task.command
        if cmd == "solve":
            columns, rows = read_csv(out / "eigenvalues.csv")
            keep = [columns.index(c) for c in ("re_lambda", "im_lambda", "qep_residual")]
            return _finite_rows("eigenvalues.csv", rows[:, keep])
        if cmd == "trace":
            record = _read_json(out / "trace.json")
            res = np.array(record["identity_residuals"], dtype=float)
            if res.size == 0 or not np.all(np.isfinite(res)) or np.max(res) > IDENTITY_RESIDUAL_MAX:
                return [f"trace identity residuals {res.tolist()} above {IDENTITY_RESIDUAL_MAX:g}"]
            return _finite_rows("trace value", np.array([record["trace_re"], record["trace_im"]]))
        if cmd == "range":
            record = _read_json(out / "range.json")
            _, rows = read_csv(out / "samples.csv")
            found = _finite_rows("samples.csv", rows)
            if rows.shape[0] != record["sample_count"]:
                found.append(f"samples.csv has {rows.shape[0]} rows, range.json says {record['sample_count']}")
            return found
        if cmd == "count":
            record = _read_json(out / "count.json")
            if not record["windings"]:
                return ["count.json has no radii"]
            if record["windings"] != record["cross_counts"]:
                return [f"windings {record['windings']} != cross counts {record['cross_counts']}"]
            return []
        if cmd == "scan":
            record = _read_json(out / "scan.json")
            t = np.array(record["t_values"], dtype=float)
            found = _finite_rows("scan t values", t)
            if t.size != int(dict(task.settings)["scan.s_count"]):
                found.append(f"scan has {t.size} points")
            return found
        if cmd in ("oracle1d", "oracle-disk"):
            columns, rows = read_csv(out / "roots.csv")
            found = _finite_rows("roots.csv", rows)
            ref = self.oracle_reference(task)
            if rows.shape[0] != ref.shape[0]:
                found.append(f"{rows.shape[0]} roots, the reference has {ref.shape[0]}")
            elif not np.array_equal(rows[:, columns.index("l")], ref[:, 0]):
                found.append("root mode indices differ from the reference")
            return found
        return [f"no check for command {cmd!r}"]


def _potential(token: str, dimension: int):
    from tespect.model import PotentialSpec

    kind, payload = token.split(":", 1)
    if kind == "constant":
        return PotentialSpec.constant(float(payload), dimension)
    rows = [[float(v) for v in row.split(",")] for row in payload.split(";")]
    data = np.array(rows[0] if dimension == 1 else rows)
    if kind == "grid":
        return PotentialSpec.grid(data, dimension)
    return PotentialSpec.polynomial(data, dimension)


def _pencil_roots(settings: dict) -> np.ndarray:
    """Roots of the task's whitened pencil via ``companion.pencil_eigenvalues``.

    That linearization, [[0, I], [-A, B]], shares no step with the companion
    matrix D the CLI diagonalizes, beyond the assembled pencil itself.
    """
    import warnings

    from tespect import assembly, companion, model

    dim = int(settings.get("problem.dimension", "1"))
    op = model.OperatorSpec.preset_by_name(settings.get("problem.operator", "laplacian"), dim)
    dom = model.DomainSpec(settings.get("problem.domain", "interval"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # grid potentials warn; the CLI run reports it
        pot = _potential(settings["problem.potential"], dim)
        problem = model.validate_problem(op, dom, pot)
        basis = assembly.build_basis(problem, int(settings["basis.n"]))
        system = assembly.assemble_system(problem, basis)
    return companion.pencil_eigenvalues(assembly.whiten(system))
