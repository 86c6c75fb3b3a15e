"""Benchmark workloads: fixed lists of ``te-spect`` subcommands.

A workload is generated from its seed alone.  The seed draws the grid and
polynomial potentials and the ``trace.seed`` of every ``range`` task;
tespect only ever sees the resulting ``--set`` values.  Each task carries
the facts its output checks need (operator, size, potential, reference).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NAMES = ("ladder-1d", "square-2d", "scan-oracle")


@dataclass(frozen=True)
class Task:
    """One ``te-spect`` call."""

    label: str
    command: str
    # "interval" (closed-form roots), "pencil" (independent linearization),
    # "scan-t0", "interval-oracle", "disk-oracle" or "" (no reference)
    reference: str = ""
    settings: tuple = ()  # the --set values, as (key, value) pairs

    @property
    def argv(self) -> list[str]:
        """Command-line arguments, all but ``--out``."""
        argv = [self.command]
        for key, value in self.settings:
            argv += ["--set", f"{key}={value}"]
        return argv


def _task(label: str, command: str, reference: str = "", **settings: str) -> Task:
    """A task whose keyword names spell config keys, "__" standing for "."."""
    pairs = tuple((key.replace("__", "."), value) for key, value in settings.items())
    return Task(label, command, reference, pairs)


def _fmt(values) -> str:
    return ",".join(f"{v:.6f}" for v in values)


def _grid_potential(rng: np.random.Generator) -> str:
    """Nine samples in [1, 4]: piecewise linear, kinks at the knots."""
    return "grid:" + _fmt(rng.uniform(1.0, 4.0, 9))


def _poly_potential(rng: np.random.Generator) -> str:
    """V(x, y) = sum c_ij x^i y^j, with V >= 1 on the square.

    c10 and c20 are both positive, so V(x, y) - V(1 - x, y) =
    (2x - 1)(c10 + c20 + c11 y) never vanishes identically: the potential
    has no x-reflection symmetry.
    """
    c = np.zeros((3, 2))
    c[0, 0] = rng.uniform(2.0, 3.0)
    c[1, 0] = rng.uniform(0.5, 1.5)
    c[2, 0] = rng.uniform(0.1, 0.5)
    c[0, 1] = rng.uniform(-0.4, 0.4)
    c[1, 1] = rng.uniform(-0.3, 0.3)
    return "poly:" + ";".join(_fmt(row) for row in c)


def _range_seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(1, 2**31 - 1)))


def ladder_1d(rng: np.random.Generator) -> list[Task]:
    tasks = []

    def case(tag, commands, reference, **settings):
        for command in commands:
            extra = {"trace__seed": _range_seed(rng)} if command == "range" else {}
            ref = reference if command == "solve" else ""
            tasks.append(_task(f"{command} {tag}", command, ref, **settings, **extra))

    full = ("solve", "trace", "range", "count")
    for n in (32, 64, 128):
        case(f"lap n={n}", full, "interval", problem__potential="constant:2.0", basis__n=str(n))
    for n in (24, 40):
        case(
            f"bilap n={n}",
            full,
            "pencil",
            problem__operator="bilaplacian",
            problem__potential="constant:3.0",
            basis__n=str(n),
        )
    case("lap grid n=64", ("solve", "count"), "pencil",
         problem__potential=_grid_potential(rng), basis__n="64")
    return tasks


def square_2d(rng: np.random.Generator) -> list[Task]:
    tasks = []

    def case(tag, **settings):
        for command in ("solve", "trace", "range"):
            extra = {"trace__seed": _range_seed(rng)} if command == "range" else {}
            ref = "pencil" if command == "solve" else ""
            tasks.append(
                _task(
                    f"{command} {tag}",
                    command,
                    ref,
                    problem__dimension="2",
                    problem__domain="square",
                    **settings,
                    **extra,
                )
            )

    for n in (16, 20, 24):
        case(f"lap n={n}", problem__potential="constant:3.0", basis__n=str(n))
    for n in (10, 12):
        case(f"bilap n={n}", problem__operator="bilaplacian",
             problem__potential="constant:3.0", basis__n=str(n))
    case("lap poly n=20", problem__potential=_poly_potential(rng), basis__n="20")
    return tasks


def scan_oracle(rng: np.random.Generator) -> list[Task]:
    return [
        _task(
            "scan V=1",
            "scan",
            "scan-t0",
            problem__potential="constant:1.0",
            basis__n="32",
            scan__s_min="0.0",
            scan__s_max="2.0",
            scan__s_count="21",
        ),
        *(
            _task(
                f"oracle1d contrast={contrast}",
                "oracle1d",
                "interval-oracle",
                oracle__contrast=f"{contrast}.0",
                oracle__k_min="0.5",
                oracle__k_max="20.0",
                oracle__points_per_unit="2000",
            )
            for contrast in (2, 3)
        ),
        _task(
            "oracle-disk contrast=3",
            "oracle-disk",
            "disk-oracle",
            oracle__contrast="3.0",
            oracle__l_max="8",
            oracle__k_min="0.5",
            oracle__k_max="20.0",
            oracle__points_per_unit="200",
        ),
    ]


_GENERATORS = {"ladder-1d": ladder_1d, "square-2d": square_2d, "scan-oracle": scan_oracle}


def generate(name: str, seed: int) -> list[Task]:
    """The task list of a workload; the same seed gives the same tasks."""
    return _GENERATORS[name](np.random.default_rng(seed))


def probes() -> list[Task]:
    """Configurations that fail today; run once, outside the timed passes."""
    return [
        _task("solve square lap n=32", "solve", problem__dimension="2",
              problem__domain="square", basis__n="32"),
        _task("count square lap n=12", "count", problem__dimension="2",
              problem__domain="square", basis__n="12"),
    ]
