import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import cached_system
from tespect import __version__, cli, companion, counting
from tespect.cli import OutputWriter, RunConfig, convergence_table, run
from tespect.errors import ComputationError


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith(f"# te-spect {__version__} config=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def test_selftest_passes(capsys):
    assert run(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "PASS" in out


def test_solve_writes_eigenvalues(tmp_path):
    out = tmp_path / "run"
    code = run(["solve", "--out", str(out), "--set", "basis.n=48"])
    assert code == 0
    header, rows = read_csv(out / "eigenvalues.csv")
    assert header == [
        "index",
        "re_lambda",
        "im_lambda",
        "re_mu",
        "im_mu",
        "qep_residual",
        "cluster_id",
        "multiplicity",
    ]
    lams = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    target = 4.0 * math.pi**2
    assert np.min(np.abs(lams - target)) / target < 1e-4
    assert (out / "config.resolved").exists()


def test_solve_states_output(tmp_path):
    out = tmp_path / "run"
    code = run(
        [
            "solve",
            "--out",
            str(out),
            "--set",
            "basis.n=8",
            "--set",
            "solve.want_states=true",
        ]
    )
    assert code == 0
    header, rows = read_csv(out / "states.csv")
    assert header[:4] == ["index", "coef", "re_u", "im_u"]
    assert rows

    # 2D square n=6: every eigenvalue's state over all N = 36 coefficients
    square = tmp_path / "square"
    settings = ("problem.dimension=2", "problem.domain=square", "basis.n=6", "solve.want_states=true")
    assert run(["solve", "--out", str(square), *(f"--set={s}" for s in settings)]) == 0
    _, eigen = read_csv(square / "eigenvalues.csv")
    header, rows = read_csv(square / "states.csv")
    table = np.array(rows, dtype=float)
    assert table.shape == (len(eigen) * 36, 8)
    assert np.array_equal(table[:, 0], np.repeat(np.arange(len(eigen)), 36))
    u, v, w = (table[:, 2 + 2 * k] + 1j * table[:, 3 + 2 * k] for k in range(3))
    assert np.max(np.abs(v - w + u)) <= 1e-12 * np.max(np.abs(w))


def test_unknown_flag_exits_2(tmp_path, capsys):
    assert run(["solve", "--bogus"]) == 2
    capsys.readouterr()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    out = tmp_path / "x"
    code = run(["solve", "--out", str(out), "--set", "basis.bogus=1"])
    assert code == 2
    assert run(["scan", "--out", str(out), "--set", "scan.refine_check=false"]) == 2  # a removed key
    assert not out.exists()  # no partial outputs
    capsys.readouterr()


def test_removed_verify_quadrature_key_exits_2(tmp_path, capsys):
    out = tmp_path / "v"
    code = run(["solve", "--out", str(out), "--set", "basis.verify_quadrature=true"])
    assert code == 2
    assert not out.exists()
    capsys.readouterr()


def test_removed_contour_points_key_exits_2(tmp_path, capsys):
    out = tmp_path / "c"
    assert run(["count", "--out", str(out), "--set", "count.contour_points=512"]) == 2
    config = tmp_path / "run.ini"
    config.write_text("[count]\ncontour_points = 512\n")
    assert run(["count", "-c", str(config), "--out", str(out)]) == 2
    assert not out.exists()
    capsys.readouterr()


def test_removed_quadrature_nodes_key_exits_2(tmp_path, capsys):
    out = tmp_path / "q"
    assert run(["solve", "--out", str(out), "--set", "basis.quadrature_nodes=64"]) == 2
    config = tmp_path / "run.ini"
    config.write_text("[basis]\nquadrature_nodes = 64\n")
    assert run(["solve", "-c", str(config), "--out", str(out)]) == 2
    assert not out.exists()
    capsys.readouterr()


def test_unknown_operator_exits_2(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["solve", "--out", str(out), "--set", "problem.operator=foo"]) == 2
    assert "problem.operator" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, named",
    [
        ("problem.domain=disk", ["problem.domain"]),
        ("problem.dimension=3", ["problem.dimension"]),
        # a shape and a dimension that disagree name both keys
        ("problem.dimension=2", ["problem.domain", "problem.dimension"]),
        ("problem.domain=square", ["problem.domain", "problem.dimension"]),
    ],
)
def test_bad_domain_or_dimension_exits_2(tmp_path, capsys, override, named):
    out = tmp_path / "d"
    assert run(["solve", "--out", str(out), "--set", override]) == 2
    err = capsys.readouterr().err
    assert all(key in err for key in named)


# keys that every run held at one value, now constants where they are read
RETIRED_KEYS = (
    ("solve", "basis.family=clamped-trig"),
    ("solve", "solve.cluster_tol=1e-6"),
    ("count", "solve.mu_floor=1e-12"),
    ("range", "trace.samples=10000"),
    ("scan", "scan.zero_tol=1e-6"),
    ("convergence", "convergence.real_tol=1e-6"),
    ("convergence", "convergence.cauchy_tol=1e-3"),
)


@pytest.mark.parametrize("given", ["set", "file"])
@pytest.mark.parametrize("command, setting", RETIRED_KEYS, ids=[s.split("=")[0] for _, s in RETIRED_KEYS])
def test_retired_key_exits_2(tmp_path, capsys, given, command, setting):
    key, value = setting.split("=")
    out = tmp_path / "r"
    if given == "set":
        argv = ["--set", setting]
    else:
        section, name = key.split(".")
        (tmp_path / "run.ini").write_text(f"[{section}]\n{name} = {value}\n")
        argv = ["-c", str(tmp_path / "run.ini")]
    assert run([command, "--out", str(out), "--set", "basis.n=8", *argv]) == 2
    assert capsys.readouterr().err == f"usage error: unknown config key {key}\n"
    assert not out.exists()


def src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = Path(__file__).resolve().parents[1] / "src"
    paths = [str(src), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def test_python_m_tespect_runs_selftest():
    proc = subprocess.run(
        [sys.executable, "-m", "tespect", "selftest"],
        env=src_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout and "FAIL" not in proc.stdout


NO_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now fails
import tespect
from tespect.cli import run
for argv in (["selftest"], ["solve", "--set", "basis.n=16"], ["count", "--set", "basis.n=24"]):
    code = run([*argv, "--out", argv[0]])
    assert code == 0, (argv, code)
"""


def test_runs_without_scipy(tmp_path):
    # scipy is a test-only dependency: the package must import and run without it
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY], cwd=tmp_path, env=src_env(), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout and "FAIL" not in proc.stdout
    assert (tmp_path / "solve" / "eigenvalues.csv").exists() and (tmp_path / "count" / "count.json").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["-c", "missing.ini"], "config file 'missing.ini' not found"),
        (["-c", "unknown.ini"], "unknown config section [nosuch]"),
        (["--set", "nodot"], "override 'nodot' is not section.key=value"),
        (
            ["--set", "problem.potential=3.0"],
            "problem.potential needs a kind prefix: constant, poly or grid (given '3.0')",
        ),
        (["--out", "unknown.ini", "--set", "basis.n=8"], "cannot write output to unknown.ini: File exists"),
        (["--out", "unknown.ini/sub", "--set", "basis.n=8"], "cannot write output to unknown.ini/sub: Not a directory"),
    ],
    ids=["missing-file", "unknown-section", "no-dot", "no-kind-prefix", "out-is-a-file", "out-under-a-file"],
)
def test_config_refusals_exit_2(tmp_path, capsys, monkeypatch, argv, message):
    # refused while the config loads, or where the output directory cannot
    # be made: one usage line and nothing written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "unknown.ini").write_text("[nosuch]\nx = 1\n")
    assert run(["solve", "--out", "o", *argv]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["unknown.ini"]


def test_malformed_values_exit_2(tmp_path, capsys):
    # a usage error writes nothing, not even config.resolved
    out = tmp_path / "y"
    assert run(["solve", "--out", str(out), "--set", "problem.potential=constant:abc"]) == 2
    assert run(["solve", "--out", str(out), "--set", "problem.potential=mystery:1"]) == 2
    assert run(["convergence", "--out", str(out), "--set", "convergence.n_list=8,x"]) == 2
    assert run(["scan", "--out", str(out), "--set", "scan.s_min=-1e308", "--set", "scan.s_max=1e308"]) == 2
    assert not out.exists()
    # out-of-range values: a usage error naming the key, not a traceback
    for command, setting in (
        ("range", "trace.seed=-1"),
        ("scan", "scan.s_count=1"),
        ("solve", "basis.n=0"),
        ("scan", "basis.n=-3"),
        ("trace", "trace.p=0"),
        ("trace", "trace.p="),
        ("oracle1d", "oracle.k_max=0.1"),
        ("oracle-disk", "oracle.k_min=0"),
        ("oracle1d", "oracle.points_per_unit=0"),
        ("oracle-disk", "oracle.points_per_unit=-3"),
        ("oracle-disk", "oracle.l_max=-1"),
        # the limits of the oracles themselves
        ("oracle-disk", "oracle.l_max=41"),
        ("oracle1d", "oracle.contrast=1e-9"),
        ("oracle-disk", "oracle.contrast=-0.5"),
        ("convergence", "convergence.n_list="),
        ("convergence", "convergence.n_list=0,8"),
        # non-finite numbers: nan passes every comparison and inf overflows
        ("oracle1d", "oracle.contrast=nan"),
        ("oracle1d", "oracle.k_max=inf"),
        ("scan", "scan.s_min=nan"),
        ("scan", "scan.s_max=inf"),
        # a scan grid of one repeated point: the refusal names both ends
        ("scan", "scan.s_max=0.0"),
        ("scan", "scan.s_min=2.0"),
        # read before the solve's first write
        ("solve", "solve.want_states=maybe"),
    ):
        capsys.readouterr()
        assert run([command, "--out", str(out), "--set", "basis.n=8", "--set", setting]) == 2, setting
        assert setting.split("=")[0] in capsys.readouterr().err
        assert not out.exists(), setting


@pytest.mark.parametrize("command", cli._COMMANDS)
def test_malformed_value_in_an_unread_key_exits_2(tmp_path, capsys, command):
    # every key is checked at load, whatever the command reads
    key = "basis.n" if command.startswith("oracle") else "oracle.k_max"
    out = tmp_path / "u"
    assert run([command, "--out", str(out), "--set", f"{key}=abc"]) == 2
    assert capsys.readouterr().err.startswith(f"usage error: {key}")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, dimension, setting",
    [
        ("solve", 1, "problem.potential=grid:1"),
        ("solve", 1, "problem.potential=poly:"),
        ("solve", 1, "problem.potential=grid:1,2;9,9"),
        ("scan", 1, "scan.direction=grid:2"),
        ("solve", 2, "problem.potential=grid:1,2"),
        ("solve", 2, "problem.potential=grid:1,2;3"),
        ("solve", 2, "problem.potential=poly:1,2;3"),
        ("scan", 1, "problem.potential=constant:nan"),
        ("scan", 1, "scan.direction=constant:nan"),
        ("scan", 1, "scan.direction=constant:inf"),
        ("solve", 1, "problem.potential=poly:1,nan"),
        ("solve", 2, "problem.potential=grid:1,2;3,-inf"),
    ],
)
def test_malformed_potential_shape_exits_2(tmp_path, capsys, command, dimension, setting):
    domain = "interval" if dimension == 1 else "square"
    argv = [command, "--out", str(tmp_path / "p"), "--set", "basis.n=6"]
    argv += ["--set", f"problem.domain={domain}", "--set", f"problem.dimension={dimension}"]
    assert run(argv + ["--set", setting]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: " + setting.split("=")[0])


def test_domain_error_produces_json_record(tmp_path, capsys):
    out = tmp_path / "err"
    code = run(
        ["solve", "--out", str(out), "--set", "problem.potential=constant:-1.0"]
    )
    assert code == 1
    err = capsys.readouterr().err
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"]["code"] == "NonpositivePotential"
    assert [p.name for p in out.iterdir()] == ["config.resolved"]  # the run stays reproducible


def test_outputs_are_deterministic(tmp_path):
    args = ["--set", "basis.n=16", "--set", "trace.seed=11"]
    for command, names in (
        ("solve", ("eigenvalues.csv", "config.resolved")),
        ("range", ("samples.csv", "range.json")),
    ):
        out1, out2 = tmp_path / command / "a", tmp_path / command / "b"
        assert run([command, "--out", str(out1), *args]) == 0
        assert run([command, "--out", str(out2), *args]) == 0
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_csv_writer_is_byte_exact(tmp_path, monkeypatch):
    writer = OutputWriter(RunConfig.load(None, []), str(tmp_path))
    floats = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1.0 / 3.0, -2.5e300, 7.0]
    mixed = [(i, x, i % 2 == 0, -i) for i, x in enumerate(floats)]
    array = np.array(floats).reshape(3, 3)

    def tables():
        return {
            "mixed.csv": (["index", "x", "even", "neg"], mixed, mixed),
            "mixed_rows.csv": (["index", "x", "even", "neg"], iter(mixed), mixed),
            "array.csv": (["a", "b", "c"], array, array.tolist()),
            "empty.csv": (["a", "b"], np.empty((0, 2)), []),
            "empty_rows.csv": (["a", "b"], iter(()), []),
        }

    # chunks of 2 rows split the 9-row and the 3-row tables across several writes
    for chunk_rows in (cli._CSV_CHUNK_ROWS, 2):
        monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", chunk_rows)
        for name, (columns, rows, expected_rows) in tables().items():
            path = writer.csv(name, columns, rows)
            lines = [writer.header(), ",".join(columns)] + [
                ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
                for row in expected_rows
            ]
            assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
            for line, row in zip(path.read_text().splitlines()[2:], expected_rows):
                for field, v in zip(line.split(","), row):
                    if isinstance(v, float):
                        back = float(field)
                        assert (math.isnan(back) and math.isnan(v)) or (
                            back == v and math.copysign(1.0, back) == math.copysign(1.0, v)
                        )


def test_assemble_outputs(tmp_path):
    out = tmp_path / "asm"
    assert run(["assemble", "--out", str(out), "--set", "basis.n=6"]) == 0
    meta = json.loads((out / "system.json").read_text())
    assert meta["matrix_size"] == 6
    assert meta["block_sizes"] == [3, 3]  # constant V: even and odd basis indices
    assert sum(meta["block_sizes"]) == meta["matrix_size"]
    assert meta["block_copies"] == [None, None] and meta["deflated"] == 0
    assert meta["p_min"] == 1
    _, rows = read_csv(out / "A.csv")
    mat = np.array([[float(v) for v in row] for row in rows])
    assert np.allclose(mat, mat.T, atol=1e-10 * np.abs(mat).max())


def test_trace_report_fields(tmp_path):
    out = tmp_path / "tr"
    assert run(["trace", "--out", str(out), "--set", "basis.n=12"]) == 0
    payload = json.loads((out / "trace.json").read_text())
    for field in (
        "p",
        "trace_re",
        "trace_im",
        "schatten_1",
        "schatten_2",
        "spectral_radius",
        "decay_exponent",
        "decay_theory",
        "identity_residuals",
        "tool_version",
        "config_hash",
    ):
        assert field in payload


def test_trace_records_p_min(tmp_path):
    # 2D -Laplacian: the headline p = 1 does not exceed n/m = 1, which
    # trace.json records as p_min = 2, with no warning
    out = tmp_path / "tr"
    settings = ("problem.dimension=2", "problem.domain=square", "basis.n=8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["trace", "--out", str(out), *(f"--set={s}" for s in settings)]) == 0
    payload = json.loads((out / "trace.json").read_text())
    assert (payload["p"], payload["p_min"]) == (1, 2)
    assert [row["p"] for row in payload["powers"]] == [1, 2]


@pytest.mark.parametrize("operator", ["laplacian", "bilaplacian"])
def test_trace_on_the_square_writes_nothing_to_stderr(tmp_path, operator):
    # a library warning that reaches the command line shows on stderr, which
    # an in-process run does not see: pytest captures warnings apart from it
    settings = ("problem.dimension=2", "problem.domain=square", f"problem.operator={operator}", "basis.n=8")
    proc = subprocess.run(
        [sys.executable, "-m", "tespect", "trace", "--out", str(tmp_path / "tr"), *(f"--set={s}" for s in settings)],
        env=src_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr


EVERY_COMMAND = """
import json
import sys
from pathlib import Path
from tespect.cli import _COMMANDS, run
square = ["problem.dimension=2", "problem.domain=square", "basis.n=8", "convergence.n_list=6,8"]
failed = []
for command in _COMMANDS:
    for operator in ("laplacian", "bilaplacian"):
        for settings in ([], square):
            argv = [command, "--out", f"{command}-{operator}-{len(settings)}"]
            argv += [f"--set={s}" for s in [f"problem.operator={operator}", *settings]]
            code = run(argv)
            if code:
                failed.append((argv, code))
# solve writes every eigenvalue of D: 2 per whitened coordinate
for operator in ("laplacian", "bilaplacian"):
    for settings in ([], square):
        run_id = f"{operator}-{len(settings)}"
        meta = json.loads(Path(f"assemble-{run_id}/system.json").read_text())
        rows = len(Path(f"solve-{run_id}/eigenvalues.csv").read_text().splitlines()) - 2
        if rows != 2 * (meta["matrix_size"] - meta["deflated"]):
            failed.append((run_id, rows, meta["matrix_size"], meta["deflated"]))
print(failed)
sys.exit(1 if failed else 0)
"""


def test_every_command_writes_nothing_to_stderr(tmp_path):
    # all subcommands, both presets, 1D at the defaults and 2D at n = 8, in
    # one process: a warning or a usage line that reaches stderr shows here,
    # and so does a solve whose row count is not 2 (matrix_size - deflated)
    assert len(cli._COMMANDS) == 10
    proc = subprocess.run(
        [sys.executable, "-c", EVERY_COMMAND], cwd=tmp_path, env=src_env(), capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0 and proc.stderr == "", (proc.stdout[-2000:], proc.stderr)


def test_trace_too_small_for_a_decay_fit_writes_null(tmp_path):
    # basis.n=2 on the interval: S has two singular values, too few for a decay fit
    out = tmp_path / "tr"
    assert run(["trace", "--out", str(out), "--set", "basis.n=2"]) == 0
    payload = json.loads((out / "trace.json").read_text())
    assert payload["decay_exponent"] is None and payload["decay_theory"] == -2.0


TINY_COMMANDS = ("assemble", "solve", "trace", "range", "count", "scan")


@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize("operator", ["laplacian", "bilaplacian"])
@pytest.mark.parametrize("dimension, domain", [(1, "interval"), (2, "square")], ids=["1d", "2d"])
@pytest.mark.parametrize("command", TINY_COMMANDS)
def test_tiny_bases_exit_cleanly(tmp_path, capsys, command, dimension, domain, operator, size):
    # a basis too small for a diagnostic is a typed error (exit 1, one JSON
    # record), never a traceback
    settings = (
        f"problem.dimension={dimension}",
        f"problem.domain={domain}",
        f"problem.operator={operator}",
        f"basis.n={size}",
    )
    code = run([command, "--out", str(tmp_path / "o"), *(f"--set={s}" for s in settings)])
    err = capsys.readouterr().err
    assert code in (0, 1), err
    if code == 1:
        assert set(json.loads(err)) == {"error"}


def test_range_report_fields(tmp_path):
    out = tmp_path / "rg"
    assert run(["range", "--out", str(out), "--set", "basis.n=10"]) == 0
    payload = json.loads((out / "range.json").read_text())
    for field in ("samples_csv_path", "max_abs_arg", "sector_opening", "pi_over_p"):
        assert field in payload
    assert payload["exact_opening"] == pytest.approx(np.pi)
    assert payload["within_angle"] is True  # 1D -Laplacian: p = 1
    assert payload["sample_count"] == 10000
    assert len(payload["lambda_min_k"]) == 2 and min(payload["lambda_min_k"]) > 0
    assert (out / payload["samples_csv_path"]).exists()


def test_count_outputs(tmp_path):
    out = tmp_path / "ct"
    assert run(["count", "--out", str(out), "--set", "basis.n=24"]) == 0
    payload = json.loads((out / "count.json").read_text())
    assert payload["windings"] == payload["cross_counts"]
    header, rows = read_csv(out / "count.csv")
    assert header == ["radius", "winding", "jensen_bound"]
    assert len(rows) == len(payload["windings"])
    # per radius, one entry per block: 1D constant V has the two parity blocks
    for key in ("grid_sizes", "block_windings", "block_cross_counts"):
        assert [len(row) for row in payload[key]] == [2] * len(payload["windings"])
    assert [sum(row) for row in payload["block_windings"]] == payload["windings"]
    assert payload["block_windings"] == payload["block_cross_counts"]
    assert sorted(payload) == [
        "block_cross_counts",
        "block_windings",
        "config_hash",
        "cross_counts",
        "grid_sizes",
        "growth_exponent",
        "jensen_bounds",
        "max_phase_steps",
        "radii",
        "resolved",
        "tool_version",
        "windings",
    ]


def test_count_max_phase_steps(tmp_path):
    # at the 1D -Laplacian defaults: the largest measured phase step of each
    # block, per radius, in the shape of grid_sizes; accepted steps lie below pi/2
    out = tmp_path / "ct"
    assert run(["count", "--out", str(out)]) == 0
    payload = json.loads((out / "count.json").read_text())
    steps = np.array(payload["max_phase_steps"])
    assert steps.shape == np.array(payload["grid_sizes"]).shape == (len(payload["radii"]), 2)
    assert np.all((steps > 0) & (steps < np.pi / 2))


def test_count_radius_on_the_spectrum_exits_1(tmp_path, capsys):
    # a given radius is used as given: one equal to a computed |lambda| fails
    assert run(["solve", "--out", str(tmp_path / "sv"), "--set", "basis.n=24"]) == 0
    _, rows = read_csv(tmp_path / "sv" / "eigenvalues.csv")
    modulus = abs(complex(float(rows[5][1]), float(rows[5][2])))
    radii = f"count.radii=10.0,{modulus!r},2000.0"
    out = tmp_path / "ct"
    assert run(["count", "--out", str(out), "--set", "basis.n=24", "--set", radii]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["code"] == "ContourNearZero" and f"{modulus:g}" in error["message"]
    assert not (out / "count.json").exists()


def test_count_radius_that_overflows_exits_1(tmp_path, capsys):
    # lambda^2 overflows in the contour matrices at |lambda| = 1e300
    out = tmp_path / "ct"
    assert run(["count", "--out", str(out), "--set", "basis.n=16", "--set", "count.radii=1e300"]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["code"] == "RangeExceeded" and "1e+300" in error["message"]
    assert not (out / "count.json").exists()


def test_count_given_radii_below_the_window_exit_1(tmp_path, capsys):
    # at the 1D defaults no eigenvalue lies inside radius 2, so no count
    # reaches the window's floor of 3
    out = tmp_path / "ct"
    assert run(["count", "--out", str(out), "--set", "count.radii=1,2"]) == 1
    records = capsys.readouterr().err.strip().splitlines()
    assert len(records) == 1
    error = json.loads(records[0])["error"]
    assert error["code"] == "InsufficientResolvedRange"
    assert error["message"].startswith("only 0 radii have counts in [3, ")
    assert [p.name for p in out.iterdir()] == ["config.resolved"]


@pytest.mark.parametrize("size", [1, 2])
def test_count_given_radii_on_a_basis_too_small_for_the_window_exits_1(tmp_path, capsys, size):
    # 1D: N = n, so the window [3, N/2] is empty whatever the radii
    out = tmp_path / "ct"
    assert run(["count", "--out", str(out), "--set", f"basis.n={size}", "--set", "count.radii=1,2,3"]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["code"] == "InsufficientResolvedRange"
    assert "too few eigenvalues for the counting window [3, N/2]" in error["message"]
    assert not (out / "count.json").exists()


@pytest.mark.parametrize("radii", ["100,100,300", "-5,100,300", "nan,100,300", ""])
def test_count_bad_radii_exit_2(tmp_path, capsys, radii):
    out = tmp_path / "ct"
    assert run(["count", "--out", str(out), "--set", f"count.radii={radii}"]) == 2
    assert "count.radii" in capsys.readouterr().err
    assert not (out / "count.json").exists()


@pytest.mark.slow
@pytest.mark.parametrize("operator", ["laplacian", "bilaplacian"])
def test_count_square_2d_defaults(tmp_path, operator):
    out = tmp_path / "ct2"
    settings = ("problem.dimension=2", "problem.domain=square", f"problem.operator={operator}")
    assert run(["count", "--out", str(out), *(f"--set={s}" for s in settings)]) == 0
    payload = json.loads((out / "count.json").read_text())
    assert payload["windings"] == payload["cross_counts"]
    assert payload["block_windings"] == payload["block_cross_counts"]
    assert sum(payload["resolved"]) >= 3


def test_assemble_outputs_square_swap_blocks(tmp_path):
    out = tmp_path / "asm2"
    settings = ("problem.dimension=2", "problem.domain=square", "basis.n=6")
    assert run(["assemble", "--out", str(out), *(f"--set={s}" for s in settings)]) == 0
    meta = json.loads((out / "system.json").read_text())
    # ee and oo split in swap-even and swap-odd halves; oe copies eo
    assert meta["block_sizes"] == [6, 3, 9, 9, 6, 3]
    assert meta["block_copies"] == [None, None, None, 2, None, None]
    assert meta["deflated"] == 0


def test_assemble_lists_the_stabilizer_of_v(tmp_path):
    square = ("problem.dimension=2", "problem.domain=square", "basis.n=6")
    benchmark = "problem.potential=poly:2.4,0.3;1.1,-0.2;0.3,0.0"  # the square-2d form, no symmetry
    symmetries = {}
    for name, settings in (("constant", square), ("benchmark", (*square, benchmark))):
        out = tmp_path / name
        assert run(["assemble", "--out", str(out), *(f"--set={s}" for s in settings)]) == 0
        symmetries[name] = json.loads((out / "system.json").read_text())["symmetries"]
    assert symmetries == {
        "constant": ["identity", "flip_x", "flip_y", "rot180", "swap", "antiswap", "rot90", "rot270"],
        "benchmark": ["identity"],
    }


def lowest_eigenvalues(out, count):
    columns, rows = read_csv(out / "eigenvalues.csv")
    lams = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    return lams[np.argsort(np.abs(lams))][:count]


def test_bilaplacian_solve_deflates_rounding_negative_mu(tmp_path):
    # at n=256 rounding leaves some mu of the stiffest modes just below zero;
    # they are dropped, the lowest eigenvalues match n=128, and every
    # eigenvalue of D is written, 2 per whitened coordinate
    lams, meta = {}, {}
    for n in (128, 256):
        settings = [f"--set={s}" for s in ("problem.operator=bilaplacian", f"basis.n={n}")]
        assert run(["solve", "--out", str(tmp_path / f"bl{n}"), *settings]) == 0
        assert run(["assemble", "--out", str(tmp_path / f"asm{n}"), *settings]) == 0
        lams[n] = lowest_eigenvalues(tmp_path / f"bl{n}", 8)
        meta[n] = json.loads((tmp_path / f"asm{n}" / "system.json").read_text())
        _, rows = read_csv(tmp_path / f"bl{n}" / "eigenvalues.csv")
        assert len(rows) == 2 * (meta[n]["matrix_size"] - meta[n]["deflated"])
    assert np.max(np.abs(lams[256] - lams[128]) / np.abs(lams[128])) < 1e-10
    assert meta[256]["deflated"] > 0


def test_count_square_2d(tmp_path):
    out = tmp_path / "ct2"
    settings = ("problem.dimension=2", "problem.domain=square", "basis.n=12")
    assert run(["count", "--out", str(out), *(f"--set={s}" for s in settings)]) == 0
    payload = json.loads((out / "count.json").read_text())
    assert payload["windings"] == payload["cross_counts"]
    assert payload["block_windings"] == payload["block_cross_counts"]
    # six blocks, each grid sized by the phase rule from the block's own
    # roots; the twin (block 3, of block 2) repeats its source's grid
    _, _, _, wh = cached_system(dimension=2, size=12, contrast=3.0)
    spectra = companion.block_eigenvalues(companion.build_companion(wh))
    for radius, row in zip(payload["radii"], payload["grid_sizes"]):
        assert len(row) == 6 and row[3] == row[2]
        assert all(g >= counting._MIN_CONTOUR_POINTS and g % 8 == 0 for g in row)
        assert [row[b] for b in (0, 1, 2, 4, 5)] == [counting._grid_size(radius, spectra[b]) for b in (0, 1, 2, 4, 5)]


def test_scan_outputs(tmp_path):
    out = tmp_path / "sc"
    code = run(
        [
            "scan",
            "--out",
            str(out),
            "--set",
            "problem.potential=constant:1.0",
            "--set",
            "basis.n=10",
            "--set",
            "scan.s_count=5",
        ]
    )
    assert code == 0
    payload = json.loads((out / "scan.json").read_text())
    for field in ("t_values", "near_zeros", "sign_changes", "chebyshev_tail"):
        assert field in payload
    assert all(t > 0 for t in payload["t_values"])
    assert len(payload["s_values"]) == 5 and payload["s_values"][2] == 1.0  # the middle Lobatto node


@pytest.mark.parametrize("count", [2, 3, 4])
def test_scan_with_fewer_than_five_points_exits_2(tmp_path, capsys, count):
    out = tmp_path / "sc"
    assert run(["scan", "--out", str(out), "--set", f"scan.s_count={count}"]) == 2
    assert capsys.readouterr().err.startswith("usage error: scan.s_count must be an integer >= 5")
    assert not out.exists()


def test_scan_tail_at_five_points_reads_rounding(tmp_path):
    # the default family V = 3 + s gives a t exactly linear in s, so the
    # tail coefficients, of degree 2 and 3, are rounding
    out = tmp_path / "sc"
    assert run(["scan", "--out", str(out), "--set", "scan.s_count=5"]) == 0
    assert json.loads((out / "scan.json").read_text())["chebyshev_tail"] <= 1e-13


def test_oracle_subcommands(tmp_path):
    out = tmp_path / "or"
    assert run(["oracle1d", "--out", str(out)]) == 0
    _, rows = read_csv(out / "roots.csv")
    ks = [float(r[1]) for r in rows]
    assert min(abs(k - 2.0 * math.pi) for k in ks) < 1e-8
    out2 = tmp_path / "od"
    code = run(
        [
            "oracle-disk",
            "--out",
            str(out2),
            "--set",
            "oracle.l_max=1",
            "--set",
            "oracle.k_max=8.0",
            "--set",
            "oracle.points_per_unit=500",
        ]
    )
    assert code == 0
    _, rows = read_csv(out2 / "roots.csv")
    assert all(float(r[3]) < 1e-10 for r in rows)


def test_oracle_subcommands_at_defaults(tmp_path):
    # contrast 3 on k in [0.5, 20]: the interval family 2 pi j, j = 1, 2, 3,
    # and 53 disk roots over the modes l <= 8
    for command, count in (("oracle1d", 3), ("oracle-disk", 53)):
        out = tmp_path / command
        assert run([command, "--out", str(out)]) == 0
        _, rows = read_csv(out / "roots.csv")
        assert len(rows) == count
        assert all(float(r[3]) < 1e-10 for r in rows)


def test_convergence_constant_list():
    cfg = RunConfig.load(
        None, ["convergence.n_list=16,16,16", "basis.n=16", "problem.potential=constant:3.0"]
    )
    rows = convergence_table(cfg)
    assert all(r["rel_diff"] == 0.0 for r in rows[1:])


def test_convergence_without_a_real_eigenvalue_exits_1(tmp_path, capsys):
    # at n = 2 the 1D defaults resolve no real eigenvalue: a typed refusal
    out = tmp_path / "cv"
    assert run(["convergence", "--out", str(out), "--set", "convergence.n_list=2"]) == 1
    records = capsys.readouterr().err.strip().splitlines()
    assert len(records) == 1
    error = json.loads(records[0])["error"]
    assert error == {"code": "InsufficientResolvedRange", "message": "no real eigenvalue found"}
    assert [p.name for p in out.iterdir()] == ["config.resolved"]


def test_first_real_eigenvalue_refuses_a_spectrum_without_one():
    assert cli.first_real_eigenvalue(np.array([3.0 + 0.0j, 1.0 + 1.0j, 2.0 + 0.0j])) == 2.0
    with pytest.raises(ComputationError, match="no real eigenvalue found"):
        cli.first_real_eigenvalue(np.array([1.0 + 1.0j, 2.0 - 1.0j]))


def test_convergence_decreasing_toward_oracle(tmp_path):
    # generic contrast: at V = 3 the lowest real eigenvalue belongs to a
    # resonant multiple cluster and its member selection is not stable
    out = tmp_path / "cv"
    code = run(
        [
            "convergence",
            "--out",
            str(out),
            "--set",
            "convergence.n_list=8,10,12,16",
            "--set",
            "problem.potential=constant:2.0",
        ]
    )
    assert code == 0
    _, rows = read_csv(out / "convergence.csv")
    diffs = [float(r[2]) for r in rows[1:]]
    assert all(b <= a for a, b in zip(diffs, diffs[1:]))
    from tespect import oracles

    oracle_lam = oracles.oracle_1d(2.0, 0.5, 12.0)[0].lam
    lam_final = float(rows[-1][1])
    assert abs(lam_final - oracle_lam) / oracle_lam < 1e-6


def test_convergence_bilaplacian_defaults_quietly(tmp_path, capsys):
    # mu ratios far below 1e-13 are whitened, not refused; the table goes to
    # convergence.csv only
    out = tmp_path / "cv4"
    assert run(["convergence", "--out", str(out), "--set", "problem.operator=bilaplacian"]) == 0
    assert capsys.readouterr().out == ""
    _, rows = read_csv(out / "convergence.csv")
    assert float(rows[-1][2]) < 1e-10


@pytest.mark.slow
def test_solve_states_square_2d_defaults(tmp_path):
    out = tmp_path / "st2"
    settings = ("problem.dimension=2", "problem.domain=square", "solve.want_states=true")
    assert run(["solve", "--out", str(out), *(f"--set={s}" for s in settings)]) == 0


@pytest.mark.slow
def test_convergence_bilaplacian_square_2d_defaults(tmp_path):
    out = tmp_path / "cv4"
    settings = ("problem.dimension=2", "problem.domain=square", "problem.operator=bilaplacian")
    assert run(["convergence", "--out", str(out), *(f"--set={s}" for s in settings)]) == 0
    _, rows = read_csv(out / "convergence.csv")
    assert float(rows[-1][2]) < 1e-8


@pytest.mark.slow
def test_scan_square_2d_defaults(tmp_path):
    # 21 Lobatto points in many stacks at n=32; V = 3 + s is constant, so
    # t(s) / (2 + V(s)) is constant and is the slope dt
    out = tmp_path / "sc2"
    settings = ("problem.dimension=2", "problem.domain=square")
    assert run(["scan", "--out", str(out), *(f"--set={s}" for s in settings)]) == 0
    payload = json.loads((out / "scan.json").read_text())
    s, t = np.array(payload["s_values"]), np.array(payload["t_values"])
    assert s.size == 21 and np.all(np.isfinite(t))
    ratio = t / (5.0 + s)
    assert np.ptp(ratio) <= 1e-12 * np.max(ratio)
    _, rows = read_csv(out / "scan.csv")
    dt = np.array([float(r[2]) for r in rows])
    assert np.max(np.abs(dt / ratio - 1.0)) <= 1e-10


def peak_rss_kb(args):
    """Exit status and peak RSS (kB) of ``python -m tespect`` with ``args``, run in a child."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "tespect", *args],
        env=src_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(proc.pid, 0)  # the rusage of this child alone
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


@pytest.mark.slow
def test_range_memory_stays_near_trace_square_2d_defaults(tmp_path):
    # the sampler's chunks are a few MB, so range holds little beyond the
    # pipeline that trace builds too
    settings = ("--set=problem.dimension=2", "--set=problem.domain=square")
    peaks = {}
    for command in ("trace", "range"):
        status, peaks[command] = peak_rss_kb([command, "--out", str(tmp_path / command), *settings])
        assert status == 0
    assert peaks["range"] <= 1.25 * peaks["trace"], peaks


def test_readme_lists_every_config_key_with_its_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)\.(\w+)` \| `([^`]*)` \|", readme, flags=re.MULTILINE)
    table = {(section, key): default for section, key, default in rows}
    assert len(table) == len(rows)  # no key listed twice
    assert table == {
        (section, key): default for section, keys in cli._SCHEMA.items() for key, (default, _) in keys.items()
    }


def test_every_config_key_has_a_reader():
    # a key is read as cfg["section.key"] by a command, or named in the cross-key rules
    source = Path(cli.__file__).read_text()
    read = set(re.findall(r'cfg\["(\w+\.\w+)"\]', source))
    ruled = set(re.findall(r'"(\w+\.\w+)"', inspect.getsource(cli._check_rules)))
    keys = {f"{section}.{key}" for section, keys in cli._SCHEMA.items() for key in keys}
    assert keys - read - ruled == set()


def test_readme_lists_every_command():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"^Commands: (.*?)\.\s", readme, flags=re.MULTILINE | re.DOTALL).group(1)
    assert re.findall(r"`([\w-]+)`", listed) == list(cli._COMMANDS)


def test_resolved_config_reproduces_run(tmp_path):
    out1 = tmp_path / "first"
    assert run(["solve", "--out", str(out1), "--set", "basis.n=12"]) == 0
    # the echoed config is itself a valid config file for an identical rerun
    out2 = tmp_path / "second"
    assert run(["solve", "-c", str(out1 / "config.resolved"), "--out", str(out2)]) == 0
    assert (out1 / "eigenvalues.csv").read_bytes() == (out2 / "eigenvalues.csv").read_bytes()


def test_percent_in_a_value_is_kept_literally(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["selftest", "--set", "output.dir=a%b"]) == 0
    out = tmp_path / "a%b"
    assert run(["solve", "--set", "basis.n=8", "--set", "output.dir=a%b"]) == 0
    resolved = out / "config.resolved"
    assert "dir = a%b" in resolved.read_text()
    again = tmp_path / "again"
    assert run(["solve", "-c", str(resolved), "--out", str(again)]) == 0
    assert (again / "config.resolved").read_text() == resolved.read_text()


def test_config_file_roundtrip(tmp_path):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text("[basis]\nn = 14\n\n[problem]\npotential = constant:2.0\n")
    out = tmp_path / "rt"
    assert run(["solve", "-c", str(cfg_path), "--out", str(out)]) == 0
    resolved = (out / "config.resolved").read_text()
    assert "n = 14" in resolved
    assert "potential = constant:2.0" in resolved
    # defaults are materialized too
    assert "want_states = false" in resolved and "s_count = 21" in resolved
