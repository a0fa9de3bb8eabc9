"""Config parsing, output formats and subcommand behavior."""

import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from diracsplit import PeriodicGrid, evolve, builtin_plan, exprlang
from diracsplit.cli import (ConfigError, SimulationConfig, build_grid,
                            build_initial, build_model, dumps_config,
                            load_config, loads_config, main)
from diracsplit.experiments import gaussian_pair, klein_initial
from diracsplit.potentials import Honeycomb2D, ZeroPotential
from diracsplit.snapshots import read_snapshot


# --- config parsing ----------------------------------------------------------

def test_defaults_from_empty_config():
    cfg = loads_config("")
    assert cfg == SimulationConfig()
    assert (cfg.c, cfg.m, cfg.e) == (1.0, 1.0, 1.0)
    assert cfg.scheme == "s4c"


def test_full_config():
    cfg = loads_config("""
# comment line
dimension = 1
scheme = s2
grid.a = -32
grid.b = 32
grid.M = 1024
time.tau = 1/64
time.t_max = 2
potential.kind = td1d
output.stride = 16
""")
    assert cfg.scheme == "s2"
    assert cfg.a == (-32.0,) and cfg.b == (32.0,)
    assert cfg.points == (1024,)
    assert cfg.tau == pytest.approx(1.0 / 64.0)
    assert cfg.potential_kind == "td1d"
    assert cfg.stride == 16


def test_axis_broadcast():
    cfg = loads_config("dimension = 2\ngrid.a = -8\ngrid.b = 8\n"
                       "grid.M = 64, 32\n")
    assert cfg.a == (-8.0, -8.0)
    assert cfg.points == (64, 32)


@pytest.mark.parametrize("text,fragment", [
    ("grid.M = 63\n", "even"),
    ("nonsense.key = 1\n", "nonsense.key"),
    ("scheme = s3\n", "scheme"),
    ("time.tau = 0.3\ntime.t_max = 1\n", "integer"),
    ("time.tau = 1e13\ntime.t_max = 1\n", "integer"),
    ("potential.V0 = 5\n", "potential.V0"),
    ("dimension = 2\npotential.kind = td1d\n", "dimension"),
    ("potential.kind = honeycomb\npotential.case = 1\n", "dimension"),
    ("dimension = 3\ncomponents = 2\n", "components"),
    ("initial.kind = klein\ncomponents = 4\n", "klein"),
    ("scheme = s2\nscheme = s4\n", "duplicate"),
    ("just a line\n", "key = value"),
    ("potential.kind = custom\npotential.V_expr = sin(q)\n",
     "line 2: potential.V_expr: unknown name"),
    ("potential.kind = honeycomb\ndimension = 2\npotential.case = 5\n",
     "case"),
    ("convergence.taus = -0.25\n", "positive"),
    ("convergence.taus = 0.3\n", "integer"),
    ("convergence.tau_ref = 0.3\n", "integer"),
    ("# checks without a library twin carry the line too\ndimension = 4\n",
     "line 2: dimension"),
    ("scheme = s2\noutput.stride = -1\n", "line 2: output.stride"),
    ("scheme = s2\n\npotential.kind = nope\n", "line 3: potential.kind"),
    ("constants.m = nan\n", "line 1: constants.m"),
    ("constants.c = inf\n", "line 1: constants.c"),
    ("constants.e = nan\n", "line 1: constants.e"),
    ("potential.kind = klein_step\npotential.V0 = inf\npotential.L = 1\n",
     "potential.V0"),
    ("grid.b = inf\n", "line 1: grid.b"),
    ("initial.kind = klein\ninitial.k0 = nan\n", "line 2: initial.k0"),
    ("initial.kind = klein\ninitial.x0 = -inf\n", "line 2: initial.x0"),
    ("time.t_max = inf\n", "line 1: time.t_max"),
])
def test_config_errors(text, fragment):
    with pytest.raises(ConfigError) as err:
        loads_config(text)
    assert fragment in str(err.value)


def test_magnetic_component_beyond_dimension_named_once():
    with pytest.raises(ConfigError) as err:
        loads_config("dimension = 2\npotential.kind = custom\n"
                     "potential.A3_expr = x\n")
    assert str(err.value).count("potential.A3_expr") == 1
    assert "line 1" in str(err.value)
    # an explicit zero component still sets the model's dimension
    with pytest.raises(ConfigError, match="potential.A3_expr"):
        loads_config("dimension = 2\npotential.kind = custom\n"
                     "potential.A3_expr = 0\n")


def test_syntax_error_reports_line_number():
    with pytest.raises(ConfigError, match="line 3"):
        loads_config("scheme = s2\n\nbroken line\n")


def test_round_trip():
    texts = [
        "",
        "dimension = 1\npotential.kind = klein_step\npotential.V0 = 61300\n"
        "potential.L = 1e-4\nconstants.c = 137.0359895\n"
        "initial.kind = klein\ninitial.k0 = 106\ntime.tau = 1e-3\n"
        "time.t_max = 0.1\n",
        "dimension = 2\npotential.kind = custom\n"
        "potential.V_expr = sin(x)*cos(y)\npotential.A1_expr = tanh(x)\n"
        "convergence.taus = 1/8, 1/16\nconvergence.tau_ref = 1/128\n"
        "convergence.schemes = s2, s4c\noutput.prefix = out\n",
    ]
    for text in texts:
        cfg = loads_config(text)
        assert loads_config(dumps_config(cfg)) == cfg


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.cfg")


# --- builders ----------------------------------------------------------------

def test_build_initial_matches_experiment_helpers():
    cfg = loads_config("grid.a = -16\ngrid.b = 16\ngrid.M = 128\n")
    grid = build_grid(cfg)
    np.testing.assert_array_equal(build_initial(cfg, grid).data,
                                  gaussian_pair(grid).data)
    cfg2 = loads_config(
        "potential.kind = klein_step\npotential.V0 = 2e4\n"
        "potential.L = 1e-4\nconstants.c = 137.0359895\n"
        "initial.kind = klein\ninitial.k0 = 50\ninitial.x0 = -5\n"
        "grid.a = -16\ngrid.b = 16\ngrid.M = 128\n")
    grid2 = build_grid(cfg2)
    np.testing.assert_array_equal(
        build_initial(cfg2, grid2).data,
        klein_initial(grid2, 50.0, -5.0, 137.0359895, 1.0).data)


def test_build_initial_four_components():
    cfg = loads_config("dimension = 3\ncomponents = 4\n"
                       "grid.a = -4\ngrid.b = 4\ngrid.M = 8\n")
    f = build_initial(cfg, build_grid(cfg))
    assert f.data.shape == (8, 8, 8, 4)
    assert np.all(f.data[..., 2:] == 0.0)


def test_build_model_kinds():
    assert isinstance(build_model(loads_config("")), ZeroPotential)
    cfg = loads_config("dimension = 2\npotential.kind = honeycomb\n"
                       "potential.case = 3\n")
    model = build_model(cfg)
    assert isinstance(model, Honeycomb2D) and model.case == 3
    cfg2 = loads_config("dimension = 2\npotential.kind = custom\n"
                        "potential.V_expr = x*y\n"
                        "potential.A2_expr = sin(x)\n")
    model2 = build_model(cfg2)
    assert model2.native_dim == 2
    assert len(model2.a_exprs) == 2


# --- subcommands ---------------------------------------------------------------

def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_subcommand(tmp_path, capsys):
    prefix = str(tmp_path / "out")
    cfgfile = _write(tmp_path, "run.cfg", f"""
grid.a = -8
grid.b = 8
grid.M = 64
time.tau = 0.05
time.t_max = 0.5
scheme = s2
potential.kind = td1d
output.prefix = {prefix}
output.stride = 5
""")
    assert main(["run", cfgfile]) == 0
    summary = json.loads((tmp_path / "out_summary.json").read_text())
    assert summary["steps"] == 10
    assert summary["mass_drift"] < 1e-12
    assert [s["step"] for s in summary["snapshots"]] == [0, 5, 10]
    t, data = read_snapshot(tmp_path / "out_00000010.dspn")
    assert t == pytest.approx(0.5)
    cfg = load_config(cfgfile)
    grid = build_grid(cfg)
    ref = evolve(build_initial(cfg, grid), 0.0, 0.5, 0.05,
                 builtin_plan("s2"), build_model(cfg))
    np.testing.assert_array_equal(data, ref.data)


def test_run_without_prefix_prints_summary(tmp_path, capsys):
    cfgfile = _write(tmp_path, "run.cfg",
                     "grid.a = -8\ngrid.b = 8\ngrid.M = 32\n"
                     "time.tau = 0.1\ntime.t_max = 0.2\n")
    assert main(["run", cfgfile]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["steps"] == 2
    assert summary["snapshots"] == [{"step": 0, "t": 0.0},
                                    {"step": 2, "t": 0.2}]
    assert not list(tmp_path.glob("*.dspn"))


def test_convergence_subcommand(tmp_path):
    prefix = str(tmp_path / "ladder")
    cfgfile = _write(tmp_path, "conv.cfg", f"""
grid.a = -8
grid.b = 8
grid.M = 64
time.t_max = 0.5
potential.kind = td1d
convergence.schemes = s2, s4c
convergence.taus = 1/8, 1/16, 1/32
convergence.tau_ref = 1/512
output.prefix = {prefix}
""")
    assert main(["convergence", cfgfile]) == 0
    lines = (tmp_path / "ladder.csv").read_text().splitlines()
    assert lines[0] == "scheme,tau,e_phi,rate_phi,e_rho,rate_rho,e_j,rate_j,seconds"
    assert len(lines) == 1 + 2 * 3
    first = lines[1].split(",")
    assert first[0] == "s2" and first[3] == "" and first[5] == ""
    s2_rates = [float(lines[i].split(",")[3]) for i in (2, 3)]
    assert all(1.7 < r < 2.3 for r in s2_rates)
    s4c_rates = [float(lines[i].split(",")[3]) for i in (5, 6)]
    assert all(3.5 < r < 4.5 for r in s4c_rates)
    # 16 significant digits scientific notation
    assert "e-" in first[2] or "e+" in first[2]
    mantissa = first[2].split("e")[0]
    assert len(mantissa.replace("-", "").replace(".", "")) == 16


def test_convergence_determinism(tmp_path):
    cfgfile = _write(tmp_path, "conv.cfg", """
grid.a = -8
grid.b = 8
grid.M = 32
time.t_max = 0.25
potential.kind = td1d
convergence.schemes = s2
convergence.taus = 1/8, 1/16
convergence.tau_ref = 1/64
""")
    def physics_columns():
        import io
        from contextlib import redirect_stdout
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main(["convergence", cfgfile]) == 0
        rows = [line.split(",") for line in buf.getvalue().splitlines()]
        return [row[:8] for row in rows]  # drop the wall-clock column

    assert physics_columns() == physics_columns()


def test_klein_subcommand(tmp_path):
    prefix = str(tmp_path / "kp")
    cfgfile = _write(tmp_path, "klein.cfg", f"""
grid.a = -20
grid.b = 20
grid.M = 1280
time.tau = 5e-4
time.t_max = 0.05
constants.c = 137.0359895
potential.kind = klein_step
potential.V0 = 2e4
potential.L = 1e-4
initial.kind = klein
initial.k0 = 106
output.prefix = {prefix}
""")
    assert main(["klein", cfgfile]) == 0
    payload = json.loads((tmp_path / "kp.json").read_text())
    assert set(payload) == {"k0", "V0", "L", "E_k", "T_ana", "T_num",
                            "rel_err"}
    assert payload["T_ana"] == 0.0
    assert payload["rel_err"] is None
    assert payload["E_k"] == pytest.approx(23741.208, rel=1e-6)
    assert payload["T_num"] < 0.05


_KLEIN_CFG = """
grid.a = -20
grid.b = 20
grid.M = 256
time.tau = 1e-3
time.t_max = 0.01
constants.c = 137.0359895
potential.kind = klein_step
potential.V0 = 2e4
potential.L = 1e-4
initial.kind = klein
"""


@pytest.mark.parametrize("command,text,parses", [
    ("run", "grid.M = 32\ntime.tau = 0.1\ntime.t_max = 0.2\n"
            "potential.kind = custom\npotential.V_expr = sin(x)\n"
            "potential.A1_expr = cos(x)/2\n", 2),
    ("klein", _KLEIN_CFG, 1),
], ids=["run-custom", "klein"])
def test_subcommands_build_the_model_once(tmp_path, capsys, monkeypatch,
                                          command, text, parses):
    calls = []
    parse = exprlang.parse

    def counting(src):
        calls.append(src)
        return parse(src)

    monkeypatch.setattr(exprlang, "parse", counting)
    assert main([command, _write(tmp_path, "one.cfg", text)]) == 0
    assert len(calls) == parses


def test_klein_subcommand_requires_matching_config(tmp_path, capsys):
    cfgfile = _write(tmp_path, "bad.cfg", "potential.kind = zero\n")
    assert main(["klein", cfgfile]) == 2
    assert "klein_step" in capsys.readouterr().err


def test_commutator_check_zero_potential(tmp_path, capsys):
    cfgfile = _write(tmp_path, "chk.cfg",
                     "dimension = 2\ngrid.a = -4\ngrid.b = 4\ngrid.M = 16\n")
    assert main(["commutator-check", cfgfile, "--fields", "3"]) == 0
    out = capsys.readouterr().out
    assert "2d/2comp" in out and "2d/4comp" in out
    assert "FAIL" not in out
    assert "0.000000e+00" in out


def test_commutator_check_td1d(tmp_path, capsys):
    cfgfile = _write(tmp_path, "chk.cfg",
                     "grid.a = -4\ngrid.b = 4\ngrid.M = 32\n"
                     "potential.kind = td1d\ntime.t0 = 0.5\ntime.t_max = 1\n")
    assert main(["commutator-check", cfgfile, "--fields", "5"]) == 0
    out = capsys.readouterr().out
    assert "1d/2comp" in out and "1d/4comp" in out and "FAIL" not in out


def test_commutator_check_honeycomb(tmp_path, capsys):
    # A = 0: the exact commutator vanishes and only roundoff is compared
    cfgfile = _write(tmp_path, "chk.cfg",
                     "dimension = 2\ngrid.a = -8\ngrid.b = 8\ngrid.M = 64\n"
                     "potential.kind = honeycomb\npotential.case = 2\n")
    assert main(["commutator-check", cfgfile, "--fields", "2"]) == 0
    out = capsys.readouterr().out
    assert "2d/2comp" in out and "2d/4comp" in out and "FAIL" not in out


def test_commutator_check_sharp_klein_step_stays_finite(tmp_path, capsys):
    # |x/L| reaches 2e5: a gradient through cosh(x/L)^2 overflows there
    cfgfile = _write(tmp_path, "chk.cfg",
                     "grid.a = -20\ngrid.b = 20\ngrid.M = 256\n"
                     "potential.kind = klein_step\npotential.V0 = 2e4\n"
                     "potential.L = 1e-4\nconstants.c = 137.0359895\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["commutator-check", cfgfile, "--fields", "2"]) == 0
    out = capsys.readouterr().out
    assert "1d/2comp" in out and "FAIL" not in out


def test_commutator_check_3d_magnetic(tmp_path, capsys):
    # every A_k nonzero: the only CLI row through the three-axis terms
    cfgfile = _write(tmp_path, "chk.cfg",
                     "dimension = 3\ngrid.a = -2\ngrid.b = 2\ngrid.M = 8\n"
                     "potential.kind = custom\n"
                     "potential.V_expr = sin(x) + y*z/6\n"
                     "potential.A1_expr = tanh(y) + z^2/40\n"
                     "potential.A2_expr = x*z/5\n"
                     "potential.A3_expr = cos(x) + y^2/30\n")
    assert main(["commutator-check", cfgfile, "--fields", "2"]) == 0
    out = capsys.readouterr().out
    assert "3d/4comp" in out and "FAIL" not in out


@pytest.mark.parametrize("exponent,code", [("1/2", 0), ("x", 2)])
def test_commutator_check_power_with_expression_exponent(tmp_path, capsys,
                                                         exponent, code):
    # a variable-free exponent differentiates; a variable one is a clean error
    cfgfile = _write(tmp_path, "chk.cfg",
                     "grid.a = -4\ngrid.b = 4\ngrid.M = 32\n"
                     "potential.kind = custom\n"
                     f"potential.V_expr = (1 + x*x)^({exponent})\n"
                     "potential.A1_expr = tanh(x)\n")
    assert main(["commutator-check", cfgfile, "--fields", "2"]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert "1d/2comp" in captured.out and "FAIL" not in captured.out
    else:
        assert captured.err.startswith("error: ") and "differentiate" in captured.err


@pytest.mark.parametrize("fields", ["0", "-3"])
def test_commutator_check_rejects_fields_below_one(tmp_path, capsys, fields):
    cfgfile = _write(tmp_path, "chk.cfg", "potential.kind = td1d\n")
    assert main(["commutator-check", cfgfile, "--fields", fields]) == 2
    captured = capsys.readouterr()
    assert "--fields" in captured.err and "pass" not in captured.out


def test_plan_subcommand(capsys):
    assert main(["plan", "s4c"]) == 0
    out = capsys.readouterr().out
    assert "order 4, 5 factors" in out
    rows = [line.split() for line in out.splitlines()[2:]]
    assert [r[1] for r in rows] == ["potential", "kinetic",
                                    "compact_potential", "kinetic",
                                    "potential"]
    assert [r[3] for r in rows] == ["0", "-", "1/2", "-", "1"]

    assert main(["plan", "s2"]) == 0
    out2 = capsys.readouterr().out
    offs = [line.split()[3] for line in out2.splitlines()[2:]]
    assert offs == ["0", "-", "1"]


def test_plan_rejects_unknown_scheme(capsys):
    assert main(["plan", "s3"]) == 2
    assert "unknown scheme" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["abc", "0"])
def test_bad_thread_count_fails_cleanly(tmp_path, capsys, monkeypatch,
                                        threads):
    monkeypatch.setenv("DIRACSPLIT_THREADS", threads)
    cfgfile = _write(tmp_path, "run.cfg", "grid.M = 16\ntime.tau = 0.5\n")
    assert main(["run", cfgfile]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: DIRACSPLIT_THREADS")
    assert captured.out == ""


def test_missing_config_exits_nonzero(tmp_path, capsys):
    assert main(["run", str(tmp_path / "none.cfg")]) == 2
    assert "error:" in capsys.readouterr().err


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "diracsplit.cli", "plan",
                           "s1"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "order 1" in proc.stdout
