import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qcurv import cli, geodesic, potential, quadrature
from qcurv.bubble import MASS_LIMIT, RescaledBubble, mass_integral
from qcurv.cli import main
from qcurv.fields import ChartError, DegenerateMetricError
from qcurv.harness import tuned_source, vrate_balance
from qcurv.pohozaev import RadialProfileField
from qcurv.potential import TorusSpectralField


def run_cli(args):
    return main(list(args))


def test_bubble_check_passes(tmp_path):
    out = tmp_path / "out"
    code = run_cli(["bubble-check", "--out", str(out), "--quiet"])
    assert code == 0
    summary = json.loads((out / "bubble-check.json").read_text())
    assert summary["pass"] is True
    assert set(summary) == {"command", "pass", "checks", "seed", "versions"}
    assert summary["command"] == "bubble-check"
    for c in summary["checks"]:
        assert set(c) == {"name", "value", "bound", "pass"}
    assert set(summary["versions"]) == {"qcurv", "python", "numpy", "sympy"}


def test_unknown_command_is_usage_error(capsys):
    assert run_cli(["frobnicate"]) == 2
    capsys.readouterr()


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[mass]\nbogus_key = 3\n")
    assert run_cli(["mass", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("suite, key", [("cnc", "n_jets"), ("represent", "n_fields")])
def test_zero_size_config_is_usage_error(tmp_path, capsys, suite, key):
    # a run over no jets or no fields would check nothing and pass
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[{suite}]\n{key} = 0\n")
    assert run_cli([suite, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"{suite}.{key} must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unknown_config_section_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[nonsense]\nx = 1\n")
    assert run_cli(["mass", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()


def test_non_decreasing_eps_list_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[pohozaev]\neps_list = 0.01,0.1\n")
    assert run_cli(["pohozaev", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    assert (
        run_cli(["mass", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "o")])
        == 2
    )
    capsys.readouterr()


def test_mass_default_fails_honestly(tmp_path):
    # the R = 10 default sits outside the stated band; the suite must
    # report the value faithfully and exit 1
    out = tmp_path / "out"
    code = run_cli(["mass", "--out", str(out), "--quiet"])
    assert code == 1
    summary = json.loads((out / "mass.json").read_text())
    names = {c["name"]: c for c in summary["checks"]}
    assert not names["mass_over_16pi2"]["pass"]
    assert 0.98 < names["mass_over_16pi2"]["value"] < 0.999
    # CSV sweep rows are still produced
    text = (out / "mass.csv").read_text().splitlines()
    assert "error_estimate" in text[0]
    assert len(text) > 2


def test_mass_wide_ball_passes():
    # the mass_over_16pi2 band is reachable: the bubble's mass on B_20 lies in it
    ratio = mass_integral(RescaledBubble(cli.BUBBLE_H), 20.0) / MASS_LIMIT
    assert 0.999 <= ratio <= 1.001


def test_longrange_outputs_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run_cli(["longrange", "--out", str(out1), "--quiet"]) == 0
    assert run_cli(["longrange", "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "longrange.json").read_bytes() == (out2 / "longrange.json").read_bytes()
    assert (out1 / "longrange.csv").read_bytes() == (out2 / "longrange.csv").read_bytes()


def test_vrate_passes(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["vrate", "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "vrate.json").read_text())
    names = {c["name"]: c for c in summary["checks"]}
    assert any("exponent" in n for n in names)


def test_mainest_constant_ratio_matches_the_recorded_references():
    # the benchmark's reference values, one per seed: the seed reaches both
    # the correction's wave vectors and the sup-norm's samples
    path = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
    table = json.loads(path.read_text())
    entry = table["suites"]["mainest"]["checks"]["constant_ratio"]
    assert sorted(entry["ref"], key=int) == [str(s) for s in range(10)]
    for seed, ref in entry["ref"].items():
        checks, _ = cli.run_mainest(dict(cli.DEFAULTS["mainest"]), int(seed))
        (c,) = checks
        assert c["name"] == "constant_ratio" and c["pass"] == entry["pass"]
        assert abs(c["value"] - ref) <= entry["rtol"] * abs(ref), seed


@pytest.mark.parametrize("raw", ["", "0.1", "0.1,-0.05", "0.1,0", "0.01,0.1", "0.1,0.1", "0.1,x"])
def test_parse_eps_list_rejects_bad_lists(raw):
    with pytest.raises(cli.ConfigError):
        cli.parse_eps_list(raw)


@pytest.mark.parametrize(
    "suite, eps_list, message",
    [
        # one value: a one-point slope fit
        ("pohozaev", "0.1", "at least two values"),
    ],
)
def test_short_eps_lists_are_usage_errors(tmp_path, capsys, suite, eps_list, message):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[{suite}]\neps_list = {eps_list}\n")
    assert run_cli([suite, "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_alpha_sweep_zero_gap_fails_the_tail_check(monkeypatch):
    from qcurv import harness
    from qcurv.bubble import MASS_LIMIT

    # a sweep whose first energy hits 16 pi^2 exactly has no log-log tail fit
    first = []
    quad = harness.mass_integral

    def mass(rb, L):
        first.append(L)
        return MASS_LIMIT if len(first) == 1 else quad(rb, L)

    monkeypatch.setattr(harness, "mass_integral", mass)
    checks, _ = cli.run_alpha_sweep(dict(cli.DEFAULTS["alpha-sweep"]), 0)
    tail = {c["name"]: c for c in checks}["deviation_faster_than_1_over_L"]
    assert np.isnan(tail["value"]) and tail["pass"] is False


def test_mainest_error_column_is_the_sample_doubling_change():
    _, rows = cli.run_mainest(dict(cli.DEFAULTS["mainest"]), 0)
    col = "sampling_error_estimate"
    core_col = "core_sampling_error_estimate"
    for row in rows:
        assert row[col] > 0.0
        assert row[col] != 0.05 * row["outer_norm"]
        assert 0.0 < row[core_col] != row[col]


def test_vrate_error_column_is_the_gap_to_the_fd_oracle():
    _, rows = cli.run_vrate(dict(cli.DEFAULTS["vrate"]), 0)
    L = cli.TORUS_L
    h = TorusSpectralField(
        L, cos={(0, 0, 0, 0): 2.0}, sin={(1, 0, 0, 0): 0.3, (0, 1, 0, 0): -0.2, (0, 0, 1, 1): 0.15}
    )
    bt, boff = tuned_source(h), TorusSpectralField(L, sin={(0, 0, 1, 0): 0.5})
    assert [r["eps"] for r in rows] == [1e-1, 1e-2, 1e-3]
    for r in rows:
        b = bt + r["eps"] ** (cli.TAU / 2.0) * boff
        norm = float(np.linalg.norm(vrate_balance(h, b)))
        fd = float(np.linalg.norm(cli._fd_balance(h, b, np.zeros(4))))
        assert r["balance_norm"] == norm
        assert r["error_estimate"] == abs(norm - fd) > 0.0


# config sizes that keep each suite fast; every other key keeps its default
_SMALL = {
    "bubble-check": {"n_points": 160},
    "kernel-check": {"n_points": 160},
    "pohozaev": {"n_r": 8, "n_u": 8, "n_phi": 8, "n_third": 1, "eps_list": "0.1,0.05"},
    "green-fit": {"n": 32, "n_pairs": 1},
    "represent": {"n_fields": 2},
    "cnc": {"n_jets": 1},
    "distance": {"n_pairs": 1, "n_nodes": 12},
}

# the CSV columns of each sweep suite
_CSV_HEADERS = {
    "mass": ["R", "mass", "exact", "error_estimate"],
    "pohozaev": ["parameter", "I0", "I1", "I2", "I3", "I4", "residual", "error_estimate",
                 "unmodeled_remainder", "n_interior", "n_boundary"],
    "green-fit": ["window_lo", "window_hi", "c_log", "rms_error_estimate"],
    "represent": ["field", "deviation", "roundoff_scale"],
    "distance": ["eps", "y_norm", "z_norm", "euclid", "geodesic", "ratio_gap", "fitted_c",
                 "error_estimate", "newton_iters", "grad_norm"],
    "longrange": ["name", "value", "target", "error_estimate", "gap_times_L"],
    "alpha-sweep": ["eps", "L", "alpha", "gap", "rel_gap", "error_estimate"],
    "mainest": ["eps", "outer_norm", "core_norm", "sampling_error_estimate",
                "core_sampling_error_estimate"],
    "vrate": ["eps", "balance_norm", "error_estimate"],
}


def _small_config(path, suites):
    path.write_text("".join(
        f"[{suite}]\n" + "".join(f"{k} = {v}\n" for k, v in _SMALL.get(suite, {}).items())
        for suite in suites
    ))


# the suite parameters that became constants: each is now an unknown key
_FIXED_KEYS = [
    ("mass", "h"), ("pohozaev", "tilt_amp"), ("green-fit", "l"), ("represent", "l"),
    ("longrange", "eps"), ("longrange", "h"), ("alpha-sweep", "h"), ("alpha-sweep", "amp"),
    ("mainest", "amp"), ("mainest", "tau"), ("vrate", "n"), ("vrate", "l"), ("vrate", "tau"),
    ("mass", "r"), ("mass", "n_r"), ("pohozaev", "r"), ("represent", "n"), ("represent", "n_modes"),
    ("distance", "eps_list"), ("alpha-sweep", "eps_list"), ("mainest", "eps_list"),
]


@pytest.mark.parametrize("suite, key", _FIXED_KEYS)
def test_fixed_parameter_is_usage_error(tmp_path, capsys, suite, key):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[{suite}]\n{key} = 1\n")
    assert run_cli([suite, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"unknown key '{key}' in section [{suite}]" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_light_suites_leave_sympy_unimported(tmp_path):
    # every suite at its defaults, in one process: none needs sympy
    code = (
        "import sys; from qcurv.cli import main\n"
        f"main(['all', '--out', {str(tmp_path)!r}, '--quiet'])\n"
        "print('sympy' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    for suite in cli.RUNNERS:
        assert (tmp_path / f"{suite}.json").exists()


class _ReadKeys(dict):
    """A config dict that records the keys read from it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("suite", list(cli.RUNNERS))
def test_every_config_key_is_read_by_its_runner(suite):
    # a config key that its runner never reads would be a knob that sets nothing
    p = _ReadKeys(cli.DEFAULTS[suite], **_SMALL.get(suite, {}))
    cli.RUNNERS[suite](p, 0)
    assert p.read == set(cli.DEFAULTS[suite])


def test_all_suites_leave_scipy_and_numpy_testing_unimported(tmp_path):
    cfg = tmp_path / "cfg.ini"
    _small_config(cfg, cli.RUNNERS)
    code = (
        "import sys; from qcurv.cli import main\n"
        f"main(['all', '--config', {str(cfg)!r}, '--out', {str(tmp_path)!r}, '--quiet'])\n"
        "print(sorted(m for m in ('scipy', 'numpy.testing') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    for suite in cli.RUNNERS:
        assert (tmp_path / f"{suite}.json").exists()


@pytest.mark.parametrize("suite", list(_CSV_HEADERS))
def test_csv_header_lists_the_suite_columns(tmp_path, suite):
    cfg = tmp_path / "cfg.ini"
    _small_config(cfg, [suite])
    out = tmp_path / "out"
    assert run_cli([suite, "--config", str(cfg), "--out", str(out), "--quiet"]) in (0, 1)
    with open(out / f"{suite}.csv", newline="") as fh:
        assert next(csv.reader(fh)) == _CSV_HEADERS[suite]


def test_pohozaev_rows_carry_the_unmodeled_remainder():
    small = dict(cli.DEFAULTS["pohozaev"], n_r=8, n_u=8, n_phi=8, eps_list="0.1,0.05", n_third=1)
    _, rows = cli.run_pohozaev(small, 0)
    col = "unmodeled_remainder"
    assert rows[0]["parameter"] == "flat" and rows[0][col] == 0.0
    # the cubic coefficients, and with them the bound, are linear in eps
    r1, r2 = rows[1][col], rows[2][col]
    assert r1 > 0.0 and abs(r1 - 2.0 * r2) <= 1e-12 * r1


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "qcurv.cli", "longrange", "--out", str(tmp_path / "o"), "--quiet"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


@pytest.mark.parametrize(
    "exc",
    [
        ChartError("point [2. 0. 0. 0.] outside domain"),
        DegenerateMetricError("metric eigenvalue 1.000e-12 below floor at [0. 0. 0. 0.]"),
        RuntimeError("geodesic solver did not converge"),
    ],
    ids=lambda exc: type(exc).__name__,
)
def test_numerical_failure_is_a_failed_check(tmp_path, monkeypatch, exc):
    def failing(p, seed):
        raise exc

    monkeypatch.setitem(cli.RUNNERS, "mass", failing)
    out = tmp_path / "o"
    assert run_cli(["mass", "--out", str(out), "--quiet"]) == 1
    summary = json.loads((out / "mass.json").read_text())
    assert summary["pass"] is False
    assert summary["checks"] == [
        {
            "name": type(exc).__name__,
            "value": str(exc),
            "bound": "no numerical failure",
            "pass": False,
        }
    ]


def test_unconverged_geodesic_is_a_failed_check(tmp_path, monkeypatch):
    monkeypatch.setattr(geodesic, "MAX_ITER", 1)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[distance]\nn_pairs = 1\nn_nodes = 12\n")
    out = tmp_path / "o"
    assert run_cli(["distance", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    (check,) = json.loads((out / "distance.json").read_text())["checks"]
    assert check["name"] == "RuntimeError" and not check["pass"]
    assert "after 1 Newton steps" in check["value"]


def test_distance_with_two_nodes_runs_and_with_one_is_a_usage_error(tmp_path, capsys):
    # two nodes: the straight segment, with no interior node for Newton to move
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[distance]\nn_pairs = 1\nn_nodes = 2\n")
    out = tmp_path / "o"
    assert run_cli(["distance", "--config", str(cfg), "--out", str(out), "--quiet"]) in (0, 1)
    rows = list(csv.DictReader((out / "distance.csv").read_text().splitlines()))
    assert len(rows) == 3 and all(r["newton_iters"] == "0" for r in rows)
    assert all(float(r["geodesic"]) > 0.0 for r in rows)
    cfg.write_text("[distance]\nn_pairs = 1\nn_nodes = 1\n")
    assert run_cli(["distance", "--config", str(cfg), "--out", str(tmp_path / "p"), "--quiet"]) == 2
    assert "at least 2 nodes" in capsys.readouterr().err


def test_quadrature_weight_defect_is_a_failed_check(tmp_path, monkeypatch):
    rule = quadrature.gauss_legendre
    monkeypatch.setattr(
        quadrature, "gauss_legendre", lambda *a: (rule(*a)[0], (1.0 + 1e-6) * rule(*a)[1])
    )
    out = tmp_path / "o"
    assert run_cli(["pohozaev", "--out", str(out), "--quiet"]) == 1
    (check,) = json.loads((out / "pohozaev.json").read_text())["checks"]
    assert check["name"] == "RuntimeError" and not check["pass"]
    assert "weights do not sum" in check["value"]


def test_plain_value_error_is_usage_error(tmp_path, monkeypatch, capsys):
    def failing(p, seed):
        raise ValueError("bad parameter")

    monkeypatch.setitem(cli.RUNNERS, "mass", failing)
    out = tmp_path / "o"
    assert run_cli(["mass", "--out", str(out)]) == 2
    assert "config error: bad parameter" in capsys.readouterr().err
    assert not (out / "mass.json").exists()


def test_radial_third_check_can_fail(monkeypatch):
    # small balls: the check under test does not depend on them
    small = dict(cli.DEFAULTS["pohozaev"], n_r=8, n_u=8, n_phi=8, eps_list="0.1,0.05", n_third=20)

    def third_check():
        checks, _ = cli.run_pohozaev(small, 0)
        return next(c for c in checks if c["name"] == "radial_third_vs_fd")

    assert third_check()["pass"]

    jet = RadialProfileField.jet

    def jet_without_delta_terms(self, pts, order):
        # the closed form's third order with its (f'' - f'/r) term dropped
        out = jet(self, pts, order)
        if order >= 3:
            pts = np.atleast_2d(np.asarray(pts, float))
            r = np.linalg.norm(pts, axis=1)
            f1, f2, f3 = self.profile.d1(r), self.profile.d2(r), self.profile.d3(r)
            n = pts / r[:, None]
            a = f3 - 3.0 * f2 / r + 3.0 * f1 / r**2
            out[3] = a[:, None, None, None] * np.einsum("ni,nm,nl->niml", n, n, n)
        return out

    monkeypatch.setattr(RadialProfileField, "jet", jet_without_delta_terms)
    check = third_check()
    assert not check["pass"]
    assert check["value"] > 1e-2


def test_representation_check_can_fail(monkeypatch):
    params = dict(cli.DEFAULTS["represent"], n_fields=2)
    (check,), _ = cli.run_represent(params, 0)
    assert check["name"] == "max_representation_deviation" and check["pass"]
    assert check["value"] < 1e-14

    multiplier = potential._multiplier
    monkeypatch.setattr(potential, "_multiplier", lambda N, L: 2.0 * multiplier(N, L))
    (check,), _ = cli.run_represent(params, 0)
    assert not check["pass"]
    assert check["value"] > 0.1
