import csv
import json
from pathlib import Path

import numpy as np
import pytest

from sitetransport.cli import main

DATA_DIR = Path(__file__).parent / "data"


def write_toy_data(path, seed=7, n_per_site=40, d=3, shift=0.6):
    rng = np.random.default_rng(seed)
    rows = ["site_id,z,y,x1,x2,x3"]
    for sid, mu in [("alpha", 0.0), ("beta", shift)]:
        for _ in range(n_per_site):
            x = [float(v) for v in rng.normal(mu, 1.0, d)]
            z = int(rng.random() < 0.5)
            y = float(0.5 * x[0] + z * (0.4 + 0.3 * x[1]) + rng.normal(0, 0.3))
            rows.append(f"{sid},{z},{y!r},{x[0]!r},{x[1]!r},{x[2]!r}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def write_toy_target(path, seed=8, m=60, d=3, mu=0.3):
    rng = np.random.default_rng(seed)
    rows = ["x1,x2,x3"]
    for _ in range(m):
        x = rng.normal(mu, 1.0, d)
        rows.append(",".join(repr(float(v)) for v in x))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


@pytest.fixture
def toy(tmp_path):
    data = tmp_path / "data.csv"
    target = tmp_path / "target.csv"
    write_toy_data(data)
    write_toy_target(target)
    return tmp_path, data, target


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestWeightsCommand:
    def test_huge_lambda_gives_unit_weights(self, toy, capsys):
        tmp, data, target = toy
        out = tmp / "w.csv"
        rc = main(
            [
                "weights",
                "--data", str(data),
                "--target", str(target),
                "--lambda", "1e6",
                "--out", str(out),
            ]
        )
        assert rc == 0
        rows = read_csv(out)
        gammas = np.array([float(r["gamma"]) for r in rows])
        np.testing.assert_allclose(gammas, 1.0, atol=1e-3)
        assert {r["site_id"] for r in rows} == {"alpha", "beta"}

    def test_kernel_mode_rejects_moments_target(self, toy, tmp_path, capsys):
        tmp, data, _ = toy
        moments = tmp_path / "moments.csv"
        moments.write_text("x1,x2,x3\n0.1,0.2,0.3\n", encoding="utf-8")
        rc = main(
            [
                "weights",
                "--data", str(data),
                "--target-moments", str(moments),
                "--mode", "kernel",
                "--out", str(tmp / "w.csv"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "ConfigError"
        assert "sample" in record["message"]

    def test_missing_treatment_column_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("site_id,y,x1\na,1.0,2.0\n", encoding="utf-8")
        rc = main(["weights", "--data", str(bad), "--out", str(tmp_path / "w.csv")])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "SchemaError"
        assert "'z'" in record["message"]

    def test_kernel_mode_with_sample_target(self, toy):
        tmp, data, target = toy
        out = tmp / "wk.csv"
        cfg = tmp / "cfg.yaml"
        cfg.write_text(
            "kernels:\n  cate: linear\n  prognostic: {kind: rbf, bandwidth: median}\n",
            encoding="utf-8",
        )
        rc = main(
            ["weights", "--data", str(data), "--target", str(target), "--mode", "kernel",
             "--lambda", "0.05", "--config", str(cfg), "--out", str(out)]
        )
        assert rc == 0
        gammas = np.array([float(r["gamma"]) for r in read_csv(out)])
        assert np.all(gammas >= 0.0)
        assert len(gammas) == 80

    def test_solver_line_reports_the_duality_gap(self, toy, capsys):
        tmp, data, target = toy
        for lam, dual in (("0.1", True), ("0", False)):
            rc = main(
                ["weights", "--data", str(data), "--target", str(target),
                 "--lambda", lam, "--out", str(tmp / "w.csv")]
            )
            assert rc == 0
            lines = [ln for ln in capsys.readouterr().out.splitlines() if "solver:" in ln]
            assert len(lines) == 2
            for line in lines:
                gap = line.rsplit("duality gap ", 1)[1]
                if dual:
                    assert abs(float(gap)) < 1e-9
                else:
                    assert gap == "n/a (ADMM)"

    @pytest.mark.parametrize(
        "setting",
        ["linsys: lowrank", "adaptive_rho: false", "adapt_interval: 25", "check_interval: 5", "early_checks: 8"],
        ids=lambda setting: setting.split(":")[0],
    )
    def test_removed_linsys_setting_is_rejected(self, toy, capsys, setting):
        tmp, data, target = toy
        cfg = tmp / "cfg.yaml"
        cfg.write_text(f"solver: {{{setting}}}\n", encoding="utf-8")
        rc = main(
            ["weights", "--data", str(data), "--target", str(target),
             "--config", str(cfg), "--out", str(tmp / "w.csv")]
        )
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "unknown solver setting" in record["message"]

    def test_single_site_selection(self, toy):
        tmp, data, target = toy
        out = tmp / "w.csv"
        rc = main(
            ["weights", "--data", str(data), "--target", str(target), "--site", "beta",
             "--lambda", "0.1", "--out", str(out)]
        )
        assert rc == 0
        rows = read_csv(out)
        assert {r["site_id"] for r in rows} == {"beta"}
        # row indices refer to the original file: beta occupies the second half
        assert min(int(r["row"]) for r in rows) >= 40


class TestTransportCommand:
    def test_self_target_heavy_regularization(self, toy):
        tmp, data, _ = toy
        out = tmp / "est.csv"
        rc = main(["transport", "--data", str(data), "--lambda", "1e8", "--out", str(out)])
        assert rc == 0
        for row in read_csv(out):
            naive = float(row["naive_estimate"])
            weighted = float(row["weighting_estimate"])
            assert abs(naive - weighted) <= 1e-3

    def test_unknown_estimator_in_config(self, toy, tmp_path, capsys):
        tmp, data, target = toy
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("estimators: [naive, nonsense]\n", encoding="utf-8")
        rc = main(
            ["transport", "--data", str(data), "--target", str(target),
             "--config", str(cfg), "--out", str(tmp / "est.csv")]
        )
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "nonsense" in record["message"]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("features: [1, 2]\n", "'features' must be a mapping"),
            ("kernels: rbf\n", "'kernels' must be a mapping"),
            ("estimators: naive\n", "'estimators' must be a list"),
            ("n_boot: 1\n", "n_boot must be 0"),
            ("n_boot: -3\n", "n_boot must be 0"),
            ("features: {interactions: 3}\n", "invalid transport config"),
            ("lambda: [1]\n", "invalid transport config"),
        ],
    )
    def test_config_shape_errors_are_json(self, toy, tmp_path, capsys, text, message):
        tmp, data, target = toy
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text, encoding="utf-8")
        rc = main(
            ["transport", "--data", str(data), "--target", str(target),
             "--config", str(cfg), "--out", str(tmp / "est.csv")]
        )
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ConfigError"
        assert message in record["message"]
        assert not (tmp / "est.csv").exists()

    def test_effects_round_trip_into_heterogeneity(self, toy, capsys):
        tmp, data, target = toy
        out = tmp / "est.csv"
        assert main(["transport", "--data", str(data), "--target", str(target),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        rc = main(["heterogeneity", "--effects", str(out), "--baseline", "naive",
                   "--method", "weighting"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "pseudo_r2" in text
        # numbers written by transport parse back exactly
        rows = read_csv(out)
        for row in rows:
            assert row["weighting_estimate"] == repr(float(row["weighting_estimate"]))

    def test_deterministic_given_seed(self, toy):
        tmp, data, target = toy
        out1, out2 = tmp / "e1.csv", tmp / "e2.csv"
        args = ["transport", "--data", str(data), "--target", str(target), "--seed", "3"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestHeterogeneityCommand:
    def test_derived_instance_report(self, tmp_path, capsys):
        eff = tmp_path / "eff.csv"
        eff.write_text(
            "site_id,estimate,std_error\ns1,0.2,0.1\ns2,0.0,0.1\ns3,0.4,0.1\n",
            encoding="utf-8",
        )
        rc = main(["heterogeneity", "--effects", str(eff)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0.1732" in out
        assert "q_at_zero" in out and "8" in out

    def test_identical_effects_give_na_marker(self, tmp_path, capsys):
        eff = tmp_path / "eff.csv"
        eff.write_text(
            "site_id,estimate,std_error\ns1,0.2,0.1\ns2,0.2,0.1\ns3,0.2,0.1\n",
            encoding="utf-8",
        )
        rc = main(["heterogeneity", "--effects", str(eff), "--transported", str(eff)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pseudo_r2: n/a" in out

    def test_two_table_r2_line(self, tmp_path, capsys):
        a = tmp_path / "untr.csv"
        b = tmp_path / "tr.csv"
        a.write_text(
            "site_id,estimate,std_error\ns1,0.2,0.1\ns2,0.0,0.1\ns3,0.4,0.1\n",
            encoding="utf-8",
        )
        b.write_text(
            "site_id,estimate,std_error\ns1,0.15,0.1\ns2,0.05,0.1\ns3,0.35,0.1\n",
            encoding="utf-8",
        )
        rc = main(["heterogeneity", "--effects", str(a), "--transported", str(b)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[untransported]" in out and "[transported]" in out
        assert "pseudo_r2: " in out


class TestSimulateCommand:
    def test_small_run_with_plot_data(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "sim:\n"
            "  n_sites: 4\n"
            "  n_experiments: 2\n"
            "  experiment_intercepts: [-0.2, 0.3]\n"
            "  site_size_range: [50, 90]\n"
            "  n_covariates: 4\n"
            "  reps: 2\n"
            "  lambda_grid: [0.001, 1.0, 1.0e8]\n"
            "  estimators: [naive, weighting]\n",
            encoding="utf-8",
        )
        table = tmp_path / "sim.csv"
        prefix = str(tmp_path / "curves")
        rc = main(["simulate", "--config", str(cfg), "--out", str(table),
                   "--emit-plot-data", prefix, "--seed", "5"])
        assert rc == 0
        rows = read_csv(table)
        assert {r["estimator"] for r in rows} == {"naive", "weighting"}
        for metric in ("rmse", "mean_abs_bias"):
            curve = read_csv(Path(f"{prefix}_{metric}.csv"))
            assert len(curve) == 3  # one row per lambda
            assert "weighting" in curve[0] and "naive" in curve[0]

    def test_deterministic_given_seed(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "sim:\n  n_sites: 2\n  n_experiments: 1\n  experiment_intercepts: [0.2]\n"
            "  site_size_range: [40, 60]\n  n_covariates: 3\n  reps: 1\n"
            "  lambda_grid: [1.0]\n  estimators: [naive, weighting]\n",
            encoding="utf-8",
        )
        t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(t1), "--seed", "1"]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(t2), "--seed", "1"]) == 0
        assert t1.read_bytes() == t2.read_bytes()

    def test_scalar_where_a_list_belongs_is_a_json_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("sim:\n  estimators: naive\n", encoding="utf-8")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {"error": "ConfigError", "message": "sim setting 'estimators' must be a list"}


class TestSweepCommand:
    def test_endpoints_behave(self, toy):
        tmp, data, target = toy
        out = tmp / "sweep.csv"
        rc = main(["sweep", "--data", str(data), "--target", str(target),
                   "--lambdas", "1e-8,0.03,1e6", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 3
        by_lam = {float(r["lambda"]): r for r in rows}
        assert float(by_lam[1e6]["ess"]) == pytest.approx(40.0, abs=1e-2)
        assert float(by_lam[1e-8]["cate_imbalance"]) < float(by_lam[1e6]["cate_imbalance"])


class TestDataRoundTrip:
    def test_csv_serialization_rebuilds_identical_sites(self, toy):
        from sitetransport import validate_dataset
        from sitetransport.cli import read_unit_table

        _, data, _ = toy
        sites = validate_dataset(read_unit_table(str(data)))
        # serialize back to CSV text and re-validate
        lines = ["site_id,z,y,x1,x2,x3"]
        for site in sites:
            for u in site.units:
                xs = ",".join(repr(v) for v in u.covariates)
                lines.append(f"{u.site_id},{u.treatment},{u.outcome!r},{xs}")
        path = data.parent / "roundtrip.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        again = validate_dataset(read_unit_table(str(path)))
        assert [s.units for s in again] == [s.units for s in sites]
        assert [s.propensity for s in again] == [s.propensity for s in sites]


class TestGoldenFile:
    def test_transport_reproduces_committed_table(self, tmp_path):
        data = DATA_DIR / "golden_data.csv"
        target = DATA_DIR / "golden_target.csv"
        expected = DATA_DIR / "golden_estimates.csv"
        out = tmp_path / "est.csv"
        rc = main(
            ["transport", "--data", str(data), "--target", str(target),
             "--lambda", "0.03", "--seed", "0", "--out", str(out)]
        )
        assert rc == 0
        assert out.read_bytes() == expected.read_bytes()

    def test_bootstrap_estimators_keep_their_values(self, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text(
            "estimators: [naive, weighting, ipw, outcome_model, doubly_robust]\nn_boot: 20\nseed: 1\n",
            encoding="utf-8",
        )
        out = tmp_path / "est.csv"
        rc = main(
            ["transport", "--data", str(DATA_DIR / "golden_data.csv"), "--target",
             str(DATA_DIR / "golden_target.csv"), "--config", str(config), "--out", str(out)]
        )
        assert rc == 0
        with open(out, newline="", encoding="utf-8") as fh:
            table = {row["site_id"]: row for row in csv.DictReader(fh)}
        # the point estimates are the pivoted-QR fits, bit for bit
        expected_estimates = {
            ("alpha", "outcome_model"): 0.7531873105672509,
            ("beta", "outcome_model"): 0.6412434180327565,
            ("alpha", "doubly_robust"): 0.7047443293013478,
            ("beta", "doubly_robust"): 0.6412930517317548,
        }
        # the bootstrap SEs of the replicate-by-replicate QR loop
        expected_errors = {
            ("alpha", "outcome_model"): 0.12038578314016656,
            ("beta", "outcome_model"): 0.1534894867044599,
            ("alpha", "doubly_robust"): 0.13413963847283236,
            ("beta", "doubly_robust"): 0.15568632662704074,
        }
        for (site, method), value in expected_estimates.items():
            assert float(table[site][f"{method}_estimate"]) == value
        for (site, method), value in expected_errors.items():
            assert float(table[site][f"{method}_std_error"]) == pytest.approx(value, rel=1e-10, abs=0.0)


class TestCsvFloatFormat:
    def test_numpy_floats_read_back(self, tmp_path):
        from sitetransport.cli import _parse_float, _read_rows, _write_csv

        path = str(tmp_path / "values.csv")
        values = [np.float64(1.5), np.float32(0.25), 0.1, np.float64(-3e-300)]
        _write_csv(path, ["a", "b", "c", "d"], [values])
        fields, rows = _read_rows(path)
        assert fields == ["a", "b", "c", "d"]
        assert [_parse_float(rows[0], c, path) for c in fields] == [float(v) for v in values]
