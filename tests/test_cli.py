import csv
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_sites_identical, site_records
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
        cfg = tmp / "kernels.yaml"
        cfg.write_text("kernels:\n  cate: linear\n  prognostic: rbf\n", encoding="utf-8")
        # linear mode at lambda > 0 runs dual Newton, kernel mode the active
        # set, and linear mode at lambda = 0 ADMM
        for lam, mode, dual in (("0.1", "linear", True), ("0.1", "kernel", True), ("0", "linear", False)):
            rc = main(
                ["weights", "--data", str(data), "--target", str(target), "--mode", mode,
                 "--config", str(cfg), "--lambda", lam, "--out", str(tmp / "w.csv")]
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
        [
            "linsys: lowrank", "adaptive_rho: false", "adapt_interval: 25", "check_interval: 5", "early_checks: 8",
            "rho: 0.1", "sigma: 1.0e-6", "alpha: 1.6", "eps_infeas: 1.0e-4",
        ],
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

    @pytest.mark.parametrize("target_args", [["--target", str(DATA_DIR / "golden_target.csv")], []])
    def test_one_site_is_its_rows_of_the_all_sites_run(self, tmp_path, target_args):
        # the target and the pooled map come from every site, with --site or not
        outputs = {}
        for name, site_args in (("all", []), ("beta", ["--site", "beta"])):
            out = tmp_path / f"{name}.csv"
            rc = main(["weights", "--data", str(DATA_DIR / "golden_data.csv"), *target_args, *site_args,
                       "--out", str(out)])
            assert rc == 0
            outputs[name] = out.read_text(encoding="utf-8").splitlines()
        header, *rows = outputs["all"]
        assert outputs["beta"] == [header] + [row for row in rows if row.startswith("beta,")]
        assert len(outputs["beta"]) == 1 + 35

    def test_one_site_solves_only_that_site(self, tmp_path, monkeypatch):
        from sitetransport import balance

        calls = []
        solve_qp = balance.solve_qp

        def counted(*args, **kwargs):
            calls.append(None)
            return solve_qp(*args, **kwargs)

        monkeypatch.setattr(balance, "solve_qp", counted)
        rc = main(["weights", "--data", str(DATA_DIR / "golden_data.csv"), "--target",
                   str(DATA_DIR / "golden_target.csv"), "--site", "beta", "--out", str(tmp_path / "w.csv")])
        assert rc == 0
        assert len(calls) == 1

    @staticmethod
    def fail_solves_of(monkeypatch, failing):
        """Makes the weights command's solve raise SolverFailedError at the sites ``failing``."""
        from sitetransport import cli
        from sitetransport.errors import SolverFailedError

        solve_weights = cli.solve_weights

        def solve(prob, *args):
            if prob.site.site_id in failing:
                raise SolverFailedError("no solution")
            return solve_weights(prob, *args)

        monkeypatch.setattr(cli, "solve_weights", solve)

    def test_a_failed_site_is_named_and_left_out(self, tmp_path, monkeypatch, capsys):
        golden = ["weights", "--data", str(DATA_DIR / "golden_data.csv"),
                  "--target", str(DATA_DIR / "golden_target.csv")]
        everyone, out = tmp_path / "all.csv", tmp_path / "w.csv"
        assert main([*golden, "--out", str(everyone)]) == 0
        capsys.readouterr()
        self.fail_solves_of(monkeypatch, {"beta"})
        assert main([*golden, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert [ln for ln in captured.err.splitlines() if "FAILED" in ln] == [
            "site beta: FAILED SolverFailedError: no solution"
        ]
        assert "site beta:" not in captured.out
        header, *rows = everyone.read_text(encoding="utf-8").splitlines()
        written = out.read_text(encoding="utf-8").splitlines()
        assert written == [header] + [row for row in rows if row.startswith("alpha,")]
        assert len(rows) == 70 and len(written) == 1 + 35

    def test_no_site_solved_exits_1_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        self.fail_solves_of(monkeypatch, {"alpha", "beta"})
        out = tmp_path / "w.csv"
        rc = main(["weights", "--data", str(DATA_DIR / "golden_data.csv"), "--target",
                   str(DATA_DIR / "golden_target.csv"), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err[:2] == [f"site {site}: FAILED SolverFailedError: no solution" for site in ("alpha", "beta")]
        assert json.loads(err[-1]) == {"error": "SiteTransportError", "message": "no site produced weights"}
        assert not out.exists()

    @pytest.mark.parametrize("command", ["weights", "sweep"])
    def test_seed_is_not_a_flag_of_a_command_that_draws_nothing(self, tmp_path, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--data", str(DATA_DIR / "golden_data.csv"), "--seed", "1",
                  "--out", str(tmp_path / "out.csv")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_bandwidth_on_a_linear_kernel_is_an_error(self, toy, tmp_path, capsys):
        tmp, data, target = toy
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "kernels: {cate: {kind: linear, bandwidth: 0.5}, prognostic: {kind: linear, bandwidth: 50}}\n",
            encoding="utf-8",
        )
        out = tmp / "w.csv"
        rc = main(["weights", "--data", str(data), "--target", str(target), "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ConfigError"
        assert "a linear kernel takes no bandwidth" in record["message"]
        assert not out.exists()

    def test_infinite_bandwidth_is_an_error(self, tmp_path, capsys):
        # an infinite bandwidth used to give an all-ones RBF Gram and exit 0
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("kernels:\n  prognostic: {kind: rbf, bandwidth: .inf}\n", encoding="utf-8")
        out = tmp_path / "w.csv"
        rc = main(["weights", "--data", str(DATA_DIR / "golden_data.csv"), "--target", str(DATA_DIR / "golden_target.csv"),
                   "--mode", "kernel", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ConfigError"
        assert "bandwidth must be a finite positive number, got inf" in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["weights", "sweep"])
    @pytest.mark.parametrize(
        "kernels, line",
        [
            ("cate: linear\n  prognostic: rbf", "cate linear; prognostic rbf, bandwidth {bw:.6g} (median heuristic)"),
            ("cate: {kind: rbf, bandwidth: 1.5}\n  prognostic: rbf",
             "cate rbf, bandwidth 1.5 (given); prognostic rbf, bandwidth {bw:.6g} (median heuristic)"),
        ],
        ids=["median", "given-and-median"],
    )
    def test_kernel_mode_prints_the_run_kernels_once(self, toy, capsys, command, kernels, line):
        from sitetransport import resolve_bandwidth

        tmp, data, target = toy
        cfg = tmp / "cfg.yaml"
        cfg.write_text(f"kernels:\n  {kernels}\n", encoding="utf-8")
        args = [command, "--data", str(data), "--target", str(target), "--config", str(cfg), "--out", str(tmp / "o.csv")]
        assert main(args + ["--mode", "kernel"]) == 0
        out = capsys.readouterr().out.splitlines()
        pooled = np.vstack([np.loadtxt(path, delimiter=",", skiprows=1, usecols=cols) for path, cols in
                            ((data, (3, 4, 5)), (target, (0, 1, 2)))])
        assert [ln for ln in out if ln.startswith("kernels:")] == ["kernels: " + line.format(bw=resolve_bandwidth(pooled))]
        assert out[0].startswith("kernels:")
        assert main(args) == 0  # linear mode names no kernel
        assert not any(ln.startswith("kernels:") for ln in capsys.readouterr().out.splitlines())


def write_golden_moments(path, columns=("x1", "x2", "x3"), x1_scale=1.0):
    """The golden target's means of ``columns`` (covariates or products
    such as ``x1*x2``), with x1 multiplied by ``x1_scale``."""
    X = np.loadtxt(DATA_DIR / "golden_target.csv", delimiter=",", skiprows=1)
    X[:, 0] *= x1_scale
    means = [np.prod([X[:, int(v[1:]) - 1] for v in name.split("*")], axis=0).mean() for name in columns]
    path.write_text(",".join(columns) + "\n" + ",".join(repr(float(m)) for m in means) + "\n", encoding="utf-8")


def write_scaled_golden_data(path, x1_scale):
    rows = read_csv(DATA_DIR / "golden_data.csv")
    lines = [",".join(rows[0])]
    for row in rows:
        row["x1"] = repr(float(row["x1"]) * x1_scale)
        lines.append(",".join(row.values()))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def golden_weights(tmp_path, target_args, data=DATA_DIR / "golden_data.csv", config=""):
    cfg, out = tmp_path / "run.yaml", tmp_path / "weights.csv"
    cfg.write_text(config, encoding="utf-8")
    rc = main(["weights", "--data", str(data), *target_args, "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    return np.array([float(r["gamma"]) for r in read_csv(out)])


class TestTargetMoments:
    def test_weights_do_not_move_when_a_covariate_is_rescaled(self, tmp_path):
        plain, scaled = tmp_path / "m.csv", tmp_path / "m100.csv"
        write_golden_moments(plain)
        write_golden_moments(scaled, x1_scale=100.0)
        data100 = tmp_path / "data100.csv"
        write_scaled_golden_data(data100, 100.0)
        gamma = golden_weights(tmp_path, ["--target-moments", str(plain)])
        gamma100 = golden_weights(tmp_path, ["--target-moments", str(scaled)], data=data100)
        np.testing.assert_allclose(gamma100, gamma, rtol=1e-9, atol=1e-9 * gamma.max())

    def test_columns_are_matched_by_name(self, tmp_path):
        ordered, permuted = tmp_path / "m.csv", tmp_path / "p.csv"
        write_golden_moments(ordered)
        write_golden_moments(permuted, columns=("x3", "x1", "x2"))
        gamma = golden_weights(tmp_path, ["--target-moments", str(ordered)])
        np.testing.assert_array_equal(golden_weights(tmp_path, ["--target-moments", str(permuted)]), gamma)

    def test_moments_of_a_sample_give_its_weights(self, tmp_path):
        # without standardization the pooled map has unit scales whatever
        # the target, so the sample's raw means define the sample's program
        config = "features:\n  standardize: false\n  interactions: [[0, 1]]\n"
        moments = tmp_path / "m.csv"
        write_golden_moments(moments, columns=("x1*x2", "x3", "x2", "x1"))
        from_sample = golden_weights(tmp_path, ["--target", str(DATA_DIR / "golden_target.csv")], config=config)
        from_moments = golden_weights(tmp_path, ["--target-moments", str(moments)], config=config)
        np.testing.assert_allclose(from_moments, from_sample, rtol=1e-9, atol=1e-9 * from_sample.max())

    @pytest.mark.parametrize(
        "header, values, named",
        [("x1,x3", "0.1,0.3", "'x2'"), ("x1,x2,x3,x4", "0.1,0.2,0.3,0.4", "'x4'"),
         ("x1,x2,x2", "0.1,0.2,0.3", "'x2'"), ("x1,x2,x3", "0.1,0.2", "one data row")],
    )
    def test_missing_or_unknown_column_is_a_schema_error(self, tmp_path, capsys, header, values, named):
        moments = tmp_path / "m.csv"
        moments.write_text(f"{header}\n{values}\n", encoding="utf-8")
        rc = main(["weights", "--data", str(DATA_DIR / "golden_data.csv"), "--target-moments", str(moments),
                   "--out", str(tmp_path / "w.csv")])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "SchemaError"
        assert named in record["message"]
        assert not (tmp_path / "w.csv").exists()


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

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("transport", "estimator: [naive]\n", "unknown top-level setting(s) ['estimator']"),
            ("weights", "lamda: 0.1\n", "unknown top-level setting(s) ['lamda']"),
            ("sweep", "features: {standardise: false}\n", "unknown features setting(s) ['standardise']"),
            ("weights", "kernels: {cate: linear, prognosis: rbf}\n", "unknown kernels setting(s) ['prognosis']"),
            ("transport", "kernels:\n  prognostic: {kind: rbf, bandwith: 0.5}\n",
             "unknown kernel setting(s) ['bandwith']"),
            ("sweep", "solver: {eps_abs: 1.0e-6, max_iters: 10}\n", "unknown solver setting(s) ['max_iters']"),
            ("simulate", "sim: {n_site: 3}\n", "unknown sim setting(s) ['n_site']"),
        ],
    )
    def test_unknown_keys_are_errors_at_every_level(self, toy, tmp_path, capsys, command, text, message):
        tmp, data, target = toy
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text, encoding="utf-8")
        inputs = [] if command == "simulate" else ["--data", str(data), "--target", str(target)]
        rc = main([command, *inputs, "--config", str(cfg), "--out", str(tmp / "out.csv")])
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ConfigError"
        assert message in record["message"]
        assert not (tmp / "out.csv").exists()

    def test_readme_example_config_loads_for_every_subcommand(self, tmp_path):
        from argparse import Namespace

        from sitetransport.cli import _load_yaml, _sim_config, _transport_config

        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("flags override the file:\n\n```yaml\n", 1)[1].split("```", 1)[0]
        cfg_path = tmp_path / "readme.yaml"
        cfg_path.write_text(block, encoding="utf-8")
        cfg = _load_yaml(str(cfg_path))
        config = _transport_config(cfg, Namespace())
        assert config.interactions == ((0, 3), (1, 2)) and config.prognostic_kernel.kind == "rbf"
        assert _sim_config(cfg, Namespace()).reps == 120

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

    def test_estimate_notes_are_printed_to_stderr(self, tmp_path, capsys):
        # x4 repeats x1, so each arm's outcome-model design drops a column
        for name in ("golden_data", "golden_target"):
            header, *rows = (DATA_DIR / f"{name}.csv").read_text(encoding="utf-8").splitlines()
            x1 = header.split(",").index("x1")
            text = "\n".join([header + ",x4"] + [f"{row},{row.split(',')[x1]}" for row in rows]) + "\n"
            (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("estimators: [naive, outcome_model]\nn_boot: 0\n", encoding="utf-8")
        out = tmp_path / "est.csv"
        rc = main(["transport", "--data", str(tmp_path / "golden_data.csv"), "--target",
                   str(tmp_path / "golden_target.csv"), "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        err = capsys.readouterr().err.splitlines()
        note = "outcome_model note: collinear design columns dropped: treated (4,), control (4,)"
        assert [line for line in err if "note:" in line] == [f"site {site} {note}" for site in ("alpha", "beta")]
        assert all(row["errors"] == "" for row in read_csv(out))

    def test_a_failed_estimator_leaves_empty_cells_that_heterogeneity_drops(self, toy, capsys):
        # gamma's arms of 3 and 5 units cannot fit the map's 3 features
        tmp, data, target = toy
        rng = np.random.default_rng(3)
        gamma = [f"gamma,{z},{rng.normal()!r},{x[0]!r},{x[1]!r},{x[2]!r}"
                 for z, x in zip([1, 1, 1, 0, 0, 0, 0, 0], rng.normal(size=(8, 3)).tolist())]
        data.write_text(data.read_text(encoding="utf-8") + "\n".join(gamma) + "\n", encoding="utf-8")
        cfg, out = tmp / "cfg.yaml", tmp / "est.csv"
        cfg.write_text("estimators: [naive, outcome_model]\nn_boot: 20\n", encoding="utf-8")
        rc = main(["transport", "--data", str(data), "--target", str(target), "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        error = "outcome_model: InsufficientArmError: arms of size (3, 5) cannot support 3 features"
        assert f"site gamma {error}" in capsys.readouterr().err.splitlines()
        rows = {row["site_id"]: row for row in read_csv(out)}
        cells = ("estimate", "std_error", "ess_treated", "ess_control")
        assert [rows["gamma"][f"outcome_model_{c}"] for c in cells] == ["", "", "", ""]
        assert rows["gamma"]["errors"] == error and rows["gamma"]["naive_estimate"] != ""
        assert all(row["errors"] == "" and row["outcome_model_std_error"] != "" for row in (rows["alpha"], rows["beta"]))
        rc, text, _ = heterogeneity_report(capsys, "--effects", out, "--method", "outcome_model")
        assert rc == 0
        assert text.splitlines()[:3] == [f"dropped site gamma: {error}", "[effects]", "  sites:             2"]

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


def write_effects(path, sites, estimates):
    rows = ["site_id,estimate,std_error"]
    rows += [f"{site},{est},0.1" for site, est in zip(sites, estimates)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def heterogeneity_report(capsys, *args):
    rc = main(["heterogeneity", *map(str, args)])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestHeterogeneityPairing:
    UNTRANSPORTED = {"s1": 0.2, "s2": 0.0, "s3": 0.4, "s4": -0.3, "s5": 0.5, "s6": 0.1, "s7": -0.1, "s8": 0.6}
    TRANSPORTED = {"s1": 0.15, "s2": 0.05, "s3": 0.2, "s4": -0.1, "s5": 0.3, "s6": 0.1, "s7": 0.0, "s8": 0.35}

    def test_wide_table_profiles_only_the_sites_with_both_effects(self, tmp_path, capsys):
        # s3's weighting cells are empty, as transport writes a failed estimator
        rows = ["site_id,naive_estimate,naive_std_error,weighting_estimate,weighting_std_error,errors"]
        for site, est in self.UNTRANSPORTED.items():
            if site == "s3":
                rows.append(f"{site},{est},0.1,,,weighting: SolverFailedError: no solution")
            else:
                rows.append(f"{site},{est},0.1,{self.TRANSPORTED[site]},0.1,")
        wide = tmp_path / "wide.csv"
        wide.write_text("\n".join(rows) + "\n", encoding="utf-8")
        rc, out, _ = heterogeneity_report(capsys, "--effects", wide, "--baseline", "naive", "--method", "weighting")
        assert rc == 0
        assert out.splitlines()[0] == "dropped site s3: weighting: SolverFailedError: no solution"
        assert out.count("  sites:             7") == 2
        # the same report as the two-table form on the seven paired sites
        paired = [site for site in self.UNTRANSPORTED if site != "s3"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_effects(a, paired, [self.UNTRANSPORTED[site] for site in paired])
        write_effects(b, paired, [self.TRANSPORTED[site] for site in paired])
        rc, two_table, _ = heterogeneity_report(capsys, "--effects", a, "--transported", b)
        assert rc == 0
        assert out.splitlines()[1:] == two_table.splitlines()

    def test_two_tables_are_joined_on_site_id(self, tmp_path, capsys):
        sites = list(self.UNTRANSPORTED)
        a, b, b_shuffled = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "b_shuffled.csv"
        write_effects(a, sites, self.UNTRANSPORTED.values())
        kept = [site for site in sites if site != "s5"]
        write_effects(b, kept, [self.TRANSPORTED[site] for site in kept])
        shuffled = kept[::-1]
        write_effects(b_shuffled, shuffled, [self.TRANSPORTED[site] for site in shuffled])
        rc, ordered, _ = heterogeneity_report(capsys, "--effects", a, "--transported", b)
        assert rc == 0
        rc, out, _ = heterogeneity_report(capsys, "--effects", a, "--transported", b_shuffled)
        assert rc == 0
        assert out.splitlines()[0] == f"dropped site s5: not in {b_shuffled}"
        assert out.splitlines()[1:] == ordered.splitlines()[1:]
        assert out.count("  sites:             7") == 2

    def test_single_paired_site_exits_2(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_effects(a, ["s1", "s2"], [0.2, 0.0])
        write_effects(b, ["s2", "s3"], [0.1, 0.3])
        rc, out, err = heterogeneity_report(capsys, "--effects", a, "--transported", b)
        assert rc == 2
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "ConfigError" and "1 site(s)" in record["message"]

    @pytest.mark.parametrize(
        "bad, message",
        [("s3,nan,0.1", "the estimate of site s3 is nan"), ("s4,0.2,inf", "the standard error of site s4 is inf")],
    )
    def test_non_finite_effect_names_its_site_and_exits_1(self, tmp_path, capsys, bad, message):
        # s1 is not in the transported table, so s3 is the second paired site
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_effects(a, ["s1", "s2", "s3", "s4"], [0.2, 0.0, 0.4, -0.3])
        rows = ["site_id,estimate,std_error", "s2,0.05,0.1", "s3,0.2,0.1", "s4,-0.1,0.1"]
        rows = [bad if row.startswith(bad[:3]) else row for row in rows]
        b.write_text("\n".join(rows) + "\n", encoding="utf-8")
        rc, out, err = heterogeneity_report(capsys, "--effects", a, "--transported", b)
        assert rc == 1 and out == ""
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "ValueError"
        assert record["message"] == f"{b}: {message}; it must be finite"

    @pytest.mark.parametrize("baseline", [[], ["--baseline", "naive"]], ids=["alone", "against-naive"])
    def test_a_zero_standard_error_names_its_site_and_exits_1(self, tmp_path, capsys, baseline):
        # without the bootstrap the outcome model's standard errors are 0.0
        cfg, out = tmp_path / "cfg.yaml", tmp_path / "est.csv"
        cfg.write_text("estimators: [naive, weighting, outcome_model]\nn_boot: 0\n", encoding="utf-8")
        assert main(["transport", "--data", str(DATA_DIR / "golden_data.csv"), "--target",
                     str(DATA_DIR / "golden_target.csv"), "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        rc, text, err = heterogeneity_report(capsys, "--effects", out, *baseline, "--method", "outcome_model")
        assert rc == 1 and text == ""
        record = json.loads(err.strip().splitlines()[-1])
        assert record == {"error": "ValueError",
                          "message": f"{out}: the standard error of site alpha is 0.0; it must be positive"}

    @pytest.mark.parametrize(
        "flags",
        [["--method2", "weighting"], ["--baseline", "naive", "--method", "weighting", "--transported", "{eff}"]],
    )
    def test_flags_of_the_other_form_exit_2(self, tmp_path, capsys, flags):
        eff = tmp_path / "eff.csv"
        write_effects(eff, ["s1", "s2", "s3"], [0.2, 0.0, 0.4])
        rc, out, err = heterogeneity_report(capsys, "--effects", eff, *[f.format(eff=eff) for f in flags])
        assert rc == 2
        assert json.loads(err.strip().splitlines()[-1])["error"] == "ConfigError"
        assert out == ""


class TestOutsideInputErrors:
    @pytest.mark.parametrize(
        "args, files, error, message",
        [
            (["heterogeneity", "--effects", "{eff}"], {"eff": "site_id,estimate,std_error\n"},
             "SchemaError", "{eff}: no data rows"),
            (["heterogeneity", "--effects", "{eff}"], {"eff": "site_id,est,se\ns1,0.1,0.2\n"}, "SchemaError",
             "{eff}: expected columns 'estimate' and 'std_error', or pass --method to select columns of a transport table"),
            (["heterogeneity", "--effects", "{eff}", "--method", "ipw"], {"eff": "site_id,ipw_estimate\ns1,0.1\n"},
             "SchemaError", "{eff}: missing required column 'ipw_std_error'"),
            (["heterogeneity", "--effects", "{eff}"],
             {"eff": "site_id,estimate,std_error\ns1,0.1,0.2\ns2,0.1,0.2\ns1,0.3,0.2\n"},
             "SchemaError", "{eff}: site 's1' appears in more than one row"),
            (["weights", "--data", "{data}", "--site", "gamma", "--out", "{out}"], {},
             "SchemaError", "site 'gamma' not found in {data}"),
            (["weights", "--data", "{data}", "--config", "{cfg}", "--out", "{out}"], {"cfg": "- lambda\n- 0.1\n"},
             "ConfigError", "{cfg}: config must be a mapping"),
            (["weights", "--data", "{data}", "--config", "{cfg}", "--out", "{out}"], {"cfg": "kernels: {cate: 3}\n"},
             "ConfigError", "cannot parse kernel spec 3"),
        ],
        ids=["no-rows", "no-effect-columns", "no-method-column", "site-twice", "unknown-site", "config-list",
             "kernel-number"],
    )
    def test_a_bad_input_file_names_what_is_wrong(self, toy, capsys, args, files, error, message):
        tmp, data, _ = toy
        paths = {"data": str(data), "out": str(tmp / "out.csv")}
        for name, text in files.items():
            paths[name] = str(tmp / f"{name}.txt")
            (tmp / f"{name}.txt").write_text(text, encoding="utf-8")
        rc = main([arg.format(**paths) for arg in args])
        assert rc == (2 if error == "ConfigError" else 1)
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {"error": error, "message": message.format(**paths)}
        assert not (tmp / "out.csv").exists()


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


class TestLambdaValues:
    @pytest.mark.parametrize(
        "command, flags, config, named",
        [
            ("weights", ["--lambda", "nan"], "", "got nan"),
            ("transport", ["--lambda", "inf"], "", "got inf"),
            ("transport", [], "lambda: .nan\n", "got nan"),
            ("sweep", ["--lambdas", "1e-3,nan"], "", "got 'nan'"),
            ("sweep", ["--lambdas", "1e-3,abc"], "", "got 'abc'"),
            ("sweep", ["--lambdas", "1e-3,-1"], "", "got '-1'"),
            ("sweep", [], "lambda_grid: [0.1, .nan]\n", "got nan"),
            ("sweep", [], "lambda_grid: [0.1, abc]\n", "got 'abc'"),
            ("simulate", [], "sim: {lambda_grid: [0.1, .inf]}\n", "got inf"),
            ("simulate", [], "sim: {lambda_grid: [0.1, abc]}\n", "'abc'"),
        ],
    )
    def test_bad_lambda_exits_2_and_names_it(self, toy, tmp_path, capsys, command, flags, config, named):
        tmp, data, target = toy
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(config, encoding="utf-8")
        inputs = [] if command == "simulate" else ["--data", str(data), "--target", str(target)]
        rc = main([command, *inputs, *flags, "--config", str(cfg), "--out", str(tmp / "out.csv")])
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ConfigError"
        assert named in record["message"] and "program data" not in record["message"]
        assert not (tmp / "out.csv").exists()


# a simulation small enough to finish at once where a bad setting slips through
SMALL_SIM = "n_sites: 2, n_experiments: 1, experiment_intercepts: [0.2], n_covariates: 3, estimators: [naive]"


class TestSettingValues:
    @pytest.mark.parametrize(
        "command, config, named",
        [
            ("transport", "solver: {eps_abs: .nan}\n", "eps_abs must be a finite nonnegative number, got nan"),
            ("transport", "solver: {max_iter: 0}\n", "max_iter must be at least 1, got 0"),
            ("weights", "solver: {max_iter: 2.5}\n", "max_iter must be a whole number, got 2.5"),
            ("sweep", "solver: {eps_rel: -1.0e-6}\n", "eps_rel must be a finite nonnegative number"),
            ("transport", "n_boot: 2.7\n", "n_boot must be a whole number, got 2.7"),
            ("transport", "seed: 1.5\n", "seed must be a whole number, got 1.5"),
            ("weights", 'features: {standardize: "false"}\n', "standardize must be true or false, got 'false'"),
            ("simulate", f"sim: {{{SMALL_SIM}, reps: 2.5}}\n", "reps must be a whole number, got 2.5"),
            ("simulate", f"sim: {{{SMALL_SIM}, reps: 1, site_size_range: [50, 20]}}\n",
             "site_size_range must be two sizes, low <= high, got (50, 20)"),
            ("simulate", f"sim: {{{SMALL_SIM}, reps: 1, noise_sd: .nan}}\n",
             "noise_sd must be a finite positive number, got nan"),
            ("simulate", f"sim: {{{SMALL_SIM}, reps: 1}}\nseed: 1.5\n", "seed must be a whole number, got 1.5"),
            ("simulate", f"sim: {{{SMALL_SIM}, reps: 1}}\nsolver: {{max_iter: 0}}\n", "max_iter must be at least 1"),
        ],
    )
    def test_a_setting_it_cannot_honour_exits_2_and_names_it(self, toy, tmp_path, capsys, command, config, named):
        # each used to exit 0 with every solve failed or a count truncated,
        # exit 1 from deep in the run, or end in a TypeError traceback
        tmp, data, target = toy
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(config, encoding="utf-8")
        inputs = [] if command == "simulate" else ["--data", str(data), "--target", str(target)]
        rc = main([command, *inputs, "--config", str(cfg), "--out", str(tmp / "out.csv")])
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ConfigError"
        assert named in record["message"]
        assert not (tmp / "out.csv").exists()


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
        # serialize back to CSV text, each unit at its input row, and re-validate
        rows = {}
        for site in sites:
            for row, u in zip(site.row_indices.tolist(), site_records(site)):
                xs = ",".join(repr(v) for v in u.covariates)
                rows[row] = f"{u.site_id},{u.treatment},{u.outcome!r},{xs}"
        path = data.parent / "roundtrip.csv"
        lines = ["site_id,z,y,x1,x2,x3"] + [rows[i] for i in range(len(rows))]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        again = validate_dataset(read_unit_table(str(path)))
        assert len(again) == len(sites)
        for got, want in zip(again, sites):
            assert_sites_identical(got, want)


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
