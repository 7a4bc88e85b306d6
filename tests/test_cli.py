import dataclasses
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import creditbounds
from creditbounds import cli, risk, simulate
from creditbounds.cli import _config_hash, main
from creditbounds.portfolio import load_scenario, scenario_from_dict
from creditbounds.profiles import MODELS
from creditbounds.risk import model_runs
from creditbounds.simulate import exact_loss_distribution


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _as_json(run: risk.RunResult) -> dict:
    """A run record as meta.json should hold it: every field by name, tuples
    as lists, a float that is not a finite number as None."""
    def value(v):
        if isinstance(v, tuple):
            return [value(x) for x in v]
        return None if isinstance(v, float) and not math.isfinite(v) else v

    return {f.name: value(getattr(run, f.name)) for f in dataclasses.fields(run)}


@pytest.fixture
def reports(monkeypatch):
    """The RiskReport of each command in the test, in call order."""
    made = []
    monkeypatch.setattr(cli, "risk_report", lambda s: made.append(risk.risk_report(s)) or made[-1])
    return made


@pytest.fixture
def small_scenario(fixtures_dir, tmp_path):
    doc = json.loads((fixtures_dir / "scenario1.json").read_text())
    doc["mc"]["samples"] = 50_000
    path = tmp_path / "scenario_small.json"
    path.write_text(json.dumps(doc))
    return path


class TestBounds:
    def test_writes_report_files(self, small_scenario, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, _ = run(capsys, "bounds", "--scenario", str(small_scenario), "--out", str(out))
        assert code == 0
        assert (out / "report.csv").exists()
        assert (out / "report.txt").exists()
        meta = json.loads((out / "meta.json").read_text())
        assert meta["samples"] == 50_000
        assert meta["seed"] == 7
        assert "config_hash" in meta and "wall_time_s" in meta
        assert meta["environment"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        }
        assert "Gaussian" in stdout

    def test_byte_identical_reports_across_workers(self, small_scenario, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(capsys, "bounds", "--scenario", str(small_scenario), "--out", str(out1), "--workers", "1")
        run(capsys, "bounds", "--scenario", str(small_scenario), "--out", str(out2), "--workers", "8")
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()

    def test_override_flags_land_in_meta(self, small_scenario, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, _ = run(
            capsys, "bounds", "--scenario", str(small_scenario), "--out", str(out),
            "--samples", "20000", "--seed", "123",
        )
        assert code == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["samples"] == 20_000 and meta["seed"] == 123

    def test_config_hash_covers_copulas_not_workers(self):
        doc = {
            "label": "x",
            "portfolio": {"kind": "homogeneous", "n": 3, "pd": 0.05,
                          "lgd": {"kind": "deterministic", "value": 0.5}},
            "models": ["single_point"],
            "point_copulas": {"family": "gaussian", "param": 0.3},
            "mc": {"samples": 100, "seed": 1, "workers": 1},
        }
        base = _config_hash(scenario_from_dict(doc))
        other_copula = json.loads(json.dumps(doc))
        other_copula["point_copulas"]["param"] = 0.4
        assert _config_hash(scenario_from_dict(other_copula)) != base
        more_workers = json.loads(json.dumps(doc))
        more_workers["mc"]["workers"] = 4
        assert _config_hash(scenario_from_dict(more_workers)) == base

    def test_meta_lists_the_warnings_that_fired(self, fixtures_dir, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.warns(UserWarning) as shown:
            code, _, _ = run(
                capsys, "bounds", "--scenario", str(fixtures_dir / "idb_scenario1.json"),
                "--out", str(out), "--samples", "20000", "--workers", "1",
            )
        assert code == 0
        fired = json.loads((out / "meta.json").read_text())["warnings"]
        messages = [w["message"] for w in fired]
        clamp = [m for m in messages if "Venezuela" in m and "clamped" in m]
        repair = [m for m in messages if "greatest convex minorant" in m]
        assert clamp and repair
        assert all(w["category"] == "UserWarning" and w["count"] >= 1 for w in fired)
        # every recorded warning is still shown to the caller
        assert sorted(messages) == sorted({str(w.message) for w in shown})

    def test_meta_counts_pooled_groups_per_run(self, fixtures_dir, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.warns(UserWarning):
            code, _, _ = run(
                capsys, "bounds", "--scenario", str(fixtures_dir / "idb_scenario1.json"),
                "--out", str(out), "--samples", "20000", "--workers", "1",
            )
        assert code == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["workers"] == 1  # the flag overrides the fixture's 4
        runs = [f"{m} {side}" for m in meta["models"] for side in ("lower", "upper")]
        pooled = meta["runs"]
        # every IDB borrower differs in pd or exposure: 26 singleton groups
        assert [(g["name"], g["groups"], g["singleton_groups"]) for g in pooled] == [
            (run, 26, 26) for run in ["independent", "comonotone", *runs]
        ]
        # the benchmark runs decide no singleton by cell bounds; the model runs
        # evaluate the pd of a small share of their draws
        assert [g["exact_pd_share"] for g in pooled[:2]] == [None, None]
        assert all(0.0 < g["exact_pd_share"] < 0.05 for g in pooled[2:])
        assert "groups" not in (out / "report.csv").read_text()

    def test_meta_times_every_run(self, small_scenario, tmp_path, capsys, reports):
        out = tmp_path / "out"
        code, _, _ = run(capsys, "bounds", "--scenario", str(small_scenario), "--out", str(out))
        assert code == 0
        meta = json.loads((out / "meta.json").read_text())
        times = meta["runs"]
        # one record per run, in run order
        assert [t["name"] for t in times] == [r.name for r in reports[0].runs]
        assert [t["name"] for t in times[:2]] == ["independent", "comonotone"] and len(times) == 10
        for t in times:
            assert t["simulate_s"] > 0.0 and t["avar_s"] >= 0.0
        assert sum(t["simulate_s"] + t["avar_s"] for t in times) <= meta["wall_time_s"] + 0.01
        # meta.json writes the records as they are, field for field
        assert times == [_as_json(r) for r in reports[0].runs]

    @pytest.mark.filterwarnings("ignore:alpha")
    def test_meta_is_strict_json_without_standard_errors(self, fixtures_dir, tmp_path, capsys, reports):
        # fewer samples than standard-error batches: no SE and no margin is a number
        out = tmp_path / "out"
        code, _, _ = run(capsys, "bounds", "--scenario", str(fixtures_dir / "scenario1.json"),
                         "--out", str(out), "--samples", "10")
        assert code == 0

        def reject(token):
            raise ValueError(f"meta.json holds {token}, which is not JSON")

        meta = json.loads((out / "meta.json").read_text(), parse_constant=reject)
        ses = [se for r in meta["runs"] for se in r["se"]]
        assert len(ses) == 20 and all(se is None for se in ses)
        assert meta["runs"] == [_as_json(r) for r in reports[0].runs]
        assert all(m["margin_se"] is None for m in meta["chain_margins"])

    def test_meta_gives_every_chain_link_its_margin(self, small_scenario, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, _ = run(capsys, "bounds", "--scenario", str(small_scenario), "--out", str(out))
        assert code == 0
        meta = json.loads((out / "meta.json").read_text())
        margins = meta["chain_margins"]
        links = ["independent<=lower", "lower<=upper", "upper<=comonotone"]
        assert [(m["model"], m["alpha"], m["link"]) for m in margins] == [
            (model, alpha, link) for model in meta["models"] for alpha in meta["alphas"]
            for link in links
        ]
        header, *lines = (out / "report.csv").read_text().splitlines()
        assert "margin" not in header
        columns = header.split(",")
        for i, line in enumerate(lines):
            row = dict(zip(columns, line.split(",")))
            values = [float(row[f"avar_{side}"]) for side in ("indep", "lower", "upper", "comon")]
            ses = [float(row[f"se_{side}"]) for side in ("indep", "lower", "upper", "comon")]
            for k in range(3):
                expected = (values[k + 1] - values[k]) / math.hypot(ses[k], ses[k + 1])
                assert margins[3 * i + k]["margin_se"] == expected

    def test_oracle_and_bounds_draw_the_same_sample(self, fixtures_dir, tmp_path, capsys, monkeypatch):
        doc = json.loads((fixtures_dir / "oracle_example.json").read_text())
        doc["portfolio"]["corr_interval"] = [0.15, 0.25]
        doc["models"] = ["independent", "gaussian", "clayton"]
        doc["mc"] = {"samples": 20_000, "seed": 3, "workers": 1}
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps(doc))
        drawn = {}

        def recording(module, command):
            real = module.simulate_losses

            def simulate(profiles, portfolio, samples, seed, workers=1, run=0, tail=None):
                sample = real(profiles, portfolio, samples, seed, workers, run, tail)
                key = tuple(p.group_key() for p in profiles)
                # a copy: the report reorders the draws of a sample it summarises
                drawn.setdefault(command, {})[run] = (key, seed, samples, sample.losses.copy())
                return sample

            monkeypatch.setattr(module, "simulate_losses", simulate)

        recording(cli, "oracle")
        recording(risk, "bounds")
        assert run(capsys, "oracle", "--scenario", str(sc), "--out", str(tmp_path / "o"))[0] == 0
        assert run(
            capsys, "bounds", "--scenario", str(sc), "--out", str(tmp_path / "b"), "--workers", "2"
        )[0] == 0
        # the degenerate independent family has no upper run; gaussian and
        # clayton, lower and upper, follow under the same run ids, after the
        # benchmarks (runs 0 and 1), which only bounds draws
        assert sorted(drawn["oracle"]) == [2, 4, 5, 6, 7]
        assert sorted(drawn["bounds"]) == [0, 1, 2, 4, 5, 6, 7]
        # oracle draws each sample whole; bounds keeps the largest draws of
        # each chunk of it, in chunk order
        chunks = simulate._chunk_bounds(20_000)
        for run_id, (key, seed, samples, losses) in drawn["oracle"].items():
            b_key, b_seed, b_samples, b_losses = drawn["bounds"][run_id]
            assert (key, seed, samples) == (b_key, b_seed, b_samples)
            tops = [np.sort(losses[lo:hi])[-simulate._keep(hi - lo, 0.95):] for lo, hi in chunks]
            assert b_losses.size == sum(t.size for t in tops) < samples / 4
            at = np.cumsum([0] + [t.size for t in tops])
            for top, a, b in zip(tops, at[:-1], at[1:]):
                assert np.array_equal(np.sort(b_losses[a:b]), top)

    def test_invalid_samples_exit_one(self, fixtures_dir, tmp_path, capsys):
        doc = json.loads((fixtures_dir / "scenario1.json").read_text())
        doc["mc"]["samples"] = 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "bounds", "--scenario", str(bad), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "samples" in err


class TestCurves:
    def test_curve_files_and_boundaries(self, small_scenario, tmp_path, capsys):
        out = tmp_path / "curves"
        code, _, _ = run(capsys, "curves", "--scenario", str(small_scenario), "--out", str(out))
        assert code == 0
        for model in ("gaussian", "clayton", "survival_clayton", "gauss_clayton"):
            path = out / f"curves_{model}.csv"
            assert path.exists()
            rows = path.read_text().strip().splitlines()
            header = rows[0].split(",")
            assert header == ["borrower", "s", "g_lower", "g_point", "g_upper",
                              "pd_lower", "pd_point", "pd_upper"]
            first = [float(x) for x in rows[1].split(",")[1:]]
            last = [float(x) for x in rows[-1].split(",")[1:]]
            assert first[1] == first[2] == first[3] == 0.0
            for g_end in last[1:4]:
                assert g_end == pytest.approx(0.02, abs=1e-9)

    def test_gaussian_curves_are_ordered(self, small_scenario, tmp_path, capsys):
        out = tmp_path / "curves"
        run(capsys, "curves", "--scenario", str(small_scenario), "--out", str(out))
        data = np.loadtxt(out / "curves_gaussian.csv", delimiter=",", skiprows=1,
                          usecols=(1, 2, 3, 4))
        g_lower, g_point, g_upper = data[:, 1], data[:, 2], data[:, 3]
        assert np.all(g_upper <= g_point + 1e-12)
        assert np.all(g_point <= g_lower + 1e-12)

    def test_extreme_dependence_curves(self, fixtures_dir, tmp_path, capsys):
        doc = json.loads((fixtures_dir / "scenario1.json").read_text())
        doc["models"] = ["independent", "comonotone"]
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps(doc))
        out = tmp_path / "curves"
        code, _, _ = run(capsys, "curves", "--scenario", str(sc), "--out", str(out))
        assert code == 0
        ind = np.loadtxt(out / "curves_independent.csv", delimiter=",", skiprows=1,
                         usecols=(1, 2))
        assert np.allclose(ind[:, 1], 0.02 * ind[:, 0], atol=1e-12)
        com = np.loadtxt(out / "curves_comonotone.csv", delimiter=",", skiprows=1,
                         usecols=(1, 2))
        assert np.allclose(com[:, 1], np.maximum(0.0, com[:, 0] - 0.98), atol=1e-12)

    @pytest.mark.parametrize("flag", ["--samples", "--seed", "--workers"])
    def test_mc_overrides_are_a_usage_error(self, small_scenario, tmp_path, capsys, flag):
        # curves draws nothing, so it takes no Monte Carlo override
        with pytest.raises(SystemExit) as exited:
            main(["curves", "--scenario", str(small_scenario), "--out", str(tmp_path / "c"), flag, "10"])
        assert exited.value.code == 2
        assert f"unrecognized arguments: {flag} 10" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("model", sorted(MODELS))
def test_every_registered_model_runs(model, tmp_path, capsys):
    doc = {
        "label": "small pool, every model",
        "portfolio": {"kind": "homogeneous", "n": 20, "pd": 0.05,
                      "lgd": {"kind": "deterministic", "value": 0.5},
                      "corr_interval": [0.12, 0.24]},
        "models": [model],
        "point_copulas": {"family": "clayton", "param": 0.5},
        "mc": {"samples": 20_000, "seed": 3, "workers": 1},
    }
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps(doc))
    code, stdout, _ = run(capsys, "bounds", "--scenario", str(sc), "--out", str(tmp_path / "b"))
    assert code == 0
    assert MODELS[model].label in stdout
    code, _, _ = run(capsys, "curves", "--scenario", str(sc), "--out", str(tmp_path / "c"))
    assert code == 0
    # one row per grid point: all 20 borrowers share one key
    curves = np.loadtxt(tmp_path / "c" / f"curves_{model}.csv", delimiter=",", skiprows=1,
                        usecols=range(1, 8))
    assert curves.shape == (1001, 7)
    assert np.allclose(curves[-1, 1:4], 0.05, atol=1e-9)
    g_lower, g_point, g_upper = curves[:, 1], curves[:, 2], curves[:, 3]
    assert np.all(g_upper <= g_point + 1e-12) and np.all(g_point <= g_lower + 1e-12)


class TestValidate:
    def test_idb_prints_all_borrowers(self, fixtures_dir, capsys):
        code, out, _ = run(capsys, "validate", "--scenario", str(fixtures_dir / "idb_scenario1.json"))
        assert code == 0
        assert "26 borrowers" in out
        assert "Argentina" in out and "Venezuela" in out

    def test_homogeneous_prints_resolved_correlation(self, fixtures_dir, capsys):
        code, out, _ = run(capsys, "validate", "--scenario", str(fixtures_dir / "scenario1.json"))
        assert code == 0
        assert "0.1641" in out  # interpolated asset correlation for pd = 2%

    def test_missing_column_named(self, tmp_path, capsys):
        (tmp_path / "p.csv").write_text("name,amount\nA,1\n")
        doc = {
            "label": "x",
            "portfolio": {"kind": "csv", "path": "p.csv",
                          "lgd": {"kind": "deterministic", "value": 0.1}},
            "model": "gaussian",
            "mc": {"samples": 10, "seed": 1},
        }
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", "--scenario", str(sc))
        assert code == 1
        assert "'pd'" in err


class TestOracle:
    def test_demo_scenario_passes(self, fixtures_dir, tmp_path, capsys):
        out = tmp_path / "oracle"
        code, stdout, _ = run(
            capsys, "oracle", "--scenario", str(fixtures_dir / "oracle_example.json"),
            "--out", str(out),
        )
        assert code == 0
        report = (out / "oracle_report.csv").read_text().splitlines()
        assert report[0] == "model,side,samples,sup_distance,dkw_epsilon,pass"
        assert all(line.endswith("True") for line in report[1:])
        exact = np.loadtxt(out / "exact_gaussian_lower.csv", delimiter=",", skiprows=1)
        assert exact[:, 1].sum() == pytest.approx(1.0, abs=1e-12)
        meta = json.loads((out / "meta.json").read_text())
        scenario = scenario_from_dict(
            json.loads((fixtures_dir / "oracle_example.json").read_text())
        )
        assert meta["config_hash"] == _config_hash(scenario, quad_nodes=256)
        assert meta["environment"]["numpy"] == np.__version__
        assert meta["warnings"] == []
        assert meta["quad_nodes"] == 256
        [row] = meta["exact"]
        assert (row["model"], row["side"], row["support"]) == ("gaussian", "lower", 9)
        assert row["weight_sum_error"] == pytest.approx(abs(exact[:, 1].sum() - 1.0), abs=1e-15)
        assert row["weight_sum_error"] <= 1e-12
        for key in ("exact_s", "mc_s", "write_s"):
            assert isinstance(row[key], float) and row[key] >= 0.0

    def test_config_hash_covers_quad_nodes(self, fixtures_dir, tmp_path, capsys):
        hashes = []
        for nodes in ("64", "256"):
            out = tmp_path / nodes
            code, _, _ = run(
                capsys, "oracle", "--scenario", str(fixtures_dir / "oracle_example.json"),
                "--out", str(out), "--samples", "2000", "--quad-nodes", nodes,
            )
            assert code == 0
            hashes.append(json.loads((out / "meta.json").read_text())["config_hash"])
        assert hashes[0] != hashes[1]

    @staticmethod
    def _exact_distributions(scenario_path):
        """(file name, exact distribution) in the order the oracle writes them."""
        scenario = load_scenario(scenario_path)
        for model, side, _, profiles in model_runs(scenario):
            yield f"exact_{model}_{side}.csv", exact_loss_distribution(profiles, scenario.borrowers)

    def _assert_exact_csv_bytes(self, scenario_path, out):
        written = sorted(p.name for p in out.glob("exact_*.csv"))
        expected = list(self._exact_distributions(scenario_path))
        assert written == sorted(name for name, _ in expected)
        for name, exact in expected:
            reference = "loss,probability\n" + "".join(
                f"{float(x)!r},{float(p)!r}\n" for x, p in zip(exact.losses, exact.weights)
            )
            assert (out / name).read_bytes() == reference.encode("utf-8"), name
        return [exact for _, exact in expected]

    def test_exact_csvs_with_a_zero_exposure_and_unequal_supports(self, tmp_path, capsys):
        (tmp_path / "p.csv").write_text(
            "name,amount,pd,lgd_kind,lgd_mean,lgd_vol,corr_lo,corr_hi\n"
            "a,1.0,0.05,deterministic,0.6,,0.1,0.2\n"
            "z,0,0.1,deterministic,0.5,,0.15,0.25\n"
            "c,2.5,0.02,deterministic,0.4,,0.12,0.3\n"
        )
        doc = {
            "label": "zero exposure",
            "portfolio": {"kind": "csv", "path": "p.csv"},
            "models": ["gaussian", "comonotone", "independent", "clayton"],
            "mc": {"samples": 20_000, "seed": 3, "workers": 1},
        }
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "oracle", "--scenario", str(sc), "--out", str(tmp_path / "o"))
        assert code == 0
        exacts = self._assert_exact_csv_bytes(sc, tmp_path / "o")
        # gaussian lower, gaussian upper, comonotone, independent, clayton lower and upper:
        # the zero exposure adds no atom, the comonotone law has 3 atoms and every
        # other law 4, and laws with equal support sizes share their losses
        assert [e.size for e in exacts] == [4, 4, 3, 4, 4, 4]
        assert np.array_equal(exacts[3].losses, exacts[0].losses)
        assert np.array_equal(exacts[4].losses, exacts[3].losses)

    def test_exact_csv_with_a_partial_last_block(self, tmp_path, capsys):
        # 11 distinct exposures and one pooled pair: 2^11 * 3 support points
        amounts = np.random.default_rng(4).uniform(0.5, 2.0, 11).tolist() + [1.25, 1.25]
        rows = ["name,amount,pd,lgd_kind,lgd_mean,lgd_vol,corr_lo,corr_hi"]
        rows += [f"b{i},{a!r},0.1,deterministic,0.5,,0.15,0.25" for i, a in enumerate(amounts)]
        (tmp_path / "p.csv").write_text("\n".join(rows) + "\n")
        doc = {
            "label": "more than one block",
            "portfolio": {"kind": "csv", "path": "p.csv"},
            "models": ["gaussian"],
            "mc": {"samples": 2_000, "seed": 5, "workers": 1},
        }
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "oracle", "--scenario", str(sc), "--out", str(tmp_path / "o"))
        assert code == 0
        [lower, upper] = self._assert_exact_csv_bytes(sc, tmp_path / "o")
        assert lower.size == upper.size == 3 * 2**11
        assert lower.size > cli._CSV_BLOCK_ROWS and lower.size % cli._CSV_BLOCK_ROWS

    def test_exact_csv_writer_on_edge_values(self, tmp_path):
        crafted = [0.0, 5e-324, np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e-4, 1.0),
                   0.9999999999999999, 1.0, 1.0000000000000002]
        n = cli._CSV_BLOCK_ROWS + 37  # one block and a partial one
        weights = np.resize(np.array(crafted), n)
        losses = np.linspace(0.0, 1.0, n)
        cli._write_exact_csv(tmp_path / "e.csv", losses, weights)
        reference = "loss,probability\n" + "".join(
            f"{x!r},{p!r}\n" for x, p in zip(losses.tolist(), weights.tolist())
        )
        assert (tmp_path / "e.csv").read_bytes() == reference.encode("utf-8")

    def test_large_portfolio_rejected(self, fixtures_dir, tmp_path, capsys):
        # 25 homogeneous borrowers pool into one group: 26 support points
        doc = json.loads((fixtures_dir / "oracle_example.json").read_text())
        doc["portfolio"]["n"] = 25
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "oracle", "--scenario", str(sc), "--out", str(tmp_path / "o"))
        assert code == 0
        report = (tmp_path / "o" / "oracle_report.csv").read_text().splitlines()
        assert len(report) == 2 and report[1].endswith("True")
        doc["models"] = ["independent", "comonotone"]
        sc.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "oracle", "--scenario", str(sc), "--out", str(tmp_path / "x"))
        assert code == 0
        # 21 distinct exposures stay 21 groups: 2^21 support points
        rows = ["name,amount,pd,lgd_kind,lgd_mean,lgd_vol,corr_lo,corr_hi"]
        rows += [f"b{i},{i + 1},0.1,deterministic,1.0,,0.15,0.25" for i in range(21)]
        (tmp_path / "p.csv").write_text("\n".join(rows) + "\n")
        doc["portfolio"] = {"kind": "csv", "path": "p.csv"}
        doc["models"] = ["gaussian"]
        sc.write_text(json.dumps(doc))
        code, _, err = run(capsys, "oracle", "--scenario", str(sc), "--out", str(tmp_path / "y"))
        assert code == 1
        assert "support" in err and str(2**21) in err

    def test_commands_leave_scipy_unloaded(self, fixtures_dir, tmp_path):
        # a fresh process: the normal CDF and quantile, the exact path's
        # binomial pmf and its quadrature rule are the package's own, for
        # pooled groups (the 8-borrower example pools into one group) and for
        # singletons alike; nor does any command load numpy.ma (a first
        # np.unique call would: 1.6 MB and some 36 ms)
        rows = ["name,amount,pd,lgd_kind,lgd_mean,lgd_vol,corr_lo,corr_hi"]
        rows += [f"b{i},{2**i},0.1,deterministic,1.0,,0.15,0.25" for i in range(3)]
        (tmp_path / "p.csv").write_text("\n".join(rows) + "\n")
        doc = json.loads((fixtures_dir / "oracle_example.json").read_text())
        doc["portfolio"] = {"kind": "csv", "path": "p.csv"}
        singletons = tmp_path / "singletons.json"
        singletons.write_text(json.dumps(doc))
        code = (
            "import contextlib, io, sys\n"
            "from creditbounds import cli\n"
            "status = []\n"
            "for i, scenario in enumerate(sys.argv[1:3]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        status.append(cli.main(['oracle', '--scenario', scenario,\n"
            "                                '--out', f'{sys.argv[3]}/{i}', '--samples', '2000']))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status.append(cli.main(['bounds', '--scenario', sys.argv[1],\n"
            "                            '--out', f'{sys.argv[3]}/b', '--samples', '2000']))\n"
            "    status.append(cli.main(['curves', '--scenario', sys.argv[1],\n"
            "                            '--out', f'{sys.argv[3]}/c']))\n"
            "    status.append(cli.main(['validate', '--scenario', sys.argv[1]]))\n"
            "print(*status, any(m.split('.')[0] == 'scipy' for m in sys.modules),\n"
            "      'numpy.ma' in sys.modules)\n"
        )
        src = str(Path(creditbounds.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code, str(fixtures_dir / "oracle_example.json"), str(singletons),
             str(tmp_path / "o")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=True,
            timeout=60,
        )
        assert out.stdout.split() == ["0", "0", "0", "0", "0", "False", "False"]
        # three singletons with amounts 1, 2 and 4: 2^3 distinct losses
        exact = json.loads((tmp_path / "o" / "1" / "meta.json").read_text())["exact"]
        assert [row["support"] for row in exact] == [8, 8]

    def test_large_independent_support_rejected(self, fixtures_dir, tmp_path, capsys):
        # 26 borrowers pool into 26 groups: 2^26 support points
        doc = json.loads((fixtures_dir / "idb_scenario1.json").read_text())
        doc["portfolio"]["path"] = str(fixtures_dir / "idb_portfolio.csv")
        doc["models"] = ["independent"]
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "oracle", "--scenario", str(sc), "--out", str(tmp_path / "o"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert "support" in err and str(2**26) in err
        assert peak < 2**20  # far below one 2^20-point support array

    def test_quad_nodes_above_the_maximum_rejected(self, fixtures_dir, tmp_path, capsys, monkeypatch):
        def refuse(n):
            raise AssertionError(f"leggauss({n}) reached")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
        code, _, err = run(
            capsys, "oracle", "--scenario", str(fixtures_dir / "oracle_example.json"),
            "--out", str(tmp_path / "o"), "--quad-nodes", "100000",
        )
        assert code == 1
        assert "quad_nodes" in err and "100000" in err

    def test_stochastic_lgd_rejected(self, fixtures_dir, tmp_path, capsys):
        doc = json.loads((fixtures_dir / "oracle_example.json").read_text())
        doc["portfolio"]["lgd"] = {"kind": "beta", "mean": 0.1, "vol": 0.15}
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps(doc))
        code, _, err = run(capsys, "oracle", "--scenario", str(sc), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "deterministic" in err


@pytest.mark.parametrize(
    "patch, field",
    [
        ({"alphas": 0.95}, "alphas"),
        ({"alphas": ["x"]}, "alphas"),
        ({"models": 5}, "models"),
        ({"mc": {"samples": None, "seed": 7}}, "mc.samples"),
        ({"portfolio": {"irb_bounds": 5}}, "irb_bounds"),
        ({"portfolio": {"corr_interval": 0.2}}, "corr_interval"),
        ({"point_copulas": 3}, "point_copulas"),
        ({"mc": {"samples": True, "seed": 7}}, "mc.samples"),
        ({"mc": {"samples": 2.5, "seed": 7}}, "mc.samples"),
        ({"mc": {"samples": 100, "seed": 7.5}}, "mc.seed"),
        ({"mc": {"samples": 100, "seed": 7, "workers": 1.5}}, "mc.workers"),
        ({"portfolio": {"n": 2.5}}, "portfolio.n"),
        ({"portfolio": {"pd": False}}, "portfolio.pd"),
        ({"label": [1]}, "label"),
        ({"models": [5]}, "models"),
        ({"portfolio": {"lgd": {"kind": "deterministic", "value": True}}}, "portfolio.lgd"),
        ({"point_copulas": {"family": "gaussian", "param": True}}, "param"),
    ],
)
def test_wrong_typed_field_is_named(patch, field, fixtures_dir, tmp_path, capsys):
    doc = json.loads((fixtures_dir / "oracle_example.json").read_text())
    for key, value in patch.items():
        if key == "portfolio":
            doc[key].update(value)
        else:
            doc[key] = value
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", "--scenario", str(sc))
    assert code == 1
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize("command", ["validate", "bounds"])
@pytest.mark.parametrize("vol", [1e-200, 1e-160])
def test_tiny_beta_vol_exits_one(command, vol, fixtures_dir, tmp_path, capsys):
    doc = json.loads((fixtures_dir / "scenario2.json").read_text())
    doc["portfolio"]["lgd"]["vol"] = vol
    doc["mc"]["samples"] = 1000
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps(doc))
    out = ["--out", str(tmp_path / "o")] if command == "bounds" else []
    code, _, err = run(capsys, command, "--scenario", str(sc), *out)
    assert code == 1
    assert err.startswith("error: portfolio.lgd: vol = ")
    assert not (tmp_path / "o" / "report.csv").exists()


def test_integral_float_counts_are_accepted(fixtures_dir, tmp_path, capsys):
    doc = json.loads((fixtures_dir / "oracle_example.json").read_text())
    doc["mc"] = {"samples": 1e6, "seed": 7.0, "workers": 2.0}
    doc["portfolio"]["n"] = 8.0
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", "--scenario", str(sc))
    assert code == 0
    assert "8 borrowers" in out and "samples=1000000 seed=7 workers=2" in out


def test_missing_scenario_file(tmp_path, capsys):
    code, _, err = run(capsys, "validate", "--scenario", str(tmp_path / "none.json"))
    assert code == 1
    assert "not found" in err
