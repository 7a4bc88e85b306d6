import copy
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import creditbounds
from creditbounds.portfolio import (
    BetaLgd,
    Borrower,
    ConfigError,
    DeterministicLgd,
    beta_params,
    homogeneous_portfolio,
    irb_correlation,
    load_portfolio_csv,
    load_scenario,
    save_portfolio_csv,
    scenario_from_dict,
)


class TestIrbCorrelation:
    def test_benchmark_point(self):
        rho = irb_correlation(0.02, 0.12, 0.24)
        assert rho == pytest.approx(0.1644, abs=5e-4)
        # closed form written out
        w = (1 - math.exp(-50 * 0.02)) / (1 - math.exp(-50))
        assert rho == pytest.approx(0.12 * w + 0.24 * (1 - w), abs=1e-15)

    def test_limits(self):
        assert irb_correlation(1e-12, 0.12, 0.24) == pytest.approx(0.24, abs=1e-9)
        assert irb_correlation(1 - 1e-12, 0.12, 0.24) == pytest.approx(0.12, abs=1e-9)

    def test_decreasing_and_bounded(self):
        pds = np.linspace(0.001, 0.999, 200)
        vals = np.array([irb_correlation(p, 0.11, 0.27) for p in pds])
        # strictly decreasing until the exponential term underflows, then flat
        assert np.all(np.diff(vals) <= 0)
        assert np.all(np.diff(vals[pds < 0.6]) < 0)
        assert np.all((vals >= 0.11) & (vals < 0.27))

    def test_domain(self):
        with pytest.raises(ValueError):
            irb_correlation(0.0)
        with pytest.raises(ValueError):
            irb_correlation(0.02, 0.24, 0.12)


class TestBetaParams:
    def test_published_parameterization(self):
        a, b = beta_params(0.1, 0.15)
        assert (a, b) == (pytest.approx(0.3, abs=1e-12), pytest.approx(2.7, abs=1e-12))

    def test_uniform_special_case(self):
        a, b = beta_params(0.5, math.sqrt(1.0 / 12.0))
        assert (a, b) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_hand_value(self):
        assert beta_params(0.2, 0.1) == (pytest.approx(3.0), pytest.approx(12.0))

    def test_moments_round_trip(self):
        for mean, vol in [(0.1, 0.15), (0.3, 0.2), (0.7, 0.1)]:
            a, b = beta_params(mean, vol)
            assert a / (a + b) == pytest.approx(mean, abs=1e-12)
            var = a * b / ((a + b) ** 2 * (a + b + 1))
            assert var == pytest.approx(vol * vol, abs=1e-12)

    def test_infeasible(self):
        with pytest.raises(ValueError):
            beta_params(0.1, 0.31)
        with pytest.raises(ValueError):
            BetaLgd(0.1, 0.5)

    # vol^2 underflows to zero, or to a subnormal that makes the shapes infinite
    @pytest.mark.parametrize("vol", [1e-200, 1e-160])
    def test_tiny_vol_rejected_naming_vol(self, vol, tmp_path):
        with pytest.raises(ValueError, match=f"vol = {vol!r} gives beta shapes .* finite and positive"):
            beta_params(0.5, vol)
        doc = {"portfolio": {"kind": "homogeneous", "n": 2, "pd": 0.1,
                             "lgd": {"kind": "beta", "mean": 0.5, "vol": vol}},
               "model": "gaussian", "mc": {"samples": 10, "seed": 1}}
        with pytest.raises(ConfigError, match=r"portfolio\.lgd: vol = "):
            scenario_from_dict(doc)
        p = tmp_path / "p.csv"
        p.write_text(f"name,amount,pd,lgd_kind,lgd_mean,lgd_vol\nA,1,0.05,beta,0.5,{vol!r}\n")
        with pytest.raises(ConfigError, match="row 2, column 'lgd_vol': vol = "):
            load_portfolio_csv(p)

    def test_smallest_vols_that_give_finite_shapes_are_accepted(self):
        a, b = beta_params(0.1, 1e-10)
        assert a == pytest.approx(9e17) and b == pytest.approx(8.1e18)


class TestHomogeneousPortfolio:
    def test_scenario_one_portfolio(self):
        port = homogeneous_portfolio(1000, 0.02, DeterministicLgd(0.1))
        assert len(port) == 1000
        assert all(b.exposure_weight == pytest.approx(1e-3) for b in port)
        assert all(b.corr_interval == (0.12, 0.24) for b in port)
        assert port[0].corr_point == pytest.approx(0.1644, abs=5e-4)

    def test_single_borrower(self):
        port = homogeneous_portfolio(1, 0.5, DeterministicLgd(1.0))
        assert len(port) == 1
        assert port[0].exposure_weight == 1.0

    def test_theta_interval_derived(self):
        b = homogeneous_portfolio(1, 0.02, DeterministicLgd(0.1))[0]
        assert b.theta_interval[0] == pytest.approx(0.5813, abs=1e-3)
        assert b.theta_interval[1] == pytest.approx(0.9668, abs=1e-3)
        assert b.theta_point == pytest.approx(0.7232, abs=1e-3)


class TestCsvLoading:
    def test_idb_fixture(self, fixtures_dir):
        with pytest.warns(UserWarning, match="clamped"):
            port = load_portfolio_csv(
                fixtures_dir / "idb_portfolio.csv", irb_bounds=(0.11, 0.27), corr_shift=0.05
            )
        assert len(port) == 26
        by_name = {b.name: b for b in port}
        assert by_name["Argentina"].exposure_weight == pytest.approx(0.1433, abs=5e-4)
        assert by_name["Haiti"].exposure_weight == 0.0
        assert by_name["Venezuela"].pd == pytest.approx(1.0 - 1e-9, abs=1e-15)
        assert sum(b.exposure_weight for b in port) == pytest.approx(1.0, abs=1e-9)
        # spot check the dependence-parameter interval against the published row
        assert by_name["Bahamas"].corr_interval[0] == pytest.approx(0.1371, abs=5e-5)
        assert by_name["Bahamas"].theta_interval[1] == pytest.approx(0.96, abs=0.01)

    def test_round_trip(self, fixtures_dir, tmp_path):
        with pytest.warns(UserWarning):
            port = load_portfolio_csv(
                fixtures_dir / "idb_portfolio.csv", irb_bounds=(0.11, 0.27), corr_shift=0.05
            )
        out = tmp_path / "copy.csv"
        save_portfolio_csv(out, port)
        again = load_portfolio_csv(out, irb_bounds=(0.11, 0.27), corr_shift=0.05)
        assert again == port

    def test_explicit_corr_columns_override(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text(
            "name,amount,pd,lgd_kind,lgd_mean,lgd_vol,corr_lo,corr_hi\n"
            "A,10,0.05,deterministic,0.4,,0.1,0.3\n"
        )
        b = load_portfolio_csv(p)[0]
        assert b.corr_interval == (0.1, 0.3)
        assert b.lgd == DeterministicLgd(0.4)

    def test_byte_order_mark_is_not_part_of_the_first_column(self, tmp_path):
        # spreadsheet programs save "CSV UTF-8" with a byte-order mark
        text = "name,amount,pd,lgd_kind,lgd_mean,lgd_vol,corr_lo,corr_hi\nA,10,0.05,deterministic,0.4,,0.1,0.3\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_portfolio_csv(marked) == load_portfolio_csv(plain)

    def test_diagnostics_name_row_and_column(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("name,amount,pd,lgd_kind,lgd_mean\nA,ten,0.05,deterministic,0.4\n")
        with pytest.raises(ConfigError, match="row 2, column 'amount'"):
            load_portfolio_csv(p)
        p.write_text("name,amount,pd,lgd_kind,lgd_mean\nA,10,0,deterministic,0.4\n")
        with pytest.raises(ConfigError, match="pd must be positive"):
            load_portfolio_csv(p)
        p.write_text("name,amount,pd,lgd_kind,lgd_mean\nA,-4,0.05,deterministic,0.4\n")
        with pytest.raises(ConfigError, match="negative amount"):
            load_portfolio_csv(p)
        p.write_text("name,amount\nA,10\n")
        with pytest.raises(ConfigError, match="missing required column 'pd'"):
            load_portfolio_csv(p)
        for amount in ("nan", "inf"):
            p.write_text(f"name,amount,pd,lgd_kind,lgd_mean\nA,10,0.05,deterministic,0.4\n"
                         f"B,{amount},0.05,deterministic,0.4\n")
            with pytest.raises(ConfigError, match=f"row 3, column 'amount': .* {amount}"):
                load_portfolio_csv(p)
        for pd in ("nan", "inf"):
            p.write_text(f"name,amount,pd,lgd_kind,lgd_mean\nA,10,{pd},deterministic,0.4\n")
            with pytest.raises(ConfigError, match=f"row 2, column 'pd': .* {pd}"):
                load_portfolio_csv(p)
        header = "name,amount,pd,lgd_kind,lgd_mean,lgd_vol,corr_lo,corr_hi\n"
        for row, column in [
            ("A,10,0.05,deterministic,nan,,,", "lgd_mean"),
            ("A,10,0.05,beta,nan,0.2,,", "lgd_mean"),
            ("A,10,0.05,beta,0.4,nan,,", "lgd_vol"),
            ("A,10,0.05,deterministic,0.4,,nan,0.3", "corr_lo"),
            ("A,10,0.05,deterministic,0.4,,0.2,nan", "corr_hi"),
        ]:
            p.write_text(f"{header}B,10,0.05,deterministic,0.4,,,\n{row}\n")
            with pytest.raises(ConfigError, match=f"row 3, column '{column}': .*nan"):
                load_portfolio_csv(p)

    @pytest.mark.parametrize("row, empty, given", [
        ("A,10,0.05,deterministic,0.4,,0.2,", "corr_hi", "corr_lo"),
        ("A,10,0.05,deterministic,0.4,,,0.2", "corr_lo", "corr_hi"),
        ("A,10,0.05,deterministic,0.4,,0.2,  ", "corr_hi", "corr_lo"),
    ], ids=["only-corr_lo", "only-corr_hi", "blank-corr_hi"])
    def test_half_given_corr_interval_rejected(self, tmp_path, row, empty, given):
        p = tmp_path / "p.csv"
        p.write_text(f"name,amount,pd,lgd_kind,lgd_mean,lgd_vol,corr_lo,corr_hi\n{row}\n")
        with pytest.raises(ConfigError, match=f"row 2, column '{empty}': empty while '{given}' is given"):
            load_portfolio_csv(p)

    @pytest.mark.parametrize("row, fields, lgd", [
        ("A,10,0.05", 3, None),
        ("A,10,0.05", 3, DeterministicLgd(0.4)),
        ("A,10,0.05,deterministic,0.4,,0.1,0.3,extra", 9, None),
    ], ids=["short", "short-with-lgd", "long"])
    def test_field_count_must_match_the_header(self, tmp_path, row, fields, lgd):
        p = tmp_path / "p.csv"
        p.write_text(f"name,amount,pd,lgd_kind,lgd_mean,lgd_vol,corr_lo,corr_hi\n{row}\n")
        with pytest.raises(ConfigError, match=f"^row 2: {fields} fields, the header has 8$"):
            load_portfolio_csv(p, lgd_override=lgd)

    @pytest.mark.parametrize("row, message", [
        ("B,ten,0.05,deterministic,0.4", "^row 4, column 'amount'"),
        ("B,10,0.05", "^row 4: 3 fields, the header has 5$"),
    ], ids=["bad-amount", "short"])
    def test_row_numbers_count_blank_lines(self, tmp_path, row, message):
        p = tmp_path / "p.csv"
        p.write_text(f"name,amount,pd,lgd_kind,lgd_mean\nA,10,0.05,deterministic,0.4\n\n{row}\n")
        with pytest.raises(ConfigError, match=message):
            load_portfolio_csv(p)

    @pytest.mark.parametrize("header, row, message", [
        ("name,amount,pd,lgd_kind,lgd_mean,lgd_vol,corr_low,corr_high",
         "A,10,0.05,deterministic,0.4,,0.3,0.4", "unknown column 'corr_low'; expected one of "),
        ("name,amount,pd,lgd_kind,lgd_mean,corr_lo,corr_hi,sector",
         "A,10,0.05,deterministic,0.4,0.3,0.4,x", "unknown column 'sector'; expected one of "),
        ("name,amount,pd,lgd_kind,lgd_mean,name",
         "A,10,0.05,deterministic,0.4,B", "column 'name' is given more than once$"),
    ], ids=["misspelt-corr", "extra", "repeated"])
    def test_header_outside_the_schema_rejected(self, tmp_path, header, row, message):
        # loaded, a misspelt interval would give way to the default one, and
        # a repeated name would take its last value
        p = tmp_path / "p.csv"
        p.write_text(f"{header}\n{row}\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(p))}: {message}"):
            load_portfolio_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_portfolio_csv(tmp_path / "nope.csv")


class TestScenario:
    def test_fixture_files_parse(self, fixtures_dir):
        for name in ("scenario1.json", "scenario2.json", "idb_scenario1.json", "idb_scenario2.json"):
            sc = load_scenario(fixtures_dir / name)
            assert sc.mc.samples == 1_000_000
            assert sc.alphas == (0.95, 0.99)
            assert set(sc.models) == {"gaussian", "clayton", "survival_clayton", "gauss_clayton"}

    def test_model_accepts_string_or_list(self):
        base = {
            "portfolio": {
                "kind": "homogeneous",
                "n": 3,
                "pd": 0.1,
                "lgd": {"kind": "deterministic", "value": 0.5},
            },
            "mc": {"samples": 10, "seed": 1},
        }
        one = scenario_from_dict({**base, "model": "gaussian"})
        assert one.models == ("gaussian",)
        many = scenario_from_dict({**base, "models": ["gaussian", "clayton"]})
        assert many.models == ("gaussian", "clayton")

    BASE = {
        "portfolio": {"kind": "homogeneous", "n": 3, "pd": 0.1,
                      "lgd": {"kind": "deterministic", "value": 0.5}},
        "mc": {"samples": 10, "seed": 1},
    }

    def test_repeated_model_rejected(self):
        with pytest.raises(ConfigError, match="'models' lists 'gaussian' more than once"):
            scenario_from_dict({**self.BASE, "models": ["gaussian", "clayton", "gaussian"]})

    def test_repeated_alpha_rejected(self):
        with pytest.raises(ConfigError, match="'alphas' lists 0.99 more than once"):
            scenario_from_dict({**self.BASE, "models": ["gaussian"], "alphas": [0.99, 0.95, 0.99]})

    def test_empty_models_rejected(self):
        with pytest.raises(ConfigError, match="'models' is empty"):
            scenario_from_dict({**self.BASE, "models": []})

    def test_empty_alphas_rejected(self):
        with pytest.raises(ConfigError, match="'alphas' is empty"):
            scenario_from_dict({**self.BASE, "models": ["gaussian"], "alphas": []})

    def test_validation_messages_name_fields(self):
        with pytest.raises(ConfigError, match="'model'"):
            scenario_from_dict({"portfolio": {}, "mc": {"samples": 1, "seed": 0}})
        with pytest.raises(ConfigError, match="samples"):
            scenario_from_dict(
                {
                    "portfolio": {"kind": "homogeneous", "n": 1, "pd": 0.1,
                                  "lgd": {"kind": "deterministic", "value": 1.0}},
                    "model": "gaussian",
                    "mc": {"samples": 0, "seed": 1},
                }
            )
        with pytest.raises(ConfigError, match="unknown model"):
            scenario_from_dict(
                {
                    "portfolio": {"kind": "homogeneous", "n": 1, "pd": 0.1,
                                  "lgd": {"kind": "deterministic", "value": 1.0}},
                    "model": "gumbel",
                    "mc": {"samples": 1, "seed": 1},
                }
            )

    def test_single_point_needs_copulas(self):
        base = {
            "portfolio": {"kind": "homogeneous", "n": 2, "pd": 0.1,
                          "lgd": {"kind": "deterministic", "value": 1.0}},
            "model": "single_point",
            "mc": {"samples": 1, "seed": 1},
        }
        with pytest.raises(ConfigError, match="single_point"):
            scenario_from_dict(base)
        ok = scenario_from_dict({**base, "point_copulas": {"family": "gaussian", "param": 0.4}})
        assert len(ok.point_copulas) == 2

    @pytest.mark.parametrize("change, where, key", [
        (lambda d: d.update(alpha=[0.9]), "scenario", "alpha"),
        (lambda d: d["mc"].update(worker=8), "scenario field 'mc'", "worker"),
        (lambda d: d["portfolio"].update(corr_intervall=[0.1, 0.2]), r"portfolio \(homogeneous\)",
         "corr_intervall"),
        (lambda d: d["portfolio"].update(corr_shift=0.05), r"portfolio \(homogeneous\)", "corr_shift"),
        (lambda d: d["portfolio"]["lgd"].update(vol=0.1), r"portfolio\.lgd", "vol"),
        (lambda d: d.update(point_copulas={"family": "gaussian", "param": 0.4, "rho": 0.4}),
         r"point_copulas\[0\]", "rho"),
        (lambda d: d.update(point_copulas={"family": "independence", "param": 0.4}),
         r"point_copulas\[0\]", "param"),
    ], ids=["scenario", "mc", "homogeneous", "homogeneous-csv-field", "lgd", "copula", "copula-no-param"])
    def test_unknown_field_rejected(self, change, where, key):
        doc = copy.deepcopy({**self.BASE, "model": "gaussian"})
        scenario_from_dict(doc)
        change(doc)
        with pytest.raises(ConfigError, match=f"^{where}: unknown field '{key}'"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("field, kind, message", [
        ("portfolio", ["csv"], r"portfolio: unknown kind \['csv'\]"),
        ("lgd", {"beta": 1}, r"portfolio\.lgd: unknown lgd kind \{'beta': 1\}"),
    ])
    def test_unhashable_kind_is_an_unknown_kind(self, field, kind, message):
        doc = copy.deepcopy({**self.BASE, "model": "gaussian"})
        target = doc["portfolio"] if field == "portfolio" else doc["portfolio"]["lgd"]
        target["kind"] = kind
        with pytest.raises(ConfigError, match=message):
            scenario_from_dict(doc)

    def test_unknown_csv_portfolio_field_rejected(self, fixtures_dir):
        doc = {
            "portfolio": {"kind": "csv", "path": str(fixtures_dir / "idb_portfolio.csv"),
                          "corr_intervall": [0.1, 0.2]},
            "model": "gaussian",
            "mc": {"samples": 10, "seed": 1},
        }
        with pytest.raises(ConfigError, match=r"^portfolio \(csv\): unknown field 'corr_intervall'"):
            scenario_from_dict(doc)

    def test_invalid_json_reported(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_scenario(p)

    def test_borrower_invariants(self):
        with pytest.raises(ValueError, match="pd"):
            Borrower("x", 1.5, 0.5, DeterministicLgd(0.1), (0.1, 0.2), 0.15)
        with pytest.raises(ValueError, match="borrower 'x': .* nan"):
            Borrower("x", math.nan, 0.5, DeterministicLgd(0.1), (0.1, 0.2), 0.15)
        with pytest.raises(ValueError, match="negative"):
            Borrower("x", 0.5, -0.5, DeterministicLgd(0.1), (0.1, 0.2), 0.15)
        with pytest.raises(ValueError, match="interval"):
            Borrower("x", 0.5, 0.5, DeterministicLgd(0.1), (0.3, 0.2), 0.15)


def test_import_and_load_leave_scipy_unloaded(fixtures_dir):
    # scipy takes about half a second and 17 MB to import and nothing in the
    # package needs it; a fresh process shows what `import creditbounds` pulls in
    code = "import sys, creditbounds\n" + "".join(
        f"creditbounds.load_scenario({str(fixtures_dir / name)!r})\n"
        for name in ("scenario1.json", "idb_scenario1.json")
    ) + "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
    src = str(Path(creditbounds.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True, timeout=60)
    assert out.stdout.strip() == "False"
