"""Portfolio data model and ingestion.

Borrowers carry a default probability, an exposure weight (fraction of the
total outstanding amount), a loss-given-default specification and the
correlation/dependence-parameter uncertainty intervals the bound engine
works with.  Portfolios are loaded from CSV (schema below) or built
synthetically; scenarios bundle a portfolio with the model family, the
confidence levels and the Monte Carlo configuration and are read from JSON.

Portfolio CSV schema (UTF-8, header required)::

    name,amount,pd,lgd_kind,lgd_mean,lgd_vol,corr_lo,corr_hi

``corr_lo``/``corr_hi`` are optional, but only together; when both are
absent the interval defaults to the regulatory interpolation value
plus/minus ``corr_shift``.
``lgd_kind`` is ``deterministic`` (uses ``lgd_mean``) or ``beta`` (uses
``lgd_mean`` and ``lgd_vol``).
"""

from __future__ import annotations

import csv
import functools
import json
import math
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

from .copulas import clayton_theta_matching_gaussian
from .profiles import MODELS, _check_pd, model_spec

__all__ = [
    "ConfigError",
    "DeterministicLgd",
    "BetaLgd",
    "Borrower",
    "McConfig",
    "Scenario",
    "MODEL_NAMES",
    "irb_correlation",
    "beta_params",
    "load_portfolio_csv",
    "save_portfolio_csv",
    "homogeneous_portfolio",
    "load_scenario",
    "scenario_from_dict",
]

MODEL_NAMES = tuple(MODELS)

DEFAULT_IRB_BOUNDS = (0.12, 0.24)
DEFAULT_CORR_SHIFT = 0.05


class ConfigError(ValueError):
    """Malformed portfolio CSV or scenario JSON."""


def irb_correlation(pd: float, lo_bound: float = 0.12, hi_bound: float = 0.24) -> float:
    """Regulatory asset correlation: exponential interpolation between bounds.

    Decreasing in the default probability; maps (0, 1) into
    (lo_bound, hi_bound).
    """
    _check_pd(pd)
    if not (0.0 < lo_bound < hi_bound < 1.0):
        raise ValueError(f"need 0 < lo_bound < hi_bound < 1, got ({lo_bound}, {hi_bound})")
    w = (1.0 - math.exp(-50.0 * pd)) / (1.0 - math.exp(-50.0))
    return lo_bound * w + hi_bound * (1.0 - w)


def beta_params(mean: float, vol: float) -> tuple[float, float]:
    """Moment-matched beta distribution parameters (a, b), both finite and
    positive."""
    if not (0.0 < mean < 1.0):
        raise ValueError(f"mean must lie in (0, 1), got {mean}")
    if not vol > 0.0:
        raise ValueError(f"vol must be positive, got {vol}")
    if vol * vol >= mean * (1.0 - mean):
        raise ValueError(
            f"infeasible beta moments: vol^2 = {vol * vol:.6g} must be below "
            f"mean*(1-mean) = {mean * (1.0 - mean):.6g}"
        )
    # divided twice: vol^2 itself may underflow
    k = mean * (1.0 - mean) / vol / vol - 1.0
    a, b = mean * k, (1.0 - mean) * k
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError(f"vol = {vol!r} gives beta shapes ({a!r}, {b!r}); they must be finite and positive")
    return a, b


@dataclass(frozen=True)
class DeterministicLgd:
    """Fixed loss given default in (0, 1]."""

    value: float

    def __post_init__(self):
        if not (0.0 < self.value <= 1.0):
            raise ValueError(f"deterministic LGD must lie in (0, 1], got {self.value}")

    @property
    def mean(self) -> float:
        return self.value


@dataclass(frozen=True)
class BetaLgd:
    """Beta-distributed loss given default, moment-parameterized.

    Draws come from the exact table sampler of ``_beta.BetaTable``; one
    table per shape, built on first use and then only read.
    """

    mean_: float
    vol: float

    def __post_init__(self):
        beta_params(self.mean_, self.vol)  # validates feasibility

    @property
    def mean(self) -> float:
        return self.mean_

    @property
    def shape(self) -> tuple[float, float]:
        return beta_params(self.mean_, self.vol)

    @property
    def table(self):
        return _beta_table(*self.shape)

    def draw(self, rng, size: int):
        return self.table.draw(rng, size)


@functools.cache
def _beta_table(a: float, b: float):
    # imported on first use, so that loading a scenario leaves the sampler
    # unloaded
    from ._beta import BetaTable

    return BetaTable(a, b)


@dataclass(frozen=True)
class Borrower:
    """One obligor with its uncertainty intervals resolved.

    ``corr_interval`` bounds the asset correlation, ``corr_point`` is its
    point estimate (regulatory interpolation unless stated otherwise) and
    the theta values are the Clayton parameters matching those correlations
    by Kendall's tau.
    """

    name: str
    pd: float
    exposure_weight: float
    lgd: DeterministicLgd | BetaLgd
    corr_interval: tuple[float, float]
    corr_point: float
    theta_interval: tuple[float, float] = field(init=False)
    theta_point: float = field(init=False)

    def __post_init__(self):
        try:
            _check_pd(self.pd)
        except ValueError as exc:
            raise ValueError(f"borrower {self.name!r}: {exc}") from None
        if self.exposure_weight < 0.0:
            raise ValueError(f"borrower {self.name!r}: negative exposure weight")
        lo, hi = self.corr_interval
        if not (0.0 < lo <= hi < 1.0):
            raise ValueError(
                f"borrower {self.name!r}: correlation interval must satisfy "
                f"0 < lo <= hi < 1, got {self.corr_interval}"
            )
        if not (0.0 < self.corr_point < 1.0):
            raise ValueError(f"borrower {self.name!r}: corr_point must lie in (0, 1)")
        object.__setattr__(
            self,
            "theta_interval",
            (clayton_theta_matching_gaussian(lo), clayton_theta_matching_gaussian(hi)),
        )
        object.__setattr__(self, "theta_point", clayton_theta_matching_gaussian(self.corr_point))


def _clamped_pd(raw: float, where: str) -> float:
    if raw >= 1.0:
        warnings.warn(f"{where}: pd = {raw:g} clamped to 1 - 1e-9", stacklevel=3)
        return 1.0 - 1e-9
    return raw


def _require_weight_sum(borrowers: list[Borrower]) -> None:
    total = sum(b.exposure_weight for b in borrowers)
    if not abs(total - 1.0) <= 1e-9:  # a NaN total fails too
        raise ValueError(f"exposure weights sum to {total!r}, expected 1")


def homogeneous_portfolio(
    n: int,
    pd: float,
    lgd: DeterministicLgd | BetaLgd,
    corr_interval: tuple[float, float] | None = None,
    irb_bounds: tuple[float, float] = DEFAULT_IRB_BOUNDS,
) -> list[Borrower]:
    """n identical borrowers with equal exposure weights 1/n.

    Without an explicit ``corr_interval`` the regulatory bounds themselves
    serve as the uncertainty interval; the point estimate always comes from
    the interpolation formula.
    """
    if n < 1:
        raise ValueError("portfolio needs at least one borrower")
    point = irb_correlation(pd, *irb_bounds)
    interval = tuple(corr_interval) if corr_interval is not None else tuple(irb_bounds)
    borrower = Borrower(
        name="loan",
        pd=pd,
        exposure_weight=1.0 / n,
        lgd=lgd,
        corr_interval=interval,
        corr_point=point,
    )
    return [replace(borrower, name=f"loan{i + 1:04d}") for i in range(n)]


_CSV_COLUMNS = ("name", "amount", "pd", "lgd_kind", "lgd_mean", "lgd_vol", "corr_lo", "corr_hi")


def _parse_float(row_no: int, column: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"row {row_no}, column {column!r}: cannot parse {text!r} as a number") from None


def _in_column(row_no: int, column: str, build, *args):
    """build(*args), its ValueError raised as a ConfigError naming the row and column."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(f"row {row_no}, column {column!r}: {exc}") from None


def _parse_lgd(row_no: int, kind: str, mean_text: str, vol_text: str):
    kind = kind.strip().lower()
    if kind == "deterministic":
        mean = _parse_float(row_no, "lgd_mean", mean_text)
        return _in_column(row_no, "lgd_mean", DeterministicLgd, mean)
    if kind == "beta":
        mean = _parse_float(row_no, "lgd_mean", mean_text)
        vol = _parse_float(row_no, "lgd_vol", vol_text)
        # beta_params rejects a mean outside (0, 1) before it reads the vol
        column = "lgd_vol" if 0.0 < mean < 1.0 else "lgd_mean"
        return _in_column(row_no, column, BetaLgd, mean, vol)
    raise ConfigError(f"row {row_no}, column 'lgd_kind': unknown kind {kind!r}")


def load_portfolio_csv(
    path,
    irb_bounds: tuple[float, float] = DEFAULT_IRB_BOUNDS,
    corr_shift: float = DEFAULT_CORR_SHIFT,
    lgd_override: DeterministicLgd | BetaLgd | None = None,
) -> list[Borrower]:
    """Read borrowers from CSV and normalize amounts to exposure weights.

    Correlation intervals are read from ``corr_lo``/``corr_hi`` when both
    are given and otherwise default to the regulatory interpolation with the
    supplied bounds shifted by plus/minus ``corr_shift``; a row that gives
    only one of them is a ConfigError, as is a header column outside the
    schema or one that appears twice.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"portfolio file not found: {path}")
    # utf-8-sig drops the byte-order mark that spreadsheet programs write
    with path.open(newline="", encoding="utf-8-sig") as fh:
        lines = csv.reader(fh)
        header = next(lines, None)
        if header is None:
            raise ConfigError(f"{path}: missing header row")
        # a misspelt or repeated column would otherwise be dropped silently
        for k, column in enumerate(header):
            if column not in _CSV_COLUMNS:
                raise ConfigError(f"{path}: unknown column {column!r}; expected one of {_CSV_COLUMNS}")
            if column in header[:k]:
                raise ConfigError(f"{path}: column {column!r} is given more than once")
        for required in ("name", "amount", "pd"):
            if required not in header:
                raise ConfigError(f"{path}: missing required column {required!r}")
        rows = []  # (file line, row)
        for fields in filter(None, lines):  # blank lines carry no row
            if len(fields) != len(header):
                raise ConfigError(f"row {lines.line_num}: {len(fields)} fields, the header has {len(header)}")
            rows.append((lines.line_num, dict(zip(header, fields))))
    if not rows:
        raise ConfigError(f"{path}: no borrower rows")

    amounts = []
    for i, row in rows:
        amount = _parse_float(i, "amount", row["amount"])
        if not math.isfinite(amount):
            raise ConfigError(f"row {i}, column 'amount': amount must be finite, got {amount!r}")
        if amount < 0.0:
            raise ConfigError(f"row {i}, column 'amount': negative amount {amount!r}")
        amounts.append(amount)
    total = sum(amounts)
    if total <= 0.0:
        raise ConfigError(f"{path}: total amount must be positive")
    if abs(total - 1.0) <= 1e-9:
        total = 1.0  # already normalized (e.g. a file we wrote ourselves): keep weights bit-exact

    borrowers = []
    for (i, row), amount in zip(rows, amounts):
        raw_pd = _parse_float(i, "pd", row["pd"])
        if not 0.0 < raw_pd < math.inf:  # NaN included; a finite pd of 1 or more is clamped
            raise ConfigError(f"row {i}, column 'pd': pd must be positive and finite, got {raw_pd!r}")
        pd = _clamped_pd(raw_pd, f"row {i} ({row['name']})")
        point = irb_correlation(pd, *irb_bounds)
        corr_column = None
        given = [c for c in ("corr_lo", "corr_hi") if row.get(c, "").strip()]
        if len(given) == 1:
            empty = "corr_hi" if given == ["corr_lo"] else "corr_lo"
            raise ConfigError(
                f"row {i}, column {empty!r}: empty while {given[0]!r} is given; give both or neither"
            )
        if given:
            corr = (
                _parse_float(i, "corr_lo", row["corr_lo"]),
                _parse_float(i, "corr_hi", row["corr_hi"]),
            )
            # Borrower checks 0 < corr_lo <= corr_hi < 1: name the first column that breaks it
            corr_column = "corr_hi" if 0.0 < corr[0] < 1.0 else "corr_lo"
        else:
            corr = (point - corr_shift, point + corr_shift)
        if lgd_override is not None:
            lgd = lgd_override
        elif row.get("lgd_kind", "").strip():
            lgd = _parse_lgd(i, row["lgd_kind"], row.get("lgd_mean", ""), row.get("lgd_vol", ""))
        else:
            raise ConfigError(f"row {i}, column 'lgd_kind': missing (and no override given)")
        borrower = functools.partial(
            Borrower,
            name=row["name"].strip(),
            pd=pd,
            exposure_weight=amount if total == 1.0 else amount / total,
            lgd=lgd,
            corr_interval=corr,
            corr_point=point,
        )
        borrowers.append(_in_column(i, corr_column, borrower) if corr_column else borrower())
    _require_weight_sum(borrowers)
    return borrowers


def save_portfolio_csv(path, borrowers: list[Borrower]) -> None:
    """Write borrowers back out in the loader's schema (weights as amounts)."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for b in borrowers:
            if isinstance(b.lgd, DeterministicLgd):
                lgd = ["deterministic", repr(b.lgd.value), ""]
            else:
                lgd = ["beta", repr(b.lgd.mean_), repr(b.lgd.vol)]
            writer.writerow([b.name, repr(b.exposure_weight), repr(b.pd), *lgd,
                             repr(b.corr_interval[0]), repr(b.corr_interval[1])])


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo run configuration."""

    samples: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples must be at least 1, got {self.samples}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class Scenario:
    """A portfolio, the model families to bound, confidence levels and MC setup."""

    label: str
    borrowers: tuple[Borrower, ...]
    models: tuple[str, ...]
    alphas: tuple[float, ...]
    mc: McConfig
    point_copulas: tuple | None = None  # per-borrower copulas for 'single_point'

    def __post_init__(self):
        if not self.borrowers:
            raise ValueError("scenario needs at least one borrower")
        for m in self.models:
            if model_spec(m).per_copula and (
                self.point_copulas is None or len(self.point_copulas) != len(self.borrowers)
            ):
                raise ValueError(f"{m!r} model needs one copula per borrower")
        for a in self.alphas:
            if not (0.0 < a < 1.0):
                raise ValueError(f"confidence levels must lie in (0, 1), got {a}")
        # each model and level names one row of the report and one entry of meta.json
        for name, values in (("models", self.models), ("alphas", self.alphas)):
            if not values:
                raise ValueError(f"scenario field {name!r} is empty")
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(f"scenario field {name!r} lists {repeated[0]!r} more than once")


def _number(value, where: str, kind=float):
    """``kind(value)``, or a ConfigError naming the field when it is no number
    (a JSON boolean is none) or, for ``int``, a number with a fraction."""
    try:
        if isinstance(value, bool):
            raise TypeError
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}: expected a number, got {value!r}") from None
    if kind is int and isinstance(value, float) and number != value:
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return number


def _numbers(value, where: str, length: int | None = None) -> tuple:
    """A JSON list of numbers (of ``length`` items when given) as floats."""
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        count = "" if length is None else f"{length} "
        raise ConfigError(f"{where}: expected a list of {count}numbers, got {value!r}")
    return tuple(_number(v, where) for v in value)


# the fields a portfolio or lgd JSON object may hold, by kind (a JSON list
# or object as the kind is no key, and fails as an unknown kind)
_PORTFOLIO_FIELDS = {
    "homogeneous": ("kind", "n", "pd", "lgd", "corr_interval", "irb_bounds"),
    "csv": ("kind", "path", "lgd", "irb_bounds", "corr_shift"),
}
_LGD_FIELDS = {"deterministic": ("kind", "value"), "beta": ("kind", "mean", "vol")}


def _known_fields(obj: dict, known: tuple, where: str) -> None:
    """A ConfigError naming the first field of ``obj`` outside ``known``."""
    for key in obj:
        if key not in known:
            raise ConfigError(f"{where}: unknown field {key!r}; expected one of {known}")


def _lgd_from_dict(obj: dict, where: str):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{where}: lgd must be an object with a 'kind' field")
    kind = obj["kind"]
    if isinstance(kind, str) and kind in _LGD_FIELDS:
        _known_fields(obj, _LGD_FIELDS[kind], where)
    try:
        if kind == "deterministic":
            return DeterministicLgd(_number(obj["value"], "value"))
        if kind == "beta":
            return BetaLgd(_number(obj["mean"], "mean"), _number(obj["vol"], "vol"))
    except KeyError as exc:
        raise ConfigError(f"{where}: lgd is missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None
    raise ConfigError(f"{where}: unknown lgd kind {kind!r}")


def _copula_from_dict(obj: dict, where: str):
    from . import copulas as cop

    if not isinstance(obj, dict) or "family" not in obj:
        raise ConfigError(f"{where}: copula must be an object with a 'family' field")
    family = obj["family"]
    known = ("family",) if family in ("independence", "comonotone") else ("family", "param")
    _known_fields(obj, known, where)
    try:
        if family == "independence":
            return cop.Independence()
        if family == "comonotone":
            return cop.Comonotone()
        if family == "gaussian":
            return cop.Gaussian(_number(obj["param"], "param"))
        if family == "clayton":
            return cop.Clayton(_number(obj["param"], "param"))
        if family == "survival_clayton":
            return cop.SurvivalClayton(_number(obj["param"], "param"))
    except KeyError:
        raise ConfigError(f"{where}: copula family {family!r} needs a 'param' field") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None
    raise ConfigError(f"{where}: unknown copula family {family!r}")


def _portfolio_from_dict(obj: dict, base_dir: Path) -> list[Borrower]:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("scenario field 'portfolio': must be an object with a 'kind' field")
    kind = obj["kind"]
    if isinstance(kind, str) and kind in _PORTFOLIO_FIELDS:
        _known_fields(obj, _PORTFOLIO_FIELDS[kind], f"portfolio ({kind})")
    lgd = _lgd_from_dict(obj["lgd"], "portfolio.lgd") if "lgd" in obj else None
    irb_bounds = DEFAULT_IRB_BOUNDS
    if "irb_bounds" in obj:
        irb_bounds = _numbers(obj["irb_bounds"], "portfolio.irb_bounds", 2)
    if kind == "homogeneous":
        for req in ("n", "pd"):
            if req not in obj:
                raise ConfigError(f"portfolio: homogeneous portfolio needs field {req!r}")
        if lgd is None:
            raise ConfigError("portfolio: homogeneous portfolio needs field 'lgd'")
        corr = obj.get("corr_interval")
        if corr is not None:
            corr = _numbers(corr, "portfolio.corr_interval", 2)
        n = _number(obj["n"], "portfolio.n", int)
        pd = _number(obj["pd"], "portfolio.pd")
        try:
            return homogeneous_portfolio(n, pd, lgd, corr_interval=corr, irb_bounds=irb_bounds)
        except ValueError as exc:
            raise ConfigError(f"portfolio: {exc}") from None
    if kind == "csv":
        if "path" not in obj:
            raise ConfigError("portfolio: csv portfolio needs field 'path'")
        csv_path = Path(obj["path"])
        if not csv_path.is_absolute():
            csv_path = base_dir / csv_path
        corr_shift = _number(obj.get("corr_shift", DEFAULT_CORR_SHIFT), "portfolio.corr_shift")
        try:
            return load_portfolio_csv(
                csv_path, irb_bounds=irb_bounds, corr_shift=corr_shift, lgd_override=lgd
            )
        except ValueError as exc:
            raise ConfigError(f"portfolio: {exc}") from None
    raise ConfigError(f"portfolio: unknown kind {kind!r}")


def scenario_from_dict(doc: dict, base_dir=".") -> Scenario:
    """Build a scenario from a parsed JSON document.

    ``model`` may be a single name or a list of names; relative portfolio
    paths resolve against ``base_dir``.  A field that the scenario, its
    ``mc``, ``portfolio``, ``lgd`` or copula objects do not know is a
    ConfigError.
    """
    if not isinstance(doc, dict):
        raise ConfigError("scenario document must be a JSON object")
    _known_fields(doc, ("label", "portfolio", "model", "models", "alphas", "mc", "point_copulas"), "scenario")
    for req in ("portfolio", "mc"):
        if req not in doc:
            raise ConfigError(f"scenario is missing field {req!r}")
    models = doc.get("models", doc.get("model"))
    if models is None:
        raise ConfigError("scenario is missing field 'model' (or 'models')")
    if isinstance(models, str):
        models = [models]
    if not isinstance(models, list) or not all(isinstance(m, str) for m in models):
        raise ConfigError(
            f"scenario field 'models': expected a model name or a list of names, got {models!r}"
        )
    alphas = _numbers(doc.get("alphas", [0.95, 0.99]), "scenario field 'alphas'")
    mc_doc = doc["mc"]
    for req in ("samples", "seed"):
        if not isinstance(mc_doc, dict) or req not in mc_doc:
            raise ConfigError(f"scenario field 'mc': missing field {req!r}")
    _known_fields(mc_doc, ("samples", "seed", "workers"), "scenario field 'mc'")
    samples = _number(mc_doc["samples"], "scenario field 'mc.samples'", int)
    seed = _number(mc_doc["seed"], "scenario field 'mc.seed'", int)
    workers = _number(mc_doc.get("workers", 1), "scenario field 'mc.workers'", int)
    try:
        mc = McConfig(samples=samples, seed=seed, workers=workers)
    except ValueError as exc:
        raise ConfigError(f"scenario field 'mc': {exc}") from None
    borrowers = _portfolio_from_dict(doc["portfolio"], Path(base_dir))
    point_copulas = None
    if "point_copulas" in doc:
        raw = doc["point_copulas"]
        if isinstance(raw, dict):
            raw = [raw] * len(borrowers)
        if not isinstance(raw, list):
            raise ConfigError(
                f"scenario field 'point_copulas': expected a copula object or a list of them, "
                f"got {raw!r}"
            )
        point_copulas = tuple(
            _copula_from_dict(o, f"point_copulas[{i}]") for i, o in enumerate(raw)
        )
    label = doc.get("label", "scenario")
    if not isinstance(label, str):
        raise ConfigError(f"scenario field 'label': expected a string, got {label!r}")
    try:
        return Scenario(
            label=label,
            borrowers=tuple(borrowers),
            models=tuple(models),
            alphas=alphas,
            mc=mc,
            point_copulas=point_copulas,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_scenario(path) -> Scenario:
    """Load a scenario JSON file; relative portfolio paths resolve beside it."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"scenario file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return scenario_from_dict(doc, base_dir=path.parent)
