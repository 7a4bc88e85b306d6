"""Credit portfolio risk bounds under dependence and parameter uncertainty.

Builds factor-driven default models from bivariate copulas, orders them
through their default integral functions, and computes lower/upper AVaR
bounds by seeded Monte Carlo with exact small-portfolio oracles.
"""

__version__ = "0.1.0"

from .copulas import (
    Clayton,
    Comonotone,
    Gaussian,
    Independence,
    SurvivalClayton,
    check_si,
    clayton_theta_matching_gaussian,
    is_pointwise_leq,
)
from .portfolio import (
    BetaLgd,
    Borrower,
    ConfigError,
    DeterministicLgd,
    McConfig,
    Scenario,
    beta_params,
    homogeneous_portfolio,
    irb_correlation,
    load_portfolio_csv,
    load_scenario,
    save_portfolio_csv,
    scenario_from_dict,
)
from .profiles import (
    ComonotoneProfile,
    CopulaProfile,
    DefaultProfile,
    EnvelopeProfile,
    GridProfile,
    IndependentProfile,
    ProfileEnvelope,
    TabulatedPdCurve,
    check_membership,
    clayton_profile,
    curve_table,
    envelope,
    gaussian_profile,
    increasing_rearrangement,
    profile_from_copula,
    survival_clayton_profile,
    validate_profile,
)
from .risk import (
    ResultInvariantError,
    RiskReport,
    RunResult,
    avar,
    bound_profiles,
    check_cx_dominance,
    risk_report,
    stop_loss_curve,
    var,
)
from .simulate import (
    LossSample,
    batch_standard_error,
    dkw_epsilon,
    exact_loss_distribution,
    simulate_comonotone,
    simulate_independent,
    simulate_losses,
    sup_cdf_distance,
)

__all__ = [name for name in dir() if not name.startswith("_")]
