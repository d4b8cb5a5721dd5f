"""Max-min fair joint BS association and power allocation.

Solvers for the per-BS-budget downlink problem (exact Perron-root and
fixed-point power control, sum-power relaxation bounds, two-stage
association heuristics, one-to-one matching via Hungarian/auction),
exhaustive oracles including a 3-SAT network gadget, and a reproducible
HetNet Monte-Carlo harness.
"""

from .model import (
    Network,
    SolveResult,
    ValidationError,
    downlink_sinr,
    max_snr_association,
    network_from_json,
    network_to_json,
    uplink_sinr,
)
from .power import (
    FixedPointOptions,
    TargetPowerResult,
    PerronPair,
    load_norm,
    min_power_for_target,
    perron_pair,
    solve_power,
    solve_power_exact,
    unit_sinr_power,
)
from .sumpower import (
    UlsumResult,
    UplinkUnitPower,
    convergence_rate_bound,
    dl_sumpower_power,
    ulsum,
    ulsum_exact,
    uplink_unit_sinr_power,
)
from .twostage import (
    TwoStageResult,
    dlsum,
    dlsuma,
    power_balance_transform,
    ulsuma,
)
from .matching import (
    FORBIDDEN,
    AssignmentProblem,
    AuctionState,
    InfeasibleMatchingError,
    OneToOneResult,
    aufp,
    auction,
    default_eps,
    hungarian,
    log_gain_matrix,
    solve_p1prime,
)
from .oracle import (
    SAT_GAMMA,
    CnfFormula,
    EquivalenceReport,
    GadgetNetwork,
    brute_force_optimum,
    build_3sat_gadget,
    cnf_from_dimacs,
    gadget_pair_values,
    satisfiable,
    verify_sat_equivalence,
)
from .scenario import (
    Geometry,
    HetnetInstance,
    ScenarioConfig,
    generate_hetnet,
    geometry_to_json,
    place_users,
    scenario_from_json,
    scenario_to_json,
)
from .harness import (
    ExperimentSpec,
    MonteCarloResult,
    TrialRecord,
    export_cdf_csv,
    export_csv,
    export_json,
    monte_carlo,
    run_algorithm,
    run_trial,
    selftest,
)

__version__ = "0.1.0"
