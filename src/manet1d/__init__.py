"""Throughput and route-discovery policies for a slotted one-dimensional
mobile ad hoc network."""

from .errors import (
    ConfigError,
    ConvergenceError,
    EnumerationLimitError,
    ReducibleChainError,
)
from .grid import (
    NULL_ROUTE,
    Boundary,
    Configuration,
    NetworkParams,
    Route,
    configuration_count,
    enumerate_configurations,
    enumerate_routes,
    hop_rate,
    route_supported,
)
from .mobility import (
    ConfigKernel,
    NodeKernel,
    config_kernel,
    config_stationary_prob,
    node_kernel,
    stationary_node_distribution,
)
from .scheduling import (
    ConflictGraph,
    Link,
    Schedule,
    best_route,
    build_conflict_graph,
    maximal_independent_sets,
    route_throughput,
)
from .mdp import (
    Mdp,
    MdpSolution,
    PolicyEvaluator,
    build_mdp,
    evaluate_policy,
    policy_stationary,
    solve_avg_reward,
    state_space,
)
from .policies import (
    PolicyReport,
    ThresholdRule,
    always_discover,
    best_threshold_search,
    expected_raw_throughput,
    never_discover,
    route_break_policy,
    rule_threshold,
    threshold_candidates,
    threshold_policy,
)
from .simulate import (
    SimConfig,
    SweepResult,
    SweepRow,
    parse_policy_spec,
    report_exact,
    simulate,
    simulate_config_visits,
    sweep_phi,
)
from .configfile import parse_config_file, parse_config_text

__version__ = "0.1.0"
