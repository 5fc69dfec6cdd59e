"""Transversals of colored subgraph families.

Given a graph split into s edge-disjoint subgraphs, a transversal picks
one edge per subgraph so the union is a target structure: a Hamiltonian
cycle or a perfect matching. This package builds the auxiliary digraphs
that encode local exchanges around a planted transversal, rotates or
swaps a second transversal out of them, multiplies one transversal into
factorially many, samples the required well-spread vertex sets, and
checks the numeric inequalities that make the guarantees kick in.
Everything runs in a canonical labelling: ``naturally_index`` relabels an
instance into it and returns the new-to-old tables, and ``lift`` maps
results back to the instance's own labels.
"""

from .core import (
    BaseGraph,
    KIND_HAM,
    KIND_PM,
    SubgraphFamily,
    Transversal,
    complete_graph,
    cycle_graph,
    edge,
    lift,
    naturally_index,
    old_to_new,
    planted,
    validate_family,
    validate_transversal,
)
from .digraphs import (
    RbDigraph,
    RybDigraph,
    build_full_rb,
    build_full_ryb,
    d_cross,
    d_star,
    is_locally_dominating,
    is_maximal_red_independent,
    is_red_independent,
    omega_member_ham,
    omega_member_pm,
    support,
)
from .errors import (
    BudgetExceeded,
    DStarTooSmall,
    DomainError,
    GenerationFailed,
    GuaranteeViolated,
    InfeasibleDegree,
    InfeasibleWitness,
    InvalidTransversal,
    NoBlueEscape,
    NotLocallyDominating,
    NotMaximalRedIndependent,
    NotNaturallyIndexed,
    NotRedIndependent,
    RecolorConflict,
    ResampleBudgetExceeded,
    TransversalError,
    WalkStuck,
)
from .exchange import (
    AlternatingCycle,
    LollipopTrace,
    PrunedDigraph,
    find_alternating_cycle,
    ham_exchange,
    lollipop_walk,
    pm_exchange,
    prune,
    recolor_ham,
)
from .generators import (
    gen_bipartite_pm_family,
    gen_dirac_family,
    gen_planted_ham_family,
    gen_planted_pm_family,
    gen_regular_all_equal,
    gen_witness_instance_ham,
)
from .multiplier import (
    enumerate_omega_ham,
    enumerate_omega_pm,
    many_ham_transversals,
    many_pm_transversals,
    omega_admissibility_matrix,
)
from .oracle import (
    SearchBudget,
    count_ham_transversals,
    count_pm_transversals,
    enumerate_all_ham_transversals,
    enumerate_all_pm_transversals,
    exists_ham_transversal,
    permanent,
)
from .sampler import (
    BOUND_IDS,
    Inequality,
    InequalityReport,
    SampleOutcome,
    SamplerConfig,
    chernoff_bounds,
    default_inclusion_probability,
    dirac_depth_target,
    empirical_lower_tail,
    factorial_bounds,
    ham_hypothesis_warnings,
    lll_condition_ham,
    lll_condition_scan,
    pm_bounded_degree_floor,
    pm_degree_threshold,
    pm_hypothesis_warnings,
    pm_lll_rhs,
    sample_set_dirac,
    sample_set_lll_ham,
    sample_set_pm,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
