"""Factional belief and network revolt games.

Exact finite-model belief operators (common belief among a population
fraction), polynomial degree-sequence algorithms for supported revolt
sizes with their extensions, an exhaustive small-instance equilibrium
oracle with the clique-based hardness construction, seeded graph and
degree-sequence generators, and closed-form concentration bounds.
"""

from .algorithms import (
    PromiseInstance,
    PromiseOutcome,
    algorithm1,
    algorithm1_auto,
    algorithm1_auto_grid,
    algorithm1_general,
    algorithm2,
    algorithm3,
    candidate_contexts,
    crucial_thresholds,
    equilibria_map,
    expected_type_fraction,
    multistate_fixpoint,
    smallest_revolt,
)
from .epistemic import (
    AgentPartition,
    EpistemicModel,
    FiniteProbSpace,
    belief_operator,
    common_belief_by_search,
    common_belief_fixpoint,
    common_belief_search_set,
    hierarchy_levels,
    is_evident_belief,
)
from .model import (
    Action,
    AgentType,
    ConcreteGraph,
    ContextClass,
    Prior,
    StatePrior,
    TypeDistribution,
    context_likelihood,
    enumerate_contexts,
    payoff,
    state_posterior,
    two_state_prior,
)
from .netgen import (
    GenSpec,
    ba_graph,
    ba_sequence,
    constant_sequence,
    derive_seed,
    er_graph,
    er_sequence,
    is_graphical,
    powerlaw_sequence,
    realize_graph,
    torus_grid,
)
from .oracle import (
    OracleBudget,
    RevoltInstance,
    StrategyProfile,
    clique_exists,
    clique_reduction,
    expected_revolt_fraction,
    greatest_equilibrium,
    least_equilibrium,
    nonisomorphic_graphs,
    revolt_decision,
    threshold_probabilities,
)

__version__ = "0.1.0"
