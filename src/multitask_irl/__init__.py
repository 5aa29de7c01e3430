"""Multitask Bayesian inverse reinforcement learning.

Several demonstrators, each solving its own task, are explained jointly: a
shared population prior ties the per-task reward functions and softmax
temperatures together, so evidence about one task sharpens inference about
the others.  Two model families are provided, a reward-and-temperature
posterior with Monte Carlo and Metropolis-Hastings samplers, and a
policy-optimality posterior over a finite reward hypothesis set, plus
single-task baselines, benchmark environments, and a seeded experiment
harness.
"""

from .baselines import MixedPolicy, imitator, mwal
from .bench import (
    EXPERIMENTS,
    ExperimentResult,
    ResultRow,
    bound_check,
    l1_loss,
    run_experiment,
    value_error_bound,
    write_aggregate_csv,
    write_runs_csv,
)
from .config import CONFIG_KEYS, ConfigError, describe_keys, load_config, parse_config
from .io import DataError, read_demonstrations, write_demonstrations
from .mdp import (
    LOG_ZERO,
    Cmp,
    DegeneratePosteriorError,
    Demonstration,
    Mdp,
    RewardFunction,
    StationaryPolicy,
    batch_policy_values,
    batch_solve_optimal,
    counts_log_likelihood,
    demo_counts,
    log_likelihood,
    q_from_v,
    simulate,
    softmax_policy,
    solve_optimal,
)
from .mtpo import (
    LossMatrix,
    MtpoResult,
    RewardHypothesisSet,
    RewardPosterior,
    build_loss_matrix,
    mtpo_mc,
    reward_posterior,
    sample_hypotheses,
)
from .mtpp import (
    PosteriorEnsemble,
    importance_weights,
    metropolis_accept,
    mtpp_mc,
    mtpp_mh,
    posterior_policy,
)
from .priors import (
    BetaProductRewardPrior,
    DirichletRewardPrior,
    DiscreteRewardPrior,
    FixedHyperprior,
    FixedTemperature,
    GammaHyperprior,
    OptimalityPrior,
    PolicyDirichletPrior,
    TemperaturePrior,
    exp_interval_mass,
    policy_posterior,
    sample_policies,
)
from .seeding import as_generator, subseed, substream
from .tasks import (
    ADVANCE,
    RESET,
    ChainSpec,
    RandomMdpPopulation,
    RandomMdpSpec,
    chain_transition,
    make_chain,
    make_demonstrator,
    make_generalized_chain,
    make_random_mdp_population,
)

__version__ = "0.1.0"

__all__ = [
    "ADVANCE",
    "BetaProductRewardPrior",
    "CONFIG_KEYS",
    "ChainSpec",
    "Cmp",
    "ConfigError",
    "DataError",
    "DegeneratePosteriorError",
    "Demonstration",
    "DirichletRewardPrior",
    "DiscreteRewardPrior",
    "EXPERIMENTS",
    "ExperimentResult",
    "FixedHyperprior",
    "FixedTemperature",
    "GammaHyperprior",
    "LOG_ZERO",
    "LossMatrix",
    "Mdp",
    "MixedPolicy",
    "MtpoResult",
    "OptimalityPrior",
    "PolicyDirichletPrior",
    "PosteriorEnsemble",
    "RESET",
    "RandomMdpPopulation",
    "RandomMdpSpec",
    "ResultRow",
    "RewardFunction",
    "RewardHypothesisSet",
    "RewardPosterior",
    "StationaryPolicy",
    "TemperaturePrior",
    "as_generator",
    "batch_policy_values",
    "batch_solve_optimal",
    "bound_check",
    "build_loss_matrix",
    "chain_transition",
    "counts_log_likelihood",
    "demo_counts",
    "describe_keys",
    "exp_interval_mass",
    "imitator",
    "importance_weights",
    "l1_loss",
    "load_config",
    "log_likelihood",
    "make_chain",
    "make_demonstrator",
    "make_generalized_chain",
    "make_random_mdp_population",
    "metropolis_accept",
    "mtpo_mc",
    "mtpp_mc",
    "mtpp_mh",
    "mwal",
    "parse_config",
    "policy_posterior",
    "posterior_policy",
    "q_from_v",
    "read_demonstrations",
    "reward_posterior",
    "run_experiment",
    "sample_hypotheses",
    "sample_policies",
    "simulate",
    "softmax_policy",
    "solve_optimal",
    "subseed",
    "substream",
    "value_error_bound",
    "write_aggregate_csv",
    "write_demonstrations",
    "write_runs_csv",
]
