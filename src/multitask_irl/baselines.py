"""Single-task baselines: direct imitation and a feature-matching game.

The imitator is the conjugate posterior mean policy around the observed
action counts.  The feature-matching baseline (MWAL, Syed & Schapire 2008)
plays a repeated game over state-indicator features: a reward player runs
multiplicative weights over the states, a policy player answers each
round's reward with its exact optimal policy, and the result mixes the
distinct responses, each weighted by the share of rounds it was played.
The responses' discounted visits start from the empirical law of the
demonstrations' first states, so both sides of the game count visits from
the same start.  Both baselines are deterministic given the demonstrations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import Cmp, StationaryPolicy, batch_solve_optimal
from .priors import PolicyDirichletPrior, policy_posterior

__all__ = [
    "MixedPolicy",
    "imitator",
    "mwal",
]


@dataclass(frozen=True, eq=False)
class MixedPolicy:
    """Mixture over stationary policies, one drawn at episode start."""

    policies: tuple
    weights: np.ndarray

    def __post_init__(self):
        policies = tuple(self.policies)
        if not policies:
            raise ValueError("a mixed policy needs at least one component")
        weights = np.array(self.weights, dtype=float)
        if weights.shape != (len(policies),) or np.any(weights < 0):
            raise ValueError("weights must be non-negative, one per component")
        if abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1 within 1e-9")
        weights.setflags(write=False)
        object.__setattr__(self, "policies", policies)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def uniform(cls, policies) -> "MixedPolicy":
        policies = tuple(policies)
        return cls(policies, np.full(len(policies), 1.0 / len(policies)))


def imitator(counts, policy_prior: PolicyDirichletPrior) -> StationaryPolicy:
    """Posterior mean policy given a task's (S, A) state-action count matrix."""
    return policy_posterior(policy_prior, counts).mean()


def mwal(cmp: Cmp, discount: float, demos, n_iterations: int = 100) -> MixedPolicy:
    """Feature matching over states by multiplicative weights against exact best responses.

    Each round the reward player's simplex weights over states are the
    reward; the policy player answers with its exact optimal policy; the
    weight on each state is pushed toward states where the response's
    discounted visits still trail the demonstrations'.  The response's
    visits start from the empirical law of the demonstrations' first
    states.  Returns the distinct responses, each weighted by the share of
    rounds it was played.
    """
    n_iterations = int(n_iterations)
    if n_iterations < 1:
        raise ValueError(f"n_iterations must be at least 1, got {n_iterations}")
    demos = list(demos)
    if not demos:
        raise ValueError("need at least one demonstration")
    n_states = cmp.n_states
    # Demonstrated discounted visits sum_t gamma^t [s_t = s], averaged over
    # demos, and the law of their first states, which the responses start from.
    mu_demo = np.zeros(n_states)
    for demo in demos:
        demo.check_bounds(n_states, cmp.n_actions)
        mu_demo += np.bincount(demo.states, discount ** np.arange(len(demo)), minlength=n_states)
    mu_demo /= len(demos)
    p0 = np.bincount([demo.states[0] for demo in demos], minlength=n_states) / len(demos)

    # beta = 1 / (1 + sqrt(2 ln S / T)); ln beta <= 0 shrinks lagging weights.
    log_beta = -np.log1p(np.sqrt(2.0 * np.log(n_states) / n_iterations)) if n_states > 1 else 0.0
    log_w = np.zeros(n_states)
    states = np.arange(n_states)
    eye = np.eye(n_states)
    responses = np.empty((n_iterations, n_states), dtype=np.int64)
    for t in range(n_iterations):
        weights = np.exp(log_w - log_w.max())
        weights /= weights.sum()
        _, actions = batch_solve_optimal(cmp.transition, weights, discount)
        kernel = cmp.transition[states, actions]  # (S, S') under the response
        mu = np.linalg.solve(eye - discount * kernel.T, p0)
        # G in [0, 1]: each state's discounted visits lie in [0, 1/(1-gamma)].
        gain = ((1.0 - discount) * (mu - mu_demo) + 2.0) / 4.0
        log_w = log_w + log_beta * gain
        responses[t] = actions

    # Distinct responses as flattened one-hot action tables, in sorted order.
    tables = np.eye(cmp.n_actions)[responses].reshape(n_iterations, -1)
    distinct, inverse = np.unique(tables, axis=0, return_inverse=True)
    shares = np.zeros(distinct.shape[0])
    np.add.at(shares, inverse, 1.0 / n_iterations)
    policies = [StationaryPolicy(table.reshape(n_states, -1)) for table in distinct]
    return MixedPolicy(policies, shares)
