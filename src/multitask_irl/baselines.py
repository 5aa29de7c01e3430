"""Single-task baselines: direct imitation and a feature-matching game.

The imitator is the conjugate posterior mean policy around the observed
action counts.  The feature-matching baseline plays a repeated game between
a reward player running multiplicative weights over feature coordinates and
a policy player responding with the exact optimal policy, and returns the
uniform mixture of the responses.  Both are deterministic given the
demonstrations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import Cmp, Mdp, RewardFunction, StationaryPolicy, policy_transition, solve_optimal
from .priors import PolicyDirichletPrior, policy_posterior

__all__ = [
    "FeatureMap",
    "MixedPolicy",
    "imitator",
    "discounted_state_occupancy",
    "feature_expectations",
    "demo_feature_expectations",
    "mwal",
]


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """State features in [0, 1], one row per state."""

    values: np.ndarray  # (S, F)

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 2 or values.shape[1] < 1:
            raise ValueError(f"features must have shape (n_states, n_features), got {values.shape}")
        if not np.all(np.isfinite(values)) or np.any(values < 0) or np.any(values > 1):
            raise ValueError("feature values must be finite and lie in [0, 1]")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n_states(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    @classmethod
    def state_indicators(cls, n_states: int) -> "FeatureMap":
        return cls(np.eye(int(n_states)))

    def reward(self, weights) -> RewardFunction:
        """Reward ``w . phi(s)`` for simplex weights ``w``."""
        weights = np.asarray(weights, dtype=float)
        return RewardFunction(np.clip(self.values @ weights, 0.0, 1.0))


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

    @property
    def n_components(self) -> int:
        return len(self.policies)

    @classmethod
    def uniform(cls, policies) -> "MixedPolicy":
        policies = tuple(policies)
        return cls(policies, np.full(len(policies), 1.0 / len(policies)))


def imitator(demos, policy_prior: PolicyDirichletPrior) -> StationaryPolicy:
    """Posterior mean policy given the demonstrations' action counts."""
    return policy_posterior(policy_prior, list(demos)).mean()


def discounted_state_occupancy(cmp: Cmp, policy: StationaryPolicy, discount: float,
                               initial_state_probs=None) -> np.ndarray:
    """Unnormalized discounted visitation ``sum_t gamma^t P(s_t = s)``."""
    n = cmp.n_states
    if initial_state_probs is None:
        p0 = np.full(n, 1.0 / n)
    else:
        p0 = np.asarray(initial_state_probs, dtype=float)
        if p0.shape != (n,) or np.any(p0 < 0) or abs(p0.sum() - 1.0) > 1e-9:
            raise ValueError("initial_state_probs must be a distribution over states")
    kernel = policy_transition(cmp, policy)
    return np.linalg.solve(np.eye(n) - discount * kernel.T, p0)


def feature_expectations(cmp: Cmp, policy: StationaryPolicy, features: FeatureMap,
                         discount: float, initial_state_probs=None) -> np.ndarray:
    """Exact discounted feature expectations of a stationary policy."""
    occupancy = discounted_state_occupancy(cmp, policy, discount, initial_state_probs)
    return features.values.T @ occupancy


def demo_feature_expectations(demos, features: FeatureMap, discount: float) -> np.ndarray:
    """Empirical discounted feature sums, averaged over demonstrations."""
    demos = list(demos)
    if not demos:
        raise ValueError("need at least one demonstration")
    total = np.zeros(features.n_features)
    for demo in demos:
        states = demo.states
        if states.max() >= features.n_states:
            raise ValueError("demonstration visits a state outside the feature map")
        weights = discount ** np.arange(states.shape[0])
        total += weights @ features.values[states]
    return total / len(demos)


def mwal(cmp: Cmp, discount: float, demos, features: FeatureMap = None,
         n_iterations: int = 100, *, initial_state_probs=None) -> MixedPolicy:
    """Feature matching by multiplicative weights against exact best responses.

    Each round the reward player's simplex weights define a reward; the
    policy player answers with its exact optimal policy; the weight on each
    feature is pushed toward coordinates where the response still trails the
    demonstrations.  Returns the uniform mixture of the responses.
    """
    if features is None:
        features = FeatureMap.state_indicators(cmp.n_states)
    if features.n_states != cmp.n_states:
        raise ValueError("feature map does not match the CMP's state count")
    n_iterations = int(n_iterations)
    if n_iterations < 1:
        raise ValueError(f"n_iterations must be at least 1, got {n_iterations}")
    k = features.n_features
    mu_demo = demo_feature_expectations(demos, features, discount)
    # beta = 1 / (1 + sqrt(2 ln k / T)); ln beta <= 0 shrinks lagging weights.
    log_beta = -np.log1p(np.sqrt(2.0 * np.log(k) / n_iterations)) if k > 1 else 0.0
    log_w = np.zeros(k)
    responses = []
    for _ in range(n_iterations):
        shifted = log_w - log_w.max()
        weights = np.exp(shifted)
        weights /= weights.sum()
        reward = features.reward(weights)
        _, policy = solve_optimal(Mdp(cmp, reward, discount))
        mu = feature_expectations(cmp, policy, features, discount, initial_state_probs)
        # G in [0, 1]: each feature expectation lies in [0, 1/(1-gamma)].
        gain = ((1.0 - discount) * (mu - mu_demo) + 2.0) / 4.0
        log_w = log_w + log_beta * gain
        responses.append(policy)
    return MixedPolicy.uniform(responses)
