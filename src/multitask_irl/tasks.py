"""Benchmark environments: slippery chains and random multitask populations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import Cmp, Mdp, RewardFunction, StationaryPolicy, batch_solve_optimal, softmax_policy

__all__ = [
    "ADVANCE",
    "RESET",
    "ChainSpec",
    "make_chain",
    "chain_transition",
    "RandomMdpSpec",
    "RandomMdpPopulation",
    "make_random_mdp_population",
    "make_demonstrator",
]

ADVANCE = 0
RESET = 1


@dataclass(frozen=True)
class ChainSpec:
    """Linear chain: advance moves right but may slip two states, reset jumps home."""

    n_states: int = 5
    slip: float = 0.2
    rewards: tuple = None   # defaults to 0.2 at home, 1 at the far end
    discount: float = 0.95

    def __post_init__(self):
        if int(self.n_states) < 2:
            raise ValueError(f"a chain needs at least 2 states, got {self.n_states}")
        if not (0.0 <= float(self.slip) <= 1.0):
            raise ValueError(f"slip must lie in [0, 1], got {self.slip}")
        object.__setattr__(self, "n_states", int(self.n_states))
        object.__setattr__(self, "slip", float(self.slip))
        if self.rewards is not None:
            rewards = tuple(float(r) for r in self.rewards)
            if len(rewards) != self.n_states:
                raise ValueError("rewards must list one value per state")
            object.__setattr__(self, "rewards", rewards)

    def reward_values(self) -> np.ndarray:
        if self.rewards is not None:
            return np.array(self.rewards)
        values = np.zeros(self.n_states)
        values[0] = 0.2
        values[-1] = 1.0
        return values


def chain_transition(n_states: int, slip: float) -> Cmp:
    """Advance: next state w.p. 1 - slip, two ahead w.p. slip (clamped at the
    end). Reset: state 0 with certainty."""
    last = n_states - 1
    transition = np.zeros((n_states, 2, n_states))
    for s in range(n_states):
        transition[s, ADVANCE, min(s + 1, last)] += 1.0 - slip
        transition[s, ADVANCE, min(s + 2, last)] += slip
        transition[s, RESET, 0] = 1.0
    return Cmp(transition)


def make_chain(spec: ChainSpec = None) -> Mdp:
    if spec is None:
        spec = ChainSpec()
    cmp = chain_transition(spec.n_states, spec.slip)
    return Mdp(cmp, RewardFunction(spec.reward_values()), spec.discount)


@dataclass(frozen=True)
class RandomMdpSpec:
    """Population of related tasks over one random controlled process.

    The tasks share the dynamics and a reward pattern: a Dirichlet
    concentration is drawn once (independent exponential coordinates with
    the given mean), then each task's reward is a draw from that Dirichlet
    and each demonstrator a softmax policy with its own temperature.
    """

    n_states: int = 8
    n_actions: int = 2
    n_tasks: int = 10
    transition_concentration: float = 1.0
    reward_concentration_mean: float = 0.1
    temperature_range: tuple = (2.0, 8.0)
    discount: float = 0.95

    def __post_init__(self):
        if int(self.n_states) < 2 or int(self.n_actions) < 1 or int(self.n_tasks) < 1:
            raise ValueError("need at least 2 states, 1 action and 1 task")
        low, high = (float(v) for v in self.temperature_range)
        if not (0.0 <= low <= high):
            raise ValueError(f"temperature_range must be ordered and non-negative, got {self.temperature_range}")
        object.__setattr__(self, "n_states", int(self.n_states))
        object.__setattr__(self, "n_actions", int(self.n_actions))
        object.__setattr__(self, "n_tasks", int(self.n_tasks))
        object.__setattr__(self, "temperature_range", (low, high))


@dataclass(frozen=True, eq=False)
class RandomMdpPopulation:
    """Sampled ground truth: shared dynamics, per-task rewards and experts."""

    cmp: Cmp
    concentration: np.ndarray        # (S,) shared reward-prior concentration
    rewards: np.ndarray              # (M, S) true task rewards
    temperatures: np.ndarray         # (M,) expert softmax temperatures
    demonstrators: tuple             # M StationaryPolicy
    discount: float

    def mdp(self, task: int) -> Mdp:
        return Mdp(self.cmp, RewardFunction(self.rewards[task]), self.discount)


def make_random_mdp_population(spec: RandomMdpSpec,
                               rng: np.random.Generator) -> RandomMdpPopulation:
    """Draw the dynamics, rewards, temperatures and experts from the
    generator ``rng``; a generator in the same state gives the same
    population."""
    s, a = spec.n_states, spec.n_actions
    transition = np.empty((s, a, s))
    for i in range(s):
        transition[i] = rng.dirichlet(np.full(s, spec.transition_concentration), size=a)
    cmp = Cmp(transition)
    # Exponential coordinates with a small mean favor sparse, shared reward peaks.
    concentration = rng.gamma(1.0, spec.reward_concentration_mean, size=s)
    rewards = rng.dirichlet(concentration, size=spec.n_tasks)
    low, high = spec.temperature_range
    temperatures = rng.uniform(low, high, size=spec.n_tasks)
    demonstrators = []
    for m in range(spec.n_tasks):
        mdp = Mdp(cmp, RewardFunction(rewards[m]), spec.discount)
        demonstrators.append(make_demonstrator("softmax", mdp, eta=temperatures[m]))
    return RandomMdpPopulation(
        cmp=cmp,
        concentration=concentration,
        rewards=rewards,
        temperatures=temperatures,
        demonstrators=tuple(demonstrators),
        discount=spec.discount,
    )


def make_demonstrator(kind: str, mdp: Mdp, *, eta: float = None,
                      epsilon: float = None) -> StationaryPolicy:
    """Expert policy for an MDP from one planner solve: ``softmax`` over its
    Q*, or ``eps_greedy`` on its greedy actions."""
    _, greedy, q = batch_solve_optimal(mdp.cmp.transition, mdp.reward.values, mdp.discount,
                                       with_q=True)
    if kind == "softmax":
        if eta is None:
            raise ValueError("softmax demonstrator needs eta")
        return softmax_policy(q, float(eta))
    if kind == "eps_greedy":
        if epsilon is None:
            raise ValueError("eps_greedy demonstrator needs epsilon")
        epsilon = float(epsilon)
        if not (0.0 <= epsilon <= 1.0):
            raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
        n_actions = mdp.cmp.n_actions
        probs = np.full((mdp.cmp.n_states, n_actions), epsilon / n_actions)
        probs[np.arange(mdp.cmp.n_states), greedy] += 1.0 - epsilon
        return StationaryPolicy(probs)
    raise ValueError(f"unknown demonstrator kind {kind!r} (expected 'softmax' or 'eps_greedy')")
