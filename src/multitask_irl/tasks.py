"""Benchmark environments: slippery chains and random multitask populations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import Cmp, Mdp, RewardFunction, StationaryPolicy, batch_solve_optimal, softmax_policy

__all__ = [
    "ADVANCE",
    "RESET",
    "make_chain",
    "chain_transition",
    "RandomMdpPopulation",
    "make_random_mdp_population",
    "make_demonstrator",
]

ADVANCE = 0
RESET = 1


def chain_transition(n_states: int, slip: float) -> Cmp:
    """Advance: next state w.p. 1 - slip, two ahead w.p. slip (clamped at the
    end). Reset: state 0 with certainty."""
    if n_states < 2:
        raise ValueError(f"a chain needs at least 2 states, got {n_states}")
    if not (0.0 <= slip <= 1.0):
        raise ValueError(f"slip must lie in [0, 1], got {slip}")
    last = n_states - 1
    transition = np.zeros((n_states, 2, n_states))
    for s in range(n_states):
        transition[s, ADVANCE, min(s + 1, last)] += 1.0 - slip
        transition[s, ADVANCE, min(s + 2, last)] += slip
        transition[s, RESET, 0] = 1.0
    return Cmp(transition)


def make_chain(n_states: int = 5, slip: float = 0.2, rewards=None,
               discount: float = 0.95) -> Mdp:
    """Linear chain: advance moves right but may slip two states, reset jumps
    home.  ``rewards`` lists one value per state; by default 0.2 at home, 1 at
    the far end."""
    cmp = chain_transition(n_states, slip)
    if rewards is None:
        rewards = np.zeros(n_states)
        rewards[0] = 0.2
        rewards[-1] = 1.0
    return Mdp(cmp, RewardFunction(np.array(rewards, dtype=float)), discount)


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


def make_random_mdp_population(rng: np.random.Generator, *, n_states: int = 8,
                               n_actions: int = 2, n_tasks: int = 10,
                               transition_concentration: float = 1.0,
                               reward_concentration_mean: float = 0.1,
                               temperature_range: tuple = (2.0, 8.0),
                               discount: float = 0.95) -> RandomMdpPopulation:
    """Population of related tasks over one random controlled process.

    The tasks share the dynamics and a reward pattern: a Dirichlet
    concentration is drawn once (independent exponential coordinates with
    mean ``reward_concentration_mean``), then each task's reward is a draw
    from that Dirichlet and each demonstrator a softmax policy with its own
    temperature, uniform over ``temperature_range``.  Everything is drawn
    from the generator ``rng``; a generator in the same state gives the same
    population.
    """
    if n_states < 2 or n_actions < 1 or n_tasks < 1:
        raise ValueError("need at least 2 states, 1 action and 1 task")
    low, high = temperature_range
    if not (0.0 <= low <= high):
        raise ValueError("temperature_range must be ordered and non-negative, got "
                         f"{temperature_range}")
    s, a = n_states, n_actions
    transition = np.empty((s, a, s))
    for i in range(s):
        transition[i] = rng.dirichlet(np.full(s, transition_concentration), size=a)
    cmp = Cmp(transition)
    # Exponential coordinates with a small mean favor sparse, shared reward peaks.
    concentration = rng.gamma(1.0, reward_concentration_mean, size=s)
    rewards = rng.dirichlet(concentration, size=n_tasks)
    temperatures = rng.uniform(low, high, size=n_tasks)
    demonstrators = []
    for m in range(n_tasks):
        mdp = Mdp(cmp, RewardFunction(rewards[m]), discount)
        demonstrators.append(make_demonstrator("softmax", mdp, eta=temperatures[m]))
    return RandomMdpPopulation(
        cmp=cmp,
        concentration=concentration,
        rewards=rewards,
        temperatures=temperatures,
        demonstrators=tuple(demonstrators),
        discount=discount,
    )


def make_demonstrator(kind: str, mdp: Mdp, *, eta: float = None,
                      epsilon: float = None) -> StationaryPolicy:
    """Expert policy for an MDP from one planner solve: ``softmax`` over its
    Q*, or ``eps_greedy`` on its greedy actions."""
    _, (greedy,), (q,) = batch_solve_optimal(mdp.cmp.transition, mdp.reward.values[None],
                                             mdp.discount)
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
