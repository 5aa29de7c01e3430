"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports ``multitask_irl``: every quantity is recomputed along a
second route with plain numpy, so agreement with the program is evidence
rather than a function compared with itself.

* Planning is exhaustive: all A^S deterministic policies are evaluated by
  dense linear solves, and the optimal values are their state-wise maximum.
* The two-atom posterior of the reward-and-temperature model is enumerated
  exactly from softmax likelihoods.
* The policy-optimality posterior is integrated over the slack interval by
  interval, each with its exact exponential mass.
"""

from __future__ import annotations

import itertools

import numpy as np


def chain_kernel(n_states: int, slip: float) -> np.ndarray:
    """Chain dynamics: action 0 advances one state (two w.p. ``slip``,
    clamped at the end), action 1 returns to state 0."""
    kernel = np.zeros((n_states, 2, n_states))
    last = n_states - 1
    for s in range(n_states):
        kernel[s, 0, min(s + 1, last)] += 1.0 - slip
        kernel[s, 0, min(s + 2, last)] += slip
        kernel[s, 1, 0] = 1.0
    return kernel


def policy_values(kernel: np.ndarray, reward: np.ndarray, action_probs: np.ndarray,
                  discount: float) -> np.ndarray:
    """Values of one or many stochastic policies: solve (I - g P_pi) V = r.

    ``action_probs`` is (S, A) or (K, S, A); the result is (S,) or (K, S).
    """
    probs = np.asarray(action_probs, dtype=float)
    single = probs.ndim == 2
    if single:
        probs = probs[None]
    n_states = kernel.shape[0]
    p_pi = np.einsum("ksa,sat->kst", probs, kernel)
    systems = np.eye(n_states)[None] - discount * p_pi
    rhs = np.broadcast_to(np.asarray(reward, dtype=float)[None, :, None],
                          (probs.shape[0], n_states, 1))
    values = np.linalg.solve(systems, rhs)[:, :, 0]
    return values[0] if single else values


def deterministic_policies(n_states: int, n_actions: int) -> np.ndarray:
    """Every deterministic policy as a (A^S, S, A) one-hot array."""
    table = np.array(list(itertools.product(range(n_actions), repeat=n_states)))
    probs = np.zeros((table.shape[0], n_states, n_actions))
    probs[np.arange(table.shape[0])[:, None], np.arange(n_states)[None, :], table] = 1.0
    return probs


class EnumerationPlanner:
    """Exact optimal values by enumerating deterministic policies.

    The optimal policy of a finite discounted MDP is deterministic and
    maximizes the value of every state at once, so the state-wise maximum
    over all A^S policy values is the optimal value function.
    """

    def __init__(self, kernel: np.ndarray, discount: float):
        self.kernel = np.asarray(kernel, dtype=float)
        self.discount = float(discount)
        n_states, n_actions = self.kernel.shape[:2]
        self._policies = deterministic_policies(n_states, n_actions)
        p_pi = np.einsum("ksa,sat->kst", self._policies, self.kernel)
        # One inverse per policy, reused for every reward vector.
        self._inverses = np.linalg.inv(np.eye(n_states)[None] - self.discount * p_pi)

    def optimal_values(self, reward) -> np.ndarray:
        values = self._inverses @ np.asarray(reward, dtype=float)  # (A^S, S)
        return values.max(axis=0)

    def q_values(self, reward) -> np.ndarray:
        reward = np.asarray(reward, dtype=float)
        return reward[:, None] + self.discount * self.kernel @ self.optimal_values(reward)

    def greedy(self, reward):
        """(actions, gaps): greedy action per state and its Q margin over the
        runner-up (the margin decides whether a tie-break is meaningful)."""
        q = self.q_values(reward)
        ordered = np.sort(q, axis=1)
        return q.argmax(axis=1), ordered[:, -1] - ordered[:, -2]

    def softmax_policy(self, reward, eta: float) -> np.ndarray:
        q = self.q_values(reward)
        logits = eta * (q - q.max(axis=1, keepdims=True))
        probs = np.exp(logits)
        return probs / probs.sum(axis=1, keepdims=True)

    def l1_loss(self, reward, action_probs) -> float:
        """Sum over states of the optimal-minus-achieved value gap, each
        clamped at zero: the loss the templates record per task."""
        optimal = self.optimal_values(reward)
        achieved = policy_values(self.kernel, reward, action_probs, self.discount)
        return float(np.maximum(optimal - achieved, 0.0).sum())

    def sup_loss(self, reward, action_probs) -> np.ndarray:
        """max_s (V* - V^pi) for one or many policies, clamped at zero."""
        optimal = self.optimal_values(reward)
        achieved = policy_values(self.kernel, reward, action_probs, self.discount)
        return np.maximum((optimal - achieved).max(axis=-1), 0.0)


def imitator_policy(counts: np.ndarray) -> np.ndarray:
    """Posterior-mean policy of a uniform Dirichlet(1, ..., 1) prior given
    (S, A) counts."""
    counts = np.asarray(counts, dtype=float)
    return (counts + 1.0) / (counts.sum(axis=1, keepdims=True) + counts.shape[1])


def action_counts(pairs, n_states: int, n_actions: int) -> np.ndarray:
    """(S, A) counts from an iterable of (states, actions) array pairs."""
    counts = np.zeros((n_states, n_actions))
    for states, actions in pairs:
        np.add.at(counts, (np.asarray(states), np.asarray(actions)), 1.0)
    return counts


def simulate(kernel: np.ndarray, action_probs: np.ndarray, horizon: int, rng):
    """Roll out a stochastic policy from state 0; returns (states, actions)
    arrays."""
    states = np.empty(horizon, dtype=np.int64)
    actions = np.empty(horizon, dtype=np.int64)
    state = 0
    for t in range(horizon):
        states[t] = state
        actions[t] = rng.choice(action_probs.shape[1], p=action_probs[state])
        state = rng.choice(kernel.shape[2], p=kernel[state, actions[t]])
    return states, actions


def two_atom_posterior(planner: EnumerationPlanner, atoms: np.ndarray, eta: float,
                       counts: np.ndarray, prior=(0.5, 0.5)) -> np.ndarray:
    """Exact posterior over two reward atoms for one task's (S, A) counts,
    with softmax demonstrators at the known temperature ``eta``."""
    logs = np.array([
        np.log(prior[j]) + float((counts * np.log(planner.softmax_policy(atoms[j], eta))).sum())
        for j in range(len(atoms))
    ])
    logs -= logs.max()
    probs = np.exp(logs)
    return probs / probs.sum()


def slack_posterior(losses: np.ndarray, measure: np.ndarray, rate: float) -> np.ndarray:
    """Policy-optimality posterior by exact integration over the slack.

    For slack eps the candidate set of policy k is {h : L[k, h] < eps}.  It
    only changes at the policy's own loss values, so the integral over an
    Exponential(rate) prior is a sum over the intervals between consecutive
    distinct losses, each weighted by its exact mass.  Policies are averaged
    with equal weight and the result normalized.
    """
    losses = np.asarray(losses, dtype=float)
    measure = np.asarray(measure, dtype=float)
    total = np.zeros(losses.shape[1])
    for row in losses:
        edges = np.unique(row)
        for i, low in enumerate(edges):
            high = edges[i + 1] if i + 1 < len(edges) else np.inf
            mass = np.exp(-rate * low) - (0.0 if np.isinf(high) else np.exp(-rate * high))
            admitted = np.where(row <= low, measure, 0.0)
            total += mass * admitted / admitted.sum()
    total /= losses.shape[0]
    return total / total.sum()
