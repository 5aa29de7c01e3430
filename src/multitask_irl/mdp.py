"""Finite controlled Markov processes: kernels, policies, planning, simulation.

Conventions used throughout the package:

* ``transition[s, a, s']`` is the probability of landing in ``s'`` after
  taking action ``a`` in state ``s``; every ``(s, a)`` row is a distribution.
* Rewards are state-based with values in ``[0, 1]``; the return collects
  ``rho(s_t)`` at each visited state before the transition, so the optimal
  values satisfy ``V = rho + gamma * max_a T V``.
* Greedy policies break ties toward the lowest action index; action values
  within ``_TIE_MARGIN`` of a state's best count as tied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LOG_ZERO",
    "Cmp",
    "RewardFunction",
    "Mdp",
    "StationaryPolicy",
    "Demonstration",
    "softmax_policy",
    "simulate",
    "demo_counts",
    "counts_log_likelihood",
    "batch_solve_optimal",
    "solve_optimal",
    "batch_policy_values",
    "DegeneratePosteriorError",
]

# Sentinel for log(0): large negative but finite, so importance weights built
# from impossible trajectories underflow to exactly 0 instead of producing nan.
LOG_ZERO = -1.0e300

_ROW_ATOL = 1e-12


class DegeneratePosteriorError(RuntimeError):
    """Raised when every posterior sample has zero usable weight."""

    def __init__(self, message: str, max_log_likelihood: float):
        super().__init__(f"{message} (max log-likelihood seen: {max_log_likelihood:.6g})")
        self.max_log_likelihood = max_log_likelihood


def _readonly(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Cmp:
    """Controlled Markov process: a finite transition kernel, no reward."""

    transition: np.ndarray

    def __post_init__(self):
        kernel = _readonly(self.transition)
        if kernel.ndim != 3 or kernel.shape[0] != kernel.shape[2]:
            raise ValueError(
                f"transition must have shape (n_states, n_actions, n_states), got {kernel.shape}"
            )
        if not np.all(np.isfinite(kernel)) or np.any(kernel < 0):
            raise ValueError("transition probabilities must be finite and non-negative")
        row_sums = kernel.sum(axis=2)
        if np.max(np.abs(row_sums - 1.0)) > _ROW_ATOL:
            worst = float(np.max(np.abs(row_sums - 1.0)))
            raise ValueError(f"each (state, action) row must sum to 1, worst deviation {worst:.3g}")
        object.__setattr__(self, "transition", kernel)

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def n_actions(self) -> int:
        return self.transition.shape[1]


@dataclass(frozen=True)
class RewardFunction:
    """State-based reward with entries in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        values = _readonly(self.values)
        if values.ndim != 1 or values.shape[0] < 1:
            raise ValueError(f"reward must be a non-empty vector, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("reward entries must be finite")
        if np.any(values < 0) or np.any(values > 1):
            raise ValueError("reward entries must lie in [0, 1]")
        object.__setattr__(self, "values", values)

    @property
    def n_states(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class Mdp:
    """A CMP paired with a reward function and a discount factor in [0, 1)."""

    cmp: Cmp
    reward: RewardFunction
    discount: float

    def __post_init__(self):
        if self.reward.n_states != self.cmp.n_states:
            raise ValueError(
                f"reward has {self.reward.n_states} states but the CMP has {self.cmp.n_states}"
            )
        if not (0.0 <= self.discount < 1.0):
            raise ValueError(f"discount must lie in [0, 1), got {self.discount}")


@dataclass(frozen=True)
class StationaryPolicy:
    """Stochastic stationary policy: ``action_probs[s, a] = pi(a | s)``."""

    action_probs: np.ndarray

    def __post_init__(self):
        probs = _readonly(self.action_probs)
        if probs.ndim != 2:
            raise ValueError(f"action_probs must be 2-d, got shape {probs.shape}")
        if not np.all(np.isfinite(probs)) or np.any(probs < 0):
            raise ValueError("action probabilities must be finite and non-negative")
        row_sums = probs.sum(axis=1)
        if np.max(np.abs(row_sums - 1.0)) > _ROW_ATOL:
            worst = float(np.max(np.abs(row_sums - 1.0)))
            raise ValueError(f"each state's action row must sum to 1, worst deviation {worst:.3g}")
        object.__setattr__(self, "action_probs", probs)

    @property
    def n_states(self) -> int:
        return self.action_probs.shape[0]

    @property
    def n_actions(self) -> int:
        return self.action_probs.shape[1]

    @classmethod
    def from_actions(cls, actions, n_actions: int) -> "StationaryPolicy":
        """Deterministic policy taking ``actions[s]`` in state ``s``."""
        actions = np.asarray(actions, dtype=int)
        probs = np.zeros((actions.shape[0], n_actions))
        probs[np.arange(actions.shape[0]), actions] = 1.0
        return cls(probs)

    @classmethod
    def uniform(cls, n_states: int, n_actions: int) -> "StationaryPolicy":
        return cls(np.full((n_states, n_actions), 1.0 / n_actions))

    def greedy_actions(self) -> np.ndarray:
        return self.action_probs.argmax(axis=1)


@dataclass(frozen=True)
class Demonstration:
    """One task's state-action trajectory."""

    task_id: int
    states: np.ndarray
    actions: np.ndarray

    def __post_init__(self):
        states = _readonly(self.states, dtype=np.int64)
        actions = _readonly(self.actions, dtype=np.int64)
        if states.ndim != 1 or actions.ndim != 1 or states.shape != actions.shape:
            raise ValueError("states and actions must be 1-d arrays of equal length")
        if states.shape[0] < 1:
            raise ValueError("a demonstration must contain at least one step")
        if np.any(states < 0) or np.any(actions < 0):
            raise ValueError("state and action indices must be non-negative")
        if int(self.task_id) < 0:
            raise ValueError(f"task_id must be non-negative, got {self.task_id}")
        object.__setattr__(self, "task_id", int(self.task_id))
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "actions", actions)

    def __len__(self) -> int:
        return self.states.shape[0]

    def check_bounds(self, n_states: int, n_actions: int) -> None:
        if np.any(self.states >= n_states) or np.any(self.actions >= n_actions):
            raise ValueError(
                f"demonstration for task {self.task_id} has indices outside "
                f"({n_states} states, {n_actions} actions)"
            )


def softmax_policy(q: np.ndarray, eta: float) -> StationaryPolicy:
    """Boltzmann policy ``pi(a|s) proportional to exp(eta * Q(s, a))``.

    Rows are shifted by their maximum before exponentiation, so the result
    is invariant to per-state constant shifts of ``q`` and safe for large
    ``eta``.  ``eta = 0`` yields the uniform policy.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2:
        raise ValueError(f"q must be 2-d, got shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise ValueError("q entries must be finite")
    if not (eta >= 0.0 and np.isfinite(eta)):
        raise ValueError(f"eta must be finite and non-negative, got {eta}")
    return StationaryPolicy(_batch_softmax(q, eta))


def _batch_softmax(q: np.ndarray, eta) -> np.ndarray:
    """Row-shifted softmax over the last axis; ``eta`` broadcasts over batches."""
    shifted = np.asarray(eta)[..., None, None] * (q - q.max(axis=-1, keepdims=True))
    probs = np.exp(shifted)
    return probs / probs.sum(axis=-1, keepdims=True)


def simulate(
    model,
    policy: StationaryPolicy,
    horizon: int,
    rng: np.random.Generator,
    *,
    task_id: int = 0,
    initial_state_probs=None,
) -> Demonstration:
    """Roll out ``policy`` for ``horizon`` steps and record the trajectory.

    ``model`` may be an ``Mdp`` or a bare ``Cmp``.  The initial state is drawn
    from ``initial_state_probs`` (default: point mass on state 0).  All draws
    come from the generator ``rng``, so a generator in the same state (such
    as a fresh ``substream``) produces a bit-identical trajectory.
    """
    cmp = model.cmp if isinstance(model, Mdp) else model
    if not isinstance(cmp, Cmp):
        raise TypeError(f"model must be an Mdp or Cmp, got {type(model).__name__}")
    if policy.n_states != cmp.n_states or policy.n_actions != cmp.n_actions:
        raise ValueError("policy shape does not match the CMP")
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    if initial_state_probs is None:
        state = 0
    else:
        p0 = np.asarray(initial_state_probs, dtype=float)
        if (p0.shape != (cmp.n_states,) or not np.all(np.isfinite(p0)) or np.any(p0 < 0)
                or abs(p0.sum() - 1.0) > _ROW_ATOL):
            raise ValueError("initial_state_probs must be a distribution over states")
        state = int(np.searchsorted(np.cumsum(p0), rng.random(), side="right"))
        state = min(state, cmp.n_states - 1)
    cum_policy = np.cumsum(policy.action_probs, axis=1)
    cum_kernel = np.cumsum(cmp.transition, axis=2)
    draws = rng.random((horizon, 2))
    states = np.empty(horizon, dtype=np.int64)
    actions = np.empty(horizon, dtype=np.int64)
    last_action = cmp.n_actions - 1
    last_state = cmp.n_states - 1
    for t in range(horizon):
        states[t] = state
        action = int(np.searchsorted(cum_policy[state], draws[t, 0], side="right"))
        action = min(action, last_action)
        actions[t] = action
        state = int(np.searchsorted(cum_kernel[state, action], draws[t, 1], side="right"))
        state = min(state, last_state)
    return Demonstration(task_id=task_id, states=states, actions=actions)


def demo_counts(demos, n_states: int, n_actions: int) -> np.ndarray:
    """``(S, A)`` matrix counting the (state, action) pairs of ``demos``.

    A task's likelihood, its imitator and its conjugate policy posterior
    depend on its demonstrations only through this matrix.
    """
    counts = np.zeros(n_states * n_actions)
    for demo in demos:
        if not isinstance(demo, Demonstration):
            raise TypeError(f"expected Demonstration, got {type(demo).__name__}")
        demo.check_bounds(n_states, n_actions)
        counts += np.bincount(demo.states * n_actions + demo.actions,
                              minlength=n_states * n_actions)
    return counts.reshape(n_states, n_actions)


def counts_log_likelihood(counts: np.ndarray, action_probs: np.ndarray):
    """``sum_{s,a} N[s, a] log pi(a | s)`` over leading batch axes.

    ``counts`` (..., S, A) and ``action_probs`` (..., S, A) broadcast against
    each other; the result has their broadcast leading shape (a float for
    one matrix against one policy).  An observed pair that the policy gives
    probability at most zero makes the entry ``LOG_ZERO``.
    """
    positive = action_probs > 0.0
    log_probs = np.log(np.where(positive, action_probs, 1.0))
    total = np.einsum("...sa,...sa->...", counts, log_probs)
    dead = np.any((counts > 0) & ~positive, axis=(-2, -1))
    total = np.where(dead, LOG_ZERO, total)
    return float(total) if total.ndim == 0 else total


# ---------------------------------------------------------------------------
# Planners: exact linear solves, batched over reward vectors or policies.
# ---------------------------------------------------------------------------

# Action values closer than this to a state's best are ties; greedy choices
# take the lowest tied action index, so float noise cannot pick the action.
_TIE_MARGIN = 1e-10
# Policy iteration on these small models converges in a handful of iterations.
_MAX_POLICY_ITERATIONS = 200


def _batch_q(transition: np.ndarray, rewards: np.ndarray, values: np.ndarray,
             discount: float) -> np.ndarray:
    """Action values for batched (K, S) rewards and values: (K, S, A)."""
    return rewards[:, :, None] + discount * np.einsum("sat,kt->ksa", transition, values)


def batch_solve_optimal(transition: np.ndarray, rewards: np.ndarray, discount: float,
                        start=None, *, with_q: bool = False):
    """Optimal values and greedy actions for a batch of reward vectors.

    ``rewards`` has shape (K, S) or (S,); returns ``(values, actions)`` of
    the same leading shape.  Policy iteration with exact linear evaluation,
    starting from ``start`` (integer actions shaped like ``rewards``; action
    0 everywhere by default) and switching a state's action only where
    another beats it by more than the tie margin.  A row leaves the batch in
    the round in which none of its states can improve: its values are those
    of that round's policy and its actions the greedy ones of that round's
    Q.  Each row's linear system is solved on its own, so a row's values do
    not depend on which other rows are still in the batch; they are the same
    bits as a solve of that row alone.  With ``with_q`` the result also
    holds that last round's Q, (K, S, A) or (S, A): the bits ``_batch_q``
    gives from the returned values.  A start nearer the optimum (the
    previous solution of a nearby reward) saves rounds.  Raises
    ``RuntimeError`` if some row has no optimal policy among the first
    ``_MAX_POLICY_ITERATIONS`` evaluated.
    """
    rewards = np.asarray(rewards, dtype=float)
    actions = np.zeros(rewards.shape, dtype=np.int64) if start is None else np.asarray(start)
    if actions.shape != rewards.shape:
        raise ValueError(f"start must be shaped like rewards, got {actions.shape}")
    squeeze = rewards.ndim == 1
    if squeeze:
        rewards, actions = rewards[None, :], actions[None, :]
    n_states, n_actions = transition.shape[:2]
    if rewards.shape[1] != n_states:
        raise ValueError(f"rewards must have {n_states} columns, got {rewards.shape}")
    if not np.all(np.isfinite(rewards)):
        raise ValueError("reward entries must be finite")
    if start is not None and (actions.dtype.kind not in "iu" or actions.size and (
            actions.min() < 0 or actions.max() >= n_actions)):
        raise ValueError(f"start must hold action indices in [0, {n_actions})")
    eye = np.eye(n_states)
    states = np.arange(n_states)[None, :]
    # Indices of the rows still iterating, once some have left the batch.
    active = None
    for _ in range(_MAX_POLICY_ITERATIONS):
        rows = transition[states, actions]  # (K, S, S')
        values = np.linalg.solve(eye[None] - discount * rows, rewards[:, :, None])[:, :, 0]
        q = _batch_q(transition, rewards, values, discount)
        best = q.max(axis=2)
        improvable = best - q[np.arange(q.shape[0])[:, None], states, actions] > _TIE_MARGIN
        pending = improvable.any(axis=1)
        # The lowest action index within the tie margin of each state's best.
        greedy = np.argmax(q >= (best - _TIE_MARGIN)[:, :, None], axis=2)
        if not pending.any():
            if active is None:
                out = (values[0], greedy[0], q[0]) if squeeze else (values, greedy, q)
            else:
                out = (out_values, out_actions, out_q)
                out_values[active] = values
                out_actions[active] = greedy
                if with_q:
                    out_q[active] = q
            return out if with_q else out[:2]
        actions = np.where(improvable, greedy, actions)
        if not pending.all():
            if active is None:
                active = np.arange(rewards.shape[0])
                out_values = np.empty(rewards.shape)
                out_actions = np.empty(rewards.shape, dtype=np.int64)
                # A caller that drops Q does not pay for assembling it.
                out_q = np.empty(q.shape) if with_q else None
            done = ~pending
            out_values[active[done]] = values[done]
            out_actions[active[done]] = greedy[done]
            if with_q:
                out_q[active[done]] = q[done]
            active, rewards, actions = active[pending], rewards[pending], actions[pending]
    raise RuntimeError(
        f"policy iteration did not converge within {_MAX_POLICY_ITERATIONS} iterations"
    )


def solve_optimal(mdp: Mdp):
    """Optimal values and the deterministic greedy policy of one MDP.

    Ties go to the lowest action index (see ``batch_solve_optimal``).
    """
    values, actions = batch_solve_optimal(mdp.cmp.transition, mdp.reward.values, mdp.discount)
    return values, StationaryPolicy.from_actions(actions, mdp.cmp.n_actions)


def batch_policy_values(transition: np.ndarray, rewards: np.ndarray,
                        action_probs: np.ndarray, discount: float) -> np.ndarray:
    """Exact values of many policies under many reward vectors.

    ``rewards``: (N, S); ``action_probs``: (K, S, A).  Returns (K, N, S) where
    ``out[k, n]`` is the value of policy ``k`` under reward ``n``, solved as a
    dense linear system per policy (one factorization, N right-hand sides).
    """
    rewards = np.asarray(rewards, dtype=float)
    action_probs = np.asarray(action_probs, dtype=float)
    n_states = transition.shape[0]
    kernels = np.einsum("ksa,sat->kst", action_probs, transition)  # (K, S, S')
    systems = np.eye(n_states)[None] - discount * kernels
    rhs = np.broadcast_to(rewards.T[None], (action_probs.shape[0], n_states, rewards.shape[0]))
    solved = np.linalg.solve(systems, np.ascontiguousarray(rhs))  # (K, S, N)
    return np.moveaxis(solved, 2, 1)
