"""Reward inference through a prior on how close to optimal the agent plays.

Instead of modelling the demonstrator's temperature, this model scores every
reward hypothesis by the demonstrator's optimality slack: for a policy pi and
slack eps, the candidate set holds the hypotheses under which pi loses
strictly less than eps of optimal value (sup norm).  Averaging the normalized
candidate sets over an exponential prior on eps, and over policies sampled
from a conjugate posterior around the demonstration, yields a posterior over
the hypothesis set.  The averaging is exact: the integrand is constant
between consecutive distinct loss values, so the eps integral reduces to a
weighted sum over intervals with exponential interval masses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .mdp import Cmp, RewardFunction, batch_policy_values, batch_solve_optimal
from .mtpp import (_errors_name, _group_demos, _header_fields, _json_safe, _read_jsonl,
                   _seed_metadata, _stack)
from .priors import OptimalityPrior, PolicyDirichletPrior, policy_posterior, sample_policies
from .seeding import substream

__all__ = [
    "RewardHypothesisSet",
    "LossMatrix",
    "RewardPosterior",
    "MtpoResult",
    "build_loss_matrix",
    "reward_posterior",
    "mtpo_mc",
]

@dataclass(frozen=True, eq=False)
class RewardHypothesisSet:
    """Finite set of reward vectors with a base measure over them."""

    values: np.ndarray            # (N, S)
    measure: np.ndarray = None    # (N,) positive; defaults to counting measure

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 1:
            raise ValueError(f"values must have shape (n_hypotheses, n_states), got {values.shape}")
        if not np.all(np.isfinite(values)) or np.any(values < 0) or np.any(values > 1):
            raise ValueError("hypothesis rewards must be finite and lie in [0, 1]")
        values.setflags(write=False)
        if self.measure is None:
            measure = np.ones(values.shape[0])
        else:
            measure = np.array(self.measure, dtype=float)
            if measure.shape != (values.shape[0],) or not (
                    np.all(np.isfinite(measure)) and np.all(measure > 0)):
                raise ValueError("measure must assign a finite positive mass to every hypothesis")
        measure.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "measure", measure)

    @property
    def n_hypotheses(self) -> int:
        return self.values.shape[0]

    @property
    def n_states(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class LossMatrix:
    """``losses[i, j]``: sup-norm value loss of policy i under hypothesis j."""

    losses: np.ndarray  # (K, N), non-negative

    def __post_init__(self):
        losses = np.array(self.losses, dtype=float)
        if losses.ndim != 2:
            raise ValueError(
                f"losses must have shape (n_policies, n_hypotheses), got {losses.shape}"
            )
        if not np.all(np.isfinite(losses)) or np.any(losses < 0):
            raise ValueError("losses must be finite and non-negative")
        losses.setflags(write=False)
        object.__setattr__(self, "losses", losses)


def build_loss_matrix(cmp: Cmp, discount: float, policies, hypotheses: RewardHypothesisSet,
                      optimal=None) -> LossMatrix:
    """Sup-norm value losses of ``(K, S, A)`` policies under each hypothesis.

    Entry (i, j) is ``max_s V*_j(s) - V^{pi_i}_j(s)``, clamped at zero (the
    gap can dip a hair negative at float precision).  ``optimal`` holds the
    hypotheses' ``(N, S)`` optimal values when the caller has solved them.
    """
    if hypotheses.n_states != cmp.n_states:
        raise ValueError("hypothesis set does not match the CMP's state count")
    if optimal is None:
        optimal, _ = batch_solve_optimal(cmp.transition, hypotheses.values, discount)
    policies = np.asarray(policies, dtype=float)
    if policies.shape[1:] != (cmp.n_states, cmp.n_actions):
        raise ValueError(
            f"policies must have shape (K, {cmp.n_states}, {cmp.n_actions}), got {policies.shape}"
        )
    policy_values = batch_policy_values(cmp.transition, hypotheses.values, policies, discount)
    gaps = optimal[None, :, :] - policy_values  # (K, N, S)
    return LossMatrix(np.maximum(gaps.max(axis=2), 0.0))


@dataclass(frozen=True, eq=False)
class RewardPosterior:
    """Probability vector over a hypothesis set."""

    probabilities: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probabilities, dtype=float)
        valid = probs.ndim == 1 and np.all(np.isfinite(probs)) and np.all(probs >= 0)
        if not valid or abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError("probabilities must be finite, non-negative and sum to 1 within 1e-9")
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)


def reward_posterior(loss_matrix: LossMatrix, prior: OptimalityPrior,
                     hypotheses: RewardHypothesisSet) -> RewardPosterior:
    """Posterior over hypotheses, averaging candidate sets over slack and policies.

    For each policy, the candidate-set conditional is piecewise constant in
    eps between consecutive sorted losses, so the exponential-prior integral
    is a finite sum: hypothesis h collects, from every interval whose lower
    edge is at or above its own loss, (prior mass on the interval) divided by
    (cumulative measure admitted so far).  Suffix sums over each policy's
    sorted row give all hypotheses at once; the slice below the smallest
    loss admits nothing and contributes zero.  Tied losses produce
    zero-width, zero-mass intervals, so no merging is needed.  Policies are
    averaged uniformly and the result renormalized.
    """
    losses = loss_matrix.losses
    if losses.shape[1] != hypotheses.n_hypotheses:
        raise ValueError("loss matrix does not match the hypothesis set")
    order = np.argsort(losses, axis=1, kind="stable")
    sorted_losses = np.take_along_axis(losses, order, axis=1)
    sorted_measure = hypotheses.measure[order]
    admitted = np.cumsum(sorted_measure, axis=1)
    upper = np.concatenate(
        [sorted_losses[:, 1:], np.full((losses.shape[0], 1), np.inf)], axis=1
    )
    # Exponential prior mass on [lower, upper); exp(-inf) is exactly 0.
    mass = np.exp(-prior.rate * sorted_losses) - np.exp(-prior.rate * upper)
    ratio = mass / admitted
    suffix = np.flip(np.cumsum(np.flip(ratio, axis=1), axis=1), axis=1)
    contribution = np.empty_like(losses)
    np.put_along_axis(contribution, order, sorted_measure * suffix, axis=1)
    accumulated = contribution.sum(axis=0) / losses.shape[0]
    total = accumulated.sum()
    if total <= 0:
        raise ValueError("posterior collapsed to zero mass; loss matrix is malformed")
    return RewardPosterior(accumulated / total)


@dataclass(frozen=True, eq=False)
class MtpoResult:
    """Per-task reward posteriors over one shared hypothesis set."""

    task_ids: tuple
    posteriors: tuple              # one RewardPosterior per task id
    hypotheses: RewardHypothesisSet
    metadata: dict = field(default_factory=dict)

    def posterior(self, task_id: int) -> RewardPosterior:
        try:
            index = self.task_ids.index(task_id)
        except ValueError:
            raise KeyError(f"task {task_id} is not in this result (tasks: {self.task_ids})")
        return self.posteriors[index]

    def posterior_mean_reward(self, task_id: int) -> RewardFunction:
        """Posterior mean of the task's reward over the hypothesis set."""
        mean = self.posterior(task_id).probabilities @ self.hypotheses.values
        return RewardFunction(np.clip(mean, 0.0, 1.0))

    def to_jsonl(self, path) -> None:
        """Write hypothesis set plus one posterior line per task."""
        header = {
            "format": "mtpo-posterior",
            "task_ids": list(self.task_ids),
            "hypotheses": self.hypotheses.values.tolist(),
            "measure": self.hypotheses.measure.tolist(),
            "metadata": {k: v for k, v in self.metadata.items() if _json_safe(v)},
        }
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for tid, post in zip(self.task_ids, self.posteriors):
                record = {"task_id": int(tid), "probabilities": post.probabilities.tolist()}
                handle.write(json.dumps(record) + "\n")

    @classmethod
    def from_jsonl(cls, path) -> "MtpoResult":
        with _errors_name(path):
            header, records = _read_jsonl(path, "mtpo-posterior")
            task_ids, metadata = _header_fields(header)
            found = tuple(r["task_id"] for r in records)
            if found != task_ids:
                raise ValueError(
                    f"header lists tasks {list(task_ids)}, records are for {list(found)}"
                )
            # A null measure is malformed here, not the counting measure.
            measure = np.asarray(header["measure"], dtype=float)
            hypotheses = RewardHypothesisSet(header["hypotheses"], measure)
            probabilities = _stack(records, "probabilities",
                                   (len(records), hypotheses.n_hypotheses))
            posteriors = tuple(RewardPosterior(row) for row in probabilities)
        return cls(
            task_ids=task_ids,
            posteriors=posteriors,
            hypotheses=hypotheses,
            metadata=metadata,
        )


def mtpo_mc(cmp: Cmp, demos, policy_prior: PolicyDirichletPrior, *,
            optimality_prior: OptimalityPrior = None, n_policy_samples: int = 100,
            hypotheses: RewardHypothesisSet = None, reward_prior=None,
            n_hypotheses: int = None, discount: float = 0.95, seed=0) -> MtpoResult:
    """Monte Carlo posterior over a reward hypothesis set, one per task.

    Either pass a ready ``hypotheses`` set, or a ``reward_prior`` plus
    ``n_hypotheses`` to sample one (shared across tasks).  For each task the
    demonstrations carry, ``n_policy_samples`` policies are drawn from the
    conjugate policy posterior around its (state, action) count matrix,
    their loss matrix against the hypothesis set is built, and the
    slack-averaged posterior computed.
    """
    if optimality_prior is None:
        optimality_prior = OptimalityPrior(1.0)
    if (hypotheses is None) == (reward_prior is None):
        raise ValueError("pass exactly one of `hypotheses` or `reward_prior`")
    if int(n_policy_samples) < 1:
        raise ValueError(f"n_policy_samples must be at least 1, got {n_policy_samples}")
    if policy_prior.n_states != cmp.n_states or policy_prior.n_actions != cmp.n_actions:
        raise ValueError("policy prior shape does not match the CMP")
    if hypotheses is None:
        if n_hypotheses is None or int(n_hypotheses) < 1:
            raise ValueError("reward_prior requires a positive n_hypotheses")
        hyp_rng = substream(seed, "mtpo-mc", "hypotheses")
        hypotheses = RewardHypothesisSet(reward_prior.sample_batch(hyp_rng, int(n_hypotheses)))
    if hypotheses.n_states != cmp.n_states:
        raise ValueError("hypothesis set does not match the CMP's state count")

    task_ids, counts = _group_demos(demos, cmp)
    # One hypothesis set serves every task, so its optima are solved once.
    optimal, _ = batch_solve_optimal(cmp.transition, hypotheses.values, discount)
    posteriors = []
    for tid, task_counts in zip(task_ids, counts):
        rng = substream(seed, "mtpo-mc", "task", tid)
        task_posterior = policy_posterior(policy_prior, task_counts)
        sampled = sample_policies(task_posterior, int(n_policy_samples), rng)
        loss_matrix = build_loss_matrix(cmp, discount, sampled, hypotheses, optimal)
        posteriors.append(reward_posterior(loss_matrix, optimality_prior, hypotheses))
    return MtpoResult(
        task_ids=task_ids,
        posteriors=tuple(posteriors),
        hypotheses=hypotheses,
        metadata={
            "kind": "mtpo-mc",
            "seed": _seed_metadata(seed),
            "n_policy_samples": int(n_policy_samples),
            "optimality_rate": float(optimality_prior.rate),
            "discount": float(discount),
        },
    )
