"""Hierarchical reward-and-temperature posterior samplers for task populations.

Model: a population-level hyperprior emits a reward prior and a temperature
prior; each task m independently draws a reward ``rho_m`` and a softmax
temperature ``eta_m``; the demonstrator for task m follows the Boltzmann
policy of the optimal action values for ``rho_m``.  Given one demonstration
set per task, the posterior factorizes across tasks conditional on the
population draw, which both samplers below exploit:

* :func:`mtpp_mc` - importance sampling from the prior with one global
  normalization over the joint (all-task) likelihoods.
* :func:`mtpp_mh` - random-walk Metropolis-Hastings over the joint state
  (hyperparameters plus every task's reward and temperature).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .mdp import (
    LOG_ZERO,
    Cmp,
    DegeneratePosteriorError,
    Mdp,
    RewardFunction,
    StationaryPolicy,
    _batch_q,
    _batch_softmax,
    batch_solve_optimal,
    counts_log_likelihood,
    demo_counts,
    solve_optimal,
)
from .priors import (
    DirichletRewardPrior,
    DiscreteRewardPrior,
    FixedHyperprior,
    FixedTemperature,
    GammaHyperprior,
    TemperaturePrior,
    _dirichlet_log_pdf,
    _dirichlet_rows,
    _gamma_log_pdf,
)
from .seeding import substream

__all__ = [
    "PosteriorEnsemble",
    "mtpp_mc",
    "mtpp_mh",
    "posterior_policy",
    "importance_weights",
    "metropolis_accept",
]

# Totals at or below this are treated as "no sample had usable likelihood".
_DEGENERATE_CUTOFF = LOG_ZERO / 2


def importance_weights(log_likelihoods) -> np.ndarray:
    """Normalize joint log-likelihoods into importance weights.

    ``log_likelihoods`` is either a ``(K,)`` vector of per-sample joint
    log-likelihoods or a ``(K, M)`` matrix of per-sample per-task values
    (summed across tasks here).  Weights are computed in log space, so they
    are invariant under any per-task positive rescaling of the likelihoods
    and underflow to exact zeros gracefully.  Raises
    :class:`DegeneratePosteriorError` if every sample is impossible.
    """
    arr = np.asarray(log_likelihoods, dtype=float)
    if arr.ndim == 2:
        totals = arr.sum(axis=1)
    elif arr.ndim == 1:
        totals = arr.copy()
    else:
        raise ValueError(f"log_likelihoods must be 1-d or 2-d, got shape {arr.shape}")
    if totals.shape[0] < 1:
        raise ValueError("need at least one sample")
    max_total = float(totals.max())
    if max_total <= _DEGENERATE_CUTOFF:
        raise DegeneratePosteriorError("all importance weights underflowed to zero", max_total)
    weights = np.exp(totals - max_total)
    return weights / weights.sum()


def metropolis_accept(log_ratio, rng):
    """Metropolis-Hastings accept/reject decisions.

    A scalar log-ratio gives one bool, an array gives a bool array.  A
    ratio at or above zero is accepted outright; each other one (nan
    included) draws one uniform, in array order, so an array decision
    consumes the stream exactly as the same scalar decisions in turn.
    """
    ratios = np.asarray(log_ratio, dtype=float)
    accept = np.atleast_1d(ratios >= 0)
    undecided = ~accept
    accept[undecided] = rng.random(int(undecided.sum())) < np.exp(
        np.atleast_1d(ratios)[undecided]
    )
    return bool(accept[0]) if ratios.ndim == 0 else accept


@dataclass(frozen=True, eq=False)
class PosteriorEnsemble:
    """Weighted joint samples over the tasks' rewards and temperatures.

    ``rewards[k, m]`` is sample k's reward vector for the m-th task in
    ``task_ids`` (sorted ascending).  Weights sum to one, rewards lie in
    [0, 1], temperatures are non-negative and every value is finite.
    """

    task_ids: tuple
    weights: np.ndarray                     # (K,)
    rewards: np.ndarray                     # (K, M, S)
    temperatures: np.ndarray                # (K, M)
    log_likelihoods: np.ndarray             # (K, M)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        valid = np.all(np.isfinite(weights)) and np.all(weights >= 0)
        if not valid or abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be finite, non-negative and sum to 1 within 1e-9")
        rewards = np.asarray(self.rewards, dtype=float)
        # min and max read the (K, M, S) rewards in place; NaN fails both bounds.
        if rewards.size == 0 or not (rewards.min() >= 0 and rewards.max() <= 1):
            raise ValueError("rewards must be non-empty, finite and lie in [0, 1]")
        temperatures = np.asarray(self.temperatures, dtype=float)
        if not (np.all(np.isfinite(temperatures)) and np.all(temperatures >= 0)):
            raise ValueError("temperatures must be finite and non-negative")
        if not np.all(np.isfinite(self.log_likelihoods)):
            raise ValueError("log-likelihoods must be finite")

    @property
    def n_samples(self) -> int:
        return self.weights.shape[0]

    @property
    def n_tasks(self) -> int:
        return len(self.task_ids)

    def task_index(self, task_id: int) -> int:
        try:
            return self.task_ids.index(task_id)
        except ValueError:
            raise KeyError(f"task {task_id} is not in this ensemble (tasks: {self.task_ids})")

    def posterior_mean_reward(self, task_id: int) -> RewardFunction:
        """Weighted posterior mean of the task's reward vector."""
        m = self.task_index(task_id)
        mean = self.weights @ self.rewards[:, m, :]
        return RewardFunction(np.clip(mean, 0.0, 1.0))

    def to_jsonl(self, path) -> None:
        """Write the ensemble as JSON lines.

        The first line is a header object; each following line is one sample
        with its weight, per-task reward vectors, temperatures and per-task
        log-likelihoods.
        """
        header = {
            "format": "mtpp-ensemble",
            "task_ids": list(self.task_ids),
            "n_samples": int(self.n_samples),
            "n_states": int(self.rewards.shape[2]),
            "metadata": {k: v for k, v in self.metadata.items() if _json_safe(v)},
        }
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for k in range(self.n_samples):
                record = {
                    "weight": float(self.weights[k]),
                    "rewards": self.rewards[k].tolist(),
                    "temperatures": self.temperatures[k].tolist(),
                    "log_likelihoods": self.log_likelihoods[k].tolist(),
                }
                handle.write(json.dumps(record) + "\n")

    @classmethod
    def from_jsonl(cls, path) -> "PosteriorEnsemble":
        with _errors_name(path):
            header, records = _read_jsonl(path, "mtpp-ensemble")
            for key in ("n_samples", "n_states"):
                if not _is_int(header[key]):
                    raise ValueError(f"{key!r} must be an integer")
            if len(records) != header["n_samples"]:
                raise ValueError(
                    f"header promises {header['n_samples']} samples, found {len(records)}"
                )
            task_ids, metadata = _header_fields(header)
            shape = (len(records), len(task_ids))
            return cls(
                task_ids=task_ids,
                weights=_stack(records, "weight", shape[:1]),
                rewards=_stack(records, "rewards", shape + (header["n_states"],)),
                temperatures=_stack(records, "temperatures", shape),
                log_likelihoods=_stack(records, "log_likelihoods", shape),
                metadata=metadata,
            )


def _read_jsonl(path, kind: str):
    """Header and records of a JSON-lines posterior file of format ``kind``;
    call it inside :func:`_errors_name`, which names the file."""
    with open(path, "r", encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        if not isinstance(header, dict) or header.get("format") != kind:
            raise ValueError(f"not an {kind} file")
        records = [json.loads(line) for line in handle if line.strip()]
    if not all(isinstance(record, dict) for record in records):
        raise ValueError("every record must be a JSON object")
    return header, records


@contextmanager
def _errors_name(path):
    """Report what a posterior file's contents get wrong as a ``ValueError``
    that names the file: a line that is not JSON, a missing key, or a value
    of the wrong type, shape or range."""
    try:
        yield
    except KeyError as error:
        raise ValueError(f"{path}: missing key {error}") from None
    except (TypeError, ValueError) as error:
        raise ValueError(f"{path}: {error}") from None


def _is_int(value) -> bool:
    """Whether a value read from JSON is an integer (a bool is not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _header_fields(header):
    """A posterior file header's task ids (a tuple) and metadata (a dict)."""
    task_ids = header["task_ids"]
    if not isinstance(task_ids, list) or not all(_is_int(tid) for tid in task_ids):
        raise ValueError("'task_ids' must be a list of integers")
    # Each id must exceed the one before it, and the first must exceed -1.
    if any(tid <= previous for previous, tid in zip([-1] + task_ids, task_ids)):
        raise ValueError(f"'task_ids' must be non-negative and strictly ascending, got {task_ids}")
    metadata = header.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValueError("'metadata' must be an object")
    return tuple(task_ids), dict(metadata)


def _stack(records, key: str, shape: tuple) -> np.ndarray:
    """Every record's ``key`` as one float array, which must have ``shape``."""
    try:
        values = np.array([record[key] for record in records], dtype=float)
    except (TypeError, ValueError):
        values = None
    if values is None or values.shape != shape:
        raise ValueError(f"{key!r} must have shape {shape} over the records")
    return values


def _json_safe(value) -> bool:
    try:
        json.dumps(value)
        return True
    except TypeError:
        return False


def _group_demos(demos, cmp: Cmp, task_ids=None):
    """Validate demos against the CMP and group them by sorted task id.

    Returns the task ids, each task's demonstrations, and their ``(M, S, A)``
    state-action count matrix.  ``task_ids`` lists the tasks explicitly,
    tasks without demonstrations included; by default the tasks are the
    ids the demonstrations carry.
    """
    groups = {}
    for demo in demos:
        groups.setdefault(demo.task_id, []).append(demo)
    if task_ids is None:
        if not groups:
            raise ValueError("need at least one demonstration")
        resolved = tuple(sorted(groups))
    else:
        resolved = tuple(sorted(int(t) for t in task_ids))
        if not resolved:
            raise ValueError("task_ids must name at least one task, got []")
        if len(set(resolved)) < len(resolved) or any(t < 0 for t in resolved):
            raise ValueError(f"task_ids must be distinct and non-negative, got {list(task_ids)}")
        missing = set(groups) - set(resolved)
        if missing:
            raise ValueError(f"demonstrations reference tasks outside task_ids: {sorted(missing)}")
    grouped = [groups.get(tid, []) for tid in resolved]
    counts = np.stack([demo_counts(group, cmp.n_states, cmp.n_actions) for group in grouped])
    return resolved, grouped, counts


def _check_sampler_inputs(cmp: Cmp, hyperprior, discount: float) -> None:
    """What both samplers require of their discount and hyperprior."""
    if not (0.0 <= discount < 1.0):
        raise ValueError(f"discount must lie in [0, 1), got {discount}")
    if not isinstance(hyperprior, (GammaHyperprior, FixedHyperprior)):
        raise TypeError(
            f"hyperprior must be GammaHyperprior or FixedHyperprior, got {type(hyperprior).__name__}"
        )
    fixed = isinstance(hyperprior, FixedHyperprior)
    n_states = hyperprior.reward_prior.n_states if fixed else hyperprior.n_states
    if n_states != cmp.n_states:
        raise ValueError("hyperprior n_states does not match the CMP")


def _seed_metadata(seed):
    """A sampler's seed as its result metadata records it: None unless an int."""
    return int(seed) if isinstance(seed, (int, np.integer)) else None


def mtpp_mc(cmp: Cmp, demos, hyperprior, n_samples: int, discount: float,
            seed) -> PosteriorEnsemble:
    """Importance-sampling posterior over every task's reward and temperature.

    Draws ``n_samples`` population-level samples, then per task a reward and
    temperature from each, solves the induced MDPs, and weights each joint
    sample by the product over tasks of its demonstration likelihoods, with
    one normalization over all samples.  Per-task randomness comes from
    substreams keyed by task id, so permuting the order of ``demos`` leaves
    all per-task outputs unchanged.
    """
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    _check_sampler_inputs(cmp, hyperprior, discount)
    task_ids, _, counts = _group_demos(demos, cmp)
    transition = cmp.transition
    n_tasks = len(task_ids)

    fixed = isinstance(hyperprior, FixedHyperprior)
    if not fixed:
        hyper_rng = substream(seed, "mtpp-mc", "hyper")
        conc, t_shapes, t_rates = hyperprior.sample_batch(hyper_rng, n_samples)

    rewards = np.empty((n_samples, n_tasks, cmp.n_states))
    temperatures = np.empty((n_samples, n_tasks))
    log_liks = np.empty((n_samples, n_tasks))
    for m, tid in enumerate(task_ids):
        rng = substream(seed, "mtpp-mc", "task", tid)
        if fixed:
            rewards_m = hyperprior.reward_prior.sample_batch(rng, n_samples)
            etas_m = hyperprior.temperature_prior.sample_batch(rng, n_samples)
        else:
            rewards_m = _dirichlet_rows(rng, conc)
            etas_m = rng.gamma(t_shapes) / t_rates
        values, _ = batch_solve_optimal(transition, rewards_m, discount)
        q = _batch_q(transition, rewards_m, values, discount)
        rewards[:, m, :] = rewards_m
        temperatures[:, m] = etas_m
        log_liks[:, m] = counts_log_likelihood(counts[m], _batch_softmax(q, etas_m))

    weights = importance_weights(log_liks)
    return PosteriorEnsemble(
        task_ids=task_ids,
        weights=weights,
        rewards=rewards,
        temperatures=temperatures,
        log_likelihoods=log_liks,
        metadata={
            "kind": "mtpp-mc",
            "seed": _seed_metadata(seed),
            "n_samples": n_samples,
            "discount": float(discount),
        },
    )


def _interior(prior, values: np.ndarray) -> np.ndarray:
    """Nudge an initial reward draw off the boundary of its support.

    Hyper-sampled Dirichlet priors with concentrations below one put mass
    (and unbounded log-density) on the simplex boundary; starting interior
    keeps every Metropolis-Hastings density finite.  Discrete atoms are
    left untouched so they still match their grid exactly.
    """
    if isinstance(prior, DiscreteRewardPrior):
        return values
    eps = 1e-3
    return (1.0 - eps) * values + eps / values.shape[0]


def _population_priors(hyper: np.ndarray):
    """The priors a population state ``(concentration..., shape, rate)`` sets."""
    return DirichletRewardPrior(hyper[:-2]), TemperaturePrior(hyper[-2], hyper[-1])


_PROPOSAL_FLOOR = 0.1


def _propose_rewards(prior, current: np.ndarray, rng, step: float):
    """Propose a new reward for every task; returns (proposals, log_hastings).

    ``current`` is ``(M, S)``; the results are ``(M, S)`` and ``(M,)``.
    Dirichlet priors use a Dirichlet proposal centered at the current point
    (precision ``step``, with a small concentration floor so parameters stay
    positive at sparse points) and the exact Hastings correction; discrete
    grids resample an atom uniformly.  Each family draws its
    proposals with one array call that consumes the stream as one
    single-task draw per task in task order.
    """
    n_tasks = current.shape[0]
    if isinstance(prior, DiscreteRewardPrior):
        return prior.atoms[rng.integers(prior.n_atoms, size=n_tasks)], np.zeros(n_tasks)
    forward = step * current + _PROPOSAL_FLOOR
    proposal = _dirichlet_rows(rng, forward)
    # Tiny concentrations can underflow a coordinate to exact zero; keep the
    # chain state interior so both Hastings densities stay finite.
    proposal = np.clip(proposal, 1e-300, None)
    proposal = proposal / proposal.sum(axis=1, keepdims=True)
    reverse = step * proposal + _PROPOSAL_FLOOR
    log_hastings = _dirichlet_log_pdf(current, reverse) - _dirichlet_log_pdf(proposal, forward)
    return proposal, log_hastings


def mtpp_mh(cmp: Cmp, demos, hyperprior, n_iterations: int, n_chains: int,
            discount: float, seed, *, burn_in_fraction: float = 0.1,
            reward_step: float = 50.0, temperature_step: float = 0.25,
            hyper_step: float = 0.25) -> PosteriorEnsemble:
    """Random-walk Metropolis-Hastings over the joint hierarchical state.

    The total iteration budget ``n_iterations`` is split evenly across
    ``n_chains`` independent chains.  Each iteration sweeps: a log-normal
    move on the hyperparameters (skipped for degenerate hyperpriors), a
    reward proposal per task, and a temperature proposal per task (skipped
    for fixed temperatures).  The first ``burn_in_fraction`` of each chain
    is discarded and the remainder pooled with uniform weights.

    Each task's likelihood reads its demonstrations through their (state,
    action) count matrix, and each block of a sweep moves every task with
    array operations.  The hyper and reward blocks draw the same random
    numbers as a task-by-task sweep; the temperature block draws all its
    normals before its uniforms.
    """
    n_iterations = int(n_iterations)
    n_chains = int(n_chains)
    if n_chains < 1:
        raise ValueError(f"n_chains must be at least 1, got {n_chains}")
    per_chain = n_iterations // n_chains
    if per_chain < 1:
        raise ValueError(
            f"n_iterations={n_iterations} leaves no iterations for {n_chains} chains"
        )
    if not (0.0 <= burn_in_fraction < 1.0):
        raise ValueError(f"burn_in_fraction must lie in [0, 1), got {burn_in_fraction}")
    _check_sampler_inputs(cmp, hyperprior, discount)
    if reward_step <= 0 or temperature_step <= 0 or hyper_step <= 0:
        raise ValueError("proposal step parameters must be positive")
    task_ids, _, counts = _group_demos(demos, cmp)
    n_tasks = len(task_ids)
    n_states = cmp.n_states
    burn = int(np.floor(burn_in_fraction * per_chain))
    kept_per_chain = per_chain - burn

    fixed = isinstance(hyperprior, FixedHyperprior)
    chains_rewards, chains_temps, chains_lls = [], [], []
    acceptance = []
    for chain in range(n_chains):
        rng = substream(seed, "mtpp-mh", "chain", chain)
        if fixed:
            reward_prior, temp_prior = hyperprior.reward_prior, hyperprior.temperature_prior
        else:
            hyper = np.concatenate(hyperprior.sample_batch(rng, 1), axis=None)
            hyper_lp = hyperprior.log_pdf(hyper)
            reward_prior, temp_prior = _population_priors(hyper)
        rho = np.empty((n_tasks, n_states))
        eta = np.empty(n_tasks)
        for m in range(n_tasks):
            rho[m] = _interior(reward_prior, reward_prior.sample(rng).values)
            # A tiny temperature shape can underflow the draw to exact zero,
            # where the log prior is -inf and multiplicative moves are stuck.
            eta[m] = max(temp_prior.sample(rng), 1e-12)
        values, greedy = batch_solve_optimal(cmp.transition, rho, discount)
        q = _batch_q(cmp.transition, rho, values, discount)
        log_lik = counts_log_likelihood(counts, _batch_softmax(q, eta))
        log_prior_rho = reward_prior.log_pdf(rho)
        log_prior_eta = temp_prior.log_pdf(eta)

        rec_rewards = np.empty((per_chain, n_tasks, n_states))
        rec_temps = np.empty((per_chain, n_tasks))
        rec_lls = np.empty((per_chain, n_tasks))
        moves = {"hyper": [0, 0], "reward": [0, 0], "temperature": [0, 0]}

        temp_moves = not isinstance(temp_prior, FixedTemperature)
        for it in range(per_chain):
            # Given the population draw the tasks are independent, so each
            # block below moves all of them at once.
            if not fixed:
                # Multiplicative log-normal step on every hyper coordinate;
                # its Jacobian is the sum of log(new) - log(old).
                new_hyper = hyper * np.exp(hyper_step * rng.standard_normal(hyper.shape[0]))
                new_hyper_lp = hyperprior.log_pdf(new_hyper)
                new_prior_rho = _dirichlet_log_pdf(rho, new_hyper[:-2])
                # Temperatures stay positive, where this is TemperaturePrior.log_pdf.
                new_prior_eta = _gamma_log_pdf(eta, new_hyper[-2], new_hyper[-1])
                delta = (
                    new_hyper_lp - hyper_lp
                    + new_prior_rho.sum() - log_prior_rho.sum()
                    + new_prior_eta.sum() - log_prior_eta.sum()
                    + (np.log(new_hyper).sum() - np.log(hyper).sum())
                )
                moves["hyper"][1] += 1
                if metropolis_accept(delta, rng):
                    moves["hyper"][0] += 1
                    hyper, hyper_lp = new_hyper, new_hyper_lp
                    reward_prior, temp_prior = _population_priors(hyper)
                    log_prior_rho, log_prior_eta = new_prior_rho, new_prior_eta

            proposals, hastings = _propose_rewards(reward_prior, rho, rng, reward_step)
            # A proposal lies near its task's reward, so the task's greedy
            # actions are a close start for policy iteration.
            values, prop_greedy = batch_solve_optimal(
                cmp.transition, proposals, discount, start=greedy
            )
            q_prop = _batch_q(cmp.transition, proposals, values, discount)
            new_ll = counts_log_likelihood(counts, _batch_softmax(q_prop, eta))
            new_lp = reward_prior.log_pdf(proposals)
            accepted = metropolis_accept(
                new_lp - log_prior_rho + new_ll - log_lik + hastings, rng
            )
            moves["reward"][0] += int(accepted.sum())
            moves["reward"][1] += n_tasks
            rho[accepted] = proposals[accepted]
            q[accepted] = q_prop[accepted]
            greedy[accepted] = prop_greedy[accepted]
            log_lik[accepted] = new_ll[accepted]
            log_prior_rho[accepted] = new_lp[accepted]

            if temp_moves:
                # All normals first, then the uniforms: the one block whose
                # stream differs from a task-by-task sweep.  A non-finite or
                # non-positive proposal is rejected without a uniform.
                new_eta = eta * np.exp(temperature_step * rng.standard_normal(n_tasks))
                movable = np.flatnonzero(np.isfinite(new_eta) & (new_eta > 0.0))
                new_eta = new_eta[movable]
                new_ll = counts_log_likelihood(
                    counts[movable], _batch_softmax(q[movable], new_eta)
                )
                new_lp = temp_prior.log_pdf(new_eta)
                delta = (
                    new_lp - log_prior_eta[movable]
                    + new_ll - log_lik[movable]
                    + np.log(new_eta) - np.log(eta[movable])
                )
                accepted = metropolis_accept(delta, rng)
                moves["temperature"][0] += int(accepted.sum())
                moves["temperature"][1] += n_tasks
                moved = movable[accepted]
                eta[moved] = new_eta[accepted]
                log_lik[moved] = new_ll[accepted]
                log_prior_eta[moved] = new_lp[accepted]

            rec_rewards[it] = rho
            rec_temps[it] = eta
            rec_lls[it] = log_lik

        chains_rewards.append(rec_rewards[burn:])
        chains_temps.append(rec_temps[burn:])
        chains_lls.append(rec_lls[burn:])
        acceptance.append(
            {
                name: (hits / max(total, 1))
                for name, (hits, total) in moves.items()
                if total > 0
            }
        )

    kept = kept_per_chain * n_chains
    return PosteriorEnsemble(
        task_ids=task_ids,
        weights=np.full(kept, 1.0 / kept),
        rewards=np.concatenate(chains_rewards),
        temperatures=np.concatenate(chains_temps),
        log_likelihoods=np.concatenate(chains_lls),
        metadata={
            "kind": "mtpp-mh",
            "seed": _seed_metadata(seed),
            "n_iterations": n_iterations,
            "n_chains": n_chains,
            "burn_in_fraction": float(burn_in_fraction),
            "reward_step": float(reward_step),
            "temperature_step": float(temperature_step),
            "hyper_step": float(hyper_step),
            "discount": float(discount),
            "acceptance_rates": acceptance,
        },
    )


def posterior_policy(ensemble, task_id: int, cmp: Cmp, discount: float) -> StationaryPolicy:
    """Greedy policy for the task's posterior-mean reward.

    ``ensemble`` is a :class:`PosteriorEnsemble` or an ``MtpoResult``; both
    give the mean through ``posterior_mean_reward(task_id)``.
    """
    mean_reward = ensemble.posterior_mean_reward(task_id)
    _, policy = solve_optimal(Mdp(cmp, mean_reward, discount))
    return policy
