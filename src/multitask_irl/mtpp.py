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

Metropolis-Hastings chains run in lockstep: :func:`mtpp_mh`'s chains, and
in the benchmark harness every chain of a replication's fits that share a
kernel, advance one iteration at a time together.  Each chain draws from its
own substream exactly what it draws running alone, in the order
:func:`mtpp_mh` documents, while the arithmetic of each block (planner,
likelihood, log-densities) runs once over the tasks of every chain.  Each
task's numbers do not depend on the batch it is in, so every chain, and every
fit, gets the same bits as run alone.
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
    _dirichlet_log_norm,
    _dirichlet_log_pdf,
    _dirichlet_rows,
    _gamma_log_norm,
    _gamma_log_pdf,
    _gamma_to_simplex,
)
from .seeding import substream

__all__ = [
    "PosteriorEnsemble",
    "mtpp_mc",
    "mtpp_mh",
    "posterior_policy",
    "importance_weights",
]

# Totals at or below this are treated as "no sample had usable likelihood".
_DEGENERATE_CUTOFF = LOG_ZERO / 2


def importance_weights(log_likelihoods) -> np.ndarray:
    """Normalize joint log-likelihoods into importance weights.

    ``log_likelihoods`` is a ``(K, M)`` matrix of per-sample per-task values,
    summed across tasks here.  Weights are computed in log space, so they
    are invariant under any per-task positive rescaling of the likelihoods
    and underflow to exact zeros gracefully.  Raises
    :class:`DegeneratePosteriorError` if every sample is impossible.
    """
    arr = np.asarray(log_likelihoods, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"log_likelihoods must have shape (K, M), got {arr.shape}")
    totals = arr.sum(axis=1)
    if totals.shape[0] < 1:
        raise ValueError("need at least one sample")
    max_total = float(totals.max())
    if max_total <= _DEGENERATE_CUTOFF:
        raise DegeneratePosteriorError("all importance weights underflowed to zero", max_total)
    weights = np.exp(totals - max_total)
    return weights / weights.sum()


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


def _group_demos(demos, cmp: Cmp):
    """Validate demos against the CMP and count them: the sorted task ids they
    carry and their ``(M, S, A)`` state-action count matrix."""
    groups = {}
    for demo in demos:
        groups.setdefault(demo.task_id, []).append(demo)
    if not groups:
        raise ValueError("need at least one demonstration")
    task_ids = tuple(sorted(groups))
    counts = np.stack([demo_counts(groups[t], cmp.n_states, cmp.n_actions) for t in task_ids])
    return task_ids, counts


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
    task_ids, counts = _group_demos(demos, cmp)
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
        _, _, q = batch_solve_optimal(transition, rewards_m, discount, with_q=True)
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


# At least _DIRICHLET_STICK_BREAKING, so that Generator.dirichlet would draw
# every reward proposal from standard gammas.
_PROPOSAL_FLOOR = 0.1


def _propose_rewards(discrete, current: np.ndarray, rngs, bounds, step: float):
    """Propose a new reward for every row of ``current`` (R, S); returns
    (proposals, log_hastings), (R, S) and (R,).

    Rows ``lo:hi`` of each pair in ``bounds`` draw from the matching stream
    of ``rngs``, with one array call that consumes it as one single-task
    draw per row in row order.  A discrete grid (``discrete`` is its
    :class:`DiscreteRewardPrior`) resamples an atom uniformly.  Otherwise
    (``discrete`` is None) a Dirichlet proposal is centered at the current
    point (precision ``step``, with a concentration floor so parameters
    stay positive at sparse points) with the exact Hastings correction.
    Every concentration is at least the floor, so the draw is the one
    ``rng.dirichlet`` makes of each row: standard gammas, one call per
    stream, then one normalization over every row.
    """
    spans = list(zip(rngs, bounds))
    if discrete is not None:
        picks = np.concatenate([rng.integers(discrete.n_atoms, size=hi - lo)
                                for rng, (lo, hi) in spans])
        return discrete.atoms[picks], np.zeros(current.shape[0])
    forward = step * current + _PROPOSAL_FLOOR
    if not (forward.min() >= _PROPOSAL_FLOOR and forward.max() < np.inf):
        raise ValueError("reward proposal concentrations must be finite")
    proposal = _gamma_to_simplex(np.concatenate(
        [rng.standard_gamma(forward[lo:hi]) for rng, (lo, hi) in spans]))
    # Tiny concentrations can underflow a coordinate to exact zero; keep the
    # chain state interior so both Hastings densities stay finite.
    proposal = np.clip(proposal, 1e-300, None)
    proposal = proposal / proposal.sum(axis=1, keepdims=True)
    reverse = step * proposal + _PROPOSAL_FLOOR
    log_hastings = _dirichlet_log_pdf(current, reverse) - _dirichlet_log_pdf(proposal, forward)
    return proposal, log_hastings


def _accept_rows(log_ratio: np.ndarray, owner: np.ndarray, rngs) -> np.ndarray:
    """Metropolis-Hastings decisions for rows that chains own.

    ``owner`` (ascending) names the chain of each entry of ``log_ratio``.
    A ratio at or above zero is accepted outright; chain c draws from
    ``rngs[c]`` one uniform for each of its other rows (nan included), in
    row order, so its draws do not depend on the other chains' rows.
    """
    accept = log_ratio >= 0
    undecided = np.flatnonzero(~accept)
    if undecided.size:
        draws = np.bincount(owner[undecided], minlength=len(rngs))
        uniforms = np.concatenate([rng.random(n) for rng, n in zip(rngs, draws) if n])
        accept[undecided] = uniforms < np.exp(log_ratio[undecided])
    return accept


def _log_norms(hyper: np.ndarray) -> np.ndarray:
    """Per population state (row of ``hyper``), the log-normalizers of the
    Dirichlet reward prior and the Gamma temperature prior it sets: (C, 2).
    Computed once per chain, they serve every task row of the chain."""
    return np.array([_dirichlet_log_norm(hyper[:, :-2]),
                     _gamma_log_norm(hyper[:, -2], hyper[:, -1])]).T


def _lockstep_chains(transition, discount: float, hyperprior, chains, reward_step: float,
                     temperature_step: float, hyper_step: float):
    """Advance independent Metropolis-Hastings chains on one CMP in lockstep.

    ``chains`` lists ``(counts, n_iterations, burn, rng)``: a chain's
    ``(M, S, A)`` demonstration counts, its length, how many leading
    iterations it discards, and its own stream.  Every chain draws from its
    stream what it would draw running alone (see :func:`mtpp_mh`); the
    arithmetic of each block runs once over the rows (tasks) of all chains
    still running, and a chain leaves the batch after its last iteration.
    Each row's numbers do not depend on which other rows are in the batch,
    and a chain's sums over its tasks are sums over its contiguous rows, so
    each chain keeps the bits it has alone.  Returns per chain its kept
    rewards ``(K, M, S)``, temperatures and log-likelihoods ``(K, M)``, and
    its acceptance rates.
    """
    fixed = isinstance(hyperprior, FixedHyperprior)
    rngs = [chain[3] for chain in chains]
    sizes = np.array([chain[0].shape[0] for chain in chains])
    lengths = np.array([chain[1] for chain in chains])
    counts = np.concatenate([chain[0] for chain in chains])
    # Each chain starts as it would alone: its population state, then per
    # task a reward and a temperature.
    states, rho, eta = [], [], []
    for task_counts, _, _, rng in chains:
        if fixed:
            reward_prior, temp_prior = hyperprior.reward_prior, hyperprior.temperature_prior
        else:
            states.append(np.concatenate(hyperprior.sample_batch(rng, 1), axis=None))
            reward_prior, temp_prior = _population_priors(states[-1])
        for _ in range(task_counts.shape[0]):
            rho.append(_interior(reward_prior, reward_prior.sample_batch(rng, 1)[0]))
            # A tiny temperature shape can underflow the draw to exact zero,
            # where the log prior is -inf and multiplicative moves are stuck.
            eta.append(max(temp_prior.sample_batch(rng, 1)[0], 1e-12))
    rho, eta = np.array(rho), np.array(eta)
    if fixed:
        discrete = reward_prior if isinstance(reward_prior, DiscreteRewardPrior) else None
        temp_moves = not isinstance(temp_prior, FixedTemperature)
        hyper = hyper_norm = None
    else:
        discrete, temp_moves = None, True
        hyper = np.array(states)                    # (chains, S + 2)
        hyper_lp = hyperprior.log_pdf(hyper)
        hyper_norm = _log_norms(hyper)

    # The priors of rows whose chains are ``local`` (indices into the
    # chains still running), under the chains' population states ``state``
    # and their log-normalizers ``norm``.
    def reward_log_pdf(values, local, state, norm):
        return reward_prior.log_pdf(values) if fixed else _dirichlet_log_pdf(
            values, state[local, :-2], norm[:, 0][local])

    def temperature_log_pdf(values, local, state, norm):
        # Temperatures stay positive, where this is TemperaturePrior.log_pdf.
        return temp_prior.log_pdf(values) if fixed else _gamma_log_pdf(
            values, state[local, -2], state[local, -1], norm[:, 1][local])

    def rows_of(active):
        """Each row's index into ``active``, each chain's (lo, hi) rows, and
        each chain's stream, for the chains ``active``."""
        ends = np.cumsum(sizes[active])
        return (np.repeat(np.arange(active.size), sizes[active]),
                list(zip((ends - sizes[active]).tolist(), ends.tolist())),
                [rngs[c] for c in active])

    active = np.arange(len(chains))                 # the chains still running
    local, bounds, streams = rows_of(active)
    _, greedy, q = batch_solve_optimal(transition, rho, discount, with_q=True)
    log_lik = counts_log_likelihood(counts, _batch_softmax(q, eta))
    log_prior_rho = reward_log_pdf(rho, local, hyper, hyper_norm)
    log_prior_eta = temperature_log_pdf(eta, local, hyper, hyper_norm)

    records = [tuple(np.empty((n - burn, m) + shape) for shape in ((transition.shape[0],), (), ()))
               for m, (_, n, burn, _) in zip(sizes, chains)]
    hits = np.zeros((3, len(chains)), dtype=np.int64)   # hyper, reward, temperature
    for it in range(lengths.max()):
        leaving = lengths[active] == it
        if leaving.any():
            rows = ~leaving[local]
            rho, eta, q, greedy, log_lik, log_prior_rho, log_prior_eta, counts = (
                a[rows] for a in (rho, eta, q, greedy, log_lik, log_prior_rho,
                                  log_prior_eta, counts))
            if not fixed:
                hyper, hyper_lp, hyper_norm = (a[~leaving] for a in (hyper, hyper_lp, hyper_norm))
            active = active[~leaving]
            local, bounds, streams = rows_of(active)

        if not fixed:
            # Multiplicative log-normal step on every hyper coordinate;
            # its Jacobian is the sum of log(new) - log(old).
            normals = np.array([rng.standard_normal(hyper.shape[1]) for rng in streams])
            new_hyper = hyper * np.exp(hyper_step * normals)
            new_hyper_lp = hyperprior.log_pdf(new_hyper)
            new_norm = _log_norms(new_hyper)
            new_prior_rho = reward_log_pdf(rho, local, new_hyper, new_norm)
            new_prior_eta = temperature_log_pdf(eta, local, new_hyper, new_norm)
            terms = np.stack([new_prior_rho, log_prior_rho, new_prior_eta, log_prior_eta])
            sums = np.array([terms[:, lo:hi].sum(axis=1) for lo, hi in bounds]).T
            delta = (
                new_hyper_lp - hyper_lp
                + sums[0] - sums[1]
                + sums[2] - sums[3]
                + (np.log(new_hyper).sum(axis=1) - np.log(hyper).sum(axis=1))
            )
            accepted = _accept_rows(delta, np.arange(active.size), streams)
            hits[0, active] += accepted
            hyper[accepted] = new_hyper[accepted]
            hyper_lp[accepted] = new_hyper_lp[accepted]
            hyper_norm[accepted] = new_norm[accepted]
            moved = accepted[local]
            log_prior_rho[moved] = new_prior_rho[moved]
            log_prior_eta[moved] = new_prior_eta[moved]

        proposals, hastings = _propose_rewards(discrete, rho, streams, bounds, reward_step)
        # A proposal lies near its task's reward, so the task's greedy
        # actions are a close start for policy iteration.
        _, prop_greedy, q_prop = batch_solve_optimal(transition, proposals, discount,
                                                     start=greedy, with_q=True)
        new_ll = counts_log_likelihood(counts, _batch_softmax(q_prop, eta))
        new_lp = reward_log_pdf(proposals, local, hyper, hyper_norm)
        accepted = _accept_rows(new_lp - log_prior_rho + new_ll - log_lik + hastings, local,
                                streams)
        hits[1, active] += np.bincount(local[accepted], minlength=active.size)
        rho[accepted] = proposals[accepted]
        q[accepted] = q_prop[accepted]
        greedy[accepted] = prop_greedy[accepted]
        log_lik[accepted] = new_ll[accepted]
        log_prior_rho[accepted] = new_lp[accepted]

        if temp_moves:
            # A non-finite or non-positive proposal is rejected without a
            # uniform.
            normals = np.concatenate([rng.standard_normal(hi - lo)
                                      for rng, (lo, hi) in zip(streams, bounds)])
            new_eta = eta * np.exp(temperature_step * normals)
            movable = np.flatnonzero(np.isfinite(new_eta) & (new_eta > 0.0))
            new_eta = new_eta[movable]
            new_ll = counts_log_likelihood(counts[movable], _batch_softmax(q[movable], new_eta))
            new_lp = temperature_log_pdf(new_eta, local[movable], hyper, hyper_norm)
            delta = (
                new_lp - log_prior_eta[movable]
                + new_ll - log_lik[movable]
                + np.log(new_eta) - np.log(eta[movable])
            )
            accepted = _accept_rows(delta, local[movable], streams)
            moved = movable[accepted]
            hits[2, active] += np.bincount(local[moved], minlength=active.size)
            eta[moved] = new_eta[accepted]
            log_lik[moved] = new_ll[accepted]
            log_prior_eta[moved] = new_lp[accepted]

        for c, (lo, hi) in zip(active, bounds):
            kept = it - chains[c][2]
            if kept >= 0:
                for record, current in zip(records[c], (rho, eta, log_lik)):
                    record[kept] = current[lo:hi]

    out = []
    for c, (n, m) in enumerate(zip(lengths.tolist(), sizes.tolist())):
        totals = {"hyper": 0 if fixed else n, "reward": n * m,
                  "temperature": n * m if temp_moves else 0}
        rates = {name: int(hit) / total
                 for (name, total), hit in zip(totals.items(), hits[:, c]) if total}
        out.append(records[c] + (rates,))
    return out


def _mtpp_mh_batch(cmp: Cmp, fits, hyperprior, discount: float, *,
                   burn_in_fraction: float = 0.1, reward_step: float = 50.0,
                   temperature_step: float = 0.25, hyper_step: float = 0.25):
    """:func:`mtpp_mh` for several fits on one CMP, advanced in one lockstep
    batch: ``fits`` lists ``(demos, n_iterations, n_chains, seed)`` and the
    result is one ensemble per fit, the one ``mtpp_mh`` returns for that fit
    alone."""
    fits = [(demos, int(n_iterations), int(n_chains), seed)
            for demos, n_iterations, n_chains, seed in fits]
    for _, n_iterations, n_chains, _ in fits:
        if n_chains < 1:
            raise ValueError(f"n_chains must be at least 1, got {n_chains}")
        if n_iterations // n_chains < 1:
            raise ValueError(
                f"n_iterations={n_iterations} leaves no iterations for {n_chains} chains"
            )
    if not (0.0 <= burn_in_fraction < 1.0):
        raise ValueError(f"burn_in_fraction must lie in [0, 1), got {burn_in_fraction}")
    _check_sampler_inputs(cmp, hyperprior, discount)
    if reward_step <= 0 or temperature_step <= 0 or hyper_step <= 0:
        raise ValueError("proposal step parameters must be positive")
    chains, task_ids = [], []
    for demos, n_iterations, n_chains, seed in fits:
        tasks, counts = _group_demos(demos, cmp)
        task_ids.append(tasks)
        per_chain = n_iterations // n_chains
        burn = int(np.floor(burn_in_fraction * per_chain))
        chains += [(counts, per_chain, burn, substream(seed, "mtpp-mh", "chain", chain))
                   for chain in range(n_chains)]
    runs = iter(_lockstep_chains(cmp.transition, discount, hyperprior, chains, reward_step,
                                 temperature_step, hyper_step))
    ensembles = []
    for tasks, (_, n_iterations, n_chains, seed) in zip(task_ids, fits):
        rewards, temperatures, log_liks, acceptance = zip(
            *(next(runs) for _ in range(n_chains)))
        kept = sum(len(chain) for chain in rewards)
        ensembles.append(PosteriorEnsemble(
            task_ids=tasks,
            weights=np.full(kept, 1.0 / kept),
            rewards=np.concatenate(rewards),
            temperatures=np.concatenate(temperatures),
            log_likelihoods=np.concatenate(log_liks),
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
                "acceptance_rates": list(acceptance),
            },
        ))
    return ensembles


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
    action) count matrix.  Chain c draws from its own stream
    ``substream(seed, "mtpp-mh", "chain", c)``, in this order: at its start
    the population state (for a ``GammaHyperprior``), then each task's
    reward and temperature in task order; in each iteration the hyper
    normals and their uniform, the reward proposals (one Dirichlet or atom
    draw per task) and their uniforms, then the temperature normals and
    their uniforms.  A proposal accepted outright, or a temperature
    proposal that is not finite and positive, draws no uniform.  The hyper
    and reward blocks draw what a task-by-task sweep draws; the temperature
    block draws all its normals before its uniforms.  The chains advance in
    lockstep, each block's arithmetic running once over every chain's
    tasks, and each chain's draws and results are those it has alone.
    """
    (ensemble,) = _mtpp_mh_batch(
        cmp, [(demos, n_iterations, n_chains, seed)], hyperprior, discount,
        burn_in_fraction=burn_in_fraction, reward_step=reward_step,
        temperature_step=temperature_step, hyper_step=hyper_step,
    )
    return ensemble


def posterior_policy(ensemble, task_id: int, cmp: Cmp, discount: float) -> StationaryPolicy:
    """Greedy policy for the task's posterior-mean reward.

    ``ensemble`` is a :class:`PosteriorEnsemble` or an ``MtpoResult``; both
    give the mean through ``posterior_mean_reward(task_id)``.
    """
    mean_reward = ensemble.posterior_mean_reward(task_id)
    _, policy = solve_optimal(Mdp(cmp, mean_reward, discount))
    return policy
