"""Independent reference computations used by the unit and acceptance tests.

Everything here recomputes package results along a second route (Bellman
sweeps, dense linear algebra, exhaustive enumeration, numerical quadrature),
so agreement between the two routes is evidence rather than tautology.
"""

import numpy as np

import math

from scipy.special import gammaln, xlogy

from multitask_irl import (
    LOG_ZERO,
    Cmp,
    DirichletRewardPrior,
    DiscreteRewardPrior,
    FixedHyperprior,
    FixedTemperature,
    Mdp,
    RewardFunction,
    StationaryPolicy,
    TemperaturePrior,
    batch_solve_optimal,
    counts_log_likelihood,
    demo_counts,
    softmax_policy,
    substream,
)
from multitask_irl.mdp import _batch_q, _batch_softmax

# Sweep cap for the Bellman references; the tightest tolerance the tests ask
# for at the largest discount they use needs about a thousand sweeps.
MAX_SWEEPS = 100_000


def _sweep(backup, n_states, discount, tolerance):
    """Iterate ``v <- backup(v)`` from zero until successive sweeps differ by
    at most ``tolerance * (1 - discount) / discount``, which puts ``v``
    within ``tolerance`` of the fixed point."""
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    stop = tolerance * (1.0 - discount) / discount if discount > 0 else np.inf
    v = np.zeros(n_states)
    for _ in range(MAX_SWEEPS):
        v_next = backup(v)
        delta = float(np.max(np.abs(v_next - v)))
        v = v_next
        if delta <= stop:
            return v
    raise RuntimeError(f"Bellman sweeps did not reach {tolerance} in {MAX_SWEEPS} sweeps")


def value_iteration(mdp, tolerance=1e-10):
    """Optimal values within ``tolerance`` and a greedy policy (first argmax)."""
    rewards, transition, gamma = mdp.reward.values, mdp.cmp.transition, mdp.discount
    v = _sweep(lambda v: (rewards[:, None] + gamma * transition @ v).max(axis=1),
               mdp.cmp.n_states, gamma, tolerance)
    q = rewards[:, None] + gamma * transition @ v
    return v, StationaryPolicy.from_actions(q.argmax(axis=1), mdp.cmp.n_actions)


def bellman_q(mdp, values):
    """Action values ``rho(s) + gamma * sum_s' T(s'|s,a) V(s')`` of one MDP
    by a matrix product, a second route to the planner's batched einsum."""
    return mdp.reward.values[:, None] + mdp.discount * (mdp.cmp.transition @ values)


def policy_evaluation(mdp, policy, tolerance=1e-10):
    """Values of a stochastic policy within ``tolerance``, by expectation backups."""
    kernel = np.einsum("sa,sat->st", policy.action_probs, mdp.cmp.transition)
    rewards, gamma = mdp.reward.values, mdp.discount
    return _sweep(lambda v: rewards + gamma * kernel @ v, mdp.cmp.n_states, gamma, tolerance)


def dirichlet_rows_reference(rng, concentration):
    """One ``rng.dirichlet`` call per row of ``concentration`` (K, S), in
    row order: the loop the row-batched Dirichlet draw must reproduce."""
    return np.stack([rng.dirichlet(row) for row in concentration])


def random_cmp(rng, n_states: int, n_actions: int) -> Cmp:
    """Random dense kernel with Dirichlet(1) rows."""
    rows = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    return Cmp(rows)


def dense_policy_values(cmp, reward_values, action_probs, discount):
    """Closed-form policy value: solve (I - g * P_pi) V = rho."""
    kernel = np.einsum("sa,sat->st", action_probs, cmp.transition)
    return np.linalg.solve(np.eye(cmp.n_states) - discount * kernel, reward_values)


def mwal_reference(cmp, discount, demos, n_iterations, initial_state_probs):
    """The state-indicator feature-matching game, played slowly.

    Each round's best response comes from ``value_iteration``, with ties
    (action values within 1e-9 of the best) going to the lowest action as in
    the package; its discounted state visits are summed forward from
    ``initial_state_probs``, ``sum_t gamma^t P(s_t)``, until the terms fall
    below 1e-15; the demonstrations' visits are added one step at a time;
    the weights are updated multiplicatively as ``w <- w * beta^G``.
    Returns a dict from each distinct response's action tuple to the share
    of rounds it won.
    """
    n_states = cmp.n_states
    mu_demo = np.zeros(n_states)
    for demo in demos:
        for t, state in enumerate(demo.states):
            mu_demo[state] += discount ** t / len(demos)
    n_terms = 1 if discount == 0 else math.ceil(math.log(1e-15) / math.log(discount))
    beta = 1.0 / (1.0 + math.sqrt(2.0 * math.log(n_states) / n_iterations))
    weights = np.ones(n_states)
    shares = {}
    for _ in range(n_iterations):
        reward = weights / weights.sum()
        values, _ = value_iteration(Mdp(cmp, RewardFunction(reward), discount))
        q = reward[:, None] + discount * cmp.transition @ values
        actions = tuple(int(np.flatnonzero(row >= row.max() - 1e-9)[0]) for row in q)
        policy = StationaryPolicy.from_actions(actions, cmp.n_actions)
        kernel = np.einsum("sa,sat->st", policy.action_probs, cmp.transition)
        visits = np.zeros(n_states)
        dist = np.array(initial_state_probs, dtype=float)
        for t in range(n_terms):
            visits += discount ** t * dist
            dist = kernel.T @ dist
        gain = ((1.0 - discount) * (visits - mu_demo) + 2.0) / 4.0
        weights = weights * beta ** gain
        shares[actions] = shares.get(actions, 0.0) + 1.0 / n_iterations
    return shares


def per_step_log_lik(action_probs, demos):
    """``sum_t log pi(a_t | s_t)`` over every step of every demonstration,
    one step at a time; ``LOG_ZERO`` as soon as a step is impossible."""
    total = 0.0
    for demo in demos:
        for state, action in zip(demo.states, demo.actions):
            prob = float(action_probs[state, action])
            if prob <= 0.0:
                return LOG_ZERO
            total += math.log(prob)
    return total


def softmax_demo_log_lik(cmp, reward, eta, discount, demos):
    """Log-likelihood of demos under the softmax policy for one reward."""
    mdp = Mdp(cmp, RewardFunction(reward), discount)
    values, _ = value_iteration(mdp, 1e-12)
    policy = softmax_policy(bellman_q(mdp, values), eta)
    return per_step_log_lik(policy.action_probs, demos)


def _dirichlet_log_density(values, concentration):
    log_norm = gammaln(concentration.sum()) - gammaln(concentration).sum()
    return float(log_norm + xlogy(concentration - 1.0, values).sum())


def task_by_task_mh(cmp, demos, hyperprior, n_iterations, n_chains, discount, seed,
                    burn_in_fraction=0.1, reward_step=50.0):
    """Reward-only Metropolis-Hastings, one task at a time.

    The loop the hierarchical sampler ran before its sweeps became array
    operations, for a known reward prior and a fixed temperature: each
    task draws its own proposal (one ``rng.dirichlet`` or ``rng.integers``),
    is scored with the per-step likelihood and accepted with its own
    uniform, in task order.  Returns the kept rewards (K, M, S) and
    log-likelihoods (K, M) pooled over chains, and each chain's reward
    acceptance rate.
    """
    if not (isinstance(hyperprior, FixedHyperprior)
            and isinstance(hyperprior.temperature_prior, FixedTemperature)
            and isinstance(hyperprior.reward_prior, (DirichletRewardPrior, DiscreteRewardPrior))):
        raise TypeError("the reference covers known Dirichlet or discrete reward priors "
                        "at a fixed temperature")
    prior, eta = hyperprior.reward_prior, hyperprior.temperature_prior.value
    task_ids = sorted({demo.task_id for demo in demos})
    groups = [[d for d in demos if d.task_id == tid] for tid in task_ids]
    n_states = cmp.n_states
    per_chain = n_iterations // n_chains
    burn = int(np.floor(burn_in_fraction * per_chain))

    def policy_for(reward):
        mdp = Mdp(cmp, RewardFunction(reward), discount)
        values = batch_solve_optimal(cmp.transition, reward[None], discount)[0][0]
        return softmax_policy(bellman_q(mdp, values), eta).action_probs

    kept_rewards, kept_lls, rates = [], [], []
    for chain in range(n_chains):
        rng = substream(seed, "mtpp-mh", "chain", chain)
        rho, log_lik, log_prior = [], [], []
        for group in groups:
            reward = prior.sample_batch(rng, 1)[0]
            if isinstance(prior, DirichletRewardPrior):
                reward = (1.0 - 1e-3) * reward + 1e-3 / n_states
            rho.append(reward)
            log_lik.append(per_step_log_lik(policy_for(reward), group))
            log_prior.append(prior.log_pdf(reward))
        accepted = 0
        for it in range(per_chain):
            proposals, hastings = [], []
            for current in rho:
                if isinstance(prior, DiscreteRewardPrior):
                    proposals.append(prior.atoms[rng.integers(prior.n_atoms)])
                    hastings.append(0.0)
                    continue
                forward = reward_step * current + 0.1
                proposal = np.clip(rng.dirichlet(forward), 1e-300, None)
                proposal = proposal / proposal.sum()
                reverse = reward_step * proposal + 0.1
                proposals.append(proposal)
                hastings.append(_dirichlet_log_density(current, reverse)
                                - _dirichlet_log_density(proposal, forward))
            for m, group in enumerate(groups):
                new_ll = per_step_log_lik(policy_for(proposals[m]), group)
                new_lp = prior.log_pdf(proposals[m])
                delta = new_lp - log_prior[m] + new_ll - log_lik[m] + hastings[m]
                if delta >= 0 or rng.random() < np.exp(delta):
                    accepted += 1
                    rho[m], log_lik[m], log_prior[m] = proposals[m], new_ll, new_lp
            if it >= burn:
                kept_rewards.append(np.array(rho))
                kept_lls.append(np.array(log_lik))
        rates.append(accepted / (per_chain * len(groups)))
    return np.array(kept_rewards), np.array(kept_lls), rates


def _accept_in_turn(log_ratios, rng):
    """One Metropolis decision per entry in turn: a ratio below zero (or
    nan) draws a uniform.  Returns the accepted entries' indices."""
    return np.array([i for i, ratio in enumerate(log_ratios)
                     if ratio >= 0 or rng.random() < np.exp(ratio)], dtype=np.int64)


def per_chain_mh(cmp, demos, hyperprior, n_iterations, n_chains, discount, seed,
                 burn_in_fraction=0.1, reward_step=50.0, temperature_step=0.25,
                 hyper_step=0.25):
    """The hierarchical sampler's sweep, run one chain of one fit at a time.

    Each chain draws from ``substream(seed, "mtpp-mh", "chain", c)``: its
    population state (for a Gamma hyperprior) and each task's reward and
    temperature; then per iteration the hyper normals and their uniform,
    one ``rng.dirichlet`` (or atom index) per task and the reward uniforms,
    the temperature normals and their uniforms.  A temperature proposal that
    is not finite and positive is rejected without a uniform.  The priors
    are objects, built anew for every hyper proposal.  Returns the kept
    rewards (K, M, S), temperatures and log-likelihoods (K, M) pooled over
    chains, each chain's acceptance rates, and the number of temperature
    proposals rejected without a uniform.
    """
    fixed = isinstance(hyperprior, FixedHyperprior)
    task_ids = sorted({demo.task_id for demo in demos})
    counts = np.stack([demo_counts([d for d in demos if d.task_id == tid],
                                   cmp.n_states, cmp.n_actions) for tid in task_ids])
    n_tasks, n_states = len(task_ids), cmp.n_states
    per_chain = n_iterations // n_chains
    burn = int(np.floor(burn_in_fraction * per_chain))

    def priors_of(state):
        return DirichletRewardPrior(state[:-2]), TemperaturePrior(state[-2], state[-1])

    def action_values(rewards, start=None):
        values, greedy, _ = batch_solve_optimal(cmp.transition, rewards, discount, start=start)
        return _batch_q(cmp.transition, rewards, values, discount), greedy

    kept_rewards, kept_temps, kept_lls, rates = [], [], [], []
    unmovable = 0
    for chain in range(n_chains):
        rng = substream(seed, "mtpp-mh", "chain", chain)
        if fixed:
            reward_prior, temp_prior = hyperprior.reward_prior, hyperprior.temperature_prior
        else:
            hyper = np.concatenate(hyperprior.sample_batch(rng, 1), axis=None)
            reward_prior, temp_prior = priors_of(hyper)
        rho = np.empty((n_tasks, n_states))
        eta = np.empty(n_tasks)
        for m in range(n_tasks):
            rho[m] = reward_prior.sample_batch(rng, 1)[0]
            if isinstance(reward_prior, DirichletRewardPrior):
                rho[m] = (1.0 - 1e-3) * rho[m] + 1e-3 / n_states
            eta[m] = max(temp_prior.sample_batch(rng, 1)[0], 1e-12)
        q, greedy = action_values(rho)
        log_lik = counts_log_likelihood(counts, _batch_softmax(q, eta))
        log_prior_rho = np.array([reward_prior.log_pdf(r) for r in rho])
        log_prior_eta = np.array([temp_prior.log_pdf(e) for e in eta])
        moves = {"hyper": [0, 0], "reward": [0, 0], "temperature": [0, 0]}
        for it in range(per_chain):
            if not fixed:
                new_hyper = hyper * np.exp(hyper_step * rng.standard_normal(hyper.shape[0]))
                new_reward_prior, new_temp_prior = priors_of(new_hyper)
                new_prior_rho = np.array([new_reward_prior.log_pdf(r) for r in rho])
                new_prior_eta = np.array([new_temp_prior.log_pdf(e) for e in eta])
                delta = (
                    hyperprior.log_pdf(new_hyper) - hyperprior.log_pdf(hyper)
                    + new_prior_rho.sum() - log_prior_rho.sum()
                    + new_prior_eta.sum() - log_prior_eta.sum()
                    + (np.log(new_hyper).sum() - np.log(hyper).sum())
                )
                moves["hyper"][1] += 1
                if len(_accept_in_turn([delta], rng)):
                    moves["hyper"][0] += 1
                    hyper = new_hyper
                    reward_prior, temp_prior = new_reward_prior, new_temp_prior
                    log_prior_rho, log_prior_eta = new_prior_rho, new_prior_eta

            proposals, hastings = np.empty((n_tasks, n_states)), np.zeros(n_tasks)
            for m in range(n_tasks):
                if isinstance(reward_prior, DiscreteRewardPrior):
                    proposals[m] = reward_prior.atoms[rng.integers(reward_prior.n_atoms)]
                    continue
                forward = reward_step * rho[m] + 0.1
                proposal = np.clip(rng.dirichlet(forward), 1e-300, None)
                proposals[m] = proposal / proposal.sum()
                reverse = reward_step * proposals[m] + 0.1
                hastings[m] = (_dirichlet_log_density(rho[m], reverse)
                               - _dirichlet_log_density(proposals[m], forward))
            q_prop, prop_greedy = action_values(proposals, start=greedy)
            new_ll = counts_log_likelihood(counts, _batch_softmax(q_prop, eta))
            new_lp = np.array([reward_prior.log_pdf(r) for r in proposals])
            accepted = _accept_in_turn(new_lp - log_prior_rho + new_ll - log_lik + hastings, rng)
            moves["reward"][0] += len(accepted)
            moves["reward"][1] += n_tasks
            rho[accepted], q[accepted] = proposals[accepted], q_prop[accepted]
            greedy[accepted] = prop_greedy[accepted]
            log_lik[accepted], log_prior_rho[accepted] = new_ll[accepted], new_lp[accepted]

            if not isinstance(temp_prior, FixedTemperature):
                new_eta = eta * np.exp(temperature_step * rng.standard_normal(n_tasks))
                movable = np.flatnonzero(np.isfinite(new_eta) & (new_eta > 0.0))
                unmovable += n_tasks - len(movable)
                new_eta = new_eta[movable]
                new_ll = counts_log_likelihood(counts[movable], _batch_softmax(q[movable], new_eta))
                new_lp = np.array([temp_prior.log_pdf(e) for e in new_eta])
                delta = (new_lp - log_prior_eta[movable] + new_ll - log_lik[movable]
                         + np.log(new_eta) - np.log(eta[movable]))
                accepted = _accept_in_turn(delta, rng)
                moves["temperature"][0] += len(accepted)
                moves["temperature"][1] += n_tasks
                moved = movable[accepted]
                eta[moved], log_lik[moved] = new_eta[accepted], new_ll[accepted]
                log_prior_eta[moved] = new_lp[accepted]
            if it >= burn:
                kept_rewards.append(rho.copy())
                kept_temps.append(eta.copy())
                kept_lls.append(log_lik.copy())
        rates.append({name: hits / total for name, (hits, total) in moves.items() if total})
    return (np.array(kept_rewards), np.array(kept_temps), np.array(kept_lls), rates,
            unmovable)


def enumerate_atom_posterior(cmp, demos, atoms, weights, eta, discount):
    """Exact single-task posterior over a finite reward grid."""
    atoms = np.asarray(atoms, dtype=float)
    logs = np.array([
        np.log(weights[j]) + softmax_demo_log_lik(cmp, atoms[j], eta, discount, demos)
        for j in range(atoms.shape[0])
    ])
    logs -= logs.max()
    probs = np.exp(logs)
    return probs / probs.sum()


def importance_se(weights, indicator, estimate):
    """Delta-method standard error of a self-normalized importance estimate."""
    return float(np.sqrt(np.sum(weights ** 2 * (indicator - estimate) ** 2)))


def batch_means_se(draws, n_batches: int = 20):
    """Standard error of a dependent-sample mean via batch means."""
    draws = np.asarray(draws, dtype=float)
    usable = (draws.shape[0] // n_batches) * n_batches
    batches = draws[:usable].reshape(n_batches, -1).mean(axis=1)
    return float(batches.std(ddof=1) / np.sqrt(n_batches))


def exponential_mass(rate, lo, hi):
    """Exponential(rate) mass on ``[lo, hi)``, one interval at a time in
    scalar ``math.exp``; ``hi`` may be inf, where ``math.exp`` gives 0."""
    return math.exp(-rate * lo) - math.exp(-rate * hi)


def _edges(losses):
    return np.unique(np.concatenate([[0.0], np.asarray(losses, dtype=float).ravel()]))


def midpoint_reference_posterior(losses, measure, rate):
    """Literal piecewise-constant integration over the global loss breakpoints.

    Probes each interval between consecutive distinct loss values at its
    midpoint (unit offset into the unbounded tail), weighs it by the
    exponential prior mass, averages the strict-membership conditionals over
    policies, and normalizes.  Exact because the conditional is constant on
    every interval; serves as the independent route for the production
    suffix-sum integration.
    """
    losses = np.asarray(losses, dtype=float)
    measure = np.asarray(measure, dtype=float)
    edges = _edges(losses)
    acc = np.zeros(losses.shape[1])
    for i, lo in enumerate(edges):
        hi = edges[i + 1] if i + 1 < len(edges) else np.inf
        if hi == lo:
            continue
        probe = lo + 0.5 * (hi - lo) if np.isfinite(hi) else lo + 1.0
        mass = exponential_mass(rate, lo, hi)
        for row in losses:
            member = np.where(row < probe, measure, 0.0)
            total = member.sum()
            if total > 0.0:
                acc += mass * (member / total)
    acc /= losses.shape[0]
    return acc / acc.sum()


def quadrature_posterior(losses, measure, rate, total_points: int = 1_000_000):
    """Numerical slack integration on a fine grid, membership per grid point.

    The grid follows the global breakpoints (panels), but inside each panel
    the candidate set is re-evaluated brute force at every midpoint, so this
    route shares no code or algebra with the production integration.  The
    unbounded tail is handled analytically with the full-measure conditional.
    """
    losses = np.asarray(losses, dtype=float)
    measure = np.asarray(measure, dtype=float)
    edges = _edges(losses)
    finite_panels = [
        (edges[i], edges[i + 1]) for i in range(len(edges) - 1) if edges[i + 1] > edges[i]
    ]
    per_panel = max(100, total_points // max(len(finite_panels), 1))
    acc = np.zeros(losses.shape[1])
    for lo, hi in finite_panels:
        grid = np.linspace(lo, hi, per_panel + 1)
        mids = 0.5 * (grid[:-1] + grid[1:])
        point_mass = rate * np.exp(-rate * mids) * (hi - lo) / per_panel
        for chunk_start in range(0, mids.shape[0], 100_000):
            chunk = mids[chunk_start:chunk_start + 100_000]
            weights = point_mass[chunk_start:chunk_start + 100_000]
            for row in losses:
                member = (row[None, :] < chunk[:, None]) * measure[None, :]
                totals = member.sum(axis=1)
                keep = totals > 0.0
                if np.any(keep):
                    acc += (weights[keep] / totals[keep]) @ member[keep]
    tail_lo = edges[-1]
    tail_conditional = measure / measure.sum()
    acc += losses.shape[0] * np.exp(-rate * tail_lo) * tail_conditional
    acc /= losses.shape[0]
    return acc / acc.sum()
