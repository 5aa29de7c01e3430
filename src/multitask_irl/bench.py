"""Benchmark harness: value-loss metric, experiment templates, CSV output.

Each template runs seeded replications of one comparison (sampler budgets,
model classes, task counts, demonstrator temperatures) and records per-task
losses per method and sweep point.  All randomness descends from the master
seed through named substreams, so reruns produce byte-identical CSV files;
wall-clock time lives in the result metadata only.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from .baselines import MixedPolicy, imitator, mwal
from .config import ConfigError
from .mdp import (
    Demonstration,
    Mdp,
    RewardFunction,
    batch_policy_values,
    batch_solve_optimal,
    simulate,
    solve_optimal,
)
from .mtpo import (
    RewardHypothesisSet,
    build_loss_matrix,
    mtpo_mc,
    posterior_value_estimate,
    reward_posterior,
)
from .mtpp import mtpp_mc, mtpp_mh, posterior_policy
from .priors import (
    DirichletRewardPrior,
    GammaHyperprior,
    OptimalityPrior,
    PolicyDirichletPrior,
    policy_posterior,
    sample_policies,
)
from .seeding import subseed, substream
from .tasks import (
    ChainSpec,
    RandomMdpSpec,
    chain_transition,
    make_chain,
    make_demonstrator,
    make_random_mdp_population,
)

__all__ = [
    "EXPERIMENTS",
    "l1_loss",
    "ResultRow",
    "ExperimentResult",
    "run_experiment",
    "write_runs_csv",
    "write_aggregate_csv",
    "value_error_bound",
    "bound_check",
]

EXPERIMENTS = (
    "sampler-comparison",
    "model-comparison",
    "multitask-gain",
    "data-efficiency",
    "random-mdp-temperature-sweep",
    "random-mdp-task-sweep",
)


def l1_loss(mdp: Mdp, policy) -> float:
    """Sum over states of the optimal-minus-achieved value gap.

    Accepts a stationary or mixed policy (a stationary policy is a
    one-component mixture); per-state gaps are clamped at zero before
    summing, so float noise on an optimal policy cannot go negative.
    """
    if not isinstance(policy, MixedPolicy):
        policy = MixedPolicy.uniform([policy])
    stacked = np.stack([p.action_probs for p in policy.policies])
    flat = stacked.reshape(stacked.shape[0], -1)
    unique, inverse = np.unique(flat, axis=0, return_inverse=True)
    weights = np.zeros(unique.shape[0])
    np.add.at(weights, inverse, policy.weights)
    distinct = unique.reshape(-1, mdp.cmp.n_states, mdp.cmp.n_actions)
    values = batch_policy_values(
        mdp.cmp.transition, mdp.reward.values[None, :], distinct, mdp.discount
    )[:, 0, :]
    optimal, _ = solve_optimal(mdp)
    return float(np.maximum(optimal - weights @ values, 0.0).sum())


@dataclass(frozen=True)
class ResultRow:
    """One replication of one method at one sweep point."""

    experiment: str
    seed: int
    method: str
    x: float
    task_losses: tuple

    @property
    def total_loss(self) -> float:
        return float(sum(self.task_losses))


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    name: str
    rows: tuple
    metadata: dict = field(default_factory=dict)

    def aggregate(self):
        """Mean and standard error per (method, x), sorted."""
        groups = {}
        for row in self.rows:
            groups.setdefault((row.method, row.x), []).append(row)
        summary = []
        for (method, x), rows in sorted(groups.items()):
            totals = np.array([r.total_loss for r in rows])
            per_task = np.array([r.total_loss / len(r.task_losses) for r in rows])
            n = totals.shape[0]
            summary.append({
                "experiment": self.name,
                "method": method,
                "x": x,
                "n_runs": n,
                "mean_total_loss": float(totals.mean()),
                "stderr_total_loss": float(totals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0,
                "mean_task_loss": float(per_task.mean()),
                "stderr_task_loss": float(per_task.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0,
            })
        return summary


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def write_runs_csv(result: ExperimentResult, path) -> None:
    """One row per (replication, method, sweep point), sorted, loss per task."""
    max_tasks = max((len(r.task_losses) for r in result.rows), default=0)
    header = ["experiment", "seed", "method", "x", "total_loss"]
    header += [f"loss_task_{i}" for i in range(max_tasks)]
    lines = [",".join(header)]
    for row in sorted(result.rows, key=lambda r: (r.method, r.x, r.seed)):
        cells = [row.experiment, str(row.seed), row.method, _fmt(row.x), _fmt(row.total_loss)]
        cells += [_fmt(v) for v in row.task_losses]
        cells += [""] * (max_tasks - len(row.task_losses))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def write_aggregate_csv(result: ExperimentResult, path) -> None:
    header = [
        "experiment", "method", "x", "n_runs",
        "mean_total_loss", "stderr_total_loss", "mean_task_loss", "stderr_task_loss",
    ]
    lines = [",".join(header)]
    for entry in result.aggregate():
        lines.append(",".join(
            entry[key] if isinstance(entry[key], str) else _fmt(entry[key]) for key in header
        ))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _delta_start(n_states: int) -> np.ndarray:
    start = np.zeros(n_states)
    start[0] = 1.0
    return start


def _chain_mdp(cfg) -> Mdp:
    spec = ChainSpec(
        n_states=cfg.get("chain_states", 5),
        slip=cfg.get("chain_slip", 0.2),
        rewards=cfg.get("chain_rewards"),
        discount=cfg.get("discount", 0.95),
    )
    return make_chain(spec)


def _hyperprior(cfg, n_states: int) -> GammaHyperprior:
    return GammaHyperprior(n_states, concentration_law=(1.0, cfg.get("hyper_rate", 10.0)))


def _policy_prior(cfg, n_states: int, n_actions: int) -> PolicyDirichletPrior:
    return PolicyDirichletPrior.uniform(n_states, n_actions, cfg.get("policy_prior_strength", 1.0))


def _chain_demos(mdp, demonstrator, n_tasks, per_task, length, rng):
    start = _delta_start(mdp.cmp.n_states)
    return [
        simulate(mdp, demonstrator, length, rng, task_id=m, initial_state_probs=start)
        for m in range(n_tasks)
        for _ in range(per_task)
    ]


def _mtpp_task_losses(ensemble, true_mdps):
    return tuple(
        l1_loss(mdp, posterior_policy(ensemble, task_id, mdp.cmp, mdp.discount))
        for task_id, mdp in zip(ensemble.task_ids, true_mdps)
    )


def _run_sampler_comparison(cfg, seed):
    name = "sampler-comparison"
    replications = cfg.get("replications", 100)
    budgets = cfg.get("sample_budgets", (100, 300, 1000, 3000))
    chain_counts = cfg.get("mh_chain_counts", (1, 2, 4, 8))
    n_tasks = cfg.get("n_tasks", 1)
    length = cfg.get("demo_length", 50)
    mdp = _chain_mdp(cfg)
    discount = mdp.discount
    demonstrator = make_demonstrator("eps_greedy", mdp, epsilon=cfg.get("demo_epsilon", 0.01))
    hyper = _hyperprior(cfg, mdp.cmp.n_states)
    true_mdps = [mdp] * n_tasks
    rows = []
    for rep in range(replications):
        demos = _chain_demos(
            mdp, demonstrator, n_tasks, 1, length, substream(seed, name, "rep", rep, "demos")
        )
        for budget in budgets:
            ensemble = mtpp_mc(
                mdp.cmp, demos, hyper, budget, discount,
                subseed(seed, name, "rep", rep, "mc", budget),
            )
            rows.append(ResultRow(name, rep, "mtpp-mc", float(budget),
                                  _mtpp_task_losses(ensemble, true_mdps)))
            for n_chains in chain_counts:
                ensemble = mtpp_mh(
                    mdp.cmp, demos, hyper, budget, n_chains, discount,
                    subseed(seed, name, "rep", rep, "mh", n_chains, budget),
                )
                rows.append(ResultRow(name, rep, f"mtpp-mh-{n_chains}", float(budget),
                                      _mtpp_task_losses(ensemble, true_mdps)))
    return rows, {"n_tasks": n_tasks, "demo_length": length, "budgets": list(budgets)}


def _run_model_comparison(cfg, seed):
    name = "model-comparison"
    replications = cfg.get("replications", 100)
    budgets = cfg.get("sample_budgets", (100, 300, 1000, 3000))
    n_tasks = cfg.get("n_tasks", 1)
    length = cfg.get("demo_length", 50)
    n_hypotheses = cfg.get("n_hypotheses", 64)
    mdp = _chain_mdp(cfg)
    discount = mdp.discount
    n_states = mdp.cmp.n_states
    demonstrator = make_demonstrator("eps_greedy", mdp, epsilon=cfg.get("demo_epsilon", 0.01))
    hyper = _hyperprior(cfg, n_states)
    reward_prior = DirichletRewardPrior(np.ones(n_states))
    policy_prior = _policy_prior(cfg, n_states, mdp.cmp.n_actions)
    optimality = OptimalityPrior(cfg.get("optimality_rate", 1.0))
    true_mdps = [mdp] * n_tasks
    rows = []
    for rep in range(replications):
        demos = _chain_demos(
            mdp, demonstrator, n_tasks, 1, length, substream(seed, name, "rep", rep, "demos")
        )
        for budget in budgets:
            ensemble = mtpp_mc(
                mdp.cmp, demos, hyper, budget, discount,
                subseed(seed, name, "rep", rep, "mc", budget),
            )
            rows.append(ResultRow(name, rep, "mtpp-mc", float(budget),
                                  _mtpp_task_losses(ensemble, true_mdps)))
            result = mtpo_mc(
                mdp.cmp, demos, policy_prior,
                optimality_prior=optimality, n_policy_samples=budget,
                reward_prior=reward_prior, n_hypotheses=n_hypotheses,
                discount=discount, seed=subseed(seed, name, "rep", rep, "mtpo", budget),
            )
            losses = []
            for m, task_id in enumerate(result.task_ids):
                _, policy = posterior_value_estimate(
                    result.posterior(task_id), result.hypotheses, mdp.cmp, discount
                )
                losses.append(l1_loss(true_mdps[m], policy))
            rows.append(ResultRow(name, rep, "mtpo-mc", float(budget), tuple(losses)))
    return rows, {"n_tasks": n_tasks, "demo_length": length, "n_hypotheses": n_hypotheses}


def _run_multitask_gain(cfg, seed):
    name = "multitask-gain"
    replications = cfg.get("replications", 100)
    task_counts = cfg.get("task_counts", (1, 2, 5, 10))
    total_demos = cfg.get("total_demos", 10)
    length = cfg.get("demo_length", 20)
    eta = cfg.get("demo_eta", 5.0)
    n_samples = cfg.get("mc_samples", 1000)
    n_states = cfg.get("chain_states", 5)
    discount = cfg.get("discount", 0.95)
    hyper_rate = cfg.get("hyper_rate", 10.0)
    cmp = chain_transition(n_states, cfg.get("chain_slip", 0.2))
    hyper = _hyperprior(cfg, n_states)
    policy_prior = _policy_prior(cfg, n_states, cmp.n_actions)
    start = _delta_start(n_states)
    for count in task_counts:
        if total_demos % count != 0:
            raise ConfigError(
                f"total_demos ({total_demos}) must be divisible by every task count, not {count}"
            )
    rows = []
    for rep in range(replications):
        for count in task_counts:
            env_rng = substream(seed, name, "rep", rep, "env", count)
            concentration = env_rng.gamma(1.0, 1.0 / hyper_rate, size=n_states)
            rewards = env_rng.dirichlet(concentration, size=count)
            true_mdps = [Mdp(cmp, RewardFunction(rewards[m]), discount) for m in range(count)]
            demonstrators = [make_demonstrator("softmax", t, eta=eta) for t in true_mdps]
            demo_rng = substream(seed, name, "rep", rep, "demos", count)
            demos = []
            for m in range(count):
                for _ in range(total_demos // count):
                    demos.append(simulate(true_mdps[m], demonstrators[m], length, demo_rng,
                                          task_id=m, initial_state_probs=start))
            ensemble = mtpp_mc(
                cmp, demos, hyper, n_samples, discount,
                subseed(seed, name, "rep", rep, "mc", count),
            )
            rows.append(ResultRow(name, rep, "mtpp-mc", float(count),
                                  _mtpp_task_losses(ensemble, true_mdps)))
            losses = []
            for m in range(count):
                policy = imitator([d for d in demos if d.task_id == m], policy_prior)
                losses.append(l1_loss(true_mdps[m], policy))
            rows.append(ResultRow(name, rep, "imitator", float(count), tuple(losses)))
    meta = {"total_demos": total_demos, "demo_eta": eta,
            "note": "per-run gain = total_loss(imitator) - total_loss(mtpp-mc) at equal x"}
    return rows, meta


def _run_data_efficiency(cfg, seed):
    name = "data-efficiency"
    replications = cfg.get("replications", 100)
    budgets = cfg.get("sample_budgets", (100, 1000, 10000))
    methods = cfg.get("methods", ("imitator", "mwal", "mtpp-mc", "mtpo-mc"))
    length = cfg.get("demo_length", 1000)
    n_hypotheses = cfg.get("n_hypotheses", 64)
    mdp = _chain_mdp(cfg)
    discount = mdp.discount
    n_states = mdp.cmp.n_states
    demonstrator = make_demonstrator("eps_greedy", mdp, epsilon=cfg.get("demo_epsilon", 0.01))
    hyper = _hyperprior(cfg, n_states)
    reward_prior = DirichletRewardPrior(np.ones(n_states))
    policy_prior = _policy_prior(cfg, n_states, mdp.cmp.n_actions)
    optimality = OptimalityPrior(cfg.get("optimality_rate", 1.0))
    start = _delta_start(n_states)
    rows = []
    for rep in range(replications):
        demo = simulate(mdp, demonstrator, length,
                        substream(seed, name, "rep", rep, "demos"),
                        task_id=0, initial_state_probs=start)
        demos = [demo]
        for method in methods:
            if method == "imitator":
                loss = l1_loss(mdp, imitator(demos, policy_prior))
                for budget in budgets:
                    rows.append(ResultRow(name, rep, "imitator", float(budget), (loss,)))
                continue
            for budget in budgets:
                if method == "mwal":
                    mixture = mwal(mdp.cmp, discount, demos, n_iterations=budget,
                                   initial_state_probs=start)
                    loss = l1_loss(mdp, mixture)
                elif method == "mtpp-mc":
                    ensemble = mtpp_mc(
                        mdp.cmp, demos, hyper, budget, discount,
                        subseed(seed, name, "rep", rep, "mc", budget),
                    )
                    policy = posterior_policy(ensemble, 0, mdp.cmp, discount)
                    loss = l1_loss(mdp, policy)
                elif method == "mtpo-mc":
                    result = mtpo_mc(
                        mdp.cmp, demos, policy_prior,
                        optimality_prior=optimality, n_policy_samples=budget,
                        reward_prior=reward_prior, n_hypotheses=n_hypotheses,
                        discount=discount,
                        seed=subseed(seed, name, "rep", rep, "mtpo", budget),
                    )
                    _, policy = posterior_value_estimate(
                        result.posterior(0), result.hypotheses, mdp.cmp, discount
                    )
                    loss = l1_loss(mdp, policy)
                else:
                    raise ConfigError(f"unknown method {method!r} for {name}")
                rows.append(ResultRow(name, rep, method, float(budget), (loss,)))
    return rows, {"demo_length": length, "n_hypotheses": n_hypotheses, "methods": list(methods)}


def _population_subset(population, count):
    mdps = [population.mdp(m) for m in range(count)]
    demonstrators = population.demonstrators[:count]
    return mdps, demonstrators


def _run_random_mdp_sweep(cfg, seed, sweep: str):
    if sweep == "temperature":
        name = "random-mdp-temperature-sweep"
        x_values = cfg.get("temperature_values", (2.0, 4.0, 6.0, 8.0))
        task_counts = [cfg.get("n_tasks", 20)] * len(x_values)
        temperatures = list(x_values)
    else:
        name = "random-mdp-task-sweep"
        x_values = cfg.get("task_counts", (5, 10, 20))
        task_counts = [int(v) for v in x_values]
        temperatures = [cfg.get("demo_eta", 8.0)] * len(x_values)
    replications = cfg.get("replications", 30)
    methods = cfg.get("methods", ("soft", "imitator", "mwal", "mtpp-mh", "mtpp-mh-flat"))
    length = cfg.get("demo_length", 50)
    mh_iterations = cfg.get("mh_iterations", 2000)
    mh_chains = cfg.get("mh_chains", 1)
    mwal_iterations = cfg.get("mwal_iterations", 100)
    discount = cfg.get("discount", 0.95)
    max_tasks = max(task_counts)
    rows = []
    for rep in range(replications):
        for index, x in enumerate(x_values):
            count = task_counts[index]
            # Re-deriving the same env stream per sweep point pairs the
            # comparisons: dynamics and rewards agree across x within a rep.
            spec = RandomMdpSpec(
                n_states=cfg.get("mdp_states", 8),
                n_actions=cfg.get("mdp_actions", 2),
                n_tasks=max_tasks,
                transition_concentration=cfg.get("transition_concentration", 1.0),
                reward_concentration_mean=1.0 / cfg.get("hyper_rate", 10.0),
                temperature_range=(temperatures[index], temperatures[index]),
                discount=discount,
            )
            population = make_random_mdp_population(
                spec, substream(seed, name, "rep", rep, "env")
            )
            true_mdps, demonstrators = _population_subset(population, count)
            cmp = population.cmp
            hyper = _hyperprior(cfg, cmp.n_states)
            policy_prior = _policy_prior(cfg, cmp.n_states, cmp.n_actions)
            demo_rng = substream(seed, name, "rep", rep, "demos", index)
            demos = [
                simulate(true_mdps[m], demonstrators[m], length, demo_rng, task_id=m)
                for m in range(count)
            ]
            for method in methods:
                if method == "soft":
                    losses = tuple(
                        l1_loss(true_mdps[m], demonstrators[m]) for m in range(count)
                    )
                elif method == "imitator":
                    losses = tuple(
                        l1_loss(true_mdps[m], imitator([demos[m]], policy_prior))
                        for m in range(count)
                    )
                elif method == "mwal":
                    losses = tuple(
                        l1_loss(true_mdps[m], mwal(cmp, discount, [demos[m]],
                                                   n_iterations=mwal_iterations))
                        for m in range(count)
                    )
                elif method == "mtpp-mh":
                    ensemble = mtpp_mh(
                        cmp, demos, hyper, mh_iterations, mh_chains, discount,
                        subseed(seed, name, "rep", rep, "mh", index),
                    )
                    losses = _mtpp_task_losses(ensemble, true_mdps)
                elif method == "mtpp-mh-flat":
                    flat = [
                        Demonstration(task_id=0, states=d.states, actions=d.actions)
                        for d in demos
                    ]
                    ensemble = mtpp_mh(
                        cmp, flat, hyper, mh_iterations, mh_chains, discount,
                        subseed(seed, name, "rep", rep, "mh-flat", index),
                    )
                    shared = posterior_policy(ensemble, 0, cmp, discount)
                    losses = tuple(l1_loss(true_mdps[m], shared) for m in range(count))
                else:
                    raise ConfigError(f"unknown method {method!r} for {name}")
                rows.append(ResultRow(name, rep, method, float(x), losses))
    meta = {"methods": list(methods), "mh_iterations": mh_iterations,
            "demo_length": length, "sweep": sweep}
    return rows, meta


_TEMPLATES = {
    "sampler-comparison": _run_sampler_comparison,
    "model-comparison": _run_model_comparison,
    "multitask-gain": _run_multitask_gain,
    "data-efficiency": _run_data_efficiency,
    "random-mdp-temperature-sweep": lambda cfg, seed: _run_random_mdp_sweep(cfg, seed, "temperature"),
    "random-mdp-task-sweep": lambda cfg, seed: _run_random_mdp_sweep(cfg, seed, "tasks"),
}


def run_experiment(config) -> ExperimentResult:
    """Run a named experiment template from a parsed configuration mapping.

    Writes ``<name>-runs.csv`` and ``<name>-aggregate.csv`` into
    ``out_dir`` when the configuration names one.
    """
    cfg = dict(config)
    name = cfg.get("experiment")
    if name not in _TEMPLATES:
        raise ConfigError(
            f"unknown experiment template {name!r}; expected one of {', '.join(EXPERIMENTS)}"
        )
    seed = cfg.get("seed", 0)
    started = time.perf_counter()
    rows, meta = _TEMPLATES[name](cfg, seed)
    meta.update({
        "experiment": name,
        "seed": int(seed),
        "replications": cfg.get("replications"),
        "wall_clock_seconds": time.perf_counter() - started,
    })
    result = ExperimentResult(name=name, rows=tuple(rows), metadata=meta)
    out_dir = cfg.get("out_dir")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        write_runs_csv(result, os.path.join(out_dir, f"{name}-runs.csv"))
        write_aggregate_csv(result, os.path.join(out_dir, f"{name}-aggregate.csv"))
    return result


def value_error_bound(k: int, discount: float) -> float:
    """Analytic cap on the mean sup-norm error of a k-sample value estimate."""
    k = int(k)
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not (0.0 <= discount < 1.0):
        raise ValueError(f"discount must lie in [0, 1), got {discount}")
    return (2.0 + 0.5 * np.sqrt(np.log(k))) / ((1.0 - discount) * np.sqrt(k))


def bound_check(k_values=(10, 100, 1000), replications: int = 100, *, seed=0,
                n_hypotheses: int = 16, discount: float = 0.95,
                demo_length: int = 50, demo_eta: float = 8.0,
                reference_samples: int = 20000) -> dict:
    """Empirical check of the value-estimate error bound on a chain instance.

    Builds a finite hypothesis set containing the true chain reward, fixes
    one softmax demonstration, and for each ``k`` measures the sup-norm gap
    between the k-sample posterior-mean value estimate and a high-precision
    reference, averaged over replications.
    """
    mdp = make_chain()
    cmp = mdp.cmp
    hyp_rng = substream(seed, "bound", "hypotheses")
    extra = DirichletRewardPrior(np.ones(cmp.n_states)).sample_batch(hyp_rng, n_hypotheses - 1)
    hypotheses = RewardHypothesisSet(np.vstack([mdp.reward.values[None, :], extra]))
    demonstrator = make_demonstrator("softmax", mdp, eta=demo_eta)
    demo = simulate(mdp, demonstrator, demo_length, substream(seed, "bound", "demo"),
                    task_id=0, initial_state_probs=_delta_start(cmp.n_states))
    posterior = policy_posterior(PolicyDirichletPrior.uniform(cmp.n_states, cmp.n_actions), [demo])
    optimal_values, _ = batch_solve_optimal(cmp.transition, hypotheses.values, discount)
    prior = OptimalityPrior(1.0)

    def estimate(n_policies, rng):
        policies = sample_policies(posterior, n_policies, rng)
        matrix = build_loss_matrix(cmp, discount, policies, hypotheses)
        probs = reward_posterior(matrix, prior, hypotheses).probabilities
        return probs @ optimal_values

    reference = estimate(reference_samples, substream(seed, "bound", "reference"))
    empirical = []
    bounds = []
    for k in k_values:
        errors = np.empty(replications)
        for rep in range(replications):
            value = estimate(int(k), substream(seed, "bound", "rep", int(k), rep))
            errors[rep] = np.max(np.abs(value - reference))
        empirical.append(float(errors.mean()))
        bounds.append(value_error_bound(int(k), discount))
    return {
        "k_values": [int(k) for k in k_values],
        "empirical_mean_errors": empirical,
        "bounds": bounds,
        "replications": int(replications),
        "discount": float(discount),
        "n_hypotheses": int(n_hypotheses),
    }
