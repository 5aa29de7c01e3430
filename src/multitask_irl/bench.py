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
from .config import ConfigError, _check_chain_rewards
from .mdp import (
    Cmp,
    Demonstration,
    Mdp,
    RewardFunction,
    StationaryPolicy,
    batch_policy_values,
    batch_solve_optimal,
    demo_counts,
    simulate,
    solve_optimal,
)
from .mtpo import RewardHypothesisSet, build_loss_matrix, mtpo_mc, reward_posterior
from .mtpp import _group_demos, _mtpp_mh_batch, mtpp_mc
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


def l1_loss(mdp: Mdp, policy, optimal: np.ndarray = None) -> float:
    """Sum over states of the optimal-minus-achieved value gap.

    Accepts a stationary or mixed policy (a stationary policy is a
    one-component mixture); per-state gaps are clamped at zero before
    summing, so float noise on an optimal policy cannot go negative.
    ``optimal``, the MDP's optimal values, is solved here unless given.
    """
    if optimal is None:
        optimal, _ = solve_optimal(mdp)
    if not isinstance(policy, MixedPolicy):
        policy = MixedPolicy.uniform([policy])
    stacked = np.stack([p.action_probs for p in policy.policies])
    values = batch_policy_values(
        mdp.cmp.transition, mdp.reward.values[None, :], stacked, mdp.discount
    )[:, 0, :]
    return float(np.maximum(optimal - policy.weights @ values, 0.0).sum())


def _true_optima(mdps) -> np.ndarray:
    """Optimal values of a sweep point's true MDPs, (M, S), in one batched
    solve; the MDPs of a point share one CMP and one discount."""
    rewards = np.stack([mdp.reward.values for mdp in mdps])
    values, _ = batch_solve_optimal(mdps[0].cmp.transition, rewards, mdps[0].discount)
    return values


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


# --- methods ----------------------------------------------------------------
#
# A method fits a list of runs, each ``(method, env, demos, budget, seed)``:
# the method's name, the environment, the demonstrations, a budget (None: the
# method's own budget key) and a seed.  It returns per run one policy per task
# in sorted task-id order plus the posterior it came from (None for the
# baselines).  The runs handed to one call may come from several
# replications, each on its own kernel.  Each method reads its model's keys
# here and only here.


@dataclass(frozen=True, eq=False)
class Environment:
    """What a method may know of where the demonstrations came from.

    There is no start law here: mwal takes the one its demonstrations show.
    """

    cmp: Cmp
    demonstrators: tuple = ()   # the tasks' own policies, which "soft" returns


def _discount(cfg) -> float:
    return cfg.get("discount", 0.95)


def _hyperprior(cfg, n_states: int) -> GammaHyperprior:
    return GammaHyperprior(n_states, concentration_law=(1.0, cfg.get("hyper_rate", 10.0)))


def _policy_prior(cfg, cmp: Cmp) -> PolicyDirichletPrior:
    return PolicyDirichletPrior.uniform(
        cmp.n_states, cmp.n_actions, cfg.get("policy_prior_strength", 1.0)
    )


def _greedy(fitted, cfg):
    """Per ``(posterior, cmp)`` pair of ``fitted``, the greedy policy of each
    task's posterior-mean reward, in sorted task order: the policies
    :func:`posterior_policy` gives, from one planner call with a kernel per
    task."""
    tasks = [(posterior, cmp, tid) for posterior, cmp in fitted for tid in posterior.task_ids]
    means = np.stack([posterior.posterior_mean_reward(tid).values for posterior, _, tid in tasks])
    kernels = np.stack([cmp.transition for _, cmp, _ in tasks])
    _, actions = batch_solve_optimal(kernels, means, _discount(cfg))
    policies = iter(StationaryPolicy.from_actions(greedy, cmp.n_actions)
                    for greedy, (_, cmp, _) in zip(actions, tasks))
    return [[next(policies) for _ in posterior.task_ids] for posterior, _ in fitted]


def _each(fit):
    """A method that fits its runs one at a time with ``fit(env, demos, cfg,
    budget, seed)``, as its results are read, so one run's posterior is
    dropped before the next is fitted."""
    return lambda runs, cfg: (fit(env, demos, cfg, budget, seed)
                              for _, env, demos, budget, seed in runs)


@_each
def _fit_imitator(env, demos, cfg, budget, seed):
    prior = _policy_prior(cfg, env.cmp)
    _, counts = _group_demos(demos, env.cmp)
    return [imitator(task_counts, prior) for task_counts in counts], None


@_each
def _fit_soft(env, demos, cfg, budget, seed):
    return list(env.demonstrators), None


@_each
def _fit_mwal(env, demos, cfg, budget, seed):
    rounds = cfg.get("mwal_iterations", 100) if budget is None else budget
    return [mwal(env.cmp, _discount(cfg), [d for d in demos if d.task_id == tid],
                 n_iterations=rounds) for tid in sorted({d.task_id for d in demos})], None


@_each
def _fit_mtpp_mc(env, demos, cfg, budget, seed):
    n_samples = cfg.get("mc_samples", 1000) if budget is None else budget
    ensemble = mtpp_mc(env.cmp, demos, _hyperprior(cfg, env.cmp.n_states), n_samples,
                       _discount(cfg), seed)
    return _greedy([(ensemble, env.cmp)], cfg)[0], ensemble


def _fit_mtpp_mh(runs, cfg):
    """Every chain of every run advances in one lockstep batch, each on its
    run's kernel.

    An ``mtpp-mh-N`` run has N chains, any other run ``mh_chains``.  An
    ``mtpp-mh-flat`` run pools every demonstration into task 0, and its one
    policy serves every task.
    """
    fits, copies = [], []       # a flat run's one policy is copied to each of its tasks
    for method, env, demos, budget, seed in runs:
        n_iterations = cfg.get("mh_iterations", 2000) if budget is None else budget
        suffix = method.rpartition("-")[2]
        chains = int(suffix) if suffix.isdigit() else cfg.get("mh_chains", 1)
        if chains > n_iterations:
            # An mtpp-mh-N method's chain count comes from mh_chain_counts.
            named = (f"{method} (chain count {chains} from mh_chain_counts)"
                     if suffix.isdigit() else f"mh_chains = {chains}")
            raise ConfigError(
                f"{named} exceeds the {n_iterations} iterations of an mtpp-mh fit "
                "(mh_iterations, its default or a swept budget): every chain needs at "
                "least one iteration"
            )
        flat = method == "mtpp-mh-flat"
        copies.append(len({d.task_id for d in demos}) if flat else 1)
        if flat:
            demos = [Demonstration(0, d.states, d.actions) for d in demos]
        fits.append((env.cmp, demos, n_iterations, chains, seed))
    ensembles = _mtpp_mh_batch(
        fits, _hyperprior(cfg, runs[0][1].cmp.n_states), _discount(cfg),
        burn_in_fraction=cfg.get("burn_in_fraction", 0.1),
        reward_step=cfg.get("reward_step", 50.0),
        temperature_step=cfg.get("temperature_step", 0.25),
        hyper_step=cfg.get("hyper_step", 0.25),
    )
    policies = _greedy([(ensemble, fit[0]) for ensemble, fit in zip(ensembles, fits)], cfg)
    return [(greedy * n, ensemble) for greedy, n, ensemble in zip(policies, copies, ensembles)]


@_each
def _fit_mtpo_mc(env, demos, cfg, budget, seed):
    cmp = env.cmp
    result = mtpo_mc(
        cmp, demos, _policy_prior(cfg, cmp),
        optimality_prior=OptimalityPrior(cfg.get("optimality_rate", 1.0)),
        n_policy_samples=cfg.get("mc_samples", 1000) if budget is None else budget,
        reward_prior=DirichletRewardPrior(np.ones(cmp.n_states)),
        n_hypotheses=cfg.get("n_hypotheses", 64),
        discount=_discount(cfg), seed=seed,
    )
    return _greedy([(result, cmp)], cfg)[0], result


# name -> (fit, seed-path tag); the baselines draw no randomness.
METHODS = {
    "imitator": (_fit_imitator, None),
    "soft": (_fit_soft, None),
    "mwal": (_fit_mwal, None),
    "mtpp-mc": (_fit_mtpp_mc, ("mc",)),
    "mtpp-mh": (_fit_mtpp_mh, ("mh",)),
    "mtpp-mh-flat": (_fit_mtpp_mh, ("mh-flat",)),
    "mtpo-mc": (_fit_mtpo_mc, ("mtpo",)),
}


def _resolve(method: str):
    """(fit, seed-path tag) of a method; ``mtpp-mh-N`` is an ``mtpp-mh`` fit
    with N in its seed path."""
    chains = method.rpartition("-")[2]
    return (_fit_mtpp_mh, ("mh", int(chains))) if chains.isdigit() else METHODS[method]


# --- templates --------------------------------------------------------------
#
# A template is data: its default (and permitted) methods, its default
# replication count, and how it builds each replication's sweep points,
# which all share one transition kernel.


@dataclass(frozen=True)
class _Point:
    """One sweep point of one replication."""

    x: float
    key: int                 # names the point in the methods' seed paths
    budget: int              # None: each method's own budget key
    env: Environment
    demos: list
    true_mdps: list          # one per task, scored by l1_loss


@dataclass(frozen=True)
class _Template:
    methods: tuple
    replications: int
    points: object           # (seed, rep) -> iterable of _Point


def _list_key(cfg, key: str, default) -> tuple:
    """A list key's values; a repeat would be fitted again as a duplicate row."""
    values = tuple(cfg.get(key, default))
    repeats = [value for i, value in enumerate(values) if value in values[:i]]
    if repeats:
        raise ConfigError(f"{key} lists {repeats[0]!r} more than once")
    return values


def _chain_mdp(cfg) -> Mdp:
    n_states = cfg.get("chain_states", 5)
    _check_chain_rewards(n_states, cfg.get("chain_rewards"))
    spec = ChainSpec(
        n_states=n_states,
        slip=cfg.get("chain_slip", 0.2),
        rewards=cfg.get("chain_rewards"),
        discount=_discount(cfg),
    )
    return make_chain(spec)


def _chain_demos(mdps, demonstrators, per_task, length, rng):
    start = _delta_start(mdps[0].cmp.n_states)
    return [
        simulate(mdp, demonstrator, length, rng, task_id=m, initial_state_probs=start)
        for m, (mdp, demonstrator) in enumerate(zip(mdps, demonstrators))
        for _ in range(per_task)
    ]


def _chain_budget_sweep(cfg, name, methods, n_tasks, length, budgets) -> _Template:
    """Near-greedy demonstrations on the chain, swept over inference budgets."""
    mdp = _chain_mdp(cfg)
    demonstrator = make_demonstrator("eps_greedy", mdp, epsilon=cfg.get("demo_epsilon", 0.01))
    env = Environment(mdp.cmp)
    true_mdps = [mdp] * n_tasks
    length = cfg.get("demo_length", length)
    budgets = _list_key(cfg, "sample_budgets", budgets)

    def points(seed, rep):
        demos = _chain_demos(true_mdps, [demonstrator] * n_tasks, 1, length,
                             substream(seed, name, "rep", rep, "demos"))
        for budget in budgets:
            yield _Point(float(budget), budget, budget, env, demos, true_mdps)

    return _Template(methods, 100, points)


def _sampler_comparison(cfg, name):
    counts = _list_key(cfg, "mh_chain_counts", (1, 2, 4, 8))
    methods = ("mtpp-mc",) + tuple(f"mtpp-mh-{n}" for n in counts)
    return _chain_budget_sweep(cfg, name, methods, cfg.get("n_tasks", 1), 50,
                               (100, 300, 1000, 3000))


def _model_comparison(cfg, name):
    return _chain_budget_sweep(cfg, name, ("mtpp-mc", "mtpo-mc"), cfg.get("n_tasks", 1), 50,
                               (100, 300, 1000, 3000))


def _data_efficiency(cfg, name):
    return _chain_budget_sweep(cfg, name, ("imitator", "mwal", "mtpp-mc", "mtpo-mc"), 1,
                               1000, (100, 1000, 10000))


def _multitask_gain(cfg, name):
    """A fixed demonstration budget split across more and more chain tasks."""
    task_counts = _list_key(cfg, "task_counts", (1, 2, 5, 10))
    total_demos = cfg.get("total_demos", 10)
    for count in task_counts:
        if total_demos % count != 0:
            raise ConfigError(
                f"total_demos ({total_demos}) must be divisible by every task count, not {count}"
            )
    length = cfg.get("demo_length", 20)
    eta = cfg.get("demo_eta", 5.0)
    n_states = cfg.get("chain_states", 5)
    hyper_rate = cfg.get("hyper_rate", 10.0)
    cmp = chain_transition(n_states, cfg.get("chain_slip", 0.2))
    env = Environment(cmp)

    def points(seed, rep):
        for count in task_counts:
            env_rng = substream(seed, name, "rep", rep, "env", count)
            concentration = env_rng.gamma(1.0, 1.0 / hyper_rate, size=n_states)
            rewards = env_rng.dirichlet(concentration, size=count)
            true_mdps = [Mdp(cmp, RewardFunction(r), _discount(cfg)) for r in rewards]
            demonstrators = [make_demonstrator("softmax", t, eta=eta) for t in true_mdps]
            demos = _chain_demos(true_mdps, demonstrators, total_demos // count, length,
                                 substream(seed, name, "rep", rep, "demos", count))
            yield _Point(float(count), count, None, env, demos, true_mdps)

    return _Template(("mtpp-mc", "imitator"), 100, points)


def _random_mdp_sweep(cfg, name):
    """Random-MDP populations swept over demonstrator temperature or task count."""
    if name == "random-mdp-temperature-sweep":
        x_values = _list_key(cfg, "temperature_values", (2.0, 4.0, 6.0, 8.0))
        task_counts = [cfg.get("n_tasks", 20)] * len(x_values)
        temperatures = list(x_values)
    else:
        x_values = _list_key(cfg, "task_counts", (5, 10, 20))
        task_counts = [int(v) for v in x_values]
        temperatures = [cfg.get("demo_eta", 8.0)] * len(x_values)
    length = cfg.get("demo_length", 50)

    def population(seed, rep, temperature):
        spec = RandomMdpSpec(
            n_states=cfg.get("mdp_states", 8),
            n_actions=cfg.get("mdp_actions", 2),
            n_tasks=max(task_counts),
            transition_concentration=cfg.get("transition_concentration", 1.0),
            reward_concentration_mean=1.0 / cfg.get("hyper_rate", 10.0),
            temperature_range=(temperature, temperature),
            discount=_discount(cfg),
        )
        return make_random_mdp_population(spec, substream(seed, name, "rep", rep, "env"))

    def points(seed, rep):
        # Every population of a replication comes from the same env stream,
        # which pairs the comparisons: dynamics and rewards agree across x.
        # So one population per distinct temperature serves every x.
        populations = {}
        for index, (x, count, temperature) in enumerate(zip(x_values, task_counts, temperatures)):
            if temperature not in populations:
                populations[temperature] = population(seed, rep, temperature)
            pop = populations[temperature]
            true_mdps = [pop.mdp(m) for m in range(count)]
            demonstrators = pop.demonstrators[:count]
            demo_rng = substream(seed, name, "rep", rep, "demos", index)
            demos = [
                simulate(true_mdps[m], demonstrators[m], length, demo_rng, task_id=m)
                for m in range(count)
            ]
            env = Environment(pop.cmp, demonstrators=demonstrators)
            yield _Point(float(x), index, None, env, demos, true_mdps)

    return _Template(("soft", "imitator", "mwal", "mtpp-mh", "mtpp-mh-flat"), 30, points)


_TEMPLATES = {
    "sampler-comparison": _sampler_comparison,
    "model-comparison": _model_comparison,
    "multitask-gain": _multitask_gain,
    "data-efficiency": _data_efficiency,
    "random-mdp-temperature-sweep": _random_mdp_sweep,
    "random-mdp-task-sweep": _random_mdp_sweep,
}


def _check_out_dir(path) -> None:
    """Fail before any fitting if a file stands where the output directory
    ``path`` or one of its missing parents would go."""
    existing = os.path.abspath(path)
    while not os.path.exists(existing):  # ends at the root, which exists
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(f"cannot create output directory {path}: {existing} is not a directory")


# Replications fitted as one batch.  A block holds the posteriors of all its
# Metropolis-Hastings fits at once: about 5.5 MB per random-MDP task-sweep
# replication at the default 2000 iterations.
_REPLICATION_BLOCK = 8


def run_experiment(config) -> ExperimentResult:
    """Run a named experiment template from a parsed configuration mapping.

    Every method named by ``methods`` (default: the template's list) is
    fitted at every sweep point of every replication, and scored per task
    with :func:`l1_loss`.  Replications run in blocks of
    ``_REPLICATION_BLOCK``: each fit is handed at once every point of every
    replication of a block, for every method that shares it, so all the
    Metropolis-Hastings fits of a block advance in one lockstep batch, each
    on its own replication's kernel.  Each run keeps its seed path, so the
    rows are those of one fit per replication, point and method, in that
    order, whatever the block size.  A method or sweep value listed twice
    raises ``ConfigError``.  Writes ``<name>-runs.csv`` and ``<name>-aggregate.csv``
    into ``out_dir`` when the configuration names one.
    """
    cfg = dict(config)
    name = cfg.get("experiment")
    if name not in _TEMPLATES:
        raise ConfigError(
            f"unknown experiment template {name!r}; expected one of {', '.join(EXPERIMENTS)}"
        )
    seed = cfg.get("seed", 0)
    started = time.perf_counter()
    template = _TEMPLATES[name](cfg, name)
    methods = _list_key(cfg, "methods", template.methods)
    for method in methods:
        if method not in template.methods:
            raise ConfigError(
                f"unknown method {method!r} for {name}; expected some of "
                + ", ".join(template.methods)
            )
    # The methods that share a fit (the mtpp-mh family) are fitted together.
    groups = {}
    for method in methods:
        fit, tag = _resolve(method)
        groups.setdefault(fit, []).append((method, tag))
    replications = cfg.get("replications", template.replications)
    out_dir = cfg.get("out_dir")
    if out_dir:
        _check_out_dir(out_dir)
    rows = []
    for first in range(0, replications, _REPLICATION_BLOCK):
        points = [(rep, point)
                  for rep in range(first, min(first + _REPLICATION_BLOCK, replications))
                  for point in template.points(seed, rep)]
        optima = [_true_optima(point.true_mdps) for _, point in points]
        losses = {}
        for fit, group in groups.items():
            runs = [
                (method, point.env, point.demos, point.budget,
                 None if tag is None else subseed(seed, name, "rep", rep, *tag, point.key))
                for method, tag in group for rep, point in points
            ]
            fitted = iter(fit(runs, cfg))
            for method, _ in group:
                for i, (_, point) in enumerate(points):
                    # Only the policies are kept, so a run's posterior is
                    # dropped before the next run is fitted.
                    policies = next(fitted)[0]
                    losses[method, i] = tuple(
                        l1_loss(mdp, policy, optimal)
                        for mdp, policy, optimal in zip(point.true_mdps, policies, optima[i])
                    )
        rows += [ResultRow(name, rep, method, point.x, losses[method, i])
                 for i, (rep, point) in enumerate(points) for method in methods]
    meta = {
        "experiment": name,
        "methods": list(methods),
        "seed": int(seed),
        "replications": int(replications),
        "wall_clock_seconds": time.perf_counter() - started,
    }
    result = ExperimentResult(name=name, rows=tuple(rows), metadata=meta)
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
    posterior = policy_posterior(PolicyDirichletPrior.uniform(cmp.n_states, cmp.n_actions),
                                 demo_counts([demo], cmp.n_states, cmp.n_actions))
    optimal_values, _ = batch_solve_optimal(cmp.transition, hypotheses.values, discount)
    prior = OptimalityPrior(1.0)

    def estimate(n_policies, rng):
        policies = sample_policies(posterior, n_policies, rng)
        matrix = build_loss_matrix(cmp, discount, policies, hypotheses, optimal_values)
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
