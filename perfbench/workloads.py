"""The benchmark's workloads: inputs, one timed round, and the checks.

A workload builds its inputs from the seed (``prepare``), runs identical
rounds of the program (``run_round``, the only timed code), then checks
every round's outputs against the benchmark's own recomputation
(``check_round``) and runs one untimed check of the sampler it stresses
(``check_sampler``).  Operations are expected CSV rows for the template
workloads and commands for ``infer-cli``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np

import checks
import reference
from multitask_irl import (
    Cmp,
    Demonstration,
    DiscreteRewardPrior,
    FixedHyperprior,
    FixedTemperature,
    Mdp,
    OptimalityPrior,
    RewardFunction,
    RewardHypothesisSet,
    bench,
    build_loss_matrix,
    make_chain,
    make_demonstrator,
    mtpp_mc,
    mtpp_mh,
    reward_posterior,
    simulate,
    substream,
)

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
DISCOUNT = 0.95
CHAIN_REWARD = np.array([0.2, 0.0, 0.0, 0.0, 1.0])


def own_rng(seed: int, purpose: str) -> np.random.Generator:
    """The benchmark's own randomness, apart from the program's substreams."""
    return np.random.default_rng([seed, zlib.crc32(purpose.encode())])


# --- sampler checks on two-atom instances -----------------------------------

def two_atom_instance(rng, kernel, eta: float, n_tasks: int, horizon: int):
    """Tasks alternating between two reward atoms (far state, first state),
    softmax demonstrators at the known ``eta``; returns the planner, atoms,
    demonstrations and each task's exact posterior probability of atom 1."""
    planner = reference.EnumerationPlanner(kernel, DISCOUNT)
    n_states = kernel.shape[0]
    atoms = np.zeros((2, n_states))
    atoms[0, -1] = 1.0
    atoms[1, 0] = 1.0
    demos, exact = [], []
    for m in range(n_tasks):
        states, actions = reference.simulate(
            kernel, planner.softmax_policy(atoms[m % 2], eta), horizon, rng)
        demos.append(Demonstration(task_id=m, states=states, actions=actions))
        counts = reference.action_counts([(states, actions)], n_states, kernel.shape[1])
        exact.append(reference.two_atom_posterior(planner, atoms, eta, counts)[1])
    return planner, atoms, demos, exact


def check_mtpp_mc(seed: int) -> list:
    """mtpp_mc against the enumerated posterior on a two-task chain instance."""
    eta = 0.3
    kernel = reference.chain_kernel(5, 0.2)
    _, atoms, demos, exact = two_atom_instance(own_rng(seed, "mc-check"), kernel, eta, 2, 10)
    hyper = FixedHyperprior(DiscreteRewardPrior(atoms), FixedTemperature(eta))
    ensemble = mtpp_mc(Cmp(kernel), demos, hyper, 4000, DISCOUNT, seed)
    problems = []
    for m, probability in enumerate(exact):
        is_atom1 = np.all(np.abs(ensemble.rewards[:, m, :] - atoms[1]) < 1e-9, axis=1)
        ok, estimate, tol = checks.weighted_agreement(ensemble.weights, is_atom1, probability)
        if not ok:
            problems.append(f"mtpp_mc task {m}: P(atom 1) {estimate:.4f}, "
                            f"exact {probability:.4f}, tolerance {tol:.4f}")
    return problems


def check_mtpp_mh(seed: int, n_chains: int) -> list:
    """mtpp_mh against the enumerated posterior on a two-task random MDP."""
    eta = 1.0
    rng = own_rng(seed, "mh-check")
    kernel = rng.dirichlet(np.ones(4), size=(4, 2))
    _, atoms, demos, exact = two_atom_instance(rng, kernel, eta, 2, 15)
    hyper = FixedHyperprior(DiscreteRewardPrior(atoms), FixedTemperature(eta))
    ensemble = mtpp_mh(Cmp(kernel), demos, hyper, 4000, n_chains, DISCOUNT, seed)
    problems = []
    for m, probability in enumerate(exact):
        is_atom1 = np.all(np.abs(ensemble.rewards[:, m, :] - atoms[1]) < 1e-9, axis=1)
        ok, estimate, tol = checks.chain_agreement(np.split(is_atom1, n_chains), probability)
        if not ok:
            problems.append(f"mtpp_mh task {m}: P(atom 1) {estimate:.4f}, "
                            f"exact {probability:.4f}, tolerance {tol:.4f}")
    return problems


def check_reward_posterior(seed: int) -> list:
    """build_loss_matrix and reward_posterior against enumeration and exact
    slack integration, for policies scattered around a softmax expert."""
    rng = own_rng(seed, "slack-check")
    kernel = reference.chain_kernel(5, 0.2)
    planner = reference.EnumerationPlanner(kernel, DISCOUNT)
    atoms = np.array([CHAIN_REWARD, [1.0, 0.0, 0.0, 0.0, 0.0]])
    measure = np.array([1.0, 2.0])
    expert = planner.softmax_policy(atoms[0], 1.0)
    policies = np.stack([
        np.stack([rng.dirichlet(20.0 * row + 0.5) for row in expert]) for _ in range(200)
    ])
    ours = np.stack([planner.sup_loss(atom, policies) for atom in atoms], axis=1)
    hypotheses = RewardHypothesisSet(atoms, measure)
    matrix = build_loss_matrix(Cmp(kernel), DISCOUNT, policies, hypotheses)
    posterior = reward_posterior(matrix, OptimalityPrior(1.0), hypotheses).probabilities
    exact = reference.slack_posterior(ours, measure, 1.0)
    problems = []
    if not np.all(np.abs(matrix.losses - ours) <= 1e-7):
        problems.append("build_loss_matrix differs from enumeration by "
                        f"{np.max(np.abs(matrix.losses - ours)):.2e}")
    if not np.all(np.abs(posterior - exact) <= 1e-7):
        problems.append(f"reward_posterior {posterior.tolist()} != exact {exact.tolist()}")
    return problems


# --- template workloads -------------------------------------------------------

def _unless_differs(loss: float, expert: np.ndarray, program_expert, tolerance: float) -> float:
    """The demonstrations are regenerated with the program's demonstrator so
    that they match bit for bit; that demonstrator must agree with the
    benchmark's own, or the reference loss is nan and its row fails."""
    if np.max(np.abs(expert - program_expert.action_probs)) > tolerance:
        return float("nan")
    return loss


class TemplateWorkload:
    """One experiment template run through ``bench.run_experiment``."""

    def __init__(self, name: str, config: dict, methods, x_values, n_states: int,
                 sampler_check):
        self.name = name
        self.config = config
        self.methods = tuple(methods)
        self.x_values = tuple(float(x) for x in x_values)
        self.loss_cap = n_states / (1.0 - DISCOUNT)
        self.sampler_check = sampler_check

    def prepare(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.replications = self.config["replications"]
        self.expected = [(method, x, rep) for method in self.methods for x in self.x_values
                         for rep in range(self.replications)]

    @property
    def ops_per_round(self) -> int:
        return len(self.expected)

    def _config(self, out_dir: Path, replications: int) -> dict:
        cfg = dict(self.config, seed=self.seed, replications=replications)
        cfg["out_dir"] = str(out_dir)
        return cfg

    def run_round(self, index: int, tracer=None):
        out_dir = self.workdir / f"round-{index}"
        config = self._config(out_dir, self.replications)
        if tracer is None:
            bench.run_experiment(config)
        else:
            with tracer:
                bench.run_experiment(config)
        return out_dir

    def _read(self, out_dir: Path):
        experiment = self.config["experiment"]
        runs = (out_dir / f"{experiment}-runs.csv").read_text(encoding="utf-8")
        aggregate = (out_dir / f"{experiment}-aggregate.csv").read_text(encoding="utf-8")
        return runs, aggregate

    def prepare_checks(self):
        """Untimed: the same experiment with another replication count (one
        if the rounds run several, two if they run one), whose replication-0
        rows must match the rounds' byte for byte; and the closed-form rows."""
        other_dir = self.workdir / "other-replications"
        bench.run_experiment(self._config(other_dir, 2 if self.replications == 1 else 1))
        _, self.isolated = checks.parse_runs_csv(self._read(other_dir)[0])
        self.reference = self.closed_form()

    def check_round(self, out_dir: Path) -> dict:
        """Failed rows of one round, each with the first check it failed."""
        runs, aggregate = self._read(out_dir)
        _, rows = checks.parse_runs_csv(runs)
        bad_groups = checks.check_aggregate(rows, aggregate)
        failed = {}
        for reason, keys in (
            ("missing, non-finite or out of range", checks.check_rows(
                rows, self.expected, self.loss_cap)),
            ("aggregate line disagrees", {k for k in self.expected if k[:2] in bad_groups}),
            ("replication 0 differs with another replication count",
             checks.check_isolated(rows, self.isolated)),
            ("differs from the closed form", checks.check_closed_form(rows, self.reference)),
        ):
            for key in keys:
                failed.setdefault(key, reason)
        return failed

    def check_sampler(self) -> list:
        return self.sampler_check(self.seed)


class DataEfficiency(TemplateWorkload):
    """Imitator rows recomputed on the chain with its eps-greedy expert."""

    def closed_form(self) -> dict:
        name = self.config["experiment"]
        kernel = reference.chain_kernel(5, 0.2)
        planner = reference.EnumerationPlanner(kernel, DISCOUNT)
        greedy, _ = planner.greedy(CHAIN_REWARD)
        expert = np.full((5, 2), 0.01 / 2)
        expert[np.arange(5), greedy] += 0.99
        program_expert = make_demonstrator("eps_greedy", make_chain(), epsilon=0.01)
        start = np.eye(5)[0]
        out = {}
        for rep in range(self.replications):
            demo = simulate(Cmp(kernel), program_expert, self.config["demo_length"],
                            substream(self.seed, name, "rep", rep, "demos"),
                            task_id=0, initial_state_probs=start)
            counts = reference.action_counts([(demo.states, demo.actions)], 5, 2)
            loss = _unless_differs(
                planner.l1_loss(CHAIN_REWARD, reference.imitator_policy(counts)),
                expert, program_expert, 1e-12)
            for x in self.x_values:
                out[("imitator", x, rep)] = (loss,)
        return out


class MultitaskGain(TemplateWorkload):
    """Imitator rows recomputed on each replication's generalized chains."""

    def closed_form(self) -> dict:
        name = self.config["experiment"]
        kernel = reference.chain_kernel(5, 0.2)
        planner = reference.EnumerationPlanner(kernel, DISCOUNT)
        start = np.eye(5)[0]
        out = {}
        for rep in range(self.replications):
            for x in self.x_values:
                count = int(x)
                env_rng = substream(self.seed, name, "rep", rep, "env", count)
                concentration = env_rng.gamma(1.0, 1.0 / 10.0, size=5)
                rewards = env_rng.dirichlet(concentration, size=count)
                demo_rng = substream(self.seed, name, "rep", rep, "demos", count)
                losses = []
                for m in range(count):
                    expert = planner.softmax_policy(rewards[m], 5.0)
                    program_expert = make_demonstrator(
                        "softmax", Mdp(Cmp(kernel), RewardFunction(rewards[m]), DISCOUNT),
                        eta=5.0)
                    demos = [simulate(Cmp(kernel), program_expert, 20, demo_rng, task_id=m,
                                      initial_state_probs=start)
                             for _ in range(10 // count)]
                    counts = reference.action_counts(
                        [(d.states, d.actions) for d in demos], 5, 2)
                    losses.append(_unless_differs(
                        planner.l1_loss(rewards[m], reference.imitator_policy(counts)),
                        expert, program_expert, 1e-6))
                out[("imitator", x, rep)] = tuple(losses)
        return out


class RandomMdpSweep(TemplateWorkload):
    """Rows of the demonstrators themselves ('soft') recomputed on each
    replication's random MDP, regenerated from its environment substream."""

    def closed_form(self) -> dict:
        name = self.config["experiment"]
        n_states, n_tasks = 8, int(max(self.x_values))
        out = {}
        for rep in range(self.replications):
            rng = substream(self.seed, name, "rep", rep, "env")
            kernel = np.stack([rng.dirichlet(np.ones(n_states), size=2)
                               for _ in range(n_states)])
            concentration = rng.gamma(1.0, 0.1, size=n_states)
            rewards = rng.dirichlet(concentration, size=n_tasks)
            planner = reference.EnumerationPlanner(kernel, DISCOUNT)
            losses = [planner.l1_loss(rewards[m], planner.softmax_policy(rewards[m], 8.0))
                      for m in range(n_tasks)]
            for x in self.x_values:
                out[("soft", x, rep)] = tuple(losses[:int(x)])
        return out


# --- the command line ---------------------------------------------------------

class InferCli:
    """``multitask-irl infer`` for three models, then ``show`` on each
    posterior, as separate processes on a demonstration file the benchmark
    writes."""

    name = "infer-cli"
    models = ("mtpp-mh", "mtpp-mc", "mtpo-mc")
    configs = {
        "mtpp-mh": "mh_iterations = 400\nmh_chains = 4\n",
        "mtpp-mc": "mc_samples = 1000\n",
        "mtpo-mc": "mc_samples = 250\nn_hypotheses = 64\n",
    }
    n_tasks, demos_per_task, horizon, eta = 10, 2, 25, 5.0

    def prepare(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        rng = own_rng(seed, "infer-demos")
        self.kernel = reference.chain_kernel(5, 0.2)
        self.planner = reference.EnumerationPlanner(self.kernel, DISCOUNT)
        rewards = rng.dirichlet(rng.gamma(1.0, 0.1, size=5), size=self.n_tasks)
        lines = ["5 2"]
        self.imitators = {}
        for m in range(self.n_tasks):
            expert = self.planner.softmax_policy(rewards[m], self.eta)
            trajectories = [reference.simulate(self.kernel, expert, self.horizon, rng)
                            for _ in range(self.demos_per_task)]
            for states, actions in trajectories:
                pairs = np.stack([states, actions], axis=1).ravel()
                lines.append(" ".join(str(v) for v in [m, *pairs]))
            counts = reference.action_counts(trajectories, 5, 2)
            self.imitators[m] = reference.imitator_policy(counts)
        self.demo_path = workdir / "demos.txt"
        self.demo_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for model, text in self.configs.items():
            (workdir / f"{model}.cfg").write_text(f"seed = {seed}\n{text}", encoding="utf-8")
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    @property
    def ops_per_round(self) -> int:
        return 2 * len(self.models)

    def commands(self, out_dir: Path):
        for model in self.models:
            yield model, ["infer", "--demos", str(self.demo_path), "--model", model,
                          "--config", str(self.workdir / f"{model}.cfg"),
                          "--out", str(out_dir / model)]
        for model in self.models:
            yield f"show {model}", ["show", str(out_dir / model / "posterior.jsonl")]

    def run_round(self, index: int, tracer=None):
        out_dir = self.workdir / f"round-{index}"
        results = []
        for n, (label, argv) in enumerate(self.commands(out_dir)):
            launcher = [sys.executable, "-m", "multitask_irl.cli"]
            span_file = out_dir / f"spans-{n}.json"
            if tracer is not None:
                launcher = [sys.executable, str(HERE / "traced_cli.py"), str(span_file)]
            try:
                done = subprocess.run(launcher + argv, env=self.env, capture_output=True,
                                      text=True, timeout=150)
                results.append((label, done.returncode, done.stdout, done.stderr))
            except subprocess.TimeoutExpired:
                results.append((label, None, "", "timed out"))
            if tracer is not None and span_file.exists():
                tracer.absorb(json.loads(span_file.read_text(encoding="utf-8")))
        return out_dir, results

    def prepare_checks(self):
        pass

    def check_round(self, outcome) -> dict:
        """Failed commands of one round, each with what went wrong."""
        out_dir, results = outcome
        failed = {}
        summaries = {}
        for label, code, stdout, stderr in results:
            if code != 0:
                failed[label] = f"exit {code}: {stderr.strip()[-200:]}"
                continue
            if label.startswith("show "):
                summary = summaries.get(label[5:])
                problems = (["no summary to compare with"] if summary is None
                            else checks.check_show(stdout, summary))
            else:
                try:
                    summary = json.loads((out_dir / label / "summary.json").read_text())
                    means = checks.posterior_means(out_dir / label / "posterior.jsonl")
                except (OSError, ValueError, KeyError) as error:
                    failed[label] = f"unreadable output: {error}"
                    continue
                summaries[label] = summary
                problems = checks.check_summary(summary, means, self.planner, CHAIN_REWARD,
                                                self.imitators)
            if problems:
                failed[label] = "; ".join(problems)
        return failed

    def check_sampler(self) -> list:
        return check_mtpp_mh(self.seed, 4) + check_reward_posterior(self.seed)


def make(name: str):
    if name == "chain-data-efficiency":
        budgets = (100, 1000)
        methods = ("imitator", "mwal", "mtpp-mc", "mtpo-mc")
        return DataEfficiency(name, {
            "experiment": "data-efficiency", "replications": 1, "sample_budgets": budgets,
            "methods": methods, "demo_length": 1000,
        }, methods, budgets, 5, check_reward_posterior)
    if name == "chain-multitask-is":
        counts = (1, 2, 5, 10)
        return MultitaskGain(name, {
            "experiment": "multitask-gain", "replications": 2, "mc_samples": 3000,
            "task_counts": counts, "total_demos": 10,
        }, ("mtpp-mc", "imitator"), counts, 5, check_mtpp_mc)
    if name == "random-mdp-mh":
        counts = (5, 10, 20)
        methods = ("soft", "mtpp-mh", "mtpp-mh-flat")
        return RandomMdpSweep(name, {
            "experiment": "random-mdp-task-sweep", "replications": 2, "task_counts": counts,
            "methods": methods, "mh_iterations": 200, "mh_chains": 1,
        }, methods, counts, 8, lambda seed: check_mtpp_mh(seed, 1))
    if name == "infer-cli":
        return InferCli()
    raise KeyError(name)


NAMES = ("chain-data-efficiency", "chain-multitask-is", "random-mdp-mh", "infer-cli")
