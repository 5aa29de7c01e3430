"""Release acceptance gate.

One test per acceptance criterion, in order. Each prints a single
"CRITERION n <label>: PASS/FAIL - <detail>" line to the terminal (bypassing
capture) and then asserts. Criteria 4-6 re-run benchmark templates at desk
scale and dominate the runtime, roughly ten minutes together; the rest
finish in seconds.
"""

import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from multitask_irl import (
    Cmp,
    Demonstration,
    DirichletRewardPrior,
    DiscreteRewardPrior,
    EXPERIMENTS,
    FixedHyperprior,
    FixedTemperature,
    LossMatrix,
    Mdp,
    OptimalityPrior,
    PolicyDirichletPrior,
    RewardFunction,
    RewardHypothesisSet,
    batch_solve_optimal,
    bound_check,
    build_loss_matrix,
    chain_transition,
    demo_counts,
    load_config,
    make_demonstrator,
    mtpo_mc,
    mtpp_mc,
    mtpp_mh,
    policy_posterior,
    reward_posterior,
    run_experiment,
    simulate,
    softmax_policy,
    solve_optimal,
    substream,
    value_error_bound,
)
from oracles import (
    batch_means_se,
    bellman_q,
    enumerate_atom_posterior,
    exponential_mass,
    importance_se,
    quadrature_posterior,
)

REPO = Path(__file__).resolve().parent.parent
DISCOUNT = 0.95


def _emit(capsys, number, label, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"\nCRITERION {number} {label}: {status} - {detail}")
    assert ok, f"criterion {number} ({label}): {detail}"


def test_criterion_1_exact_posterior_agreement(capsys):
    # 2-state, 2-action, 2 candidate rewards, known temperature, 50 steps:
    # both samplers must match the enumerated posterior within 3 standard
    # errors (delta method for the weighted estimate, batch means for the
    # chain) at a 1e4 sample budget.
    atoms = np.array([[1.0, 0.0], [0.0, 1.0]])
    eta = 0.3
    cmp = chain_transition(2, 0.1)
    truth = Mdp(cmp, RewardFunction(atoms[1]), DISCOUNT)
    teacher = make_demonstrator("softmax", truth, eta=eta)
    demo = simulate(truth, teacher, 50, substream(2, "demo"), task_id=0)
    hyper = FixedHyperprior(DiscreteRewardPrior(atoms), FixedTemperature(eta))

    exact = enumerate_atom_posterior(cmp, [demo], atoms, [0.5, 0.5], eta, DISCOUNT)[1]

    mc = mtpp_mc(cmp, [demo], hyper, 10_000, DISCOUNT, 1)
    mc_ind = np.all(np.abs(mc.rewards[:, 0, :] - atoms[1][None, :]) < 1e-9, axis=1)
    mc_est = float(mc_ind.astype(float) @ mc.weights)
    mc_tol = 3.0 * importance_se(mc.weights, mc_ind.astype(float), mc_est) + 1e-3

    mh = mtpp_mh(cmp, [demo], hyper, 11_112, 1, DISCOUNT, 2)
    mh_ind = np.all(np.abs(mh.rewards[:, 0, :] - atoms[1][None, :]) < 1e-9, axis=1)
    mh_est = float(mh_ind.mean())
    mh_tol = 3.0 * batch_means_se(mh_ind.astype(float)) + 1e-3

    ok = (mh.n_samples >= 10_000
          and abs(mc_est - exact) <= mc_tol
          and abs(mh_est - exact) <= mh_tol)
    _emit(capsys, 1, "samplers match enumerated posterior", ok,
          f"exact {exact:.4f}; IS off {abs(mc_est - exact):.4f} (tol {mc_tol:.4f}), "
          f"chain off {abs(mh_est - exact):.4f} (tol {mh_tol:.4f}, "
          f"{mh.n_samples} kept samples)")


def test_criterion_2_quadrature_agreement(capsys):
    # The closed-form hypothesis posterior must match brute numerical
    # integration (1e6 grid points, membership re-derived per point) within
    # 1e-4 on 20 random small instances, ties included.
    rng = np.random.default_rng(20260822)
    worst = 0.0
    for case in range(20):
        k = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        losses = rng.uniform(0.0, 3.0, size=(k, n))
        if k > 1 and n > 1 and case % 2 == 0:
            losses[1, 1] = losses[0, 0]
        if n > 2 and case % 3 == 0:
            losses[0, 2] = losses[0, 1]
        measure = rng.uniform(0.2, 2.0, size=n)
        rate = float(rng.uniform(0.5, 2.0))
        hyp = RewardHypothesisSet(np.zeros((n, 2)), measure=measure)
        matrix = LossMatrix(losses)
        ours = reward_posterior(matrix, OptimalityPrior(rate), hyp).probabilities
        ref = quadrature_posterior(losses, measure, rate, total_points=1_000_000)
        worst = max(worst, float(np.max(np.abs(ours - ref))))
    ok = worst < 1e-4
    _emit(capsys, 2, "posterior matches 1e6-point quadrature", ok,
          f"worst abs difference {worst:.2e} over 20 instances (tol 1e-4)")


def test_criterion_3_value_error_bound(capsys):
    # Mean sup-norm error of the k-sample posterior value estimate stays
    # under the analytic bound for k in {10, 100, 1000} at 100 replications;
    # the bound itself evaluates to about 6.146 at k=100.
    report = bound_check(replications=100)
    bound_100 = value_error_bound(100, DISCOUNT)
    holds = all(err <= bnd for err, bnd in
                zip(report["empirical_mean_errors"], report["bounds"]))
    ok = holds and abs(bound_100 - 6.146) < 1e-3
    pairs = ", ".join(
        f"k={k}: {err:.3f}<={bnd:.3f}"
        for k, err, bnd in zip(report["k_values"],
                               report["empirical_mean_errors"],
                               report["bounds"]))
    _emit(capsys, 3, "value-error bound holds", ok,
          f"{pairs}; bound(100)={bound_100:.4f}")


def test_criterion_4_data_efficiency_ordering(capsys):
    # 5-state chain, 1000-step demo, 100 runs: the policy-optimality model
    # beats the imitator at every budget, and the importance sampler's loss
    # is non-increasing in the budget up to one standard error of the paired
    # per-run differences.
    result = run_experiment({
        "experiment": "data-efficiency",
        "seed": 0,
        "replications": 100,
        "sample_budgets": (100, 1000, 10_000),
        "demo_length": 1000,
        "methods": ("imitator", "mtpp-mc", "mtpo-mc"),
    })
    losses = {}
    for row in result.rows:
        losses.setdefault((row.method, row.x), {})[row.seed] = row.total_loss

    budgets = sorted({x for (method, x) in losses if method == "imitator"})
    beats = []
    for x in budgets:
        imit = np.mean(list(losses[("imitator", x)].values()))
        mtpo = np.mean(list(losses[("mtpo-mc", x)].values()))
        beats.append(mtpo <= imit + 1e-9)
    margins = []
    for lo, hi in zip(budgets, budgets[1:]):
        seeds = sorted(losses[("mtpp-mc", lo)])
        diffs = np.array([losses[("mtpp-mc", hi)][s] - losses[("mtpp-mc", lo)][s]
                          for s in seeds])
        se = diffs.std(ddof=1) / np.sqrt(len(diffs)) if len(diffs) > 1 else 0.0
        margins.append(float(diffs.mean() - se))
    ok = all(beats) and all(m <= 1e-9 for m in margins)
    imit_mean = np.mean(list(losses[("imitator", budgets[0])].values()))
    mtpo_worst = max(np.mean(list(losses[("mtpo-mc", x)].values())) for x in budgets)
    _emit(capsys, 4, "data-efficiency orderings", ok,
          f"imitator {imit_mean:.3f} vs worst mtpo-mc {mtpo_worst:.3f}; "
          f"worst paired budget increase minus SE {max(margins):.2e}")


def test_criterion_5_multitask_gain_monotone(capsys):
    # 10 demonstrations split over 1/2/5/10 tasks, 100 runs: the hierarchical
    # model's gain over the imitator is non-decreasing in the task count.
    # Budget 3000: the joint importance weights need the budget to grow with
    # the task count, and the default 1000 degenerates at 10 tasks.
    result = run_experiment({
        "experiment": "multitask-gain",
        "seed": 0,
        "replications": 100,
        "mc_samples": 3000,
    })
    means = {}
    for entry in result.aggregate():
        means[(entry["method"], entry["x"])] = entry["mean_total_loss"]
    counts = sorted({x for (_, x) in means})
    gains = [means[("imitator", x)] - means[("mtpp-mc", x)] for x in counts]
    ok = all(b >= a - 1e-9 for a, b in zip(gains, gains[1:]))
    _emit(capsys, 5, "multitask gain grows with task count", ok,
          "gains " + ", ".join(f"M={int(x)}: {g:.2f}"
                               for x, g in zip(counts, gains)))


def test_criterion_6_task_sweep_hierarchy(capsys):
    # Random-MDP populations, 5/10/20 tasks, 30 runs: the hierarchical chain's
    # mean per-task loss is non-increasing in the task count and beats the
    # flat ablation (all demonstrations pooled into one task) at 20 tasks.
    result = run_experiment({
        "experiment": "random-mdp-task-sweep",
        "seed": 0,
        "replications": 30,
        "methods": ("mtpp-mh", "mtpp-mh-flat"),
    })
    per_task = {}
    for entry in result.aggregate():
        per_task[(entry["method"], entry["x"])] = entry["mean_task_loss"]
    counts = sorted({x for (_, x) in per_task})
    hier = [per_task[("mtpp-mh", x)] for x in counts]
    flat_at_max = per_task[("mtpp-mh-flat", counts[-1])]
    ok = (all(b <= a + 1e-6 for a, b in zip(hier, hier[1:]))
          and hier[-1] < flat_at_max)
    _emit(capsys, 6, "hierarchy beats flat ablation", ok,
          "per-task loss " + ", ".join(f"M={int(x)}: {v:.3f}"
                                       for x, v in zip(counts, hier))
          + f"; flat at M={int(counts[-1])}: {flat_at_max:.3f}")


def test_criterion_7_randomized_invariants(capsys):
    # Vectorized property batteries, at least 1e3 randomized cases each.
    failures = []

    # Simplex draws: sampled rewards and policy rows are non-negative and
    # normalized to 1e-9.
    rng = np.random.default_rng(7001)
    rewards = np.empty((1000, 4))
    for i in range(1000):
        conc = rng.uniform(0.05, 5.0, size=4)
        rewards[i] = DirichletRewardPrior(conc).sample_batch(substream(i, "simplex"), 1)[0]
    kernels = rng.dirichlet(np.ones(3), size=(1000, 3, 2))
    if not (np.all(rewards >= 0) and np.max(np.abs(rewards.sum(axis=1) - 1)) < 1e-9
            and np.max(np.abs(kernels.sum(axis=-1) - 1)) < 1e-9):
        failures.append("simplex normalization")

    # Bellman residuals: solved values are a fixed point of the optimality
    # operator to well inside 1e-6.
    worst_residual = 0.0
    for i in range(1000):
        n_states = int(rng.integers(2, 6))
        n_actions = int(rng.integers(2, 4))
        cmp = Cmp(rng.dirichlet(np.ones(n_states), size=(n_states, n_actions)))
        discount = float(rng.uniform(0.5, 0.9))
        mdp = Mdp(cmp, RewardFunction(rng.uniform(0, 1, size=n_states)), discount)
        values, _ = solve_optimal(mdp)
        backup = np.max(bellman_q(mdp, values), axis=1)
        worst_residual = max(worst_residual, float(np.max(np.abs(values - backup))))
    if worst_residual > 1e-6:
        failures.append(f"bellman residual {worst_residual:.1e}")

    # Softmax policies ignore per-state additive shifts of the action values.
    for eta in (0.7, 5.0):
        q = rng.normal(size=(1000, 3))
        shifted = q + (rng.normal(size=1000) * 10.0)[:, None]
        gap = np.max(np.abs(softmax_policy(q, eta).action_probs
                            - softmax_policy(shifted, eta).action_probs))
        if gap > 1e-12:
            failures.append(f"softmax shift invariance {gap:.1e}")

    # Exponential interval masses over a partition of [0, inf) sum to one.
    rates = rng.uniform(0.1, 4.0, size=1000)
    cuts = np.sort(rng.uniform(0.0, 5.0, size=(1000, 4)), axis=1)
    lo = np.concatenate([np.zeros((1000, 1)), cuts], axis=1)
    hi = np.concatenate([cuts, np.full((1000, 1), np.inf)], axis=1)
    totals = np.array([sum(exponential_mass(rate, x, y) for x, y in zip(a, b))
                       for rate, a, b in zip(rates, lo, hi)])
    if np.max(np.abs(totals - 1.0)) > 1e-12:
        failures.append("exponential partition of unity")

    # Conjugate updates compose: folding demonstrations in one batch or in
    # two gives the same posterior concentration.
    for i in range(1000):
        states = rng.integers(0, 3, size=12)
        actions = rng.integers(0, 2, size=12)
        first = Demonstration(0, states[:7], actions[:7])
        second = Demonstration(0, states[7:], actions[7:])
        prior = PolicyDirichletPrior(rng.uniform(0.2, 3.0, size=(3, 2)))
        joint = policy_posterior(prior, demo_counts([first, second], 3, 2)).concentration
        staged = policy_posterior(policy_posterior(prior, demo_counts([first], 3, 2)),
                                  demo_counts([second], 3, 2)).concentration
        if np.max(np.abs(joint - staged)) > 1e-12:
            failures.append("conjugacy composition")
            break

    # Loss matrices: non-negative everywhere, zero for each hypothesis's own
    # optimal policy.
    worst_diag = 0.0
    for i in range(1000):
        cmp = Cmp(rng.dirichlet(np.ones(3), size=(3, 2)))
        hyp_rewards = rng.dirichlet(np.ones(3), size=2)
        hypotheses = RewardHypothesisSet(hyp_rewards)
        _, greedy, _ = batch_solve_optimal(cmp.transition, hyp_rewards, DISCOUNT)
        matrix = build_loss_matrix(cmp, DISCOUNT, np.eye(2)[greedy], hypotheses)
        if np.any(matrix.losses < 0):
            failures.append("loss matrix negativity")
            break
        worst_diag = max(worst_diag, float(np.max(np.diag(matrix.losses))))
    if worst_diag > 1e-6:
        failures.append(f"loss on own optimum {worst_diag:.1e}")

    # Seed determinism: named substreams replay exactly and distinct names
    # diverge; the samplers inherit this end to end.
    for i in range(1000):
        key = (int(rng.integers(0, 1000)), "probe", int(rng.integers(0, 1000)))
        a = substream(17, *key).uniform(size=3)
        b = substream(17, *key).uniform(size=3)
        c = substream(17, *key, "tail").uniform(size=3)
        if not (np.array_equal(a, b) and not np.array_equal(a, c)):
            failures.append("substream determinism")
            break
    atoms = np.array([[1.0, 0.0], [0.0, 1.0]])
    cmp = chain_transition(2, 0.1)
    truth = Mdp(cmp, RewardFunction(atoms[1]), DISCOUNT)
    demo = simulate(truth, make_demonstrator("softmax", truth, eta=2.0), 30,
                    substream(5, "demo"), task_id=0)
    hyper = FixedHyperprior(DiscreteRewardPrior(atoms), FixedTemperature(2.0))
    twice = [mtpp_mc(cmp, [demo], hyper, 300, DISCOUNT, 9).weights for _ in range(2)]
    again = [mtpo_mc(cmp, [demo], PolicyDirichletPrior(np.ones((2, 2))),
                     reward_prior=DirichletRewardPrior(np.ones(2)),
                     n_hypotheses=4, seed=9).posterior(0).probabilities
             for _ in range(2)]
    if not (np.array_equal(*twice) and np.array_equal(*again)):
        failures.append("sampler determinism")

    ok = not failures
    _emit(capsys, 7, "randomized invariant batteries", ok,
          "7 batteries x 1e3+ cases clean" if ok else "; ".join(failures))


def test_criterion_8_full_scale_configs_and_docs(capsys):
    # The shipped full-scale configuration files parse, validate through the
    # CLI, and the README documents desk- vs full-scale runtimes.
    config_dir = REPO / "configs"
    paths = sorted(config_dir.glob("*.cfg"))
    problems = []
    if len(paths) < len(EXPERIMENTS):
        problems.append(f"expected one config per template, found {len(paths)}")
    seen = set()
    for path in paths:
        config = load_config(path)
        name = config.get("experiment")
        if name not in EXPERIMENTS:
            problems.append(f"{path.name}: unknown experiment {name!r}")
        seen.add(name)
        proc = subprocess.run(
            [sys.executable, "-m", "multitask_irl.cli", "validate",
             "--config", str(path)],
            capture_output=True, text=True, cwd=REPO)
        if proc.returncode != 0:
            problems.append(f"{path.name}: validate exited {proc.returncode}")
    missing = set(EXPERIMENTS) - seen
    if missing:
        problems.append(f"no config for {sorted(missing)}")

    readme = (REPO / "README.md").read_text(encoding="utf-8")
    if "Runtime expectations" not in readme:
        problems.append("README lacks a runtime-expectations section")
    for name in EXPERIMENTS:
        if name not in readme:
            problems.append(f"README does not mention {name}")
    if not re.search(r"~\d+\s*(s|min|h)\b", readme):
        problems.append("README states no concrete runtimes")

    ok = not problems
    _emit(capsys, 8, "full-scale configs and documented runtimes", ok,
          f"{len(paths)} configs validate; README covers all "
          f"{len(EXPERIMENTS)} templates" if ok else "; ".join(problems))
