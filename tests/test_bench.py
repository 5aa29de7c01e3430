import numpy as np
import pytest

from multitask_irl import (
    EXPERIMENTS,
    Cmp,
    ConfigError,
    Demonstration,
    ExperimentResult,
    GammaHyperprior,
    Mdp,
    MixedPolicy,
    PolicyDirichletPrior,
    ResultRow,
    RewardFunction,
    StationaryPolicy,
    batch_solve_optimal,
    bound_check,
    chain_transition,
    demo_counts,
    imitator,
    l1_loss,
    make_chain,
    make_demonstrator,
    make_random_mdp_population,
    mtpp_mc,
    mtpp_mh,
    posterior_policy,
    run_experiment,
    simulate,
    subseed,
    substream,
    value_error_bound,
)
from multitask_irl import bench

TINY_SAMPLER_CONFIG = {
    "experiment": "sampler-comparison",
    "seed": 3,
    "replications": 1,
    "sample_budgets": (20,),
    "mh_chain_counts": (1,),
    "demo_length": 5,
    "chain_states": 3,
}


@pytest.fixture(scope="module")
def tiny_sampler_runs(tmp_path_factory):
    results = []
    dirs = []
    for label in ("first", "second"):
        out = tmp_path_factory.mktemp(label)
        cfg = dict(TINY_SAMPLER_CONFIG, out_dir=str(out))
        results.append(run_experiment(cfg))
        dirs.append(out)
    return results, dirs


def test_l1_loss_frozen_chain_values():
    mdp = make_chain(n_states=3, slip=0.0)
    optimal = StationaryPolicy.from_actions([0, 0, 0], 2)  # always advance
    assert l1_loss(mdp, optimal) < 1e-6
    reset = StationaryPolicy.from_actions([1, 1, 1], 2)
    assert abs(l1_loss(mdp, reset) - 44.65) < 1e-6
    mixed = MixedPolicy.uniform([optimal, reset])
    assert abs(l1_loss(mdp, mixed) - 22.325) < 1e-6


def test_l1_loss_takes_a_solved_optimum():
    mdp = make_chain(n_states=3, slip=0.2)
    policy = StationaryPolicy.from_actions([1, 0, 1], 2)
    optimum, _ = batch_solve_optimal(mdp.cmp.transition, mdp.reward.values, mdp.discount)
    assert l1_loss(mdp, policy, optimum) == l1_loss(mdp, policy)


def test_result_row_total_loss():
    row = ResultRow("demo", 0, "imitator", 1.0, (0.25, 0.5, 0.125))
    assert row.total_loss == pytest.approx(0.875)


def test_aggregate_recomputes_means_and_stderr():
    rows = []
    losses = {"a": [1.0, 2.0, 6.0], "b": [3.0, 3.0, 3.0]}
    for method, values in losses.items():
        for rep, value in enumerate(values):
            rows.append(ResultRow("demo", rep, method, 10.0, (value, value)))
    result = ExperimentResult(name="demo", rows=tuple(rows))
    summary = {entry["method"]: entry for entry in result.aggregate()}
    totals_a = np.array([2.0, 4.0, 12.0])
    assert summary["a"]["n_runs"] == 3
    assert summary["a"]["mean_total_loss"] == pytest.approx(totals_a.mean())
    assert summary["a"]["stderr_total_loss"] == pytest.approx(
        totals_a.std(ddof=1) / np.sqrt(3)
    )
    assert summary["a"]["mean_task_loss"] == pytest.approx(totals_a.mean() / 2)
    assert summary["b"]["stderr_total_loss"] == 0.0
    single = ExperimentResult(name="demo", rows=(rows[0],))
    assert single.aggregate()[0]["stderr_total_loss"] == 0.0


def test_run_experiment_outputs_and_reruns_byte_identical(tiny_sampler_runs):
    (first, second), (dir_a, dir_b) = tiny_sampler_runs
    for out in (dir_a, dir_b):
        assert (out / "sampler-comparison-runs.csv").exists()
        assert (out / "sampler-comparison-aggregate.csv").exists()
    runs_a = (dir_a / "sampler-comparison-runs.csv").read_bytes()
    runs_b = (dir_b / "sampler-comparison-runs.csv").read_bytes()
    assert runs_a == runs_b
    agg_a = (dir_a / "sampler-comparison-aggregate.csv").read_bytes()
    assert agg_a == (dir_b / "sampler-comparison-aggregate.csv").read_bytes()
    header = runs_a.decode().splitlines()[0]
    assert header == "experiment,seed,method,x,total_loss,loss_task_0"
    agg_header = agg_a.decode().splitlines()[0]
    assert agg_header.startswith("experiment,method,x,n_runs,mean_total_loss")


def test_run_experiment_rows_deterministic(tiny_sampler_runs):
    (first, second), _ = tiny_sampler_runs
    assert first.rows == second.rows
    methods = {row.method for row in first.rows}
    assert methods == {"mtpp-mc", "mtpp-mh-1"}
    assert first.metadata["experiment"] == "sampler-comparison"
    assert first.metadata["seed"] == 3
    assert first.metadata["wall_clock_seconds"] > 0


def test_metadata_records_the_replications_the_template_ran():
    # The config leaves the count to the template, whose default is 100.
    result = run_experiment({"experiment": "data-efficiency", "methods": ("imitator",),
                             "sample_budgets": (100,), "demo_length": 5, "chain_states": 3})
    assert len({row.seed for row in result.rows}) == 100
    assert result.metadata["replications"] == 100


def test_run_experiment_unknown_template():
    with pytest.raises(ConfigError):
        run_experiment({"experiment": "nope"})
    with pytest.raises(ConfigError):
        run_experiment({})


def test_data_efficiency_unknown_method(monkeypatch):
    # The method list is checked before the first replication: a bad name
    # late in the list stops the run before any method is fitted.
    fitted = []
    monkeypatch.setattr(bench, "imitator", lambda *args: fitted.append(args))
    cfg = {
        "experiment": "data-efficiency",
        "replications": 1,
        "sample_budgets": (5,),
        "methods": ("imitator", "bogus"),
        "demo_length": 5,
        "chain_states": 3,
    }
    with pytest.raises(ConfigError, match="bogus"):
        run_experiment(cfg)
    assert fitted == []


@pytest.mark.parametrize("key, cfg", [
    ("methods", {"experiment": "data-efficiency", "methods": ("imitator", "imitator")}),
    ("methods", {"experiment": "sampler-comparison", "methods": ("mtpp-mc", "mtpp-mc")}),
    ("mh_chain_counts", {"experiment": "sampler-comparison", "mh_chain_counts": (1, 1)}),
    ("sample_budgets", {"experiment": "model-comparison", "sample_budgets": (10, 10)}),
    ("task_counts", {"experiment": "multitask-gain", "task_counts": (1, 2, 1)}),
    ("task_counts", {"experiment": "random-mdp-task-sweep", "task_counts": (5, 5)}),
    ("temperature_values",
     {"experiment": "random-mdp-temperature-sweep", "temperature_values": (2.0, 2.0)}),
])
def test_repeated_method_or_sweep_value_is_rejected(monkeypatch, key, cfg):
    # A repeat would be fitted again and written as a duplicate row, which
    # the aggregate would count as a second replication with zero spread.
    # It is refused before any method is fitted.
    fitted = []
    monkeypatch.setattr(bench, "imitator", lambda *args: fitted.append(args))
    monkeypatch.setattr(bench, "mtpp_mc", lambda *args: fitted.append(args))
    with pytest.raises(ConfigError, match=f"^{key} lists"):
        run_experiment(dict(cfg, replications=1))
    assert fitted == []


# Each template at a tiny scale, with its default method list.
TINY_TEMPLATES = {
    "sampler-comparison": (
        {"sample_budgets": (20, 40), "mh_chain_counts": (1, 2), "demo_length": 5,
         "chain_states": 3},
        ("mtpp-mc", "mtpp-mh-1", "mtpp-mh-2"), (20, 40)),
    "model-comparison": (
        {"sample_budgets": (20, 40), "n_hypotheses": 4, "demo_length": 5, "chain_states": 3},
        ("mtpp-mc", "mtpo-mc"), (20, 40)),
    "multitask-gain": (
        {"task_counts": (1, 2), "total_demos": 2, "demo_length": 5, "mc_samples": 20,
         "chain_states": 3},
        ("mtpp-mc", "imitator"), (1, 2)),
    "data-efficiency": (
        {"sample_budgets": (3, 6), "n_hypotheses": 4, "demo_length": 20, "chain_states": 3},
        ("imitator", "mwal", "mtpp-mc", "mtpo-mc"), (3, 6)),
    "random-mdp-temperature-sweep": (
        {"temperature_values": (2.0, 8.0), "n_tasks": 2, "demo_length": 5,
         "mh_iterations": 20, "mwal_iterations": 3, "mdp_states": 3},
        ("soft", "imitator", "mwal", "mtpp-mh", "mtpp-mh-flat"), (2.0, 8.0)),
    "random-mdp-task-sweep": (
        {"task_counts": (1, 3), "demo_length": 5, "mh_iterations": 20,
         "mwal_iterations": 3, "mdp_states": 3},
        ("soft", "imitator", "mwal", "mtpp-mh", "mtpp-mh-flat"), (1, 3)),
}


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_template_fills_its_method_grid(name):
    overrides, methods, x_values = TINY_TEMPLATES[name]
    cfg = dict(overrides, experiment=name, seed=1, replications=2)
    result = run_experiment(cfg)
    grid = sorted((row.method, row.x, row.seed) for row in result.rows)
    assert grid == sorted((m, float(x), rep) for m in methods for x in x_values
                          for rep in range(2))
    for row in result.rows:
        swept = name in ("multitask-gain", "random-mdp-task-sweep")
        assert len(row.task_losses) == (int(row.x) if swept else cfg.get("n_tasks", 1))
        assert all(np.isfinite(v) and v >= 0.0 for v in row.task_losses)
    with pytest.raises(ConfigError, match="bogus"):
        run_experiment(dict(cfg, methods=methods + ("bogus",)))


def test_run_passes_mh_step_keys_to_the_sampler(monkeypatch):
    seen = []
    real = bench._mtpp_mh_batch

    def spy(*args, **kwargs):
        seen.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(bench, "_mtpp_mh_batch", spy)
    steps = {"burn_in_fraction": 0.5, "reward_step": 20.0, "temperature_step": 0.5,
             "hyper_step": 0.125}
    run_experiment(dict(TINY_SAMPLER_CONFIG, **steps))
    assert seen and all(kwargs == steps for kwargs in seen)


# name -> (overrides, replications); each sweeps three points on one kernel.
MH_HARNESS_CASES = {
    "random-mdp-task-sweep": (
        {"task_counts": (2, 3, 5), "mh_iterations": 30, "mdp_states": 4, "demo_length": 6,
         "methods": ("mtpp-mh", "mtpp-mh-flat")}, 2),
    "random-mdp-temperature-sweep": (
        {"temperature_values": (2.0, 8.0, 4.0), "n_tasks": 3, "mh_iterations": 40,
         "mh_chains": 2, "mdp_states": 4, "demo_length": 6,
         "methods": ("mtpp-mh", "mtpp-mh-flat")}, 2),
    "sampler-comparison": (
        {"sample_budgets": (100, 300, 3000), "mh_chain_counts": (1, 4), "demo_length": 10,
         "methods": ("mtpp-mh-1", "mtpp-mh-4")}, 1),
}


@pytest.mark.parametrize("name", sorted(MH_HARNESS_CASES))
def test_mh_rows_equal_one_mtpp_mh_call_per_fit(name, monkeypatch):
    # The harness hands all of a block's MH fits, every method at every point
    # of every replication, to one batch; every row must be the one a lone
    # mtpp_mh call per fit gives, on the seed path
    # subseed(seed, name, "rep", rep, *tag, point key).
    batches = []
    real = bench._mtpp_mh_batch

    def spy(fits, *args, **kwargs):
        batches.append(len(fits))
        return real(fits, *args, **kwargs)

    monkeypatch.setattr(bench, "_mtpp_mh_batch", spy)
    overrides, replications = MH_HARNESS_CASES[name]
    cfg = dict(overrides, experiment=name, seed=5, replications=replications)
    rows = {(row.method, row.x, row.seed): row.task_losses for row in run_experiment(cfg).rows}
    assert batches == [3 * len(cfg["methods"]) * replications]
    discount = 0.95
    for rep in range(replications):
        for point in bench._TEMPLATES[name](cfg, name).points(5, rep):
            cmp = point.env.cmp
            for method in cfg["methods"]:
                flat = method == "mtpp-mh-flat"
                demos = ([Demonstration(0, d.states, d.actions) for d in point.demos] if flat
                         else point.demos)
                chains = method.rpartition("-")[2]
                if chains.isdigit():    # mtpp-mh-N: N chains, N in the seed path
                    chains, tag = int(chains), ("mh", int(chains))
                else:
                    chains, tag = cfg.get("mh_chains", 1), ("mh-flat",) if flat else ("mh",)
                ensemble = mtpp_mh(
                    cmp, demos, GammaHyperprior(cmp.n_states, concentration_law=(1.0, 10.0)),
                    point.budget or cfg["mh_iterations"], chains, discount,
                    subseed(5, name, "rep", rep, *tag, point.key))
                policies = [posterior_policy(ensemble, tid, cmp, discount)
                            for tid in ensemble.task_ids]
                if flat:
                    policies = policies * len(point.true_mdps)
                assert rows[method, point.x, rep] == tuple(
                    l1_loss(mdp, policy) for mdp, policy in zip(point.true_mdps, policies))


BLOCK_CASES = {
    "random-mdp-task-sweep": {"task_counts": (2, 3), "mh_iterations": 30, "mdp_states": 4,
                              "demo_length": 6,
                              "methods": ("soft", "imitator", "mtpp-mh", "mtpp-mh-flat")},
    "sampler-comparison": {"sample_budgets": (20, 50), "mh_chain_counts": (1, 2),
                           "demo_length": 5, "chain_states": 3},
}


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_rows_do_not_depend_on_the_replication_block(name, monkeypatch):
    # Blocks of 1, 2 and 8 split three replications in three ways, one of
    # them with a short last block; every row must be the same.
    cfg = dict(BLOCK_CASES[name], experiment=name, seed=7, replications=3)
    results = []
    for block in (1, 2, 8):
        monkeypatch.setattr(bench, "_REPLICATION_BLOCK", block)
        results.append(run_experiment(cfg).rows)
    assert [row.seed for row in results[0]] == sorted(row.seed for row in results[0])
    assert {row.seed for row in results[0]} == {0, 1, 2}
    assert results[1] == results[0] and results[2] == results[0]


def test_mh_batch_on_two_kernels_equals_one_batch_per_kernel():
    # Runs on two kernels, interleaved, fitted in one batch: each run's
    # policies and posterior are the bits of a batch of its kernel's runs.
    envs = [bench.Environment(chain_transition(3, slip)) for slip in (0.1, 0.3)]
    demos = [Demonstration(0, np.array([0, 1, 2, 2]), np.array([0, 0, 1, 0])),
             Demonstration(1, np.array([0, 0, 1]), np.array([1, 0, 0]))]
    runs = [(method, envs[i % 2], demos, 40, seed)
            for i, (method, seed) in enumerate([("mtpp-mh", 1), ("mtpp-mh-flat", 2),
                                                ("mtpp-mh-2", 3), ("mtpp-mh", 4)])]
    together = bench._fit_mtpp_mh(runs, {})
    apart = [None] * len(runs)
    for env in envs:
        indices = [i for i, run in enumerate(runs) if run[1] is env]
        for i, fitted in zip(indices, bench._fit_mtpp_mh([runs[i] for i in indices], {})):
            apart[i] = fitted
    for (policies, ensemble), (expected, alone) in zip(together, apart):
        assert [p.action_probs.tolist() for p in policies] == [
            p.action_probs.tolist() for p in expected]
        assert np.array_equal(ensemble.rewards, alone.rewards)
        assert np.array_equal(ensemble.temperatures, alone.temperatures)
        assert np.array_equal(ensemble.log_likelihoods, alone.log_likelihoods)
        assert ensemble.metadata == alone.metadata
    # Kernels with other action counts cannot share a batch.
    wide = bench.Environment(Cmp(np.full((3, 3, 3), 1.0 / 3.0)))
    with pytest.raises(ValueError, match="state and action counts"):
        bench._fit_mtpp_mh([("mtpp-mh", envs[0], demos, 10, 0),
                            ("mtpp-mh", wide, demos, 10, 0)], {})


def test_multitask_gain_divisibility_check():
    cfg = {
        "experiment": "multitask-gain",
        "replications": 1,
        "task_counts": (2,),
        "total_demos": 3,
    }
    with pytest.raises(ConfigError):
        run_experiment(cfg)


def test_random_sweep_unknown_method():
    cfg = {
        "experiment": "random-mdp-task-sweep",
        "replications": 1,
        "task_counts": (2,),
        "methods": ("astral",),
        "demo_length": 5,
        "mdp_states": 3,
    }
    with pytest.raises(ConfigError):
        run_experiment(cfg)


def test_data_efficiency_imitator_loss_constant_in_budget():
    cfg = {
        "experiment": "data-efficiency",
        "seed": 1,
        "replications": 2,
        "sample_budgets": (5, 10),
        "methods": ("imitator",),
        "demo_length": 50,
        "chain_states": 3,
    }
    result = run_experiment(cfg)
    for rep in range(2):
        losses = {row.x: row.total_loss for row in result.rows if row.seed == rep}
        assert losses[5.0] == losses[10.0]


def test_multitask_gain_rows_reconstructable_from_documented_streams():
    # Rebuild one sweep point from scratch along the published seeding paths
    # and demand float-for-float agreement with the harness rows.
    seed, name, count, total_demos, length = 4, "multitask-gain", 2, 2, 10
    cfg = {
        "experiment": name,
        "seed": seed,
        "replications": 1,
        "task_counts": (count,),
        "total_demos": total_demos,
        "demo_length": length,
        "mc_samples": 50,
    }
    result = run_experiment(cfg)
    by_method = {row.method: row for row in result.rows}

    n_states, discount = 5, 0.95
    cmp = chain_transition(n_states, 0.2)
    env_rng = substream(seed, name, "rep", 0, "env", count)
    concentration = env_rng.gamma(1.0, 1.0 / 10.0, size=n_states)
    rewards = env_rng.dirichlet(concentration, size=count)
    true_mdps = [Mdp(cmp, RewardFunction(rewards[m]), discount) for m in range(count)]
    demonstrators = [make_demonstrator("softmax", t, eta=5.0) for t in true_mdps]
    start = np.zeros(n_states)
    start[0] = 1.0
    demo_rng = substream(seed, name, "rep", 0, "demos", count)
    demos = []
    for m in range(count):
        for _ in range(total_demos // count):
            demos.append(simulate(true_mdps[m], demonstrators[m], length, demo_rng,
                                  task_id=m, initial_state_probs=start))
    hyper = GammaHyperprior(n_states, concentration_law=(1.0, 10.0))
    ensemble = mtpp_mc(cmp, demos, hyper, 50, discount,
                       subseed(seed, name, "rep", 0, "mc", count))
    expected_mc = []
    expected_imitator = []
    policy_prior = PolicyDirichletPrior.uniform(n_states, cmp.n_actions, 1.0)
    for m in range(count):
        policy = posterior_policy(ensemble, m, cmp, discount)
        expected_mc.append(l1_loss(true_mdps[m], policy))
        mimic = imitator(demo_counts([d for d in demos if d.task_id == m], n_states,
                                     cmp.n_actions), policy_prior)
        expected_imitator.append(l1_loss(true_mdps[m], mimic))
    assert by_method["mtpp-mc"].task_losses == pytest.approx(expected_mc, abs=1e-12)
    assert by_method["imitator"].task_losses == pytest.approx(expected_imitator, abs=1e-12)


def test_random_mdp_task_sweep_is_paired_across_counts(monkeypatch):
    # The environment stream ignores the sweep index, so the first tasks of a
    # larger count reuse exactly the smaller count's ground truth, and one
    # population per replication serves every count.
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return make_random_mdp_population(*args, **kwargs)

    monkeypatch.setattr(bench, "make_random_mdp_population", counting)
    # The true optima of a point are solved once, in one batch, and l1_loss
    # never re-solves them.
    solves = []

    def batch_solving(transition, rewards, discount):
        solves.append(np.shape(rewards))
        return batch_solve_optimal(transition, rewards, discount)

    monkeypatch.setattr(bench, "batch_solve_optimal", batch_solving)
    monkeypatch.setattr(bench, "solve_optimal", None)
    cfg = {
        "experiment": "random-mdp-task-sweep",
        "seed": 6,
        "replications": 1,
        "task_counts": (2, 3),
        "methods": ("soft",),
        "demo_length": 5,
        "mdp_states": 4,
    }
    result = run_experiment(cfg)
    by_x = {row.x: row for row in result.rows}
    assert by_x[2.0].task_losses == by_x[3.0].task_losses[:2]
    assert len(built) == 1
    assert solves == [(2, 4), (3, 4)]


@pytest.mark.parametrize("name", ["random-mdp-task-sweep", "random-mdp-temperature-sweep"])
def test_random_mdp_points_plan_from_the_demonstrations_start_law(name):
    # simulate starts every demonstration in state 0, and mwal plans from
    # the demonstrations' own first states.
    cfg = {"experiment": name, "seed": 2, "task_counts": (2, 3), "n_tasks": 2,
           "temperature_values": (2.0, 4.0), "demo_length": 5, "mdp_states": 4}
    points = list(bench._TEMPLATES[name](cfg, name).points(2, 0))
    assert len(points) == 2
    for point in points:
        assert {int(demo.states[0]) for demo in point.demos} == {0}


def test_value_error_bound_reference_point():
    assert value_error_bound(100, 0.95) == pytest.approx(6.14597, abs=1e-4)
    bounds = [value_error_bound(k, 0.95) for k in (10, 100, 1000)]
    assert bounds[0] > bounds[1] > bounds[2]
    with pytest.raises(ValueError):
        value_error_bound(0, 0.95)
    with pytest.raises(ValueError):
        value_error_bound(10, 1.0)


def test_bound_check_schema_and_consistency():
    report = bound_check(k_values=(5,), replications=3, seed=2, n_hypotheses=4,
                         demo_length=10, reference_samples=200)
    assert report["k_values"] == [5]
    assert report["replications"] == 3
    assert report["n_hypotheses"] == 4
    assert report["discount"] == 0.95
    assert report["bounds"] == [value_error_bound(5, 0.95)]
    assert len(report["empirical_mean_errors"]) == 1
    assert np.isfinite(report["empirical_mean_errors"][0])
    assert report["empirical_mean_errors"][0] >= 0.0
