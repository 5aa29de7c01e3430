"""Tests of the benchmark itself: the references are right, and every
correctness check rejects a corrupted output.

Run from the root of the repository:  python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from multitask_irl import (  # noqa: E402
    Cmp,
    DirichletRewardPrior,
    FixedHyperprior,
    FixedTemperature,
    StationaryPolicy,
    cli,
    mdp,
    mtpp,
    mtpp_mh,
)

DISCOUNT = workloads.DISCOUNT


# --- references ---------------------------------------------------------------

def test_enumeration_planner_satisfies_bellman_optimality():
    rng = np.random.default_rng(0)
    kernel = rng.dirichlet(np.ones(4), size=(4, 3))
    planner = reference.EnumerationPlanner(kernel, DISCOUNT)
    reward = rng.uniform(size=4)
    values = planner.optimal_values(reward)
    backup = (reward[:, None] + DISCOUNT * kernel @ values).max(axis=1)
    assert np.max(np.abs(backup - values)) < 1e-10
    # No stochastic policy beats it anywhere.
    probs = rng.dirichlet(np.ones(3), size=(50, 4))
    assert np.all(reference.policy_values(kernel, reward, probs, DISCOUNT) <= values + 1e-10)


def test_slack_posterior_matches_fine_grid_integration():
    rng = np.random.default_rng(1)
    losses = rng.uniform(0.0, 2.0, size=(3, 4))
    losses[1, 2] = losses[0, 1]
    measure = rng.uniform(0.5, 2.0, size=4)
    rate = 1.3
    eps = np.linspace(0.0, 30.0, 600_001)[1:]
    step = eps[1] - eps[0]
    density = rate * np.exp(-rate * (eps - step / 2)) * step
    total = np.zeros(4)
    for row in losses:
        member = (row[None, :] < (eps - step / 2)[:, None]) * measure
        sums = member.sum(axis=1)
        keep = sums > 0
        total += (density[keep] / sums[keep]) @ member[keep]
    grid = total / total.sum()
    assert np.max(np.abs(reference.slack_posterior(losses, measure, rate) - grid)) < 1e-4


def test_two_atom_posterior_is_bayes_rule_on_trajectory_probabilities():
    kernel = reference.chain_kernel(3, 0.1)
    planner = reference.EnumerationPlanner(kernel, DISCOUNT)
    atoms = np.eye(3)[[2, 0]]
    states, actions = np.array([0, 1, 2, 0]), np.array([0, 0, 1, 0])
    counts = reference.action_counts([(states, actions)], 3, 2)
    likelihood = [np.prod(planner.softmax_policy(a, 0.7)[states, actions]) for a in atoms]
    expected = likelihood[1] * 0.3 / (likelihood[0] * 0.7 + likelihood[1] * 0.3)
    got = reference.two_atom_posterior(planner, atoms, 0.7, counts, prior=(0.7, 0.3))[1]
    assert got == pytest.approx(expected, rel=1e-12)


# --- template checks ------------------------------------------------------------

@pytest.fixture(scope="module")
def small_template(tmp_path_factory):
    """A two-replication data-efficiency run small enough for a test."""
    workload = workloads.DataEfficiency(
        "chain-data-efficiency",
        {"experiment": "data-efficiency", "replications": 2, "sample_budgets": (20,),
         "methods": ("imitator", "mtpo-mc"), "demo_length": 200},
        ("imitator", "mtpo-mc"), (20,), 5, workloads.check_reward_posterior)
    workload.prepare(3, tmp_path_factory.mktemp("template"))
    out_dir = workload.run_round(0)
    workload.prepare_checks()
    return workload, out_dir


def _corrupt(workload, out_dir, tmp_path, edit_runs=None, edit_aggregate=None):
    """Copy a round's CSVs with edits applied; returns the copy's directory."""
    runs, aggregate = workload._read(out_dir)
    target = tmp_path / "corrupted"
    target.mkdir()
    name = workload.config["experiment"]
    (target / f"{name}-runs.csv").write_text(edit_runs(runs) if edit_runs else runs)
    (target / f"{name}-aggregate.csv").write_text(
        edit_aggregate(aggregate) if edit_aggregate else aggregate)
    return target


def _replace_row(text, method, rep, change):
    lines = text.split("\n")
    for i, line in enumerate(lines):
        cells = line.split(",")
        if len(cells) > 4 and cells[2] == method and cells[1] == str(rep):
            lines[i] = ",".join(change(cells))
            return "\n".join(lines)
    raise AssertionError("row not found")


def _set_loss(value):
    def change(cells):
        return cells[:4] + [value, value] + cells[6:]
    return change


def test_clean_template_round_passes(small_template):
    workload, out_dir = small_template
    assert workload.check_round(out_dir) == {}
    assert workload.ops_per_round == 4


def test_perturbed_loss_fails_closed_form(small_template, tmp_path):
    workload, out_dir = small_template
    _, rows = checks.parse_runs_csv(workload._read(out_dir)[0])
    key = ("imitator", 20.0, 1)
    bumped = f"{rows[key]['total'] + 1e-4:.12g}"
    runs = _replace_row(workload._read(out_dir)[0], "imitator", 1, _set_loss(bumped))
    _, corrupted_rows = checks.parse_runs_csv(runs)
    assert checks.check_closed_form(corrupted_rows, workload.reference) == {key}
    corrupted = _corrupt(workload, out_dir, tmp_path, edit_runs=lambda t: runs)
    assert key in workload.check_round(corrupted)


@pytest.mark.parametrize("value", ["nan", "-0.5", "250", ""])
def test_non_finite_or_out_of_range_loss_fails(small_template, tmp_path, value):
    workload, out_dir = small_template
    corrupted = _corrupt(workload, out_dir, tmp_path,
                         edit_runs=lambda t: _replace_row(t, "mtpo-mc", 1, _set_loss(value)))
    assert workload.check_round(corrupted)[("mtpo-mc", 20.0, 1)] == \
        "missing, non-finite or out of range"


def test_missing_row_fails(small_template, tmp_path):
    workload, out_dir = small_template
    corrupted = _corrupt(workload, out_dir, tmp_path,
                         edit_runs=lambda t: _replace_row(t, "mtpo-mc", 1, lambda c: ["x"]))
    assert ("mtpo-mc", 20.0, 1) in workload.check_round(corrupted)


def test_aggregate_disagreeing_with_runs_fails(small_template, tmp_path):
    workload, out_dir = small_template

    def edit(text):
        lines = text.split("\n")
        cells = lines[1].split(",")
        cells[4] = f"{float(cells[4]) * 1.001:.12g}"
        lines[1] = ",".join(cells)
        return "\n".join(lines)

    failed = workload.check_round(_corrupt(workload, out_dir, tmp_path, edit_aggregate=edit))
    method = workload._read(out_dir)[1].split("\n")[1].split(",")[1]
    assert failed[(method, 20.0, 0)] == "aggregate line disagrees"


def test_replication_depending_on_others_fails(small_template, tmp_path):
    """Replication 0 written with replication 1's losses, as if state leaked
    between replications: the run of replication 0 alone disagrees."""
    workload, out_dir = small_template
    _, rows = checks.parse_runs_csv(workload._read(out_dir)[0])
    assert rows[("imitator", 20.0, 1)]["line"] != rows[("imitator", 20.0, 0)]["line"]
    leaked = f"{rows[('imitator', 20.0, 1)]['total']:.12g}"
    runs = _replace_row(workload._read(out_dir)[0], "imitator", 0, _set_loss(leaked))
    _, corrupted_rows = checks.parse_runs_csv(runs)
    assert checks.check_isolated(corrupted_rows, workload.isolated) == {("imitator", 20.0, 0)}


def test_program_demonstrator_disagreeing_fails_its_rows(small_template, monkeypatch):
    workload, _ = small_template
    real = workloads.make_demonstrator

    def skewed(kind, model, **kwargs):
        probs = real(kind, model, **kwargs).action_probs.copy()
        probs[0] = probs[0][::-1]
        return StationaryPolicy(probs)

    monkeypatch.setattr(workloads, "make_demonstrator", skewed)
    assert all(np.isnan(v[0]) for v in workload.closed_form().values())


# --- sampler checks ---------------------------------------------------------------

def test_agreement_rejects_estimates_many_standard_errors_off():
    weights = np.full(1000, 1e-3)
    indicator = np.r_[np.ones(500), np.zeros(500)]
    assert checks.weighted_agreement(weights, indicator, 0.5)[0]
    assert not checks.weighted_agreement(weights, indicator, 0.6)[0]
    chain = np.repeat([1.0, 0.0], 500)
    rng = np.random.default_rng(0)
    mixed = (rng.random(1000) < 0.5).astype(float)
    assert checks.chain_agreement([mixed], 0.5)[0]
    assert not checks.chain_agreement([mixed], 0.7)[0]
    assert not checks.chain_agreement([chain[:500]], 0.5)[0]


def test_sampler_checks_pass_on_the_program():
    assert workloads.check_mtpp_mc(5) == []
    assert workloads.check_mtpp_mh(5, 2) == []
    assert workloads.check_reward_posterior(5) == []


def _swap_atoms(ensemble):
    rewards = ensemble.rewards[:, :, ::-1].copy()
    return mtpp.PosteriorEnsemble(ensemble.task_ids, ensemble.weights, rewards,
                                  ensemble.temperatures, ensemble.log_likelihoods)


def test_sampler_checks_reject_a_biased_sampler(monkeypatch):
    # Swapping the reward coordinates turns each atom into the other one's
    # mirror, so the estimated P(atom 1) moves to the wrong side.
    monkeypatch.setattr(workloads, "mtpp_mc",
                        lambda *a, **k: _swap_atoms(mtpp.mtpp_mc(*a, **k)))
    monkeypatch.setattr(workloads, "mtpp_mh",
                        lambda *a, **k: _swap_atoms(mtpp_mh(*a, **k)))
    assert workloads.check_mtpp_mc(5)
    assert workloads.check_mtpp_mh(5, 1)


def test_slack_check_rejects_a_wrong_posterior(monkeypatch):
    real = workloads.reward_posterior

    def flipped(matrix, prior, hypotheses):
        result = real(matrix, prior, hypotheses)
        return type(result)(result.probabilities[::-1])

    monkeypatch.setattr(workloads, "reward_posterior", flipped)
    assert workloads.check_reward_posterior(5)


# --- infer and show checks -----------------------------------------------------

@pytest.fixture(scope="module")
def infer_outputs(tmp_path_factory):
    """infer and show run in-process on the workload's demonstration file."""
    workload = workloads.InferCli()
    workload.configs = {"mtpp-mh": "mh_iterations = 80\nmh_chains = 2\n",
                        "mtpp-mc": "mc_samples = 200\n",
                        "mtpo-mc": "mc_samples = 100\nn_hypotheses = 16\n"}
    workdir = tmp_path_factory.mktemp("infer")
    workload.prepare(4, workdir)
    results = []
    for label, argv in workload.commands(workdir / "round-0"):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(argv)
        results.append((label, code, printed.getvalue(), ""))
    return workload, (workdir / "round-0", results)


def test_clean_infer_round_passes(infer_outputs):
    workload, outcome = infer_outputs
    assert workload.check_round(outcome) == {}


def _summary(out_dir, model):
    return json.loads((out_dir / model / "summary.json").read_text())


def _check(workload, outcome, model, summary):
    means = checks.posterior_means(outcome[0] / model / "posterior.jsonl")
    return checks.check_summary(summary, means, workload.planner, workloads.CHAIN_REWARD,
                                workload.imitators)


@pytest.mark.parametrize("model", workloads.InferCli.models)
def test_flipped_greedy_action_fails(infer_outputs, model):
    workload, outcome = infer_outputs
    summary = _summary(outcome[0], model)
    entry = summary["tasks"]["0"]
    actions, gaps = workload.planner.greedy(np.clip(entry["posterior_mean_reward"], 0, 1))
    state = int(np.argmax(gaps))
    entry["greedy_actions"][state] = 1 - int(actions[state])
    assert any("greedy_actions" in p for p in _check(workload, outcome, model, summary))


@pytest.mark.parametrize("field", ["loss_vs_config_env", "imitator_loss_vs_config_env"])
def test_perturbed_summary_loss_fails(infer_outputs, field):
    workload, outcome = infer_outputs
    summary = _summary(outcome[0], "mtpp-mc")
    summary["tasks"]["3"][field] += 1e-4
    assert any(field in p for p in _check(workload, outcome, "mtpp-mc", summary))


def test_summary_mean_not_from_posterior_file_fails(infer_outputs):
    workload, outcome = infer_outputs
    summary = _summary(outcome[0], "mtpo-mc")
    summary["tasks"]["1"]["posterior_mean_reward"][2] += 1e-6
    assert any("posterior_mean_reward" in p for p in _check(workload, outcome, "mtpo-mc", summary))


def test_show_printing_other_means_fails(infer_outputs):
    workload, (out_dir, results) = infer_outputs
    stdout = dict((label, out) for label, _, out, _ in results)["show mtpp-mh"]
    summary = _summary(out_dir, "mtpp-mh")
    assert checks.check_show(stdout, summary) == []
    value = summary["tasks"]["2"]["posterior_mean_reward"][0]
    wrong = stdout.replace(f"task 2 mean reward: {value:.4f}",
                           f"task 2 mean reward: {value + 0.001:.4f}")
    assert checks.check_show(wrong, summary)


def test_failed_command_counts_as_failed(infer_outputs):
    workload, (out_dir, results) = infer_outputs
    broken = [(label, 3 if label == "mtpo-mc" else code, out, err)
              for label, code, out, err in results]
    failed = workload.check_round((out_dir, broken))
    assert set(failed) == {"mtpo-mc", "show mtpo-mc"}


# --- tracing ------------------------------------------------------------------

def test_tracer_records_nested_spans_and_restores_functions():
    original = mtpp.batch_solve_optimal
    kernel = reference.chain_kernel(3, 0.1)
    _, _, demos, _ = workloads.two_atom_instance(
        np.random.default_rng(0), kernel, 0.5, 2, 5)
    hyper = FixedHyperprior(DirichletRewardPrior(np.ones(3)), FixedTemperature(0.5))
    tracer = spans.Tracer()
    with tracer:
        assert mtpp.batch_solve_optimal is not original
        mtpp.mtpp_mh(Cmp(kernel), demos, hyper, 40, 2, DISCOUNT, 0)
    assert mtpp.batch_solve_optimal is original
    assert mdp.batch_solve_optimal is original
    metrics = spans.layer_metrics(tracer.spans, 1, 0.0)
    assert metrics["mtpp.mtpp_mh.calls"] == 1
    assert metrics["mtpp.mtpp_mh.task_iterations"] == 80
    # One solve per task per iteration plus the initial solve of each chain.
    assert metrics["mtpp.mtpp_mh.solves_per_proposal"] == pytest.approx((80 + 4) / 80)
    assert set(name for name, _ in spans.metric_names()) == set(metrics)


def test_self_time_excludes_children():
    absorbed = spans.Tracer()
    absorbed.absorb([["a", -1, 0.0, 10.0, 0], ["b", 0, 1.0, 4.0, 0]])
    absorbed.absorb([["a", -1, 0.0, 10.0, 0], ["b", 0, 1.0, 4.0, 0]])
    assert [s[1] for s in absorbed.spans] == [-1, 0, -1, 2]
    recorded = [["bench.run_experiment", -1, 0.0, 10.0, 0],
               ["mdp.batch_solve_optimal", 0, 1.0, 4.0, 3],
               ["mdp.value_iteration", 1, 2.0, 3.0, 0],
               ["mdp.batch_solve_optimal", 0, 5.0, 6.0, 2]]
    metrics = spans.layer_metrics(recorded, 1, 0.0)
    assert metrics["bench.run_experiment.self_s"] == pytest.approx(6.0)
    assert metrics["mdp.batch_solve_optimal.self_s"] == pytest.approx(3.0)
    assert metrics["mdp.batch_solve_optimal.rewards"] == 5
    assert metrics["mdp.batch_solve_optimal.us_per_reward"] == pytest.approx(4e6 / 5)


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                      .read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.metric_names()
