import numpy as np
import pytest

from multitask_irl import (
    DataError,
    Demonstration,
    DirichletRewardPrior,
    LossMatrix,
    Mdp,
    MtpoResult,
    OptimalityPrior,
    PolicyDirichletPrior,
    RewardFunction,
    RewardHypothesisSet,
    RewardPosterior,
    StationaryPolicy,
    build_loss_matrix,
    chain_transition,
    demo_counts,
    make_chain,
    make_demonstrator,
    mtpo_mc,
    policy_posterior,
    read_posterior,
    reward_posterior,
    sample_policies,
    simulate,
    solve_optimal,
    substream,
    write_posterior,
)
from oracles import midpoint_reference_posterior, quadrature_posterior, value_iteration

DISCOUNT = 0.95


def random_loss_matrix(rng, n_policies, n_hypotheses, with_ties=False):
    losses = rng.random((n_policies, n_hypotheses)) * 3.0
    if with_ties and n_hypotheses >= 2:
        losses[:, 1] = losses[:, 0]
        if n_policies >= 2:
            losses[1, :] = losses[0, :]
    return LossMatrix(losses=losses)


def test_hypothesis_set_validation_and_accessors():
    values = np.array([[0.2, 0.8], [1.0, 0.0]])
    hypotheses = RewardHypothesisSet(values)
    assert hypotheses.n_hypotheses == 2
    assert hypotheses.n_states == 2
    assert np.array_equal(hypotheses.measure, np.ones(2))
    weighted = RewardHypothesisSet(values.tolist(), measure=[2.0, 1.0])
    assert np.array_equal(weighted.values, values)
    assert np.array_equal(weighted.measure, [2.0, 1.0])
    with pytest.raises(ValueError):
        RewardHypothesisSet(np.array([[1.5, 0.0]]))
    with pytest.raises(ValueError):
        RewardHypothesisSet(values, measure=[1.0])
    with pytest.raises(ValueError):
        RewardHypothesisSet(values, measure=[1.0, -1.0])


def test_loss_matrix_hand_oracle_on_chain():
    # 3-state deterministic chain: the always-reset policy is 15.2 below
    # optimal in sup norm under the default rewards (0.2, 0, 1).
    mdp = make_chain(n_states=3, slip=0.0)
    hypotheses = RewardHypothesisSet(mdp.reward.values[None, :])
    reset = StationaryPolicy.from_actions([1, 1, 1], 2)
    optimal = StationaryPolicy.from_actions([0, 0, 0], 2)  # always advance
    policies = np.stack([reset.action_probs, optimal.action_probs])
    matrix = build_loss_matrix(mdp.cmp, DISCOUNT, policies, hypotheses)
    assert matrix.losses.shape == (2, 1)
    assert abs(matrix.losses[0, 0] - 15.2) < 1e-6
    assert abs(matrix.losses[1, 0]) < 1e-6


def test_loss_matrix_accepts_policy_arrays_and_validates():
    cmp = chain_transition(2, 0.1)
    hypotheses = RewardHypothesisSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
    stacked = np.stack([
        StationaryPolicy(np.full((2, 2), 1 / 2)).action_probs,
        StationaryPolicy.from_actions([0, 0], 2).action_probs,
    ])
    matrix = build_loss_matrix(cmp, DISCOUNT, stacked, hypotheses)
    assert matrix.losses.shape == (2, 2)
    assert np.all(matrix.losses >= 0.0)
    # The uniform policy is never optimal here; always-advance is optimal
    # under the far-state reward (the chain's advance action is 0).
    assert np.all(matrix.losses[0] > 0.0)
    assert abs(matrix.losses[1, 1]) < 1e-9
    with pytest.raises(ValueError):
        build_loss_matrix(cmp, DISCOUNT, stacked[0], hypotheses)  # one (S, A) policy
    with pytest.raises(ValueError):
        build_loss_matrix(cmp, DISCOUNT, np.full((1, 3, 2), 1 / 2), hypotheses)
    bad_set = RewardHypothesisSet(np.array([[0.1, 0.2, 0.3]]))
    with pytest.raises(ValueError):
        build_loss_matrix(cmp, DISCOUNT, stacked, bad_set)


def test_reward_posterior_two_hypothesis_closed_form():
    # One policy, losses l1 < l2, rate c: below l1 nothing qualifies; on
    # [l1, l2) only the first hypothesis; past l2 both share equally.
    l1, l2, rate = 0.4, 1.3, 1.7
    matrix = LossMatrix(losses=np.array([[l1, l2]]))
    hypotheses = RewardHypothesisSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
    posterior = reward_posterior(matrix, OptimalityPrior(rate), hypotheses)
    first = (np.exp(-rate * l1) - np.exp(-rate * l2)) + 0.5 * np.exp(-rate * l2)
    second = 0.5 * np.exp(-rate * l2)
    expected = np.array([first, second]) / (first + second)
    assert np.allclose(posterior.probabilities, expected, atol=1e-12)


def test_reward_posterior_matches_midpoint_reference():
    rng = np.random.default_rng(0)
    for trial in range(12):
        n_policies = int(rng.integers(1, 6))
        n_hypotheses = int(rng.integers(2, 6))
        matrix = random_loss_matrix(rng, n_policies, n_hypotheses, with_ties=trial % 3 == 0)
        measure = np.ones(n_hypotheses) if trial % 2 == 0 else rng.random(n_hypotheses) + 0.5
        hypotheses = RewardHypothesisSet(
            rng.random((n_hypotheses, 2)), measure=measure
        )
        rate = float(rng.random() * 2.0 + 0.3)
        posterior = reward_posterior(matrix, OptimalityPrior(rate), hypotheses)
        reference = midpoint_reference_posterior(matrix.losses, measure, rate)
        assert np.allclose(posterior.probabilities, reference, atol=1e-12)


def test_quadrature_oracle_agrees_with_midpoint_reference():
    # Sanity-check the numerical route itself before acceptance leans on it.
    rng = np.random.default_rng(1)
    matrix = random_loss_matrix(rng, 3, 4)
    measure = np.ones(4)
    reference = midpoint_reference_posterior(matrix.losses, measure, 1.0)
    numeric = quadrature_posterior(matrix.losses, measure, 1.0, total_points=200_000)
    assert np.max(np.abs(numeric - reference)) < 1e-6


def test_reward_posterior_tied_hypotheses_share_mass():
    losses = np.array([[0.7, 0.7, 1.4]])
    matrix = LossMatrix(losses=losses)
    hypotheses = RewardHypothesisSet(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    posterior = reward_posterior(matrix, OptimalityPrior(1.0), hypotheses)
    assert abs(posterior.probabilities[0] - posterior.probabilities[1]) < 1e-12
    assert posterior.probabilities[2] < posterior.probabilities[0]


def test_reward_posterior_raising_a_loss_lowers_its_mass():
    rng = np.random.default_rng(3)
    losses = rng.random((4, 5)) * 2.0
    hypotheses = RewardHypothesisSet(rng.random((5, 2)))
    base = reward_posterior(
        LossMatrix(losses=losses),
        OptimalityPrior(1.0), hypotheses,
    )
    bumped_losses = losses.copy()
    bumped_losses[:, 2] += 0.9
    bumped = reward_posterior(
        LossMatrix(losses=bumped_losses),
        OptimalityPrior(1.0), hypotheses,
    )
    assert bumped.probabilities[2] < base.probabilities[2] + 1e-12


def test_reward_posterior_single_cell():
    matrix = LossMatrix(losses=np.array([[2.0]]))
    hypotheses = RewardHypothesisSet(np.array([[0.5, 0.5]]))
    posterior = reward_posterior(matrix, OptimalityPrior(1.0), hypotheses)
    assert np.array_equal(posterior.probabilities, [1.0])


def test_reward_posterior_shape_mismatch():
    matrix = LossMatrix(losses=np.ones((2, 3)))
    hypotheses = RewardHypothesisSet(np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        reward_posterior(matrix, OptimalityPrior(1.0), hypotheses)


def test_reward_posterior_validation_object():
    with pytest.raises(ValueError):
        RewardPosterior(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        RewardPosterior(np.array([-0.1, 1.1]))
    posterior = RewardPosterior(np.array([0.25, 0.75]))
    with pytest.raises(ValueError):
        posterior.probabilities[0] = 1.0


def test_loss_matrix_validation():
    with pytest.raises(ValueError):
        LossMatrix(losses=np.array([[-0.1]]))
    with pytest.raises(ValueError):
        LossMatrix(losses=np.ones((2,)))


def test_point_mass_posterior_mean_plans_the_true_policy():
    mdp = make_chain(n_states=3, slip=0.0)
    other = RewardFunction(np.array([1.0, 0.0, 0.0]))
    hypotheses = RewardHypothesisSet(np.stack([mdp.reward.values, other.values]))
    point = MtpoResult((0,), (RewardPosterior(np.array([1.0, 0.0])),), hypotheses)
    _, policy = solve_optimal(Mdp(mdp.cmp, point.posterior_mean_reward(0), DISCOUNT))
    _, expected_policy = value_iteration(mdp)
    assert np.array_equal(policy.greedy_actions(), expected_policy.greedy_actions())


def test_mtpo_result_shapes_must_agree():
    hypotheses = RewardHypothesisSet(np.eye(3))
    third = RewardPosterior(np.full(3, 1 / 3))
    with pytest.raises(ValueError, match="one posterior over 3 hypotheses per task id"):
        MtpoResult((0, 1), (third,), hypotheses)
    with pytest.raises(ValueError, match="one posterior over 3 hypotheses per task id"):
        MtpoResult((0,), (third, third), hypotheses)
    with pytest.raises(ValueError, match="one posterior over 3 hypotheses per task id"):
        MtpoResult((0, 1), (third, RewardPosterior([0.5, 0.5])), hypotheses)
    result = MtpoResult((0, 1), [third, third], hypotheses)
    assert result.posteriors == (third, third)


def test_mtpo_mc_prior_only_task_is_symmetric():
    # Swapping both state and action labels maps one hypothesis to the other
    # on this kernel, and the uniform policy prior is label-invariant, so the
    # prior-only posterior must be close to (1/2, 1/2).
    cmp = chain_transition(2, 0.0)
    hypotheses = RewardHypothesisSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
    # A task without demonstrations has an all-zero count matrix; this is
    # mtpo_mc's per-task route, on its task-0 stream.
    prior = PolicyDirichletPrior.uniform(2, 2)
    policies = sample_policies(policy_posterior(prior, np.zeros((2, 2))), 4000,
                               substream(11, "mtpo-mc", "task", 0))
    matrix = build_loss_matrix(cmp, DISCOUNT, policies, hypotheses)
    probs = reward_posterior(matrix, OptimalityPrior(1.0), hypotheses).probabilities
    assert abs(probs[0] - 0.5) < 0.05


def test_mtpo_mc_long_demo_identifies_true_hypothesis():
    cmp = chain_transition(2, 0.1)
    truth = Mdp(cmp, RewardFunction([0.0, 1.0]), DISCOUNT)
    demonstrator = make_demonstrator("eps_greedy", truth, epsilon=0.01)
    demo = simulate(truth, demonstrator, 1000, substream(0, "demo"))
    hypotheses = RewardHypothesisSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
    result = mtpo_mc(
        cmp, [demo], PolicyDirichletPrior.uniform(2, 2), hypotheses=hypotheses,
        n_policy_samples=400, discount=DISCOUNT, seed=5,
    )
    assert result.posterior(0).probabilities[1] > 0.9


def test_mtpo_mc_shares_hypotheses_and_separates_tasks():
    cmp = chain_transition(2, 0.1)
    hypotheses = RewardHypothesisSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
    demos = []
    for task_id, reward in ((0, [1.0, 0.0]), (1, [0.0, 1.0])):
        truth = Mdp(cmp, RewardFunction(reward), DISCOUNT)
        demonstrator = make_demonstrator("eps_greedy", truth, epsilon=0.05)
        demos.append(simulate(truth, demonstrator, 200, substream(task_id, "d"),
                              task_id=task_id))
    result = mtpo_mc(
        cmp, demos, PolicyDirichletPrior.uniform(2, 2), hypotheses=hypotheses,
        n_policy_samples=300, discount=DISCOUNT, seed=2,
    )
    assert result.hypotheses is hypotheses
    assert result.task_ids == (0, 1)
    assert result.posterior(0).probabilities[0] > 0.6
    assert result.posterior(1).probabilities[1] > 0.6
    for tid in result.task_ids:
        mean = result.posterior(tid).probabilities @ hypotheses.values
        assert np.allclose(result.posterior_mean_reward(tid).values, mean, atol=1e-15)
        _, expected = solve_optimal(Mdp(cmp, RewardFunction(mean), DISCOUNT))
        _, policy = solve_optimal(Mdp(cmp, result.posterior_mean_reward(tid), DISCOUNT))
        assert np.array_equal(policy.action_probs, expected.action_probs)
    with pytest.raises(KeyError):
        result.posterior(9)
    with pytest.raises(KeyError):
        result.posterior_mean_reward(9)


def test_mtpo_mc_matches_public_per_task_route():
    # mtpo_mc solves the shared hypotheses' optima once for all tasks; the
    # public route re-solves them per task.  Both must give the same floats.
    cmp = chain_transition(3, 0.1)
    prior = PolicyDirichletPrior.uniform(3, 2)
    hypotheses = RewardHypothesisSet(
        DirichletRewardPrior(np.ones(3)).sample_batch(substream(4, "hyp"), 12))
    demos = []
    for tid in (0, 1):
        truth = Mdp(cmp, RewardFunction(hypotheses.values[tid]), DISCOUNT)
        demos.append(simulate(truth, make_demonstrator("softmax", truth, eta=4.0), 30,
                              substream(tid, "demo"), task_id=tid))
    optimality = OptimalityPrior(0.7)
    result = mtpo_mc(cmp, demos, prior, optimality_prior=optimality, hypotheses=hypotheses,
                     n_policy_samples=50, discount=DISCOUNT, seed=8)
    assert result.task_ids == (0, 1)
    for tid in result.task_ids:
        counts = demo_counts([d for d in demos if d.task_id == tid], 3, 2)
        policies = sample_policies(policy_posterior(prior, counts), 50,
                                   substream(8, "mtpo-mc", "task", tid))
        matrix = build_loss_matrix(cmp, DISCOUNT, policies, hypotheses)
        expected = reward_posterior(matrix, optimality, hypotheses)
        assert np.array_equal(result.posterior(tid).probabilities, expected.probabilities)


def test_mtpo_mc_deterministic_and_metadata():
    cmp = chain_transition(2, 0.1)
    truth = Mdp(cmp, RewardFunction([0.0, 1.0]), DISCOUNT)
    demo = simulate(truth, make_demonstrator("eps_greedy", truth, epsilon=0.1),
                    50, substream(1, "demo"))
    kwargs = dict(
        reward_prior=DirichletRewardPrior([1.0, 1.0]), n_hypotheses=8,
        n_policy_samples=100, discount=DISCOUNT, seed=42,
    )
    a = mtpo_mc(cmp, [demo], PolicyDirichletPrior.uniform(2, 2), **kwargs)
    b = mtpo_mc(cmp, [demo], PolicyDirichletPrior.uniform(2, 2), **kwargs)
    assert np.array_equal(a.posterior(0).probabilities, b.posterior(0).probabilities)
    assert np.array_equal(a.hypotheses.values, b.hypotheses.values)
    assert a.metadata["kind"] == "mtpo-mc"
    assert a.metadata["seed"] == 42
    assert a.metadata["n_policy_samples"] == 100
    assert a.metadata["optimality_rate"] == 1.0


def test_mtpo_mc_validation():
    cmp = chain_transition(2, 0.1)
    prior = PolicyDirichletPrior.uniform(2, 2)
    hypotheses = RewardHypothesisSet(np.array([[1.0, 0.0]]))
    demo = Demonstration(0, np.array([0]), np.array([0]))
    with pytest.raises(ValueError):
        mtpo_mc(cmp, [demo], prior)
    with pytest.raises(ValueError):
        mtpo_mc(cmp, [demo], prior, hypotheses=hypotheses,
                reward_prior=DirichletRewardPrior([1.0, 1.0]))
    with pytest.raises(ValueError):
        mtpo_mc(cmp, [demo], prior, reward_prior=DirichletRewardPrior([1.0, 1.0]))
    with pytest.raises(ValueError):
        mtpo_mc(cmp, [demo], prior, hypotheses=hypotheses, n_policy_samples=0)
    with pytest.raises(ValueError):
        mtpo_mc(cmp, [], prior, hypotheses=hypotheses)
    with pytest.raises(ValueError):
        mtpo_mc(cmp, [demo], PolicyDirichletPrior.uniform(3, 2), hypotheses=hypotheses)


def test_mtpo_result_jsonl_round_trip(tmp_path):
    cmp = chain_transition(2, 0.1)
    truth = Mdp(cmp, RewardFunction([0.0, 1.0]), DISCOUNT)
    demo = simulate(truth, make_demonstrator("eps_greedy", truth, epsilon=0.1),
                    40, substream(3, "demo"))
    result = mtpo_mc(
        cmp, [demo], PolicyDirichletPrior.uniform(2, 2),
        reward_prior=DirichletRewardPrior([1.0, 1.0]), n_hypotheses=6,
        n_policy_samples=80, discount=DISCOUNT, seed=7,
    )
    path = tmp_path / "mtpo.jsonl"
    write_posterior(path, result)
    loaded = read_posterior(path)
    assert isinstance(loaded, MtpoResult)
    assert loaded.task_ids == result.task_ids
    assert np.allclose(loaded.posterior(0).probabilities,
                       result.posterior(0).probabilities, atol=1e-15)
    assert np.allclose(loaded.hypotheses.values, result.hypotheses.values, atol=1e-15)
    assert np.allclose(loaded.hypotheses.measure, result.hypotheses.measure, atol=1e-15)
    assert loaded.metadata["kind"] == "mtpo-mc"


def test_mtpo_result_jsonl_rejects_other_formats(tmp_path):
    path = tmp_path / "bad.jsonl"
    # A header without a format names none the reader knows.
    path.write_text('{"task_ids": [0]}\n{"task_id": 0, "probabilities": [1.0]}\n')
    with pytest.raises(DataError, match="unrecognized posterior format None"):
        read_posterior(path)
