import numpy as np
import pytest

from multitask_irl import (
    ChainSpec,
    Cmp,
    Demonstration,
    FeatureMap,
    Mdp,
    MixedPolicy,
    PolicyDirichletPrior,
    StationaryPolicy,
    demo_feature_expectations,
    discounted_state_occupancy,
    feature_expectations,
    imitator,
    make_chain,
    make_demonstrator,
    mwal,
    policy_transition,
    simulate,
    solve_optimal,
    substream,
)
from oracles import dense_policy_values, random_cmp

DISCOUNT = 0.95


def test_feature_map_indicators_and_reward():
    features = FeatureMap.state_indicators(3)
    assert features.n_states == 3
    assert features.n_features == 3
    assert np.array_equal(features.values, np.eye(3))
    reward = features.reward([0.2, 0.3, 0.5])
    assert np.allclose(reward.values, [0.2, 0.3, 0.5])
    # Out-of-range linear combinations are clipped back into [0, 1].
    wide = FeatureMap(np.array([[1.0, 1.0]]))
    assert wide.reward([0.9, 0.9]).values[0] == 1.0


def test_feature_map_validation():
    with pytest.raises(ValueError):
        FeatureMap(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        FeatureMap(np.array([[1.5]]))
    with pytest.raises(ValueError):
        FeatureMap(np.array([[-0.1]]))
    features = FeatureMap.state_indicators(2)
    with pytest.raises(ValueError):
        features.values[0, 0] = 5.0


def test_mixed_policy_uniform_and_mean():
    a = StationaryPolicy.from_actions([0, 0], 2)
    b = StationaryPolicy.from_actions([1, 1], 2)
    mixture = MixedPolicy.uniform([a, b])
    assert mixture.n_components == 2
    assert np.allclose(mixture.weights, [0.5, 0.5])


def test_mixed_policy_validation():
    a = StationaryPolicy.uniform(2, 2)
    with pytest.raises(ValueError):
        MixedPolicy((), np.array([]))
    with pytest.raises(ValueError):
        MixedPolicy((a,), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        MixedPolicy((a, a), np.array([0.7, 0.2]))
    with pytest.raises(ValueError):
        MixedPolicy((a, a), np.array([-0.5, 1.5]))


def test_imitator_matches_conjugate_mean():
    demo = Demonstration(0, np.array([0, 0, 1]), np.array([0, 1, 0]))
    policy = imitator([demo], PolicyDirichletPrior.uniform(2, 2))
    # State 0 saw one of each action on top of the (1, 1) prior; state 1 saw
    # action 0 once.
    assert np.allclose(policy.action_probs[0], [0.5, 0.5])
    assert np.allclose(policy.action_probs[1], [2.0 / 3.0, 1.0 / 3.0])


def test_imitator_without_demos_returns_prior_mean():
    policy = imitator([], PolicyDirichletPrior.uniform(3, 2))
    assert np.allclose(policy.action_probs, 0.5)


def test_occupancy_single_state_geometric_sum():
    cmp = Cmp(np.ones((1, 2, 1)))
    occupancy = discounted_state_occupancy(cmp, StationaryPolicy.uniform(1, 2), DISCOUNT)
    assert abs(occupancy[0] - 1.0 / (1.0 - DISCOUNT)) < 1e-12


def test_occupancy_matches_power_series():
    rng = np.random.default_rng(7)
    cmp = random_cmp(rng, 4, 3)
    policy = StationaryPolicy(rng.dirichlet(np.ones(3), size=4))
    p0 = rng.dirichlet(np.ones(4))
    occupancy = discounted_state_occupancy(cmp, policy, 0.9, p0)
    kernel = policy_transition(cmp, policy)
    expected = np.zeros(4)
    dist = p0.copy()
    weight = 1.0
    while weight >= 1e-12:
        expected += weight * dist
        dist = kernel.T @ dist
        weight *= 0.9
    assert np.allclose(occupancy, expected, atol=1e-8)


def test_occupancy_initial_distribution_validation():
    cmp = Cmp(np.ones((1, 2, 1)))
    policy = StationaryPolicy.uniform(1, 2)
    with pytest.raises(ValueError):
        discounted_state_occupancy(cmp, policy, DISCOUNT, np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        discounted_state_occupancy(cmp, policy, DISCOUNT, np.array([0.7]))


def test_feature_expectations_indicator_features_equal_occupancy():
    rng = np.random.default_rng(8)
    cmp = random_cmp(rng, 3, 2)
    policy = StationaryPolicy(rng.dirichlet(np.ones(2), size=3))
    features = FeatureMap.state_indicators(3)
    mu = feature_expectations(cmp, policy, features, 0.9)
    occupancy = discounted_state_occupancy(cmp, policy, 0.9)
    assert np.allclose(mu, occupancy, atol=1e-12)


def test_demo_feature_expectations_hand_values():
    features = FeatureMap.state_indicators(2)
    first = Demonstration(0, np.array([0, 1]), np.array([0, 0]))
    mu = demo_feature_expectations([first], features, DISCOUNT)
    assert np.allclose(mu, [1.0, DISCOUNT], atol=1e-12)
    second = Demonstration(0, np.array([1, 1]), np.array([0, 0]))
    both = demo_feature_expectations([first, second], features, DISCOUNT)
    assert np.allclose(both, [0.5, (DISCOUNT + 1.0 + DISCOUNT) / 2.0], atol=1e-12)


def test_demo_feature_expectations_validation():
    features = FeatureMap.state_indicators(2)
    with pytest.raises(ValueError):
        demo_feature_expectations([], features, DISCOUNT)
    stray = Demonstration(0, np.array([0, 2]), np.array([0, 0]))
    with pytest.raises(ValueError):
        demo_feature_expectations([stray], features, DISCOUNT)


@pytest.fixture(scope="module")
def chain_demos():
    mdp = make_chain(ChainSpec(n_states=5, slip=0.1))
    demonstrator = make_demonstrator("eps_greedy", mdp, epsilon=0.0)
    demos = [
        simulate(mdp, demonstrator, 400, substream(0, "demo", i)) for i in range(3)
    ]
    return mdp, demos


def test_mwal_structure_and_determinism(chain_demos):
    mdp, demos = chain_demos
    a = mwal(mdp.cmp, mdp.discount, demos, n_iterations=20)
    b = mwal(mdp.cmp, mdp.discount, demos, n_iterations=20)
    assert a.n_components == 20
    assert np.allclose(a.weights, 1.0 / 20.0)
    for pa, pb in zip(a.policies, b.policies):
        assert np.array_equal(pa.action_probs, pb.action_probs)


def test_mwal_single_feature_edge_case(chain_demos):
    mdp, demos = chain_demos
    lone = FeatureMap(mdp.reward.values[:, None])
    mixture = mwal(mdp.cmp, mdp.discount, demos, lone, n_iterations=3)
    assert mixture.n_components == 3


def test_mwal_validation(chain_demos):
    mdp, demos = chain_demos
    with pytest.raises(ValueError):
        mwal(mdp.cmp, mdp.discount, demos, n_iterations=0)
    with pytest.raises(ValueError):
        mwal(mdp.cmp, mdp.discount, demos, FeatureMap.state_indicators(4))
    with pytest.raises(ValueError):
        mwal(mdp.cmp, mdp.discount, [])


def test_mwal_mixture_approaches_demonstrated_value(chain_demos):
    # The mixture's value under the true reward should close most of the gap
    # to optimal, and more rounds should not make it worse.
    mdp, demos = chain_demos
    optimal_values, _ = solve_optimal(mdp)

    def sup_gap(mixture):
        component_values = np.stack([
            dense_policy_values(mdp.cmp, mdp.reward.values, p.action_probs, mdp.discount)
            for p in mixture.policies
        ])
        return np.max(optimal_values - mixture.weights @ component_values)

    coarse = sup_gap(mwal(mdp.cmp, mdp.discount, demos, n_iterations=5))
    fine = sup_gap(mwal(mdp.cmp, mdp.discount, demos, n_iterations=100))
    assert fine < 2.5
    assert fine < coarse
