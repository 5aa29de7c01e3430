import numpy as np
import pytest

from multitask_irl import (
    ChainSpec,
    Cmp,
    Demonstration,
    MixedPolicy,
    PolicyDirichletPrior,
    StationaryPolicy,
    imitator,
    make_chain,
    make_demonstrator,
    mwal,
    simulate,
    solve_optimal,
    substream,
)
from oracles import dense_policy_values, mwal_reference, random_cmp

DISCOUNT = 0.95


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
    tables = np.stack([p.action_probs for p in a.policies]).reshape(a.n_components, -1)
    assert np.unique(tables, axis=0).shape[0] == a.n_components
    assert abs(a.weights.sum() - 1.0) < 1e-12
    rounds = a.weights * 20
    assert np.allclose(rounds, np.round(rounds), atol=1e-9)
    assert np.all(np.round(rounds) >= 1)
    assert np.array_equal(a.weights, b.weights)
    for pa, pb in zip(a.policies, b.policies):
        assert np.array_equal(pa.action_probs, pb.action_probs)


def test_mwal_single_feature_edge_case():
    # One state is one indicator feature: the reward player has nothing to
    # shift, so every round plays the same response (ties go to action 0).
    cmp = Cmp(np.ones((1, 2, 1)))
    demo = Demonstration(0, np.array([0, 0]), np.array([1, 1]))
    mixture = mwal(cmp, DISCOUNT, [demo], n_iterations=3)
    assert mixture.n_components == 1
    assert np.allclose(mixture.weights, [1.0])
    assert np.array_equal(mixture.policies[0].greedy_actions(), [0])


def test_mwal_validation(chain_demos):
    mdp, demos = chain_demos
    with pytest.raises(ValueError):
        mwal(mdp.cmp, mdp.discount, demos, n_iterations=0)


def test_demo_feature_expectations_validation(chain_demos):
    # mwal sums the demonstrations' discounted visits itself: it needs at
    # least one demonstration, and every visited state inside the CMP.
    mdp, _ = chain_demos
    with pytest.raises(ValueError):
        mwal(mdp.cmp, mdp.discount, [])
    stray = Demonstration(0, np.array([0, 5]), np.array([0, 0]))
    with pytest.raises(ValueError):
        mwal(mdp.cmp, mdp.discount, [stray])


def test_occupancy_initial_distribution_validation(chain_demos):
    # The start law must be a distribution over the CMP's states.
    mdp, demos = chain_demos
    for start in (np.full(4, 0.25), np.full(5, 0.3), np.array([1.2, -0.2, 0.0, 0.0, 0.0])):
        with pytest.raises(ValueError):
            mwal(mdp.cmp, mdp.discount, demos, initial_state_probs=start)


@pytest.mark.parametrize("seed", range(4))
def test_mwal_matches_reference(seed):
    rng = np.random.default_rng([seed, 41])
    n_states = 4 + seed % 2
    cmp = random_cmp(rng, n_states, 3)
    start = rng.dirichlet(np.ones(n_states))
    behaviour = StationaryPolicy(rng.dirichlet(np.ones(3), size=n_states))
    demos = [simulate(cmp, behaviour, 40, rng, initial_state_probs=start) for _ in range(3)]
    mixture = mwal(cmp, 0.9, demos, n_iterations=50, initial_state_probs=start)
    expected = mwal_reference(cmp, 0.9, demos, 50, start)
    found = {tuple(p.greedy_actions().tolist()): w
             for p, w in zip(mixture.policies, mixture.weights)}
    assert found.keys() == expected.keys()
    for actions, share in expected.items():
        assert abs(found[actions] - share) < 1e-12


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
