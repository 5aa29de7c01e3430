import numpy as np
import pytest

from multitask_irl import (
    Cmp,
    Demonstration,
    MixedPolicy,
    PolicyDirichletPrior,
    StationaryPolicy,
    demo_counts,
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
    assert len(mixture.policies) == 2
    assert np.allclose(mixture.weights, [0.5, 0.5])


def test_mixed_policy_validation():
    a = StationaryPolicy(np.full((2, 2), 1 / 2))
    with pytest.raises(ValueError):
        MixedPolicy((), np.array([]))
    with pytest.raises(ValueError):
        MixedPolicy((a,), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        MixedPolicy((a, a), np.array([0.7, 0.2]))
    with pytest.raises(ValueError):
        MixedPolicy((a, a), np.array([-0.5, 1.5]))
    with pytest.raises(ValueError):
        MixedPolicy((a,), np.array([np.nan]))


def test_imitator_matches_conjugate_mean():
    demo = Demonstration(0, np.array([0, 0, 1]), np.array([0, 1, 0]))
    policy = imitator(demo_counts([demo], 2, 2), PolicyDirichletPrior.uniform(2, 2))
    # State 0 saw one of each action on top of the (1, 1) prior; state 1 saw
    # action 0 once.
    assert np.allclose(policy.action_probs[0], [0.5, 0.5])
    assert np.allclose(policy.action_probs[1], [2.0 / 3.0, 1.0 / 3.0])


def test_imitator_without_demos_returns_prior_mean():
    policy = imitator(np.zeros((3, 2)), PolicyDirichletPrior.uniform(3, 2))
    assert np.allclose(policy.action_probs, 0.5)


@pytest.fixture(scope="module")
def chain_demos():
    mdp = make_chain(n_states=5, slip=0.1)
    demonstrator = make_demonstrator("eps_greedy", mdp, epsilon=0.0)
    demos = [
        simulate(mdp, demonstrator, 400, substream(0, "demo", i)) for i in range(3)
    ]
    return mdp, demos


def test_mwal_structure_and_determinism(chain_demos):
    mdp, demos = chain_demos
    a = mwal(mdp.cmp, mdp.discount, demos, n_iterations=20)
    b = mwal(mdp.cmp, mdp.discount, demos, n_iterations=20)
    tables = np.stack([p.action_probs for p in a.policies]).reshape(len(a.policies), -1)
    assert np.unique(tables, axis=0).shape[0] == len(a.policies)
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
    assert len(mixture.policies) == 1
    assert np.allclose(mixture.weights, [1.0])
    assert np.array_equal(mixture.policies[0].greedy_actions(), [0])


def test_mwal_validation(chain_demos):
    mdp, demos = chain_demos
    with pytest.raises(ValueError):
        mwal(mdp.cmp, mdp.discount, demos, n_iterations=0)


def test_demo_feature_expectations_validation(chain_demos):
    # mwal sums the demonstrations' discounted visits itself: it needs at
    # least one demonstration, and every state and action inside the CMP.
    mdp, _ = chain_demos
    with pytest.raises(ValueError):
        mwal(mdp.cmp, mdp.discount, [])
    stray = Demonstration(0, np.array([0, 5]), np.array([0, 0]))
    with pytest.raises(ValueError):
        mwal(mdp.cmp, mdp.discount, [stray])
    stray_action = Demonstration(0, np.array([0, 1]), np.array([0, 2]))
    with pytest.raises(ValueError):
        mwal(mdp.cmp, mdp.discount, [stray_action])


def _shares(mixture):
    return {tuple(p.greedy_actions().tolist()): w
            for p, w in zip(mixture.policies, mixture.weights)}


def _same_shares(found, expected):
    return found.keys() == expected.keys() and all(
        abs(found[actions] - share) < 1e-12 for actions, share in expected.items())


def test_occupancy_initial_distribution_validation(chain_demos):
    # Every demonstration starts in state 0, so mwal plans its responses'
    # visits from the point mass there, not from a uniform start.
    mdp, demos = chain_demos
    assert {int(demo.states[0]) for demo in demos} == {0}
    found = _shares(mwal(mdp.cmp, mdp.discount, demos, n_iterations=20))
    n_states = mdp.cmp.n_states
    assert _same_shares(found, mwal_reference(mdp.cmp, mdp.discount, demos, 20,
                                              np.eye(n_states)[0]))
    assert not _same_shares(found, mwal_reference(mdp.cmp, mdp.discount, demos, 20,
                                                  np.full(n_states, 1.0 / n_states)))


@pytest.mark.parametrize("seed", range(4))
def test_mwal_matches_reference(seed):
    rng = np.random.default_rng([seed, 41])
    n_states = 4 + seed % 2
    cmp = random_cmp(rng, n_states, 3)
    start = rng.dirichlet(np.ones(n_states))
    behaviour = StationaryPolicy(rng.dirichlet(np.ones(3), size=n_states))
    demos = [simulate(cmp, behaviour, 40, rng, initial_state_probs=start) for _ in range(3)]
    # mwal plans from the demonstrations' empirical first-state law.
    first_states = np.bincount([d.states[0] for d in demos], minlength=n_states) / len(demos)
    found = _shares(mwal(cmp, 0.9, demos, n_iterations=50))
    expected = mwal_reference(cmp, 0.9, demos, 50, first_states)
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
