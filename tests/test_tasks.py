import sys

import numpy as np
import pytest

from multitask_irl import (
    ADVANCE,
    RESET,
    Cmp,
    Mdp,
    RewardFunction,
    chain_transition,
    make_chain,
    make_demonstrator,
    make_random_mdp_population,
    mdp as mdp_module,
    softmax_policy,
    substream,
    tasks as tasks_module,
)
from multitask_irl.mdp import _batch_softmax
from oracles import bellman_q, value_iteration


def test_chain_transition_rows_are_distributions():
    cmp = chain_transition(5, 0.2)
    assert cmp.transition.shape == (5, 2, 5)
    assert np.allclose(cmp.transition.sum(axis=2), 1.0, atol=1e-12)


def test_chain_transition_deterministic_structure():
    cmp = chain_transition(3, 0.0)
    advance = cmp.transition[:, ADVANCE, :]
    assert np.array_equal(advance, [[0, 1, 0], [0, 0, 1], [0, 0, 1]])
    reset = cmp.transition[:, RESET, :]
    assert np.array_equal(reset[:, 0], [1, 1, 1])
    assert np.array_equal(reset[:, 1:], np.zeros((3, 2)))


def test_chain_transition_slip_goes_two_ahead():
    cmp = chain_transition(5, 0.3)
    assert cmp.transition[1, ADVANCE, 2] == pytest.approx(0.7)
    assert cmp.transition[1, ADVANCE, 3] == pytest.approx(0.3)
    # Both the success and slip branches clamp at the last state.
    assert cmp.transition[4, ADVANCE, 4] == pytest.approx(1.0)
    assert cmp.transition[3, ADVANCE, 4] == pytest.approx(1.0)


def test_chain_spec_defaults_and_rewards():
    mdp = make_chain()
    assert mdp.cmp.n_states == 5
    assert np.array_equal(mdp.reward.values, [0.2, 0.0, 0.0, 0.0, 1.0])
    assert mdp.discount == 0.95
    custom = make_chain(n_states=3, rewards=(0.1, 0.2, 0.3))
    assert np.array_equal(custom.reward.values, [0.1, 0.2, 0.3])


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        make_chain(n_states=1)
    with pytest.raises(ValueError):
        make_chain(slip=1.5)
    with pytest.raises(ValueError):
        make_chain(n_states=3, rewards=(0.1, 0.2))
    with pytest.raises(ValueError):
        chain_transition(1, 0.2)
    with pytest.raises(ValueError):
        chain_transition(3, 1.5)


def test_population_shapes_and_simplexes():
    population = make_random_mdp_population(substream(0, "pop"), n_states=6, n_actions=3,
                                            n_tasks=4)
    assert population.cmp.transition.shape == (6, 3, 6)
    assert np.allclose(population.cmp.transition.sum(axis=2), 1.0, atol=1e-9)
    assert population.rewards.shape == (4, 6)
    assert np.allclose(population.rewards.sum(axis=1), 1.0, atol=1e-9)
    assert population.concentration.shape == (6,)
    assert np.all(population.concentration > 0)
    assert population.temperatures.shape == (4,)
    assert len(population.demonstrators) == 4
    assert len(population.rewards) == 4
    task_mdp = population.mdp(2)
    assert np.array_equal(task_mdp.reward.values, population.rewards[2])


def test_population_degenerate_temperature_range_is_exact():
    population = make_random_mdp_population(substream(5, "pop"), n_tasks=3,
                                            temperature_range=(3.0, 3.0))
    assert np.array_equal(population.temperatures, [3.0, 3.0, 3.0])


def test_population_temperatures_respect_range():
    population = make_random_mdp_population(substream(9, "pop"), n_tasks=20,
                                            temperature_range=(2.0, 8.0))
    assert np.all(population.temperatures >= 2.0)
    assert np.all(population.temperatures <= 8.0)


def test_population_concentration_mean():
    # Coordinates are exponential with mean reward_concentration_mean.
    draws = []
    for rep in range(500):
        population = make_random_mdp_population(substream(0, "conc", rep), n_states=8, n_tasks=1)
        draws.append(population.concentration)
    mean = np.concatenate(draws).mean()
    assert abs(mean - 0.1) < 5e-3


def test_population_demonstrators_are_softmax_experts():
    population = make_random_mdp_population(substream(2, "pop"), n_states=5, n_actions=2,
                                            n_tasks=3)
    for task in range(3):
        mdp = population.mdp(task)
        values, _ = value_iteration(mdp)
        expected = softmax_policy(bellman_q(mdp, values), population.temperatures[task])
        assert np.allclose(
            population.demonstrators[task].action_probs,
            expected.action_probs,
            atol=1e-9,
        )


def test_random_mdp_spec_validation():
    with pytest.raises(ValueError):
        make_random_mdp_population(substream(0, "pop"), n_states=1)
    with pytest.raises(ValueError):
        make_random_mdp_population(substream(0, "pop"), n_tasks=0)
    with pytest.raises(ValueError):
        make_random_mdp_population(substream(0, "pop"), temperature_range=(5.0, 2.0))
    with pytest.raises(ValueError):
        make_random_mdp_population(substream(0, "pop"), temperature_range=(-1.0, 2.0))


def test_demonstrator_greedy_limit():
    mdp = make_chain(n_states=3, slip=0.0)
    _, greedy = value_iteration(mdp)
    policy = make_demonstrator("eps_greedy", mdp, epsilon=0.0)
    expected = np.zeros((3, 2))
    expected[np.arange(3), greedy.greedy_actions()] = 1.0
    assert np.array_equal(policy.action_probs, expected)


def test_demonstrator_uniform_limits():
    mdp = make_chain(n_states=3, slip=0.0)
    scrambled = make_demonstrator("eps_greedy", mdp, epsilon=1.0)
    assert np.allclose(scrambled.action_probs, 0.5, atol=1e-12)
    indifferent = make_demonstrator("softmax", mdp, eta=0.0)
    assert np.allclose(indifferent.action_probs, 0.5, atol=1e-12)


def test_demonstrator_softmax_matches_direct_construction():
    mdp = make_chain(n_states=4, slip=0.1)
    policy = make_demonstrator("softmax", mdp, eta=2.5)
    values, _ = value_iteration(mdp)
    expected = softmax_policy(bellman_q(mdp, values), 2.5)
    assert np.allclose(policy.action_probs, expected.action_probs, atol=1e-9)


def test_demonstrators_take_one_planner_solve_and_its_q(monkeypatch):
    # One action-value route: each demonstrator comes from one planner call
    # on a batch of one, whose Q it uses; the softmax is that Q's softmax bit
    # for bit, and nothing outside the planner recomputes a Q.  On these
    # random MDPs a matrix-product Q differs from the planner's in the last bits.
    calls = {"planner": [], "q outside the planner": 0}
    planner, batch_q = mdp_module.batch_solve_optimal, mdp_module._batch_q

    def watched_planner(transition, rewards, *args, **kwargs):
        calls["planner"].append(np.shape(rewards))
        return planner(transition, rewards, *args, **kwargs)

    def watched_q(*args):
        calls["q outside the planner"] += sys._getframe(1).f_code.co_name != "batch_solve_optimal"
        return batch_q(*args)

    monkeypatch.setattr(mdp_module, "batch_solve_optimal", watched_planner)
    monkeypatch.setattr(tasks_module, "batch_solve_optimal", watched_planner, raising=False)
    monkeypatch.setattr(mdp_module, "_batch_q", watched_q)
    rng = np.random.default_rng(11)
    for _ in range(100):
        n_states, n_actions = int(rng.integers(2, 9)), int(rng.integers(1, 5))
        cmp = Cmp(rng.dirichlet(np.ones(n_states), size=(n_states, n_actions)))
        mdp = Mdp(cmp, RewardFunction(rng.random(n_states)), float(rng.uniform(0.5, 0.95)))
        eta = float(rng.uniform(0.5, 8.0))
        _, (greedy,), (q,) = planner(cmp.transition, mdp.reward.values[None], mdp.discount)
        calls["planner"].clear()
        softmax = make_demonstrator("softmax", mdp, eta=eta)
        eps_greedy = make_demonstrator("eps_greedy", mdp, epsilon=0.2)
        assert calls["planner"] == [(1, n_states), (1, n_states)]
        assert np.array_equal(softmax.action_probs, _batch_softmax(q, eta))
        assert np.array_equal(eps_greedy.action_probs.argmax(axis=1), greedy)
    assert calls["q outside the planner"] == 0


def test_demonstrator_validation():
    mdp = make_chain(n_states=3)
    with pytest.raises(ValueError):
        make_demonstrator("softmax", mdp)
    with pytest.raises(ValueError):
        make_demonstrator("eps_greedy", mdp)
    with pytest.raises(ValueError):
        make_demonstrator("eps_greedy", mdp, epsilon=1.5)
    with pytest.raises(ValueError):
        make_demonstrator("greedy", mdp)
