import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multitask_irl import (
    ADVANCE,
    LOG_ZERO,
    RESET,
    ChainSpec,
    Cmp,
    Demonstration,
    Mdp,
    RewardFunction,
    StationaryPolicy,
    batch_policy_values,
    batch_solve_optimal,
    counts_log_likelihood,
    demo_counts,
    make_chain,
    mdp as mdp_module,
    simulate,
    softmax_policy,
    solve_optimal,
    substream,
)
from oracles import dense_policy_values, policy_evaluation, random_cmp, value_iteration

# Hand-solved 3-state deterministic chain, discount 0.95, rewards (0.2, 0, 1):
# advancing forever gives V = (18.25, 19, 20); always resetting gives
# V = (4, 3.8, 4.8).
CHAIN3_OPTIMAL = np.array([18.25, 19.0, 20.0])
CHAIN3_RESET = np.array([4.0, 3.8, 4.8])


@pytest.fixture
def chain3():
    return make_chain(ChainSpec(n_states=3, slip=0.0))


def policy_values(mdp, policy):
    return batch_policy_values(
        mdp.cmp.transition, mdp.reward.values[None], policy.action_probs[None], mdp.discount
    )[0, 0]


def test_chain_optimal_values_match_hand_solution(chain3):
    values, policy = solve_optimal(chain3)
    assert np.allclose(values, CHAIN3_OPTIMAL, atol=1e-7)
    assert np.array_equal(policy.greedy_actions(), [ADVANCE, ADVANCE, ADVANCE])


def test_chain_q_values_match_hand_solution(chain3):
    _, _, q = batch_solve_optimal(chain3.cmp.transition, chain3.reward.values, chain3.discount,
                                  with_q=True)
    assert abs(q[0, ADVANCE] - 18.25) < 1e-7
    assert abs(q[0, RESET] - 17.5375) < 1e-7


def test_always_reset_value_matches_hand_solution(chain3):
    policy = StationaryPolicy.from_actions([RESET] * 3, 2)
    values = policy_values(chain3, policy)
    assert np.allclose(values, CHAIN3_RESET, atol=1e-7)


def test_policy_evaluation_matches_dense_solve():
    # The two oracles for policy values (sweeps, dense solve) agree.
    rng = np.random.default_rng(42)
    for _ in range(5):
        cmp = random_cmp(rng, 4, 3)
        reward = RewardFunction(rng.random(4))
        probs = rng.dirichlet(np.ones(3), size=4)
        mdp = Mdp(cmp, reward, 0.9)
        iterative = policy_evaluation(mdp, StationaryPolicy(probs), 1e-11)
        dense = dense_policy_values(cmp, reward.values, probs, 0.9)
        assert np.allclose(iterative, dense, atol=1e-8)


def test_batch_solve_optimal_matches_value_iteration():
    rng = np.random.default_rng(7)
    cmp = random_cmp(rng, 5, 3)
    rewards = rng.random((6, 5))
    values, actions = batch_solve_optimal(cmp.transition, rewards, 0.95)
    for k in range(6):
        expected, _ = value_iteration(Mdp(cmp, RewardFunction(rewards[k]), 0.95), 1e-10)
        assert np.allclose(values[k], expected, atol=1e-7)
        # Ties can resolve either way at solver precision; the chosen actions
        # must still achieve the optimal value.
        greedy = StationaryPolicy.from_actions(actions[k], 3)
        achieved = policy_evaluation(Mdp(cmp, RewardFunction(rewards[k]), 0.95), greedy, 1e-10)
        assert np.allclose(achieved, expected, atol=1e-6)


def test_batch_solve_optimal_single_reward_shape():
    rng = np.random.default_rng(3)
    cmp = random_cmp(rng, 3, 2)
    reward = rng.random(3)
    values, actions = batch_solve_optimal(cmp.transition, reward, 0.9)
    assert values.shape == (3,)
    assert actions.shape == (3,)


def test_batch_solve_optimal_zero_discount():
    rng = np.random.default_rng(4)
    cmp = random_cmp(rng, 3, 2)
    rewards = rng.random((2, 3))
    values, actions = batch_solve_optimal(cmp.transition, rewards, 0.0)
    assert np.array_equal(values, rewards)
    assert np.array_equal(actions, np.zeros((2, 3), dtype=int))


def test_batch_policy_values_matches_policy_evaluation():
    rng = np.random.default_rng(11)
    cmp = random_cmp(rng, 4, 2)
    rewards = rng.random((3, 4))
    probs = rng.dirichlet(np.ones(2), size=(2, 4))
    out = batch_policy_values(cmp.transition, rewards, probs, 0.9)
    assert out.shape == (2, 3, 4)
    for k in range(2):
        for n in range(3):
            expected = policy_evaluation(
                Mdp(cmp, RewardFunction(rewards[n]), 0.9), StationaryPolicy(probs[k]), 1e-11
            )
            assert np.allclose(out[k, n], expected, atol=1e-8)


def test_solve_optimal_zero_discount_returns_rewards(chain3):
    mdp = Mdp(chain3.cmp, chain3.reward, 0.0)
    values, _ = solve_optimal(mdp)
    assert np.array_equal(values, chain3.reward.values)


def test_solve_optimal_breaks_ties_toward_lowest_action():
    # Both actions share one kernel, so every state is a tie.
    kernel = np.zeros((3, 2, 3))
    kernel[:, 0] = np.eye(3)
    kernel[:, 1] = np.eye(3)
    mdp = Mdp(Cmp(kernel), RewardFunction([0.1, 0.5, 0.9]), 0.9)
    _, policy = solve_optimal(mdp)
    assert np.array_equal(policy.greedy_actions(), [0, 0, 0])
    _, actions = batch_solve_optimal(kernel, mdp.reward.values, 0.9, start=np.ones(3, dtype=int))
    assert np.array_equal(actions, [0, 0, 0])
    # A constant reward ties every action on any kernel (the first mwal round
    # plans for one); float noise in the values must not pick the action.
    rng = np.random.default_rng(5)
    for _ in range(100):
        n_states, n_actions = int(rng.integers(3, 9)), int(rng.integers(2, 4))
        cmp = random_cmp(rng, n_states, n_actions)
        reward = np.full(n_states, rng.random())
        _, policy = solve_optimal(Mdp(cmp, RewardFunction(reward), 0.95))
        assert np.array_equal(policy.greedy_actions(), np.zeros(n_states))
        _, actions = batch_solve_optimal(cmp.transition, np.stack([reward, reward]), 0.95)
        assert np.array_equal(actions, np.zeros((2, n_states)))
        # Started from tied actions other than the lowest, the greedy choice
        # still goes to action 0.
        start = rng.integers(1, n_actions, size=(2, n_states))
        _, actions = batch_solve_optimal(cmp.transition, np.stack([reward, reward]), 0.95,
                                         start=start)
        assert np.array_equal(actions, np.zeros((2, n_states)))
    # A tied row that converges in the first round, batched with a row that
    # needs more rounds, leaves the batch with the lowest tied actions too.
    chain = make_chain(ChainSpec(n_states=3, slip=0.0, rewards=(1.0, 0.0, 0.0)))
    rewards = np.stack([np.full(3, 0.5), chain.reward.values])
    _, actions = batch_solve_optimal(chain.cmp.transition, rewards, chain.discount,
                                     start=np.array([[RESET] * 3, [ADVANCE] * 3]))
    _, expected = batch_solve_optimal(chain.cmp.transition, chain.reward.values, chain.discount)
    assert np.array_equal(actions, [[0, 0, 0], expected])


def test_batch_solve_optimal_raises_at_iteration_cap(monkeypatch):
    # Action 0 (advance) is not optimal under this reward, so one policy
    # evaluation cannot finish the solve.
    mdp = make_chain(ChainSpec(n_states=3, slip=0.0, rewards=(1.0, 0.0, 0.0)))
    monkeypatch.setattr(mdp_module, "_MAX_POLICY_ITERATIONS", 1)
    with pytest.raises(RuntimeError, match="did not converge"):
        batch_solve_optimal(mdp.cmp.transition, mdp.reward.values, mdp.discount)
    with pytest.raises(RuntimeError, match="did not converge"):
        batch_solve_optimal(mdp.cmp.transition, mdp.reward.values, mdp.discount,
                            start=np.full(3, ADVANCE))
    # A batch in which one row converges at once still raises for the other.
    both = np.stack([mdp.reward.values, [0.0, 0.0, 1.0]])
    with pytest.raises(RuntimeError, match="did not converge"):
        batch_solve_optimal(mdp.cmp.transition, both, mdp.discount,
                            start=np.full((2, 3), ADVANCE))


def test_batch_solve_optimal_from_random_start_matches_value_iteration():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n_states, n_actions = int(rng.integers(3, 9)), int(rng.integers(2, 5))
        cmp = random_cmp(rng, n_states, n_actions)
        rewards = rng.random((4, n_states))
        start = rng.integers(n_actions, size=(4, n_states))
        values, actions = batch_solve_optimal(cmp.transition, rewards, 0.95, start=start)
        for k in range(4):
            expected, policy = value_iteration(Mdp(cmp, RewardFunction(rewards[k]), 0.95), 1e-11)
            assert np.allclose(values[k], expected, atol=1e-8)
            assert np.array_equal(actions[k], policy.greedy_actions())


def test_batch_solve_optimal_active_set_is_bit_identical(monkeypatch):
    # Rows that converge in different rounds leave the batch at different
    # times; each row's values and actions must be the bits of a cold start
    # and of a solve of that row alone.
    rng = np.random.default_rng(23)
    cmp = random_cmp(rng, 8, 3)
    rewards = rng.random((60, 8)) ** 3
    start = rng.integers(3, size=(60, 8))
    batch_sizes = []
    batch_q = mdp_module._batch_q

    def recording(transition, rewards, values, discount):
        batch_sizes.append(rewards.shape[0])
        return batch_q(transition, rewards, values, discount)

    monkeypatch.setattr(mdp_module, "_batch_q", recording)
    cold_values, cold_actions = batch_solve_optimal(cmp.transition, rewards, 0.97)
    assert len(set(batch_sizes)) > 2 and batch_sizes[0] == 60
    warm_values, warm_actions = batch_solve_optimal(cmp.transition, rewards, 0.97, start=start)
    assert np.array_equal(warm_values, cold_values)
    assert np.array_equal(warm_actions, cold_actions)
    for k in range(60):
        values, actions = batch_solve_optimal(cmp.transition, rewards[k], 0.97)
        assert np.array_equal(values, cold_values[k])
        assert np.array_equal(actions, cold_actions[k])
        values, actions = batch_solve_optimal(cmp.transition, rewards[k], 0.97, start=start[k])
        assert np.array_equal(values, cold_values[k])
        assert np.array_equal(actions, cold_actions[k])
    # Started from the optimum, every row converges in the first round.
    batch_sizes.clear()
    values, actions = batch_solve_optimal(cmp.transition, rewards, 0.97, start=cold_actions)
    assert batch_sizes == [60]
    assert np.array_equal(values, cold_values)
    assert np.array_equal(actions, cold_actions)


def test_batch_solve_optimal_q_is_the_bits_of_its_values(monkeypatch):
    # The Q handed back with the values is the last round's Q of each row,
    # which must be the bits _batch_q gives from the returned values, for
    # rows that leave the batch in different rounds, cold or warm started.
    rng = np.random.default_rng(23)
    cmp = random_cmp(rng, 8, 3)
    rewards = rng.random((60, 8)) ** 3
    start = rng.integers(3, size=(60, 8))
    batch_sizes = []
    batch_q = mdp_module._batch_q

    def recording(transition, rewards, values, discount):
        batch_sizes.append(rewards.shape[0])
        return batch_q(transition, rewards, values, discount)

    monkeypatch.setattr(mdp_module, "_batch_q", recording)
    for begin in (None, start):
        batch_sizes.clear()
        values, actions, q = batch_solve_optimal(cmp.transition, rewards, 0.97, start=begin,
                                                 with_q=True)
        assert len(set(batch_sizes)) > 2
        assert np.array_equal(q, batch_q(cmp.transition, rewards, values, 0.97))
        expected = batch_solve_optimal(cmp.transition, rewards, 0.97, start=begin)
        assert np.array_equal(values, expected[0]) and np.array_equal(actions, expected[1])
    values, actions, q = batch_solve_optimal(cmp.transition, rewards[5], 0.97, with_q=True)
    assert q.shape == (8, 3)
    assert np.array_equal(q, batch_q(cmp.transition, rewards[5][None], values[None], 0.97)[0])
    assert np.array_equal(actions, batch_solve_optimal(cmp.transition, rewards[5], 0.97)[1])


@pytest.mark.parametrize("n_actions", [1, 2, 3])
@pytest.mark.parametrize("n_states", [2, 3, 5, 8])
def test_batch_solve_optimal_kernel_stack_is_bit_identical(monkeypatch, n_states, n_actions):
    # A (K, S, A, S) stack that mixes kernels gives every row the values,
    # actions and Q of a solve of that row alone on its own kernel, cold or
    # warm started, while rows leave the batch in different rounds.
    rng = np.random.default_rng(31 + 10 * n_states + n_actions)
    kernels = np.stack([random_cmp(rng, n_states, n_actions).transition for _ in range(4)])
    stack = kernels[rng.integers(4, size=40)]
    rewards = rng.random((40, n_states)) ** 3
    start = rng.integers(n_actions, size=(40, n_states))
    batch_sizes = []
    batch_q = mdp_module._batch_q

    def recording(transition, rewards, values, discount):
        batch_sizes.append(rewards.shape[0])
        return batch_q(transition, rewards, values, discount)

    monkeypatch.setattr(mdp_module, "_batch_q", recording)
    for begin in (None, start):
        batch_sizes.clear()
        values, actions, q = batch_solve_optimal(stack, rewards, 0.97, start=begin, with_q=True)
        if n_actions > 1:   # the batch shrinks, so rows leave it in two rounds or more
            assert len(set(batch_sizes)) > 1
        for k in range(40):
            alone = batch_solve_optimal(stack[k], rewards[k], 0.97,
                                        start=None if begin is None else begin[k], with_q=True)
            assert np.array_equal(values[k], alone[0])
            assert np.array_equal(actions[k], alone[1])
            assert np.array_equal(q[k], alone[2])
    for bad in (stack[:39], stack[:1]):
        with pytest.raises(ValueError, match="stack of kernels"):
            batch_solve_optimal(bad, rewards, 0.97)
    with pytest.raises(ValueError, match="stack of kernels"):
        batch_solve_optimal(stack[:1], rewards[0], 0.97)


def test_batch_solve_optimal_rejects_bad_start():
    rng = np.random.default_rng(29)
    cmp = random_cmp(rng, 3, 2)
    rewards = rng.random((2, 3))
    for start in (np.zeros(3, dtype=int), np.zeros((2, 4), dtype=int),
                  np.zeros((1, 2, 3), dtype=int), np.full((2, 3), 2), np.full((2, 3), -1),
                  np.zeros((2, 3))):
        with pytest.raises(ValueError, match="start"):
            batch_solve_optimal(cmp.transition, rewards, 0.9, start=start)
    with pytest.raises(ValueError, match="start"):
        batch_solve_optimal(cmp.transition, rewards[0], 0.9, start=np.zeros((1, 3), dtype=int))


def test_softmax_policy_known_ratio():
    q = np.array([[np.log(4.0), 0.0]])
    policy = softmax_policy(q, 1.0)
    assert np.allclose(policy.action_probs, [[0.8, 0.2]], atol=1e-12)


def test_softmax_policy_eta_zero_is_uniform():
    q = np.array([[3.0, -1.0, 0.5]])
    policy = softmax_policy(q, 0.0)
    assert np.allclose(policy.action_probs, 1.0 / 3.0, atol=1e-12)


def test_softmax_policy_shift_invariance_and_large_eta():
    rng = np.random.default_rng(2)
    q = rng.normal(size=(4, 3))
    shifted = q + rng.normal(size=(4, 1))
    a = softmax_policy(q, 2.5).action_probs
    b = softmax_policy(shifted, 2.5).action_probs
    assert np.allclose(a, b, atol=1e-12)
    sharp = softmax_policy(q, 1e6).action_probs
    assert np.array_equal(sharp.argmax(axis=1), q.argmax(axis=1))


def test_softmax_policy_rejects_bad_inputs():
    with pytest.raises(ValueError):
        softmax_policy(np.array([1.0, 2.0]), 1.0)
    with pytest.raises(ValueError):
        softmax_policy(np.array([[1.0, np.inf]]), 1.0)
    with pytest.raises(ValueError):
        softmax_policy(np.array([[1.0, 2.0]]), -0.5)


def test_log_likelihood_uniform_policy():
    policy = StationaryPolicy.uniform(3, 2)
    demo = Demonstration(0, np.zeros(10, dtype=int), np.zeros(10, dtype=int))
    log_lik = counts_log_likelihood(demo_counts([demo], 3, 2), policy.action_probs)
    assert abs(log_lik - (-10.0 * np.log(2.0))) < 1e-12


def test_log_likelihood_impossible_step_is_log_zero():
    policy = StationaryPolicy.from_actions([0, 0], 2)
    demo = Demonstration(0, np.array([0, 1]), np.array([0, 1]))
    assert counts_log_likelihood(demo_counts([demo], 2, 2), policy.action_probs) == LOG_ZERO


def test_log_likelihood_checks_bounds():
    policy = StationaryPolicy.uniform(2, 2)
    demo = Demonstration(0, np.array([5]), np.array([0]))
    with pytest.raises(ValueError, match="outside"):
        counts_log_likelihood(demo_counts([demo], 2, 2), policy.action_probs)


def test_simulate_reproducible_and_in_bounds(chain3):
    policy = StationaryPolicy.uniform(3, 2)
    a = simulate(chain3, policy, 40, substream(5, "sim"), task_id=2)
    b = simulate(chain3, policy, 40, substream(5, "sim"), task_id=2)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.actions, b.actions)
    assert a.task_id == 2
    assert len(a) == 40
    assert a.states[0] == 0
    assert np.all((a.states >= 0) & (a.states < 3))
    assert np.all((a.actions >= 0) & (a.actions < 2))


def test_simulate_initial_distribution_point_mass(chain3):
    policy = StationaryPolicy.uniform(3, 2)
    start = np.array([0.0, 1.0, 0.0])
    demo = simulate(chain3, policy, 5, substream(0, "s"), initial_state_probs=start)
    assert demo.states[0] == 1


def test_simulate_empirical_frequencies_match_policy_and_kernel():
    mdp = make_chain(ChainSpec(n_states=3, slip=0.3))
    policy = StationaryPolicy.uniform(3, 2)
    demo = simulate(mdp, policy, 20000, substream(99, "freq"))
    assert abs(np.mean(demo.actions == RESET) - 0.5) < 0.015
    # Transitions out of (state 0, advance) land on state 1 w.p. 0.7.
    here = (demo.states[:-1] == 0) & (demo.actions[:-1] == ADVANCE)
    landed = demo.states[1:][here]
    assert abs(np.mean(landed == 1) - 0.7) < 0.03


def test_simulate_rejects_non_finite_start(chain3):
    # A nan passes the sign test and makes the sum test compare nan, so
    # without a finiteness check the run would silently start at state 0.
    policy = StationaryPolicy.uniform(3, 2)
    for start in ([np.nan, 0.0, 1.0], [np.inf, 0.0, 1.0], [0.0, np.nan, np.nan]):
        with pytest.raises(ValueError, match="initial_state_probs"):
            simulate(chain3, policy, 5, substream(0, "x"), initial_state_probs=start)
    # A valid start law costs one uniform, before the per-step draws.
    rng, replay = substream(3, "start"), substream(3, "start")
    demo = simulate(chain3, policy, 5, rng, initial_state_probs=[0.25, 0.5, 0.25])
    first = replay.random()
    replay.random((5, 2))
    assert demo.states[0] == int(np.searchsorted([0.25, 0.75, 1.0], first, side="right"))
    assert rng.bit_generator.state == replay.bit_generator.state


def test_simulate_accepts_bare_cmp(chain3):
    policy = StationaryPolicy.uniform(3, 2)
    demo = simulate(chain3.cmp, policy, 5, substream(1, "cmp"))
    assert len(demo) == 5


def test_simulate_validates_inputs(chain3):
    policy = StationaryPolicy.uniform(3, 2)
    with pytest.raises(ValueError):
        simulate(chain3, policy, 0, substream(0, "x"))
    with pytest.raises(ValueError):
        simulate(chain3, policy, 5, substream(0, "x"), initial_state_probs=[0.5, 0.5])
    with pytest.raises(ValueError):
        simulate(chain3, StationaryPolicy.uniform(4, 2), 5, substream(0, "x"))
    with pytest.raises(TypeError):
        simulate(object(), policy, 5, substream(0, "x"))


def test_cmp_validation():
    with pytest.raises(ValueError):
        Cmp(np.ones((2, 2)))
    bad = np.full((2, 2, 2), 0.6)
    with pytest.raises(ValueError):
        Cmp(bad)
    negative = np.zeros((2, 1, 2))
    negative[:, 0, 0] = 1.5
    negative[:, 0, 1] = -0.5
    with pytest.raises(ValueError):
        Cmp(negative)


def test_reward_function_validation():
    with pytest.raises(ValueError):
        RewardFunction([0.5, 1.2])
    with pytest.raises(ValueError):
        RewardFunction([-0.1, 0.5])
    with pytest.raises(ValueError):
        RewardFunction([[0.1, 0.2]])
    with pytest.raises(ValueError):
        RewardFunction([np.nan])


def test_mdp_validation(chain3):
    with pytest.raises(ValueError):
        Mdp(chain3.cmp, RewardFunction([0.5, 0.5]), 0.9)
    with pytest.raises(ValueError):
        Mdp(chain3.cmp, chain3.reward, 1.0)


def test_stationary_policy_validation_and_readonly():
    with pytest.raises(ValueError):
        StationaryPolicy(np.array([[0.5, 0.4]]))
    with pytest.raises(ValueError):
        StationaryPolicy(np.array([[1.5, -0.5]]))
    policy = StationaryPolicy.uniform(2, 2)
    with pytest.raises(ValueError):
        policy.action_probs[0, 0] = 1.0


def test_demonstration_validation():
    with pytest.raises(ValueError):
        Demonstration(0, np.array([], dtype=int), np.array([], dtype=int))
    with pytest.raises(ValueError):
        Demonstration(0, np.array([0, 1]), np.array([0]))
    with pytest.raises(ValueError):
        Demonstration(-1, np.array([0]), np.array([0]))
    with pytest.raises(ValueError):
        Demonstration(0, np.array([-1]), np.array([0]))
    demo = Demonstration(1, np.array([0, 1]), np.array([1, 0]))
    with pytest.raises(ValueError):
        demo.check_bounds(2, 1)
    demo.check_bounds(2, 2)


@st.composite
def mdp_instances(draw):
    n_states = draw(st.integers(2, 5))
    n_actions = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    discount = draw(st.sampled_from([0.0, 0.5, 0.9, 0.97]))
    rng = np.random.default_rng(seed)
    cmp = random_cmp(rng, n_states, n_actions)
    return Mdp(cmp, RewardFunction(rng.random(n_states)), discount)


@settings(max_examples=60, deadline=None)
@given(mdp_instances())
def test_solve_optimal_fixed_point_property(mdp):
    values, policy = solve_optimal(mdp)
    backup = mdp.reward.values[:, None] + mdp.discount * mdp.cmp.transition @ values
    assert np.max(np.abs(backup.max(axis=1) - values)) <= 1e-9
    assert np.all(values >= -1e-9)
    assert np.all(values <= 1.0 / (1.0 - mdp.discount) + 1e-6)
    achieved = policy_values(mdp, policy)
    assert np.allclose(achieved, values, atol=1e-6)


@settings(max_examples=60, deadline=None)
@given(mdp_instances(), st.integers(0, 2 ** 16))
def test_greedy_dominates_random_policy_property(mdp, policy_seed):
    rng = np.random.default_rng(policy_seed)
    values, _ = solve_optimal(mdp)
    other = StationaryPolicy(rng.dirichlet(np.ones(mdp.cmp.n_actions), size=mdp.cmp.n_states))
    assert np.all(policy_values(mdp, other) <= values + 1e-6)
