import sys
import warnings

import numpy as np
import pytest

from multitask_irl import (
    LOG_ZERO,
    DataError,
    Demonstration,
    DegeneratePosteriorError,
    DirichletRewardPrior,
    DiscreteRewardPrior,
    FixedHyperprior,
    FixedTemperature,
    GammaHyperprior,
    Mdp,
    PosteriorEnsemble,
    RewardFunction,
    TemperaturePrior,
    chain_transition,
    counts_log_likelihood,
    importance_weights,
    make_demonstrator,
    mdp as mdp_module,
    mtpp as mtpp_module,
    mtpp_mc,
    mtpp_mh,
    read_posterior,
    simulate,
    solve_optimal,
    substream,
    write_posterior,
)
from multitask_irl.mtpp import (
    _PROPOSAL_FLOOR,
    _accept_rows,
    _group_demos,
    _interior,
    _mtpp_mh_batch,
    _propose_rewards,
)
from multitask_irl.priors import _DIRICHLET_STICK_BREAKING, _dirichlet_log_pdf
from oracles import (
    batch_means_se,
    dirichlet_rows_reference,
    enumerate_atom_posterior,
    importance_se,
    per_chain_mh,
    per_step_log_lik,
    random_cmp,
    task_by_task_mh,
    value_iteration,
)

DISCOUNT = 0.95
ATOMS = np.array([[1.0, 0.0], [0.0, 1.0]])
ETA = 2.0


def two_state_cmp():
    return chain_transition(2, 0.1)


def atom_demo(cmp, atom_index, seed, horizon=50, task_id=0):
    """Softmax demonstration generated under one grid atom's reward."""
    mdp = Mdp(cmp, RewardFunction(ATOMS[atom_index]), DISCOUNT)
    demonstrator = make_demonstrator("softmax", mdp, eta=ETA)
    return simulate(mdp, demonstrator, horizon, substream(seed, "demo"), task_id=task_id)


def grid_hyperprior():
    return FixedHyperprior(DiscreteRewardPrior(ATOMS), FixedTemperature(ETA))


def atom_indicators(ensemble, task_id):
    """(K, n_atoms) indicator of which atom each sample assigned the task."""
    m = ensemble.task_index(task_id)
    rewards = ensemble.rewards[:, m, :]
    return np.stack([
        np.all(np.abs(rewards - atom[None, :]) < 1e-9, axis=1).astype(float)
        for atom in ATOMS
    ], axis=1)


def test_importance_weights_basics():
    assert np.array_equal(importance_weights([[0.0]]), [1.0])
    weights = importance_weights(np.full((5, 1), -3.7))
    assert np.allclose(weights, 0.2, atol=1e-12)
    ll = np.array([[-1.0, -2.0], [-3.0, -0.5], [-2.0, -2.0]])
    direct = importance_weights(ll)
    expected = np.exp(ll.sum(axis=1) - ll.sum(axis=1).max())
    assert np.allclose(direct, expected / expected.sum(), atol=1e-12)


def test_importance_weights_per_task_rescaling_invariance():
    rng = np.random.default_rng(0)
    ll = rng.normal(size=(20, 3)) * 5.0
    shifted = ll + np.array([100.0, -250.0, 3.0])[None, :]
    assert np.allclose(importance_weights(ll), importance_weights(shifted), atol=1e-12)


def test_importance_weights_degenerate_and_validation():
    with pytest.raises(DegeneratePosteriorError) as info:
        importance_weights(np.array([[-1e300], [-1e300]]))
    assert info.value.max_log_likelihood <= -1e299
    with pytest.raises(ValueError):
        importance_weights(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        importance_weights(np.zeros(2))  # a (K,) vector is not a (K, M) matrix
    with pytest.raises(ValueError):
        importance_weights(np.zeros((0, 1)))


def test_accept_rows_shortcut_and_rejection():
    rng = substream(0, "mh")
    assert _accept_rows(np.array([0.0, 3.2]), np.zeros(2, dtype=np.int64), [rng]).all()
    hits = _accept_rows(np.full(20000, np.log(0.25)), np.zeros(20000, dtype=np.int64), [rng])
    assert abs(hits.mean() - 0.25) < 0.01


def test_accept_rows_draw_one_uniform_per_ratio_not_accepted_outright():
    # Chain 1 owns no row and chain 3 only rows accepted outright: neither
    # draws.  Every other chain draws one uniform per ratio below zero (nan
    # included), in its row order, as deciding its rows one by one does.
    ratios = np.array([0.0, -0.5, 2.0, np.log(0.9), -3.0, np.nan, -1e-3, 0.5, 1.0])
    owner = np.array([0, 0, 0, 2, 2, 2, 2, 3, 3])
    rngs, alone = ([substream(4, "accept", c) for c in range(4)] for _ in range(2))
    decisions = _accept_rows(ratios, owner, rngs)
    assert decisions.dtype == bool and decisions.shape == ratios.shape
    for c in range(4):
        expected = [r >= 0 or alone[c].random() < np.exp(r) for r in ratios[owner == c]]
        assert decisions[owner == c].tolist() == expected
        assert rngs[c].random() == alone[c].random()
    quiet, fresh = substream(5, "accept"), substream(5, "accept")
    assert _accept_rows(np.array([0.0, 1.5]), np.zeros(2, dtype=np.int64), [quiet]).all()
    assert quiet.random() == fresh.random()


def test_interior_keeps_atoms_and_lifts_dirichlet_zeros():
    # A discrete atom must still match its grid exactly; a Dirichlet draw
    # with exact zeros must start strictly inside the simplex.
    atoms = np.array([[1.0, 0.0, 0.0], [0.1, 0.2, 0.7]])
    discrete = DiscreteRewardPrior(atoms)
    for atom in discrete.sample_batch(substream(0, "atoms"), 8):
        assert _interior(discrete, atom).tobytes() == atom.tobytes()
    n_states = 6
    dirichlet = DirichletRewardPrior(np.full(n_states, 1e-3))
    draws = dirichlet.sample_batch(substream(0, "sparse"), 20)
    draws = np.vstack([draws[(draws == 0.0).any(axis=1)], np.eye(n_states)[2]])
    assert draws.shape[0] > 1
    for row in draws:
        lifted = _interior(dirichlet, row)
        assert lifted.min() >= 1e-3 / n_states
        assert abs(lifted.sum() - 1.0) <= 1e-12


def test_proposal_floor_keeps_numpys_gamma_draw():
    # Generator.dirichlet stick-breaks a row whose concentrations all lie
    # below its threshold; a floor at or above it keeps every reward
    # proposal on the standard-gamma draw that _propose_rewards makes.
    assert _PROPOSAL_FLOOR >= _DIRICHLET_STICK_BREAKING


def test_propose_rewards_draw_what_per_row_dirichlet_draws():
    # Four chains of 1, 4, 2 and 6 tasks, each on its own stream; some rows
    # sit at a simplex vertex, where a forward concentration is the floor.
    rng = np.random.default_rng(31)
    sizes, step = [1, 4, 2, 6], 50.0
    current = rng.dirichlet(np.full(5, 0.3), size=sum(sizes))
    current[[0, 3, 9]] = np.eye(5)[[2, 0, 4]]
    ends = np.cumsum(sizes)
    bounds = list(zip((ends - sizes).tolist(), ends.tolist()))
    rngs, alone = ([substream(6, "propose", c) for c in range(4)] for _ in range(2))
    proposals, hastings = _propose_rewards(None, current, rngs, bounds, step)
    forward = step * current + _PROPOSAL_FLOOR
    assert forward.min() == _PROPOSAL_FLOOR
    for c, (lo, hi) in enumerate(bounds):
        expected = np.clip(dirichlet_rows_reference(alone[c], forward[lo:hi]), 1e-300, None)
        expected = expected / expected.sum(axis=1, keepdims=True)
        assert np.array_equal(proposals[lo:hi], expected)
        reverse = step * expected + _PROPOSAL_FLOOR
        assert np.array_equal(hastings[lo:hi],
                              _dirichlet_log_pdf(current[lo:hi], reverse)
                              - _dirichlet_log_pdf(expected, forward[lo:hi]))
        assert rngs[c].random() == alone[c].random()


def test_mtpp_mh_iteration_makes_one_planner_call_and_no_dirichlet_rows(monkeypatch):
    # Guards the fixed cost of a lockstep iteration: the reward proposals of
    # every chain are drawn without _dirichlet_rows, the planner runs once
    # at the start and once per iteration, and it hands back the Q that
    # mtpp would otherwise recompute.
    rng = np.random.default_rng(37)
    cmp = random_cmp(rng, 4, 2)
    demos = []
    for m in range(3):
        mdp = Mdp(cmp, RewardFunction(rng.dirichlet(np.ones(4))), DISCOUNT)
        teacher = make_demonstrator("softmax", mdp, eta=3.0)
        demos.append(simulate(mdp, teacher, 12, substream(2, "demo", m), task_id=m))
    calls = {"planner": 0, "dirichlet_rows": 0, "q outside the planner": 0}
    planner, dirichlet_rows, batch_q = (mtpp_module.batch_solve_optimal,
                                        mtpp_module._dirichlet_rows, mdp_module._batch_q)

    def counting(name, function):
        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return counted

    def watched_q(*args):
        calls["q outside the planner"] += sys._getframe(1).f_code.co_name != "batch_solve_optimal"
        return batch_q(*args)

    monkeypatch.setattr(mtpp_module, "batch_solve_optimal", counting("planner", planner))
    monkeypatch.setattr(mtpp_module, "_dirichlet_rows", counting("dirichlet_rows", dirichlet_rows))
    monkeypatch.setattr(mdp_module, "_batch_q", watched_q)
    mtpp_mh(cmp, demos, GammaHyperprior(4), 60, 3, DISCOUNT, 5)
    assert calls == {"planner": 60 // 3 + 1, "dirichlet_rows": 0, "q outside the planner": 0}
    assert not hasattr(mtpp_module, "_batch_q")


def test_metropolis_chain_reaches_target_distribution():
    # Eight two-state flip chains targeting (0.3, 0.7), each on its own stream.
    target = np.array([0.3, 0.7])
    rngs = [substream(1, "balance", c) for c in range(8)]
    owner = np.arange(8)
    states = np.zeros(8, dtype=np.int64)
    visits = np.zeros(2)
    for _ in range(12_500):
        ratios = np.log(target[1 - states]) - np.log(target[states])
        states = np.where(_accept_rows(ratios, owner, rngs), 1 - states, states)
        visits += np.bincount(states, minlength=2)
    assert abs(visits[1] / visits.sum() - 0.7) < 0.01


def test_counts_log_likelihood_matches_per_step_oracle():
    rng = np.random.default_rng(41)
    n_states, n_actions = 5, 3
    demos = [
        Demonstration(m, rng.integers(n_states, size=length), rng.integers(n_actions, size=length))
        for m in range(3) for length in rng.integers(1, 40, size=m + 1)
    ]
    policies = rng.dirichlet(np.full(n_actions, 0.7), size=(6, n_states))
    cmp = random_cmp(rng, n_states, n_actions)
    task_ids, counts = _group_demos(demos, cmp)
    groups = [[d for d in demos if d.task_id == tid] for tid in task_ids]
    assert task_ids == (0, 1, 2) and [len(g) for g in groups] == [1, 2, 3]
    # Multi-demo tasks, and every demonstration pooled into one task.
    cases = [(counts[m], group) for m, group in enumerate(groups)]
    cases.append((_group_demos([Demonstration(0, d.states, d.actions) for d in demos], cmp)[1][0],
                  demos))
    for task_counts, group in cases:
        batch = counts_log_likelihood(task_counts, policies)
        reference = np.array([per_step_log_lik(p, group) for p in policies])
        assert np.allclose(batch, reference, rtol=1e-12, atol=0.0)
    joint = counts_log_likelihood(counts, policies[:, None])  # (6, 3)
    assert joint.shape == (6, 3)
    assert np.allclose(joint[2], [per_step_log_lik(policies[2], g) for g in groups],
                       rtol=1e-12, atol=0.0)
    # An impossible observed step gives LOG_ZERO; an unobserved zero does not.
    blocked = policies[0].copy()
    state, action = demos[0].states[0], demos[0].actions[0]
    blocked[state] = 0.0
    blocked[state, (action + 1) % n_actions] = 1.0
    assert per_step_log_lik(blocked, groups[0]) == LOG_ZERO
    assert counts_log_likelihood(counts[0], blocked) == LOG_ZERO
    unseen = counts[0].copy()
    unseen[state] = 0.0
    assert counts_log_likelihood(unseen, blocked) > LOG_ZERO / 2


def test_mtpp_mc_matches_enumerated_posterior():
    cmp = two_state_cmp()
    demo = atom_demo(cmp, 1, seed=101)
    exact = enumerate_atom_posterior(cmp, [demo], ATOMS, [0.5, 0.5], ETA, DISCOUNT)
    ensemble = mtpp_mc(cmp, [demo], grid_hyperprior(), 4000, DISCOUNT, 17)
    indicators = atom_indicators(ensemble, 0)
    for j in range(2):
        estimate = float(ensemble.weights @ indicators[:, j])
        se = importance_se(ensemble.weights, indicators[:, j], estimate)
        assert abs(estimate - exact[j]) <= 3.0 * se + 1e-3


def test_mtpp_mh_matches_enumerated_posterior():
    cmp = two_state_cmp()
    demo = atom_demo(cmp, 1, seed=101)
    exact = enumerate_atom_posterior(cmp, [demo], ATOMS, [0.5, 0.5], ETA, DISCOUNT)
    ensemble = mtpp_mh(cmp, [demo], grid_hyperprior(), 6000, 1, DISCOUNT, 23)
    assert np.allclose(ensemble.weights, 1.0 / ensemble.n_samples, atol=1e-12)
    indicators = atom_indicators(ensemble, 0)
    for j in range(2):
        estimate = float(indicators[:, j].mean())
        se = batch_means_se(indicators[:, j])
        assert abs(estimate - exact[j]) <= 3.0 * se + 0.01


def test_mtpp_mc_joint_posterior_factorizes_across_tasks():
    # With a degenerate hyperprior the tasks are independent, so each task's
    # marginal must match its own single-task enumeration.
    cmp = two_state_cmp()
    demos = [atom_demo(cmp, 0, seed=7, task_id=0), atom_demo(cmp, 1, seed=8, task_id=1)]
    ensemble = mtpp_mc(cmp, demos, grid_hyperprior(), 4000, DISCOUNT, 31)
    for task_id in (0, 1):
        exact = enumerate_atom_posterior(
            cmp, [demos[task_id]], ATOMS, [0.5, 0.5], ETA, DISCOUNT
        )
        indicators = atom_indicators(ensemble, task_id)
        for j in range(2):
            estimate = float(ensemble.weights @ indicators[:, j])
            se = importance_se(ensemble.weights, indicators[:, j], estimate)
            assert abs(estimate - exact[j]) <= 3.0 * se + 2e-3


def test_mtpp_mc_task_streams_do_not_interact():
    # Adding a second task must not change the candidates drawn for the first.
    cmp = two_state_cmp()
    first = atom_demo(cmp, 0, seed=7, task_id=0)
    second = atom_demo(cmp, 1, seed=8, task_id=1)
    hyper = GammaHyperprior(2)
    alone = mtpp_mc(cmp, [first], hyper, 300, DISCOUNT, 5)
    joint = mtpp_mc(cmp, [first, second], hyper, 300, DISCOUNT, 5)
    assert np.array_equal(alone.rewards[:, 0, :], joint.rewards[:, 0, :])
    assert np.array_equal(alone.temperatures[:, 0], joint.temperatures[:, 0])


def test_mtpp_mc_reproducible_and_seed_sensitive():
    cmp = two_state_cmp()
    demo = atom_demo(cmp, 1, seed=3)
    hyper = GammaHyperprior(2)
    a = mtpp_mc(cmp, [demo], hyper, 200, DISCOUNT, 12)
    b = mtpp_mc(cmp, [demo], hyper, 200, DISCOUNT, 12)
    c = mtpp_mc(cmp, [demo], hyper, 200, DISCOUNT, 13)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.rewards, b.rewards)
    assert not np.array_equal(a.weights, c.weights)
    assert a.metadata["kind"] == "mtpp-mc"
    assert a.metadata["seed"] == 12
    assert np.all(a.temperatures > 0)


def test_mtpp_mc_degenerate_posterior_raises():
    # An infinitely sharp demonstrator makes both atoms assign probability
    # zero to one of the demonstrated actions.
    cmp = chain_transition(2, 0.0)
    demo = Demonstration(0, np.array([0, 0]), np.array([0, 1]))
    hyper = FixedHyperprior(DiscreteRewardPrior(ATOMS), FixedTemperature(1e9))
    with pytest.raises(DegeneratePosteriorError):
        mtpp_mc(cmp, [demo], hyper, 50, DISCOUNT, 0)


def test_mtpp_mc_validation():
    cmp = two_state_cmp()
    demo = atom_demo(cmp, 0, seed=1)
    with pytest.raises(ValueError):
        mtpp_mc(cmp, [], GammaHyperprior(2), 10, DISCOUNT, 0)
    with pytest.raises(ValueError):
        mtpp_mc(cmp, [demo], GammaHyperprior(3), 10, DISCOUNT, 0)
    with pytest.raises(ValueError):
        mtpp_mc(cmp, [demo], GammaHyperprior(2), 0, DISCOUNT, 0)
    with pytest.raises(ValueError):
        mtpp_mc(cmp, [demo], GammaHyperprior(2), 10, 1.0, 0)
    with pytest.raises(TypeError):
        mtpp_mc(cmp, [demo], object(), 10, DISCOUNT, 0)
    wide = FixedHyperprior(DirichletRewardPrior(np.ones(3)), FixedTemperature(1.0))
    with pytest.raises(ValueError, match="n_states does not match"):
        mtpp_mc(cmp, [demo], wide, 10, DISCOUNT, 0)


def test_mtpp_mh_hierarchical_chains_and_acceptance_rates():
    cmp = chain_transition(3, 0.2)
    mdp = Mdp(cmp, RewardFunction([0.2, 0.0, 1.0]), DISCOUNT)
    demonstrator = make_demonstrator("softmax", mdp, eta=4.0)
    demos = [
        simulate(mdp, demonstrator, 30, substream(2, "d", m), task_id=m) for m in range(2)
    ]
    ensemble = mtpp_mh(cmp, demos, GammaHyperprior(3), 400, 2, DISCOUNT, 9)
    # 400 iterations over 2 chains, 10% burn-in each: 2 * (200 - 20) kept.
    assert ensemble.n_samples == 360
    assert ensemble.task_ids == (0, 1)
    assert np.allclose(ensemble.weights.sum(), 1.0, atol=1e-12)
    assert ensemble.rewards.shape == (360, 2, 3)
    assert np.all(ensemble.temperatures > 0)
    rates = ensemble.metadata["acceptance_rates"]
    assert len(rates) == 2
    for chain_rates in rates:
        assert set(chain_rates) == {"hyper", "reward", "temperature"}
        assert all(0.0 <= rate <= 1.0 for rate in chain_rates.values())


@pytest.mark.parametrize("kind", ["dirichlet", "discrete"])
def test_mtpp_mh_matches_task_by_task_loop(kind):
    # At a fixed temperature the sweep draws exactly the task-by-task loop's
    # random numbers, so every reward of every kept sample is the same.
    rng = np.random.default_rng(17)
    cmp = random_cmp(rng, 5, 3)
    truths = rng.dirichlet(np.full(5, 0.5), size=3)
    demos = []
    for m, reward in enumerate(truths):
        mdp = Mdp(cmp, RewardFunction(reward), DISCOUNT)
        teacher = make_demonstrator("softmax", mdp, eta=3.0)
        demos += [simulate(mdp, teacher, 20, substream(4, "demo", m, j), task_id=m)
                  for j in range(m + 1)]
    if kind == "dirichlet":
        prior = DirichletRewardPrior(np.full(5, 0.6))
    else:
        prior = DiscreteRewardPrior(np.vstack([truths, rng.dirichlet(np.ones(5), size=3)]))
    hyper = FixedHyperprior(prior, FixedTemperature(3.0))
    ensemble = mtpp_mh(cmp, demos, hyper, 300, 2, DISCOUNT, 8)
    rewards, log_liks, rates = task_by_task_mh(cmp, demos, hyper, 300, 2, DISCOUNT, 8)
    assert np.array_equal(ensemble.rewards, rewards)
    assert np.allclose(ensemble.log_likelihoods, log_liks, rtol=1e-12, atol=0.0)
    assert [r["reward"] for r in ensemble.metadata["acceptance_rates"]] == rates
    assert all(0.0 < rate < 1.0 for rate in rates)


LOCKSTEP_PRIORS = {
    "gamma": lambda rng: GammaHyperprior(4),
    "dirichlet": lambda rng: FixedHyperprior(DirichletRewardPrior(np.full(4, 0.6)),
                                             TemperaturePrior(2.0, 1.0)),
    # The tiny temperature shape and a huge temperature step make some
    # proposals zero or infinite, which are rejected without a uniform.
    "discrete": lambda rng: FixedHyperprior(DiscreteRewardPrior(rng.dirichlet(np.ones(4), 5)),
                                            TemperaturePrior(1e-4, 1.0)),
}


@pytest.mark.parametrize("n_chains", [1, 2, 4, 8, pytest.param((1, 4, 2), id="1-4-2")])
@pytest.mark.parametrize("kind", sorted(LOCKSTEP_PRIORS))
def test_lockstep_chains_match_one_chain_at_a_time(kind, n_chains):
    # Three fits of 1, 9 and 2 tasks and unequal lengths advance in one
    # batch, each with n_chains chains or with its own count of a tuple;
    # each must give the bits its chains give run one at a time.
    rng = np.random.default_rng(23)
    cmp = random_cmp(rng, 4, 2)
    hyper = LOCKSTEP_PRIORS[kind](rng)
    counts = n_chains if isinstance(n_chains, tuple) else (n_chains,) * 3
    fits = []
    for index, (n_tasks, per_chain) in enumerate([(1, 14), (9, 9), (2, 20)]):
        demos = []
        for m in range(n_tasks):
            mdp = Mdp(cmp, RewardFunction(rng.dirichlet(np.ones(4))), DISCOUNT)
            teacher = make_demonstrator("softmax", mdp, eta=3.0)
            demos.append(simulate(mdp, teacher, 12, substream(index, "demo", m), task_id=m))
        fits.append((demos, per_chain * counts[index], counts[index], 30 + index))
    steps = {"temperature_step": 250.0} if kind == "discrete" else {}
    with np.errstate(over="ignore"):
        ensembles = _mtpp_mh_batch([(cmp,) + fit for fit in fits], hyper, DISCOUNT, **steps)
        expected = [per_chain_mh(cmp, demos, hyper, n_iterations, chains, DISCOUNT, seed,
                                 **steps) for demos, n_iterations, chains, seed in fits]
    unmovable = 0
    for ensemble, (rewards, temperatures, log_liks, rates, stuck) in zip(ensembles, expected):
        unmovable += stuck
        assert np.array_equal(ensemble.rewards, rewards)
        assert np.array_equal(ensemble.temperatures, temperatures)
        assert np.array_equal(ensemble.log_likelihoods, log_liks)
        assert ensemble.metadata["acceptance_rates"] == rates
    # A lone fit through mtpp_mh is the same batch of one.
    with np.errstate(over="ignore"):
        demos, n_iterations, chains, seed = fits[1]
        alone = mtpp_mh(cmp, demos, hyper, n_iterations, chains, DISCOUNT, seed, **steps)
    assert np.array_equal(alone.rewards, ensembles[1].rewards)
    assert alone.metadata == ensembles[1].metadata
    assert (unmovable > 0) == (kind == "discrete")


def test_mtpp_mh_degenerate_hyperprior_skips_fixed_blocks():
    cmp = two_state_cmp()
    demo = atom_demo(cmp, 1, seed=4)
    ensemble = mtpp_mh(cmp, [demo], grid_hyperprior(), 200, 1, DISCOUNT, 3)
    assert np.all(ensemble.temperatures == ETA)
    rates = ensemble.metadata["acceptance_rates"]
    assert set(rates[0]) == {"reward"}


def test_mtpp_mh_reproducible():
    cmp = two_state_cmp()
    demo = atom_demo(cmp, 0, seed=6)
    a = mtpp_mh(cmp, [demo], GammaHyperprior(2), 150, 1, DISCOUNT, 21)
    b = mtpp_mh(cmp, [demo], GammaHyperprior(2), 150, 1, DISCOUNT, 21)
    assert np.array_equal(a.rewards, b.rewards)
    assert np.array_equal(a.temperatures, b.temperatures)


def test_mtpp_mh_survives_temperature_underflow():
    # A tiny gamma shape draws temperatures that underflow to exactly zero;
    # the chain must stay finite instead of freezing on a -inf log prior.
    cmp = two_state_cmp()
    demo = atom_demo(cmp, 1, seed=8)
    hyper = FixedHyperprior(DiscreteRewardPrior(ATOMS), TemperaturePrior(1e-4, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ensemble = mtpp_mh(cmp, [demo], hyper, 200, 1, DISCOUNT, 5)
    assert np.all(np.isfinite(ensemble.temperatures))
    assert np.all(ensemble.temperatures > 0.0)
    assert np.all(np.isfinite(ensemble.rewards))


def test_mtpp_mh_dirichlet_walk_samples_the_prior():
    # With one action the demonstrations have probability one under every
    # reward, so the chain must sample the prior.  No enumerated posterior
    # checks this walk: they use discrete atoms, and the task-by-task oracle
    # copies the sampler's proposal and Hastings term.
    concentration = np.array([2.0, 6.0, 4.0])
    total = concentration.sum()
    mean = concentration / total
    var = concentration * (total - concentration) / (total ** 2 * (total + 1.0))
    cmp = random_cmp(np.random.default_rng(3), 3, 1)
    n_tasks = 8
    demos = [Demonstration(m, np.array([0]), np.array([0])) for m in range(n_tasks)]
    hyper = FixedHyperprior(DirichletRewardPrior(concentration), FixedTemperature(1.0))
    ensemble = mtpp_mh(cmp, demos, hyper, 10000, 2, DISCOUNT, 5, reward_step=2.0)
    assert np.all(ensemble.log_likelihoods == 0.0)
    for s in range(3):
        draws = ensemble.rewards[:, :, s]   # one column per task, each its own chain
        for moment, target in ((draws, mean[s]), ((draws - mean[s]) ** 2, var[s])):
            se = np.sqrt(np.mean([batch_means_se(column) ** 2 for column in moment.T]) / n_tasks)
            assert abs(moment.mean() - target) <= 4.0 * se


def test_mtpp_mh_hyper_walk_samples_the_prior():
    # With one action the likelihood is constant, so under a GammaHyperprior
    # the chain must sample the generative prior: the population state from
    # its Gamma laws, the reward from Dirichlet(concentration) and the
    # temperature from Gamma(shape, rate).  The reference draws use plain
    # numpy.  A wrong Jacobian in the hyper move shifts the concentrations,
    # and with them the sum of squared rewards; the large temperature step
    # lets the chain leave the tiny temperatures that a small shape implies.
    n_states, law, n_chains = 3, (2.0, 2.0), 2
    cmp = random_cmp(np.random.default_rng(3), n_states, 1)
    demos = [Demonstration(0, np.array([0]), np.array([0]))]
    hyper = GammaHyperprior(n_states, concentration_law=law)
    ensemble = mtpp_mh(cmp, demos, hyper, 8000, n_chains, DISCOUNT, 0,
                       reward_step=2.0, temperature_step=5.0, hyper_step=1.0)
    assert np.all(ensemble.log_likelihoods == 0.0)
    rng = np.random.default_rng(0)
    n = 200_000
    gammas = rng.gamma(rng.gamma(law[0], 1.0 / law[1], size=(n, n_states)))
    rewards = gammas / gammas.sum(axis=1, keepdims=True)
    temperatures = rng.gamma(rng.gamma(1.0, size=n)) / rng.gamma(1.0, size=n)
    for sampled, exact in (
        ((ensemble.rewards[:, 0] ** 2).sum(axis=1), (rewards ** 2).sum(axis=1)),
        (ensemble.temperatures[:, 0] < 1.0, temperatures < 1.0),
    ):
        chains = sampled.reshape(n_chains, -1)
        se = np.sqrt(np.mean([batch_means_se(c) ** 2 for c in chains]) / n_chains
                     + exact.var() / n)
        assert abs(chains.mean() - exact.mean()) <= 4.0 * se


def test_mtpp_mh_validation():
    cmp = two_state_cmp()
    demo = atom_demo(cmp, 0, seed=6)
    hyper = GammaHyperprior(2)
    with pytest.raises(ValueError):
        mtpp_mh(cmp, [demo], hyper, 100, 0, DISCOUNT, 0)
    with pytest.raises(ValueError):
        mtpp_mh(cmp, [demo], hyper, 3, 4, DISCOUNT, 0)
    with pytest.raises(ValueError):
        mtpp_mh(cmp, [demo], hyper, 100, 1, DISCOUNT, 0, burn_in_fraction=1.0)
    with pytest.raises(ValueError):
        mtpp_mh(cmp, [demo], hyper, 100, 1, DISCOUNT, 0, reward_step=0.0)
    with pytest.raises(TypeError):
        mtpp_mh(cmp, [demo], object(), 100, 1, DISCOUNT, 0)
    wide = FixedHyperprior(DirichletRewardPrior(np.ones(3)), FixedTemperature(1.0))
    with pytest.raises(ValueError, match="n_states does not match"):
        mtpp_mh(cmp, [demo], wide, 100, 1, DISCOUNT, 0)


def test_posterior_ensemble_accessors_and_mean():
    rewards = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
    ensemble = PosteriorEnsemble(
        task_ids=(4,),
        weights=np.array([0.25, 0.75]),
        rewards=rewards,
        temperatures=np.ones((2, 1)),
        log_likelihoods=np.zeros((2, 1)),
    )
    mean = ensemble.posterior_mean_reward(4)
    assert np.allclose(mean.values, [0.25, 0.75], atol=1e-12)
    assert ensemble.n_samples == 2
    assert len(ensemble.task_ids) == 1
    with pytest.raises(KeyError):
        ensemble.task_index(0)
    with pytest.raises(ValueError):
        PosteriorEnsemble(
            task_ids=(0,),
            weights=np.array([0.3, 0.3]),
            rewards=rewards,
            temperatures=np.ones((2, 1)),
            log_likelihoods=np.zeros((2, 1)),
        )


def test_posterior_ensemble_shapes_must_agree():
    good = dict(task_ids=(0,), weights=np.array([0.25, 0.75]),
                rewards=np.array([[[1.0, 0.0]], [[0.0, 1.0]]]), temperatures=np.ones((2, 1)),
                log_likelihoods=np.zeros((2, 1)))
    for name, value in (("task_ids", (0, 1)),
                        ("weights", np.array([[0.25, 0.75]])),
                        ("weights", np.array([0.25, 0.25, 0.5])),
                        ("rewards", np.array([[1.0, 0.0], [0.0, 1.0]])),
                        ("rewards", np.full((2, 2, 2), 0.5)),
                        ("temperatures", np.ones(2)),
                        ("temperatures", np.ones((2, 2))),
                        ("log_likelihoods", np.zeros((1, 1)))):
        with pytest.raises(ValueError, match="for [12] task ids, need weights"):
            PosteriorEnsemble(**{**good, name: value})
    # Lists are stored as the arrays they were checked as.
    listed = PosteriorEnsemble(**{name: value.tolist() if isinstance(value, np.ndarray) else value
                                  for name, value in good.items()})
    assert listed.n_samples == 2
    for name in ("weights", "rewards", "temperatures", "log_likelihoods"):
        assert np.array_equal(getattr(listed, name), good[name])


def test_posterior_ensemble_jsonl_round_trip(tmp_path):
    cmp = two_state_cmp()
    demo = atom_demo(cmp, 1, seed=3)
    ensemble = mtpp_mc(cmp, [demo], GammaHyperprior(2), 60, DISCOUNT, 2)
    path = tmp_path / "ensemble.jsonl"
    write_posterior(path, ensemble)
    loaded = read_posterior(path)
    assert isinstance(loaded, PosteriorEnsemble)
    assert loaded.task_ids == ensemble.task_ids
    assert np.array_equal(loaded.weights, ensemble.weights)
    assert np.array_equal(loaded.rewards, ensemble.rewards)
    assert np.array_equal(loaded.temperatures, ensemble.temperatures)
    assert np.array_equal(loaded.log_likelihoods, ensemble.log_likelihoods)
    assert loaded.metadata["kind"] == "mtpp-mc"


def test_posterior_ensemble_jsonl_rejects_other_formats(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"format": "something-else"}\n')
    with pytest.raises(DataError, match="unrecognized posterior format 'something-else'"):
        read_posterior(path)
    # A count of the wrong type is named as such, not as a count mismatch.
    path.write_text('{"format": "mtpp-ensemble", "task_ids": [0], "n_samples": "1", '
                    '"n_states": 2}\n{"weight": 1.0, "rewards": [[0.5, 0.5]], '
                    '"temperatures": [1.0], "log_likelihoods": [0.0]}\n')
    with pytest.raises(DataError, match="'n_samples' must be an integer"):
        read_posterior(path)


def test_posterior_mean_reward_plans_the_demonstrated_goal():
    cmp = two_state_cmp()
    demo = atom_demo(cmp, 1, seed=101, horizon=100)
    ensemble = mtpp_mc(cmp, [demo], grid_hyperprior(), 2000, DISCOUNT, 19)
    _, policy = solve_optimal(Mdp(cmp, ensemble.posterior_mean_reward(0), DISCOUNT))
    # Atom (0, 1) rewards the far state; its optimal policy always advances.
    truth = Mdp(cmp, RewardFunction(ATOMS[1]), DISCOUNT)
    _, optimal = value_iteration(truth)
    assert np.array_equal(policy.greedy_actions(), optimal.greedy_actions())
