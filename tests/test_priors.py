import numpy as np
import pytest
import scipy.stats

from multitask_irl import (
    Demonstration,
    DirichletRewardPrior,
    DiscreteRewardPrior,
    FixedHyperprior,
    FixedTemperature,
    GammaHyperprior,
    OptimalityPrior,
    PolicyDirichletPrior,
    TemperaturePrior,
    demo_counts,
    policy_posterior,
    sample_policies,
    substream,
)
from multitask_irl.priors import _dirichlet_rows
from oracles import dirichlet_rows_reference


def test_dirichlet_prior_mean_and_samples():
    prior = DirichletRewardPrior([2.0, 1.0, 1.0])
    rng = substream(0, "dir")
    reward = prior.sample_batch(rng, 1)[0]
    assert abs(reward.sum() - 1.0) < 1e-9
    batch = prior.sample_batch(rng, 50)
    assert batch.shape == (50, 3)
    assert np.allclose(batch.sum(axis=1), 1.0, atol=1e-9)


def test_dirichlet_log_pdf_matches_scipy():
    prior = DirichletRewardPrior([2.0, 3.0, 0.5])
    x = np.array([0.2, 0.5, 0.3])
    expected = scipy.stats.dirichlet.logpdf(x, prior.concentration)
    assert abs(prior.log_pdf(x) - expected) < 1e-10


def test_dirichlet_log_pdf_uniform_boundary():
    # Dirichlet(1, 1) is the uniform law on the simplex: log density 0,
    # finite even at a boundary point thanks to xlogy.
    prior = DirichletRewardPrior([1.0, 1.0])
    assert abs(prior.log_pdf([0.0, 1.0])) < 1e-12


def test_dirichlet_prior_validation():
    with pytest.raises(ValueError):
        DirichletRewardPrior([1.0, 0.0])
    with pytest.raises(ValueError):
        DirichletRewardPrior([[1.0]])
    prior = DirichletRewardPrior([1.0, 2.0])
    with pytest.raises(ValueError):
        prior.log_pdf([0.2, 0.3, 0.5])


def test_discrete_prior_atoms_weights_and_log_pdf():
    atoms = np.array([[1.0, 0.0], [0.0, 1.0]])
    prior = DiscreteRewardPrior(atoms)
    assert np.allclose(prior.weights, [0.5, 0.5])
    assert prior.atom_index([0.0, 1.0]) == 1
    assert prior.atom_index([0.5, 0.5]) == -1
    assert abs(prior.log_pdf([1.0, 0.0]) - np.log(0.5)) < 1e-12
    assert prior.log_pdf([0.4, 0.6]) == -np.inf
    weighted = DiscreteRewardPrior(atoms, weights=[3.0, 1.0])
    assert np.allclose(weighted.weights, [0.75, 0.25])
    batch = weighted.sample_batch(substream(0, "disc"), 30)
    assert all(weighted.atom_index(row) >= 0 for row in batch)
    with pytest.raises(ValueError):
        DiscreteRewardPrior(np.array([[1.5, 0.0]]))
    with pytest.raises(ValueError):
        DiscreteRewardPrior(atoms, weights=[1.0, 0.0])
    with pytest.raises(ValueError):
        DiscreteRewardPrior(atoms, weights=[1.0, float("nan")])


def test_temperature_prior_moments_and_log_pdf():
    prior = TemperaturePrior(shape=2.0, rate=4.0)
    expected = scipy.stats.gamma.logpdf(0.7, a=2.0, scale=0.25)
    assert abs(prior.log_pdf(0.7) - expected) < 1e-10
    assert prior.log_pdf(0.0) == -np.inf
    assert prior.log_pdf(-1.0) == -np.inf
    draws = prior.sample_batch(substream(0, "temp"), 100_000)
    assert np.all(draws > 0)
    assert abs(draws.mean() - 0.5) < 5e-3
    with pytest.raises(ValueError):
        TemperaturePrior(0.0, 1.0)


def test_fixed_temperature_is_a_point_mass():
    prior = FixedTemperature(3.5)
    assert prior.sample_batch(substream(0, "ft"), 1)[0] == 3.5
    assert np.array_equal(prior.sample_batch(None, 4), np.full(4, 3.5))
    assert prior.log_pdf(3.5) == 0.0
    with pytest.raises(ValueError):
        FixedTemperature(-1.0)


def test_log_pdfs_score_a_batch_row_by_row():
    # The sampler scores every task at once: a batch log_pdf must equal the
    # single-vector log_pdf of each row.
    rng = np.random.default_rng(3)
    atoms = rng.dirichlet(np.ones(3), size=4)
    cases = [
        (DirichletRewardPrior([0.4, 1.0, 2.5]), rng.dirichlet(np.ones(3), size=6)),
        (DiscreteRewardPrior(atoms, weights=[1.0, 2.0, 3.0, 4.0]),
         np.vstack([atoms[[2, 0, 3]], rng.dirichlet(np.ones(3), size=2)])),
    ]
    for prior, batch in cases:
        scores = prior.log_pdf(batch)
        assert scores.shape == (batch.shape[0],)
        assert np.allclose(scores, [prior.log_pdf(row) for row in batch], rtol=1e-14, atol=0.0)
    assert np.array_equal(cases[1][0].atom_index(cases[1][1]), [2, 0, 3, -1, -1])
    etas = np.array([0.3, 0.0, 2.0, -1.0])
    gamma = TemperaturePrior(2.0, 4.0)
    assert np.array_equal(gamma.log_pdf(etas), [gamma.log_pdf(eta) for eta in etas])
    assert np.array_equal(FixedTemperature(3.5).log_pdf(etas), np.zeros(4))


def test_gamma_hyperprior_sample_and_batch_laws():
    hyper = GammaHyperprior(3)
    # A population state draws its S concentrations, then the temperature
    # shape, then its rate.
    conc, shapes, rates = hyper.sample_batch(substream(0, "hyper"), 1)
    rng = substream(0, "hyper")
    assert np.array_equal(conc[0], rng.gamma(1.0, size=3) / 10.0)
    assert shapes[0] == rng.gamma(1.0) and rates[0] == rng.gamma(1.0)
    conc, shapes, rates = hyper.sample_batch(rng, 20_000)
    assert conc.shape == (20_000, 3)
    assert np.all(conc > 0) and np.all(shapes > 0) and np.all(rates > 0)
    # concentration_law (1, 10) has mean 0.1; the temperature laws (1, 1) mean 1.
    assert abs(conc.mean() - 0.1) < 2e-3
    assert abs(shapes.mean() - 1.0) < 2e-2
    assert abs(rates.mean() - 1.0) < 2e-2
    with pytest.raises(ValueError):
        GammaHyperprior(2, concentration_law=(0.0, 1.0))
    with pytest.raises(ValueError):
        GammaHyperprior(0)


def test_gamma_hyperprior_log_pdf_matches_scipy():
    hyper = GammaHyperprior(2, concentration_law=(1.5, 10.0))
    state = np.array([0.05, 0.2, 0.8, 1.3])
    expected = (
        scipy.stats.gamma.logpdf(state[:2], a=1.5, scale=0.1).sum()
        + scipy.stats.gamma.logpdf(0.8, a=1.0, scale=1.0)
        + scipy.stats.gamma.logpdf(1.3, a=1.0, scale=1.0)
    )
    assert abs(hyper.log_pdf(state) - expected) < 1e-10
    with pytest.raises(ValueError, match="state must have shape"):
        hyper.log_pdf(state[1:])
    # A batch of states is scored row by row, bit for bit.
    states = np.random.default_rng(4).gamma(1.0, size=(5, 4))
    scores = hyper.log_pdf(states)
    assert scores.shape == (5,)
    assert scores.tolist() == [hyper.log_pdf(row) for row in states]
    with pytest.raises(ValueError, match="state must have shape"):
        hyper.log_pdf(states[None])


def test_fixed_hyperprior_is_degenerate():
    # Plain data: the reward and temperature priors every task shares.
    reward_prior = DirichletRewardPrior([1.0, 1.0])
    temp_prior = FixedTemperature(2.0)
    hyper = FixedHyperprior(reward_prior, temp_prior)
    assert hyper.reward_prior is reward_prior and hyper.temperature_prior is temp_prior
    with pytest.raises(AttributeError):
        hyper.reward_prior = temp_prior


def test_policy_prior_uniform_mean_and_validation():
    prior = PolicyDirichletPrior.uniform(2, 3, strength=2.0)
    assert prior.concentration.shape == (2, 3)
    assert np.allclose(prior.mean().action_probs, 1.0 / 3.0)
    with pytest.raises(ValueError):
        PolicyDirichletPrior(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        PolicyDirichletPrior(np.ones(3))


def test_policy_posterior_conjugate_counts():
    prior = PolicyDirichletPrior.uniform(2, 2)
    demo = Demonstration(0, np.array([0, 0, 0, 0]), np.array([0, 0, 0, 1]))
    posterior = policy_posterior(prior, demo_counts([demo], 2, 2))
    assert np.allclose(posterior.concentration[0], [4.0, 2.0])
    # State 1 was never visited: its row keeps the prior.
    assert np.allclose(posterior.concentration[1], [1.0, 1.0])
    assert np.allclose(posterior.mean().action_probs[0], [2.0 / 3.0, 1.0 / 3.0])


def test_policy_posterior_empty_and_composition():
    prior = PolicyDirichletPrior.uniform(2, 2)
    assert np.array_equal(policy_posterior(prior, np.zeros((2, 2))).concentration,
                          prior.concentration)
    a = Demonstration(0, np.array([0, 1]), np.array([1, 0]))
    b = Demonstration(1, np.array([1, 1]), np.array([1, 1]))
    together = policy_posterior(prior, demo_counts([a, b], 2, 2))
    stepwise = policy_posterior(policy_posterior(prior, demo_counts([a], 2, 2)),
                                demo_counts([b], 2, 2))
    assert np.array_equal(together.concentration, stepwise.concentration)
    with pytest.raises(ValueError, match="counts must be a"):
        policy_posterior(prior, np.zeros(2))


def test_policy_posterior_adds_the_count_matrix():
    # The posterior reads a task's demonstrations only as its (S, A) count
    # matrix: the update is the prior plus that matrix, bit for bit, and any
    # other shape is refused.
    rng = np.random.default_rng(19)
    for _ in range(50):
        n_states, n_actions = rng.integers(1, 6, size=2)
        prior = PolicyDirichletPrior(rng.uniform(0.1, 3.0, size=(n_states, n_actions)))
        counts = rng.integers(0, 20, size=(n_states, n_actions)).astype(float)
        posterior = policy_posterior(prior, counts)
        assert np.array_equal(posterior.concentration, prior.concentration + counts)
        for shape in ((n_states,), (n_states, n_actions + 1)):
            with pytest.raises(ValueError, match="counts must be a"):
                policy_posterior(prior, np.zeros(shape))


def test_sample_policies_shape_and_mean():
    prior = PolicyDirichletPrior(np.array([[6.0, 2.0], [1.0, 3.0]]))
    draws = sample_policies(prior, 2000, substream(0, "pols"))
    assert draws.shape == (2000, 2, 2)
    assert np.allclose(draws.sum(axis=2), 1.0, atol=1e-9)
    assert np.allclose(draws.mean(axis=0), prior.mean().action_probs, atol=5e-2)


def test_exponential_interval_validation():
    with pytest.raises(ValueError):
        OptimalityPrior(-1.0)



def _concentrations(kind: str, n_rows: int, n_states: int) -> np.ndarray:
    rng = np.random.default_rng(31)
    small = rng.uniform(0.005, 0.099, size=(n_rows, n_states))
    large = rng.uniform(0.1, 3.0, size=(n_rows, n_states))
    if kind == "small":
        return small
    if kind == "large":
        return large
    if kind == "alternating":
        return np.where((np.arange(n_rows) % 2 == 0)[:, None], small, large)
    # The hyperprior's law: about one 5-state row in ten stick-breaks.
    return rng.gamma(1.0, size=(n_rows, n_states)) / 10.0


@pytest.mark.parametrize("kind, n_rows, n_states", [
    ("small", 40, 5), ("large", 40, 5), ("alternating", 41, 5), ("hyperprior", 3000, 5),
    ("small", 1, 4), ("large", 1, 4), ("small", 7, 1), ("large", 7, 1),
    ("alternating", 9, 1), ("alternating", 9, 2), ("hyperprior", 200, 2), ("large", 3000, 8),
])
def test_dirichlet_rows_match_per_row_dirichlet(kind, n_rows, n_states):
    conc = _concentrations(kind, n_rows, n_states)
    fast, slow = np.random.default_rng(8), np.random.default_rng(8)
    drawn = _dirichlet_rows(fast, conc)
    expected = dirichlet_rows_reference(slow, conc)
    assert drawn.shape == (n_rows, n_states)
    assert np.array_equal(drawn, expected)
    # Both generators stand at the same stream position afterwards.
    assert np.array_equal(fast.random(4), slow.random(4))


def test_dirichlet_rows_cover_both_of_numpys_draws():
    conc = _concentrations("hyperprior", 3000, 5)
    small = conc.max(axis=1) < 0.1
    assert 0 < small.sum() < small.size
    assert np.count_nonzero(small[1:] != small[:-1]) > 100


@pytest.mark.parametrize("conc", [
    [[1.0, 0.0]], [[1.0, -0.5]], [[1.0, np.nan]], [[1.0, np.inf]], [0.5, 0.5], [[]],
], ids=["zero", "negative", "nan", "inf", "one-dimensional", "no-states"])
def test_dirichlet_rows_reject_bad_concentrations(conc):
    with pytest.raises(ValueError):
        _dirichlet_rows(np.random.default_rng(0), np.array(conc, dtype=float))
