"""The reward-and-temperature posterior against exact enumeration.

On a two-state chain with two candidate rewards (near state favored vs
far state favored) and a known softmax temperature, the posterior over
the candidates has a closed form, so both samplers can be checked against
it directly: importance sampling hits it to Monte Carlo accuracy, and the
Metropolis chain's atom frequencies converge to the same numbers.
"""

import numpy as np

from multitask_irl import (
    DiscreteRewardPrior,
    FixedHyperprior,
    FixedTemperature,
    Mdp,
    RewardFunction,
    chain_transition,
    counts_log_likelihood,
    demo_counts,
    make_demonstrator,
    mtpp_mc,
    mtpp_mh,
    simulate,
    substream,
)

ATOMS = np.array([[1.0, 0.0], [0.0, 1.0]])
ETA = 0.5
DISCOUNT = 0.95


def exact_posterior(cmp, demo):
    # Two candidates with equal prior: posterior is proportional to the
    # softmax demonstrator likelihood of each.
    logs = []
    for atom in ATOMS:
        mdp = Mdp(cmp, RewardFunction(atom), DISCOUNT)
        policy = make_demonstrator("softmax", mdp, eta=ETA)
        logs.append(counts_log_likelihood(demo_counts([demo], 2, 2), policy.action_probs))
    logs = np.array(logs)
    w = np.exp(logs - logs.max())
    return w / w.sum()


def atom_frequencies(ensemble):
    rewards = ensemble.rewards[:, 0, :]
    freqs = np.array([
        np.all(np.abs(rewards - atom[None, :]) < 1e-9, axis=1)
        for atom in ATOMS
    ], dtype=float)
    return freqs @ ensemble.weights


def main():
    cmp = chain_transition(2, 0.1)
    truth = Mdp(cmp, RewardFunction(ATOMS[1]), DISCOUNT)
    teacher = make_demonstrator("softmax", truth, eta=ETA)
    hyper = FixedHyperprior(DiscreteRewardPrior(ATOMS), FixedTemperature(ETA))

    print("true reward favors the far state; P(far-state atom) by method:\n")
    print(f"{'steps':>6} {'exact':>8} {'IS (K=4000)':>12} {'MH (8000 it)':>13}")
    for horizon in (2, 10, 50):
        demo = simulate(truth, teacher, horizon, substream(7, "demo", horizon))
        exact = exact_posterior(cmp, demo)[1]
        mc = mtpp_mc(cmp, [demo], hyper, 4000, DISCOUNT, 1)
        mh = mtpp_mh(cmp, [demo], hyper, 8000, 1, DISCOUNT, 2)
        print(f"{horizon:>6} {exact:>8.4f} {atom_frequencies(mc)[1]:>12.4f} "
              f"{atom_frequencies(mh)[1]:>13.4f}")
    print("\nlonger demonstrations concentrate the posterior on the truth,")
    print("and both samplers track the enumerated value.")


if __name__ == "__main__":
    main()
