"""The policy-optimality posterior, from loss matrix to reward estimate.

Instead of modeling how a demonstrator randomizes, this model assumes each
demonstrated policy is within a random slack of optimal for the true
reward. Candidate rewards whose optimal value the demonstrations approach
gain mass. The walkthrough builds the pieces by hand on a 3-state chain,
then runs the end-to-end sampler and prices the posterior-mean reward.
"""

import numpy as np

from multitask_irl import (
    Mdp,
    OptimalityPrior,
    PolicyDirichletPrior,
    RewardFunction,
    RewardHypothesisSet,
    build_loss_matrix,
    chain_transition,
    l1_loss,
    make_demonstrator,
    mtpo_mc,
    posterior_policy,
    reward_posterior,
    sample_policies,
    simulate,
    substream,
)

DISCOUNT = 0.95


def main():
    cmp = chain_transition(3, 0.0)
    hypotheses = RewardHypothesisSet(np.eye(3))
    truth = Mdp(cmp, RewardFunction([0.0, 0.0, 1.0]), DISCOUNT)
    print("3-state chain; candidate rewards pay one unit in exactly one state")

    # Hand-built route: sample policies from the prior, price every
    # (policy, hypothesis) pair, integrate out the slack.
    prior = PolicyDirichletPrior(np.ones((3, 2)))
    policies = sample_policies(prior, 200, substream(0, "policies"))
    matrix = build_loss_matrix(cmp, DISCOUNT, policies, hypotheses)
    print(f"\nloss matrix over {matrix.losses.shape[0]} prior policies x "
          f"{matrix.losses.shape[1]} hypotheses")
    print(f"  mean loss per hypothesis: {np.round(matrix.losses.mean(axis=0), 2)}")
    flat = reward_posterior(matrix, OptimalityPrior(1.0), hypotheses)
    print(f"  posterior from prior policies alone: "
          f"{np.round(flat.probabilities, 3)}")
    print("  (no demonstration evidence yet; mass just tracks which "
          "hypotheses\n   random policies happen to nearly optimize)")

    # End-to-end sampler: policies now come from the demo-updated prior.
    print("\nmtpo_mc posterior over hypotheses vs demonstration length:")
    teacher = make_demonstrator("softmax", truth, eta=6.0)
    for horizon in (5, 40, 200):
        d = simulate(truth, teacher, horizon, substream(1, "demo", horizon),
                     task_id=0)
        result = mtpo_mc(cmp, [d], prior, hypotheses=hypotheses,
                         n_policy_samples=400, discount=DISCOUNT, seed=3)
        post = result.posterior(0)
        print(f"  {horizon:>4} steps: {np.round(post.probabilities, 3)}")
        if horizon == 200:
            greedy = posterior_policy(result, 0, cmp, DISCOUNT)
            print(f"        posterior-mean-reward plan loss on the truth: "
                  f"{l1_loss(truth, greedy):.4f}")
    print("\nmass moves to the far-state hypothesis (last entry) as evidence")
    print("accumulates that the demonstrator is near-optimal for it.")


if __name__ == "__main__":
    main()
