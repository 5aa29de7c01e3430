"""Planning on the chain benchmark.

Builds the default 5-state chain (advance may slip two states forward,
reset returns to the start, only the ends pay reward), solves it exactly,
and compares the optimal policy against always-reset and against softmax
demonstrators of varying determinism.
"""

import numpy as np

from multitask_irl import (
    ADVANCE,
    RESET,
    StationaryPolicy,
    batch_solve_optimal,
    l1_loss,
    make_chain,
    make_demonstrator,
)


def main():
    mdp = make_chain()
    print(f"chain: {mdp.cmp.n_states} states, {mdp.cmp.n_actions} actions, "
          f"discount {mdp.discount}")
    print(f"rewards by state: {mdp.reward.values}")

    # The planner solves a batch of reward vectors; this one is a batch of one.
    (values,), (actions,), (q,) = batch_solve_optimal(mdp.cmp.transition, mdp.reward.values[None],
                                                      mdp.discount)
    names = {ADVANCE: "advance", RESET: "reset"}
    print("\noptimal values and actions:")
    for s, (v, a) in enumerate(zip(values, actions)):
        print(f"  state {s}: V* = {v:7.3f}  act = {names[a]}")

    n = mdp.cmp.n_states
    reset_probs = np.zeros((n, 2))
    reset_probs[:, RESET] = 1.0
    always_reset = StationaryPolicy(reset_probs)
    print(f"\nalways-reset loss (sum of per-state value gaps): "
          f"{l1_loss(mdp, always_reset):.3f}")

    print("\nsoftmax demonstrators (sharper temperature, smaller loss):")
    for eta in (0.5, 2.0, 8.0):
        demon = make_demonstrator("softmax", mdp, eta=eta)
        adv = demon.action_probs[:, ADVANCE]
        print(f"  eta {eta:4.1f}: loss {l1_loss(mdp, demon):7.3f}  "
              f"P(advance) by state {np.round(adv, 3)}")
    print(f"\n(the advantage of advancing, Q[s,advance] - Q[s,reset]: "
          f"{np.round(q[:, ADVANCE] - q[:, RESET], 3)})")


if __name__ == "__main__":
    main()
