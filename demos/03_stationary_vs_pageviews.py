# Why stationary distributions beat page-view counts as behavior features.
#
# Two traces over the states A, B, C with identical page views (2, 2, 2):
# one cycles A->B->C twice, the other dwells in blocks AA BB CC. The
# page-view vector cannot tell them apart; the stationary distribution
# of the fitted chain can, because it sees the transition structure.

import numpy as np

from trailmine import (
    build_transition_model,
    count_transitions,
    page_view_vector,
    stationary_distribution,
)

cyclic = [0, 1, 2, 0, 1, 2]   # A B C A B C
blocky = [0, 0, 1, 1, 2, 2]   # A A B B C C

for name, trace in (("cyclic ABCABC", cyclic), ("blocky AABBCC", blocky)):
    print(f"{name}: transition counts\n{count_transitions(trace, 3)}")
    print("  page views:", page_view_vector(trace, 3))

# each step returns a plain array: counts -> P -> (pi, residual);
# without smoothing the blocky chain has an absorbing final state
plain = build_transition_model(count_transitions(blocky, 3), alpha=0.0)
print("\nblocky row-normalized matrix (alpha=0):")
print(np.round(plain, 3))

# the teleport weight connects every state pair, so a unique stationary
# distribution exists for any trace; it solves pi (P - I) = 0 with
# sum(pi) = 1 in place of the last equation
alpha = 0.15
pis = {}
for name, trace in (("cyclic", cyclic), ("blocky", blocky)):
    P = build_transition_model(count_transitions(trace, 3), alpha=alpha)
    pis[name], residual = stationary_distribution(P)
    print(f"\n{name}: stationary distribution {np.round(pis[name], 4)} "
          f"(direct solve, residual ||pi P - pi||_1 = {residual:.1e})")

print(f"\nsame page views, stationary l1 distance = "
      f"{np.abs(pis['cyclic'] - pis['blocky']).sum():.3f}")
