"""Displaced-number-state sums: transition probabilities and the third moment.

The third-order correction to the detection bounds needs the distribution of
the log-likelihood ratio, which lives on the joint photon statistics of a
thermal state before and after displacement.  This demo pokes at the pieces:
single transition probabilities, truncation control, and the certified
third moment.
"""

import math

from steinradar import (
    ThermalScenario,
    TruncationPolicy,
    spectral_oracle,
    thermal_closed_forms,
    third_moment,
    transition_prob,
)

# |<k|D|l>|^2 at displacement energy x: for l = 0 this is a Poisson law.
x = 1.0
print("transition probabilities at x =", x)
for k in range(5):
    poisson = math.exp(-x) * x**k / math.factorial(k)
    print(f"  k={k}: P(k,0) = {transition_prob(k, 0, x):.10f}   Poisson {poisson:.10f}")

# Symmetry: the displacement matrix elements only depend on (min, |k-l|).
print("\nP(7, 3, 2.5) =", transition_prob(7, 3, 2.5))
print("P(3, 7, 2.5) =", transition_prob(3, 7, 2.5))

# The policy's tail tolerance bounds the probability mass, and the share of
# T, that the certified support window of k - l may drop: a tighter
# tolerance widens the window.  A window past the index cap raises
# CapExceeded instead of truncating silently.
scenario = ThermalScenario(nb=600.0, eta=1.0, ns=600.0)
print()
for tol in (1e-4, 1e-10, 1e-15):
    res = third_moment(scenario, TruncationPolicy(tail_tol=tol))
    print(f"tail_tol={tol:.0e}: T = {res.t:.12f}, captured mass = {res.captured_mass:.16f}")

# The certified third moment, summed over the Skellam law of k - l: the
# captured-mass diagnostic makes truncation bugs loud instead of silent.
policy = TruncationPolicy(tail_tol=1e-10)
result = third_moment(scenario, policy)
print(f"\nT(nb=600, gamma=1) = {result.t:.9f}")
print(f"captured probability mass = {result.captured_mass:.15f}")

# The same joint distribution, summed from Laguerre transition probabilities,
# must reproduce D and V of the closed forms and T of the Skellam route.
closed = thermal_closed_forms(scenario)
oracle = spectral_oracle(scenario, policy)
print(f"\nD: spectral sum {oracle.d:.12f}  closed form {closed.d:.12f}")
print(f"V: spectral sum {oracle.v:.12f}  closed form {closed.v:.12f}")
print(f"T: spectral sum {oracle.t:.12f}  Skellam law {result.t:.12f}")
