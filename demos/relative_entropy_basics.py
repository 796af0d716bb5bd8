"""From detection scenario to relative-entropy moments.

Walks the first half of the pipeline: build the two hypothesis states
(thermal background vs displaced thermal return), compute D and V from the
general Gaussian formulas, and confirm the thermal closed forms.
"""

import numpy as np

from steinradar import (
    ThermalScenario,
    gibbs_matrix,
    rel_entropy,
    rel_entropy_variance,
    scenario_states,
    thermal_closed_forms,
)

# A bright-background scenario: 600 thermal photons, unit SNR.
scenario = ThermalScenario(nb=600.0, eta=1.0, ns=600.0)
print(f"scenario: nb={scenario.nb}, eta={scenario.eta}, ns={scenario.ns}")
print(f"SNR gamma = eta*ns/nb = {scenario.snr}")

rho0, rho1 = scenario_states(scenario)
print("\nH0 state: mean", rho0.mean, " cm diag", np.diag(rho0.cm))
print("H1 state: mean", rho1.mean, " cm diag", np.diag(rho1.cm))

# The Gibbs matrix of a thermal state is ln((nb+1)/nb) * I; it is the
# matrix exponent entering every relative-entropy formula.
g = gibbs_matrix(rho0)
print("\nGibbs matrix of the background state:\n", g)
print("scalar check ln(601/600) =", np.log(601.0 / 600.0))

# General formulas vs thermal closed forms.
d = rel_entropy(rho0, rho1)
v = rel_entropy_variance(rho0, rho1)
closed = thermal_closed_forms(scenario)
print(f"\nD  general formula: {d:.15f}")
print(f"D  closed form    : {closed.d:.15f}")
print(f"V  general formula: {v:.15f}")
print(f"V  closed form    : {closed.v:.15f}")

# At bright background the moments collapse onto (gamma, 2*gamma).
d0, v0 = scenario.snr, 2.0 * scenario.snr
print(f"\nlarge-nb expansion: D ~ {d0}, V ~ {v0}")
print(f"relative deviation: {abs(d - d0) / d0:.2e} and {abs(v - v0) / v0:.2e}")
