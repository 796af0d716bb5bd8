"""The classical benchmark: coherent pulses with heterodyne detection.

The mis-detection probability of the classical receiver is a Marcum-Q tail,
p_MD = 1 - Q(sqrt(2 gamma), sqrt(-2 ln p_fa)).  Q and its complement come
from two positive-term series, so neither end of the scale loses digits.
"""

import math

from steinradar import MarcumArgs, heterodyne_log_pmd, marcum_q

# Q and P from their own series; the pair sums to one by construction.
q, p = marcum_q(MarcumArgs(1.0, 2.0))
print(f"Q(1,2) = {q:.12f},  P(1,2) = {p:.12f},  q+p-1 = {q + p - 1:.2e}")

# Closed form at zero signal: Q(0, y) = exp(-y^2/2).
q0, _ = marcum_q(MarcumArgs(0.0, 3.0))
print(f"Q(0,3) = {q0:.12f}  vs exp(-4.5) = {math.exp(-4.5):.12f}")

# Benchmark exponents across SNR: at gamma -> 0 detection degenerates to
# pure false-alarm statistics, -ln(1 - p_fa); at large gamma the log-domain
# route keeps going long after p_MD underflows.
p_fa = 1e-3
print(f"\nheterodyne benchmark at p_fa = {p_fa}:")
for snr_db in (-20.0, -10.0, 0.0, 10.0, 20.0, 40.0):
    gamma = 10.0 ** (snr_db / 10.0)
    ln_pmd = heterodyne_log_pmd(gamma, p_fa)
    print(f"  {snr_db:+5.0f} dB: ln p_MD = {ln_pmd:14.6f}   exponent {-ln_pmd:.6f}")
print(f"  gamma->0 limit: ln(1-p_fa) = {math.log1p(-p_fa):.8f}")
