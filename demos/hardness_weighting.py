"""How the robust loss weights hard negatives, and where temperature comes from.

Walks through a single anchor with a handful of negatives:

  1. the worst-case weighting over a KL ball concentrates on hard negatives,
     and the concentration grows with the radius rho;
  2. the dual of that max problem is a temperature-scaled log-sum-exp, and
     its minimizer over tau matches the primal value to solver precision;
  3. the optimal temperature tracks the spread of the hardness scores, so
     different anchors earn different temperatures.
"""

import numpy as np

from rgcl import RgclConfig, kl_uniform, p_star, primal_rgcl_value
from rgcl.oracle import solve_dual_tau, solve_primal

# one easy negative, one medium, one hard (similarity gap to the positive)
h = np.array([-2.0, -1.0, 0.0])
tau0 = 0.05

print("hardness scores:", h)
print()
print("worst-case weights as the KL radius grows")
print("%6s  %8s %8s %8s  %8s" % ("rho", "p_easy", "p_med", "p_hard", "KL"))
for rho in (0.01, 0.05, 0.2, 0.5, 1.0):
    sol = solve_primal(h, rho, tau0)
    print("%6.2f  %8.4f %8.4f %8.4f  %8.4f"
          % (rho, sol.p[0], sol.p[1], sol.p[2], kl_uniform(sol.p)))
print()
print("at rho -> 0 the weights are uniform; at large rho nearly all mass")
print("sits on the hardest negative.")
print()

# duality: minimizing the tau-scaled log-sum-exp over tau recovers the
# primal worst case, and the minimizer is the anchor's temperature
rho = 0.3
cfg = RgclConfig(rho=rho, tau0=tau0, tau_init=tau0)
tau_star, dual_value = solve_dual_tau(h, cfg)
sol = solve_primal(h, rho, tau0)
print("rho = %.2f" % rho)
print("primal worst-case value %.10f" % sol.value)
print("dual minimum            %.10f" % dual_value)
print("gap %.2e, optimal temperature %.4f (box is [%.2f, %.2f])"
      % (abs(dual_value - sol.value), tau_star, cfg.tau0, cfg.tau_max))
print()

# cross-check the primal value through the explicit objective
explicit = primal_rgcl_value(h, sol.p, tau0)
print("explicit primal objective at the solver weights: %.10f" % explicit)
print()

# temperature individualization: the optimal tau is invariant to shifting
# all scores together and responds to their spread.  Anchors whose
# negatives are uniformly hard (tightly bunched scores) pin tau at the
# floor tau0; a wide spread of hardness earns a larger temperature
print("temperature tracks the spread of the hardness scores")
print("%27s  %8s" % ("hardness scores", "tau*"))
for scale in (0.1, 0.5, 1.0, 2.0):
    tau_s, _ = solve_dual_tau(h * scale, cfg)
    print("%27s  %8.4f" % (np.array2string(h * scale), tau_s))
print()
print("the softmax weights at tau* match the primal worst case:")
print("  p(tau*) =", np.round(p_star(h, tau_star), 4))
print("  primal  =", np.round(sol.p, 4))
