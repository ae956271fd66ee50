"""Structural audits and barrier scans for prescription functions.

The solver only accepts targets that pass the structural conditions
(positivity, tilt inequality, growth, bounded space derivative,
convexity in the tilt) and that trap solutions between two slice radii
where tanh(r) crosses psi(r, xi, cosh r).  This demo audits the model
family and three engineered violators.
"""

import numpy as np

from dscurv import (AuditBox, ConstantPrescription, SpaceTiltPower,
                    TiltConcave, TiltPower, audit_structural, scan_barriers)

box = AuditBox(r_lo=0.05, r_hi=2.0, tau_max=20.0, dim=2)


def show(name, audit):
    flags = (f"pos={audit.positive} A={audit.pass_A} B={audit.pass_B} "
             f"C={audit.pass_C} D={audit.pass_D} E={audit.pass_E}")
    print(f"{name:<34} passed={str(audit.passed):<5} {flags}")
    if audit.barriers:
        print(f"{'':<34} barriers R1 = {audit.barriers[0]:.4f}, "
              f"R2 = {audit.barriers[1]:.4f}")
    for letter, items in audit.witnesses.items():
        w = items[0]
        print(f"{'':<34} witness[{letter}]: {w}")


show("0.5 tanh(r) tau^2 (model)",
     audit_structural(SpaceTiltPower(a0=0.5, a1=0.0, p=2.0), box))
print()
show("(0.5 + 0.1 cos phi) tanh(r) tau^2",
     audit_structural(SpaceTiltPower(a0=0.5, a1=0.1, p=2.0), box))
print()
show("tau^(1/2)  (tilt inequality fails)",
     audit_structural(TiltPower(coef=1.0, q=0.5), box))
print()
show("tau(2 - e^-tau)  (convexity fails)", audit_structural(TiltConcave(), box))
print()
show("constant 0.2  (no lower barrier)",
     audit_structural(ConstantPrescription(0.2), box))

print()
print("=== barrier scan for the model target ===")
scan = scan_barriers(SpaceTiltPower(a0=0.5, a1=0.0, p=2.0),
                     AuditBox(r_lo=0.1, r_hi=2.0, dim=2, scan_resolution=200))
r_star = np.log(1.0 + np.sqrt(2.0))
print(f"closed-form crossing of tanh r = 0.5 tanh(r) cosh^2(r): "
      f"r* = ln(1 + sqrt 2) = {r_star:.6f}")
print(f"scan: R1 = {scan.R1:.6f} < r* < R2 = {scan.R2:.6f}")
pattern = scan.sign_pattern()
print(f"sign pattern ('<' slice below, '>' above): "
      f"{pattern[:30]}...{pattern[-30:]}")
