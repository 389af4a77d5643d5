"""Branch enumeration, the three collapse models side by side, and sampling.

The joint outcome distribution is always computed exactly, by enumerating
collapse branches and projector readouts; sampling exists purely to
demonstrate what repeat-until-halt operation would look like.
"""

import numpy as np

from wignersim import (
    NO_COLLAPSE,
    OBJECTIVE_COLLAPSE,
    CollapseModel,
    branch_decomposition,
    evolve,
    frauchiger_renner,
    post_select,
)

spec = frauchiger_renner()

print("Single-node branch enumeration: F1 measuring the biased coin")
for label, p, branch in branch_decomposition(spec.initial, spec.steps[0].iso):
    print(f"  outcome {label}: probability {p:.6f}, branch {branch}")
print()

print("Joint distribution over (F1, F2, A, W) under the three models")
models = [NO_COLLAPSE, OBJECTIVE_COLLAPSE, CollapseModel.subjective("F1")]
joints = {m.tag: evolve(spec, m) for m in models}
assignments = list(joints["ism"].probs)
for tag, joint in joints.items():
    extra = sorted(set(joint.probs) - set(assignments), key=str)
    assignments += extra
header = f"  {'assignment':<24}" + "".join(f"{tag:>12}" for tag in joints)
print(header)
for assignment in assignments:
    row = f"  {str(assignment):<24}"
    for joint in joints.values():
        row += f"{joint.probs.get(assignment, 0.0):>12.5f}"
    print(row)
print()

print("Halting round (A=o and W=O), probability per model:")
for tag, joint in joints.items():
    print(f"  {tag:<10} {joint.probability(dict(spec.halting)):.6f}")
print()

halted = post_select(joints["ism"], dict(spec.halting))
print("Conditioned on halting (no-collapse account), the friends' records are")
print("uniform; the superobserver measurements erased their correlations:")
for assignment, p in halted.probs.items():
    print(f"  {assignment}  {p:.5f}")
print()

print("Seeded demonstration run (the distribution itself is exact; this is")
print("what a lab notebook of repeated rounds would show):")
rng = np.random.Generator(np.random.Philox(key=2024))
entries = list(joints["ism"].probs.items())
cdf = np.cumsum([p for _, p in entries])
cdf[-1] = 1.0
shots = 60000
counts = np.bincount(
    np.searchsorted(cdf, rng.random(shots), side="right"), minlength=len(entries)
)
halting = dict(spec.halting)
halt_count = sum(
    int(c) for (a, _), c in zip(entries, counts) if a.matches(halting)
)
print(f"  {shots} rounds, halted {halt_count} times "
      f"(frequency {halt_count / shots:.5f}, exact 1/12 = {1 / 12:.5f})")
