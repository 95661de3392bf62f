"""The two-fold branched cover R(S^2, 6) -> R(F_2).

Consecutive meridian pairs of a 6-punctured representation multiply into
four surface-group generators; the induced map on conjugacy classes is
2-to-1 away from the binary dihedral locus and 1-to-1 on it.  An explicit
section lifts any surface class back: solve six tracelessness conditions
at once (the case-ladder solver), then telescope the remaining meridians.
"""

import numpy as np

from charvar.cover import extend, fiber, lemma52_detailed, pushforward, section_inputs
from charvar.quat import I, J, K, ONE, exp_pure
from charvar.rep import PuncturedSphereRep, bd_from_angles, fingerprint, make_rep
from charvar.variety import classify_locus, sample_point

rng_for = lambda *path: np.random.default_rng(path)

print("== pushforward: meridian pairs become surface generators ==")
rho = sample_point(6, rng_for(7, 0))
surface = pushforward(rho)
for name, g in zip(("r1", "s1", "r2", "s2"), surface.generators()):
    print(f"  {name} = {np.round(g, 4)}")

print()
print("== the case-ladder solver behind the section ==")
for inputs, story in (
    ((I, J, -J, -I), "a noncommuting first pair"),
    ((ONE, ONE, ONE, ONE), "all central"),
    (tuple(exp_pure(t, I) for t in (0.3, 1.1, -0.4, 2.0)), "a common axis"),
):
    sol = lemma52_detailed(*inputs)
    print(f"  {story:26s}: branch {sol.branch}, x = {np.round(sol.x, 4)}, "
          f"max residual {sol.residuals.max():.1e}")
a, b, c, d, _ = section_inputs(np.stack(surface.generators()))
sol = lemma52_detailed(a, b, c, d)
print(f"  {'a generic surface class':26s}: branch {sol.branch}, "
      f"max residual {sol.residuals.max():.1e}")

print()
print("== extend, then push back: the round trip ==")
for sign in (1, -1):
    lift = pushforward(extend(surface, sign))
    worst = max(float(np.linalg.norm(g1 - g2))
                for g1, g2 in zip(surface.generators(), lift.generators()))
    print(f"  sign {sign:+d}: generator residual {worst:.2e}")

print()
print("== a generic fiber holds exactly two classes ==")
report = fiber(surface)
print(f"  classes found : {len(report.classes)}")
print(f"  separation    : {report.separation:.4f}")
# alpha* negates every meridian
want = fingerprint(make_rep(-rho.meridians))
got = min(c.distance(want) for c in report.classes)
print(f"  one matches alpha*(rho) to {got:.2e} (the other is rho itself)")

print()
print("== over the binary dihedral locus the sheets merge ==")
bd = bd_from_angles(np.array([[0.8, 2.0, 3.1, 4.7]]))
bd_surface = pushforward(PuncturedSphereRep(bd[0]))
bd_report = fiber(bd_surface)
print(f"  on_branch = {bd_report.on_branch}, classes = {len(bd_report.classes)}")
print(f"  witness locus: {classify_locus(bd_report.witnesses[0]).label}")

print()
print("== the trivial surface class lifts to the alternating j's ==")
from charvar.rep import make_surface_rep

lift = extend(make_surface_rep(ONE, ONE, ONE, ONE), 1)
print(" ", np.round(lift.meridians, 3).tolist())
