"""Local structure at the singular points: exact Hessians and their links.

Around each abelian point the variety is cut out, in an equivariant
chart, by one function whose Hessian is the exact integer pairing
(-1)^(n-1) [[0, A], [A^T, 0]].  Certifying det(A) odd and Pf(A)^2 =
det(A) in integer arithmetic pins the local model: the cone on
(S^(2n-3) x S^(2n-3))/S^1.  The link sampler emits plot-ready points of
that quotient; its real slice is the RP^(2n-3) link of the binary
dihedral locus.
"""

import numpy as np

from charvar.morse import (
    certify_hessian_combinatorics,
    certify_hessian_numeric,
    eval_chart_g,
    fd_hessian,
    hessian_block,
    link_csv,
    link_samples,
    matrix_A,
    pfaffian_exact,
    tau,
)

print("== the pairing matrix and its exact certificates ==")
print("A(3) =")
print(matrix_A(3))
for n in range(2, 9):
    r = certify_hessian_combinatorics(n)
    print(f"  n = {n:2d}: det(A) = {r.det_A}, Pf(A) = {r.pfaffian}, "
          f"B^2 = I over F2: {r.b_squared_identity_mod2}")

print()
print("== finite differences agree with the integer block ==")
for n in (2, 3, 4):
    err = np.max(np.abs(fd_hessian(n) - hessian_block(n)))
    rep = certify_hessian_numeric(n)
    print(f"  n = {n}: max entry error {err:.2e}, "
          f"eigenvalue counts ({rep.eig_positive}, {rep.eig_negative})")

print()
print("== chart symmetries ==")
rng = np.random.default_rng(11)
zs = 0.4 * (rng.normal(size=4) + 1j * rng.normal(size=4))
print(f"  g(zs)        = {eval_chart_g(3, zs):+.6e}")
print(f"  g(conj zs)   = {eval_chart_g(3, tau(zs)):+.6e}  (anti-symmetric)")
theta = 1.234
from charvar.morse import s1_orbit

print(f"  g(e^2it zs)  = {eval_chart_g(3, s1_orbit(zs, theta)):+.6e}  (circle-invariant)")
real = rng.normal(size=4).astype(complex)
print(f"  g on a real slice point = {eval_chart_g(3, real):+.1e}  (exactly zero: the RP^3 sublink)")

print()
print("== sampling the link of the singular point, n = 3 ==")
zs = link_samples(3, 5, np.random.default_rng(12), refine=True)
for z, real in zip(zs, np.all(zs.imag == 0.0, axis=-1)):
    print(f"  |zs| - 1 = {abs(np.linalg.norm(z) - 1):.1e}, "
          f"g(zs) = {eval_chart_g(3, z):+.1e}, real: {real}")
print()
print("plot-ready CSV:")
print(link_csv(zs[:2]))
