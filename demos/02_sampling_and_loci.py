"""Sampling the traceless variety and reading off its stratification.

R(S^2, k) is the space of k-tuples of pure unit quaternions with product
1, up to global conjugation.  The sampler draws points of the variety
directly; the rank of the meridian directions then separates the three
strata: abelian (rank <= 1, finitely many points), binary dihedral
(rank 2, a torus family), and generic (rank 3, the smooth part).
"""

from collections import Counter

import numpy as np

from charvar.rep import fingerprint, fingerprint_batch, fingerprint_digest, fingerprint_distances
from charvar.variety import (
    LOCUS_NAMES,
    deform,
    enumerate_abelian,
    eval_f,
    local_dimension,
    locus_ranks,
    sample_point,
    sample_points,
    submersion_certificate,
)

rng_for = lambda *path: np.random.default_rng(path)


def loci(k, *path, count):
    """The locus of each of `count` samples, sample i drawn from (*path, i)."""
    points = sample_points(k, [rng_for(*path, i) for i in range(count)])
    return Counter(LOCUS_NAMES[rank] for rank in locus_ranks(points).tolist())


print("== the three loci at k = 6 ==")
tally = loci(6, 2, count=300)
for label, count in sorted(tally.items()):
    print(f"  {label:16s} {count}")
print("(random sampling lands on the 4-dimensional generic stratum)")

print()
print("== the abelian census ==")
for k in (4, 6, 8):
    points = enumerate_abelian(k)
    digests = {fingerprint_digest(values) for values in fingerprint_batch(points)}
    print(f"  k = {k}: {len(points)} abelian classes, {len(digests)} distinct digests")

print()
print("== small k is rigid ==")
fp3 = fingerprint_batch(sample_points(3, [rng_for(3, i) for i in range(50)]))
spread = fingerprint_distances(fp3, fp3[0]).max()
print(f"  k = 3: fingerprint spread over 50 samples = {spread:.2e} (a single class)")
tally4 = loci(4, 4, count=200)
print(f"  k = 4: loci seen in 200 samples: {dict(tally4)} (nothing generic)")

print()
print("== a submersion certificate at a generic point ==")
sample = sample_point(6, rng_for(5, 0))
partial = sample.meridians[:-1]
cert = submersion_certificate(partial)
print(f"  moved meridian     : {cert.moved}")
print(f"  analytic derivative: {cert.derivative:+.6f}")
h = 1e-5
fd = (eval_f(deform(partial, cert, h)) - eval_f(deform(partial, cert, -h))) / (2 * h)
print(f"  finite difference  : {fd:+.6f}")
print(f"  constraint rank    : {cert.jacobian_rank}")
print(f"  local dimension    : {local_dimension(sample)} (= 2k - 6 at k = 6)")

print()
print("== fingerprints are the conjugacy invariant ==")
fp = fingerprint(sample)
print(f"  {len(fp.labels)} word traces; first five:")
for label, value in list(zip(fp.labels, fp.values))[:5]:
    print(f"    re({label}) = {value:+.6f}")
print(f"  digest: {fingerprint_digest(fp.values)}")
