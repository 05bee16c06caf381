"""A full stability run on one tower of modules.

We build the tower M(S^lambda) for lambda = (1): degree n carries the
module induced from the one-dimensional Specht module of H_1 along the
distinguished coset representatives.  Then we measure everything the
theory predicts about it: where the comparison maps become injective
and surjective, the weight, the multiplicity table, and the onset of
uniform stability.
"""

from heckestab import (
    build_M_specht,
    degrees,
    is_uniformly_stable,
    multiplicity_table,
    partition_label,
    weight,
)

V = build_M_specht((1,), 6)
print("tower:", V.label)
print("dims :", V.dims())

# Comparison maps between coinvariant spaces.  For this tower they are
# injective from the start and surjective from degree 1 on, so the
# stability degree is 1.
report = degrees(V, a_max=2)
print("injective from :", report["injective_degree"])
print("surjective from:", report["surjective_degree"])
print("stability degree:", report["stability_degree"])

# Weight = largest partition size appearing in any decomposition.
print("weight:", weight(V))

# The multiplicity table, rows keyed by the unpadded shape.  Each row
# becomes constant once n is large enough; that is the point.
table = multiplicity_table(V)
for key in sorted(table["rows"], key=lambda k: (sum(k), k)):
    label = partition_label(key) or "(empty)"
    print(f"  {label:8s} {table['rows'][key]}")

# The packaged verdict: stable, with the observed onset no later than
# the predicted bound lambda_1 + |lambda| = 2.
verdict = is_uniformly_stable(V, a_max=2)
print("stable:", verdict["stable"])
print("observed onset:", verdict["observed_N"], "predicted bound:", verdict["predicted_bound"])
