"""Shifting a free tower splits it.

The shift of a tower by a re-reads degree n+a through the tail
generators of H_{n+a}.  For the free tower M(m) the shifted object is
again built from induced modules: one copy of M(m) itself plus a
complement generated no later than degree m-1.  The function below
performs the split in exact arithmetic and cross-checks every part.
"""

from heckestab import shift_decompose_Mm

report = shift_decompose_Mm(m=2, a=1, n_max=5)

print("shifted dims   :", report["shifted_dims"])
print("summand dims   :", report["summand_dims"], "(fresh copy of M(2))")
print("complement dims:", report["complement_dims"])
print("direct sum     :", report["direct_sum_ok"])
print("summand matches a freshly built M(2):", report["matches_fresh_Mm"])
print(
    "complement generated in degree",
    report["complement_generation_degree"],
    "<= m-1 =",
    report["m"] - 1,
    ":",
    report["bound_ok"],
)

# The complement is returned as a live tower, the one every call with the
# same (m, a, n_max) shares; it is never mutated, so it can be fed back
# into any of the measurement functions.
comp = report["complement"]
print("complement consistency:", comp.dims() == report["complement_dims"])
