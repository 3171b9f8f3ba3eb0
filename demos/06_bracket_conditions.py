"""Bracket generation and smoothness certificates for line integrals.

The frame fields span only the horizontal directions; one layer of
brackets fills the missing vertical direction, which is the rank
condition behind the smooth heat kernel.  For distributions of line
integrals, a recursive functional of the 1-form plays the same role:
its first nonvanishing value (scanned breadth-first) is a witness.
"""

import numpy as np

from crdiff import form_du, form_dt, heisenberg_model, smoothness_condition, span_rank, theta_form
from crdiff.brackets import index_label

m = heisenberg_model(1)
rng = np.random.default_rng(61)

print("rank of the real span at random points:")
points = rng.normal(size=(30, 3))
for order in (1, 2):
    ranks = np.unique(span_rank(m, points, order).rank).tolist()
    print(f"  fields and brackets up to order {order}: ranks {ranks} (chart dimension 3)")

table = span_rank(m, np.zeros(3), 2)
print("\nbracket table at the origin:")
for tag, vec in zip(table.tags, table.vectors):
    label = ",".join(index_label(a) for a in tag)
    print(f"  [{label}]: {np.round(vec, 6)}")
print(f"  singular values: {np.round(table.singular_values, 4)}")

print("\nsmoothness certificates at the origin:")
for form, order in ((form_du(1), 2), (form_dt(1), 2), (theta_form(m), 4)):
    ok, witness, value = smoothness_condition(m, form, np.zeros(3), order)
    if ok:
        tag = ",".join(index_label(a) for a in witness)
        print(f"  {form.name}: witness ({tag}), value {value:.3f}")
    else:
        print(f"  {form.name}: no witness up to order {order}")
