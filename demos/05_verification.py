"""The verification suite and the JSON atlas.

verify_relations replays every shipped identity three ways: the normal
form of lhs - rhs, and the images under the restriction rho, the
fixed-point map, and the restriction to the fixed-set components.  audit_full adds the
Mackey axioms, homomorphism multiplicativity on random products, the
confluence probe, and the additive rank law.
"""

import warnings

from c2quadrics import RestrictedGradingWarning, audit_full, make_quadric, verify_relations
from c2quadrics.atlas import atlas_document, dump_atlas, load_atlas

warnings.simplefilter("ignore", RestrictedGradingWarning)

for m, n in [(5, 3), (4, 3), (3, 4), (4, 4)]:
    rep = verify_relations(make_quadric(m, n))
    print("Q^{%d,%d}:" % (m, n))
    for row in rep["identities"]:
        print("   %-14s nf=%s rho=%s eta=%s phi=%s -> %s" % (
            row["identity"], row["nf_zero"], row.get("rho", "-"),
            row.get("eta", "-"), row.get("phi", "-"), row["status"],
        ))

print("\nfull audit of Q^{3,3}:")
rep = audit_full(make_quadric(3, 3), seed=1, samples=60, probe_samples=80)
for name, chk in sorted(rep["checks"].items()):
    print("   %-20s %s" % (name, "pass" if chk["ok"] else "FAIL"))

print("\natlas round trip:")
doc = atlas_document(["quadric:3,3", "quadric:2,2", "proj:1,1"], seed=0)
text = dump_atlas(doc)
again = dump_atlas(load_atlas(text))
print("   %d bytes, deterministic re-emit: %s" % (len(text), text == again))
