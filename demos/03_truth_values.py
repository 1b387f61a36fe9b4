"""Contextual truth values.

Instead of a probability, a proposition "A has value in S" gets a
truth value that is a lower set of contexts: the collection of
classical perspectives from which the proposition already holds.
Two routes compute it, via the pseudo-state or via the truth object,
and they always agree.
"""
import numpy as np

from qtopos.contexts import build_poset, builtin_scenario
from qtopos.quantum import (
    spectral_presheaf,
    truth_object,
    truth_value_pseudo,
    truth_value_truthobject,
)

ZPLUS = np.array([1.0, 0.0])
P_ZPLUS = np.diag([1.0, 0.0])
P_XPLUS = np.array([[0.5, 0.5], [0.5, 0.5]])

_, _, maximal = builtin_scenario("pauli2")
poset = build_poset(maximal)
presheaf = spectral_presheaf(poset)
labels = {c.key: c.label for c in poset.contexts}


def show(name, projector):
    via_state = truth_value_pseudo(projector, ZPLUS, presheaf)
    via_tobj = truth_value_truthobject(projector, ZPLUS, poset)
    assert via_state == via_tobj
    holds = [labels[k] for k in via_state.sorted_members]
    total = len(via_state.members) == len(poset.contexts)
    print(f"  [{name}] holds in {holds or 'no contexts'}"
          f"{'  (totally true)' if total else ''}")


print("state |z+>, proposition P = |z+><z+|:")
show("certain", P_ZPLUS)

print("\nstate |z+>, proposition P = |x+><x+|:")
show("partial", P_XPLUS)
print("""
The second proposition is not simply false: from the sz and sy
perspectives its outer approximation is the identity, so those
contexts affirm it, while the sx context does not. The truth value
is the lower set of affirming contexts, not a number in [0, 1].""")

tobj = truth_object(ZPLUS, poset)
print("\nthe truth object of |z+>, per context: the block sums it holds\n"
      "(bit i of a mask: block i is in the sum)")
for c in poset.contexts:
    held = [mask for mask in range(1, 2 ** len(c.ids)) if tobj.contains(c.key, mask)]
    print(f"  [{labels[c.key] or c.key}] block masks {held}")
