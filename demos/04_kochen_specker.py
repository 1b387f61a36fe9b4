"""Global sections and the Kochen-Specker obstruction.

A global section picks one block per context, compatibly with every
restriction: a single classical reality all perspectives agree on.
For one qubit such sections exist. For the mermin-square family of
two-qubit observables an exhaustive search proves none exist.
"""
import itertools

import numpy as np

from qtopos.contexts import builtin_scenario
from qtopos.quantum import ks_search

_, _, maximal = builtin_scenario("pauli2")
res = ks_search(maximal, max_solutions=100)
print(f"pauli2: {res.status}, {len(res.sections)} sections, "
      f"{res.nodes_explored} nodes")
print("  (three independent 2-block contexts: 2^3 = 8 free choices)")

_, ops, maximal = builtin_scenario("mermin-square")
res = ks_search(maximal)
print(f"\nmermin-square: {res.status} after {res.nodes_explored} nodes")

# the classical shadow of the same fact: the nine observables admit
# no +/-1 assignment respecting the six triple products
names = sorted(ops)
lines = [t for t in itertools.combinations(names, 3)
         if all(np.allclose(ops[a] @ ops[b], ops[b] @ ops[a])
                for a, b in itertools.combinations(t, 2))]
signs = {t: round(np.trace(ops[t[0]] @ ops[t[1]] @ ops[t[2]]).real) // 4
         for t in lines}
ok = sum(all(v[a] * v[b] * v[c] == signs[(a, b, c)] for a, b, c in lines)
         for bits in itertools.product((1, -1), repeat=9)
         for v in [dict(zip(names, bits))])
print(f"\nsign-table cross-check: {ok} of 512 assignments satisfy all six")
print("products", {" ".join(t): int(s) for t, s in sorted(signs.items())})
print("""
Five products equal +1 and one equals -1, so the product of all six
row and column constraints is -1 while any pointwise assignment gives
each observable an even number of appearances, forcing +1. The survey
above confirms it: zero satisfying assignments, hence no section.""")
