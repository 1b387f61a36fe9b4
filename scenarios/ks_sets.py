"""Write two Kochen-Specker sets as scenario files: ``peres33.json`` and
``cabello18.json``, beside this script.

Each ray becomes a rank-1 projector operator; each file also names the
projectors onto its first two rays and the uniform superposition state.  Peres' 33 rays in dimension 3
(A. Peres, J. Phys. A 24, L175, 1991) are every ray whose components,
up to order, sign and scale, are (0, 0, 1), (0, 1, 1), (0, 1, sqrt 2) or
(1, 1, sqrt 2).  Their groups are the 16 complete orthogonal triads plus
one two-operator group per orthogonal pair: a pair {u, w} generates the
context {u, w, 1 - u - w}.  Cabello, Estebaranz and Garcia-Alcaine's 18
vectors in dimension 4 (Phys. Lett. A 212, 183, 1996) lie in 9 orthogonal
bases, each vector in two of them; each basis is one group.

Run ``python3 scenarios/ks_sets.py`` from anywhere; it needs only numpy.
"""
import itertools
import json
import pathlib

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
R2 = np.sqrt(2.0)

CABELLO_BASES = [
    [(0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0), (1, -1, 0, 0)],
    [(0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 1, 0), (1, 0, -1, 0)],
    [(1, -1, 1, -1), (1, -1, -1, 1), (1, 1, 0, 0), (0, 0, 1, 1)],
    [(1, -1, 1, -1), (1, 1, 1, 1), (1, 0, -1, 0), (0, 1, 0, -1)],
    [(0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 1), (1, 0, 0, -1)],
    [(1, -1, -1, 1), (1, 1, 1, 1), (1, 0, 0, -1), (0, 1, -1, 0)],
    [(1, 1, -1, 1), (1, 1, 1, -1), (1, -1, 0, 0), (0, 0, 1, 1)],
    [(1, 1, -1, 1), (-1, 1, 1, 1), (1, 0, 1, 0), (0, 1, 0, -1)],
    [(1, 1, 1, -1), (-1, 1, 1, 1), (1, 0, 0, 1), (0, 1, -1, 0)],
]


def _rays(vectors) -> list[tuple]:
    """The distinct rays of ``vectors``, each as a unit vector whose first
    nonzero entry is positive, in descending order."""
    rays = {}
    for v in vectors:
        v = np.asarray(v, dtype=float) / np.linalg.norm(v)
        if v[np.flatnonzero(v)[0]] < 0:
            v = -v
        rays.setdefault(tuple(np.round(v, 9)), tuple(v + 0.0))
    return [rays[key] for key in sorted(rays, reverse=True)]


def peres_rays() -> list[tuple]:
    return _rays(np.multiply(perm, signs)
                 for shape in ((0, 0, 1), (0, 1, 1), (0, 1, R2), (1, 1, R2))
                 for perm in itertools.permutations(shape)
                 for signs in itertools.product((1, -1), repeat=3))


def _document(dim: int, rays: list, groups: list) -> str:
    names = [f"r{i + 1:02d}" for i in range(len(rays))]
    operators = {}
    for name, ray in zip(names, rays):
        operators[name] = [[float(x) + 0.0 for x in row]
                           for row in np.outer(ray, ray)]
    rows = ",\n".join(f'    "{name}": {json.dumps(op)}'
                      for name, op in operators.items())
    lines = ",\n".join(f"    {json.dumps([names[i] for i in g])}" for g in groups)
    uniform = json.dumps([[float(np.sqrt(1 / dim)), 0]] * dim)
    queries = ",\n".join(f'    "P{name}": {{"operator": "{name}", "eigenvalues": [1]}}'
                         for name in names[:2])
    return (f'{{\n  "dimension": {dim},\n  "closure": "intersections",\n'
            f'  "operators": {{\n{rows}\n  }},\n  "groups": [\n{lines}\n  ],\n'
            f'  "states": {{"uniform": {uniform}}},\n'
            f'  "projectors": {{\n{queries}\n  }}\n}}\n')


def peres33() -> str:
    rays = peres_rays()
    assert len(rays) == 33
    gram = np.abs(np.array(rays) @ np.array(rays).T) < 1e-9
    pairs = [(i, j) for i, j in itertools.combinations(range(33), 2) if gram[i, j]]
    triads = [t for t in itertools.combinations(range(33), 3)
              if all(gram[i, j] for i, j in itertools.combinations(t, 2))]
    assert len(triads) == 16
    return _document(3, rays, triads + pairs)


def cabello18() -> str:
    rays = _rays(v for basis in CABELLO_BASES for v in basis)
    assert len(rays) == 18
    index = {ray: i for i, ray in enumerate(rays)}
    groups = [[index[_rays([v])[0]] for v in basis] for basis in CABELLO_BASES]
    for g in groups:
        m = np.array([rays[i] for i in g])
        assert np.allclose(m @ m.T, np.eye(4))
    assert all(sum(i in g for g in groups) == 2 for i in range(18))
    return _document(4, rays, groups)


if __name__ == "__main__":
    (HERE / "peres33.json").write_text(peres33())
    (HERE / "cabello18.json").write_text(cabello18())
