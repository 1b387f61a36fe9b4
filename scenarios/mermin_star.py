"""Write the GHZ-Mermin star as a scenario file, ``mermin_star.json``,
beside this script.

Mermin's star (N. D. Mermin, Phys. Rev. Lett. 65, 3373, 1990) has ten
three-qubit observables: X and Y on each qubit (``X1`` .. ``Y3``) and the
products ``XXX``, ``XYY``, ``YXY`` and ``YYX``.  They lie on five lines of
four commuting observables, the five groups of the scenario.  The product
along each of the first four lines is +1 and along the last one -1, while
a noncontextual +-1 assignment would make the product of all five +1, so
the spectral presheaf has no global section.  The file also names the GHZ
state (|000> + |111>) / sqrt 2 and the projectors onto XXX = +1 and
XYY = -1, which hold with certainty in it.

Run ``python3 scenarios/mermin_star.py`` from anywhere; it needs only numpy.
"""
import json
import pathlib

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
PAULI = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
         "Y": np.array([[0, -1j], [1j, 0]])}
LINES = [["X1", "X2", "X3", "XXX"], ["X1", "Y2", "Y3", "XYY"],
         ["Y1", "X2", "Y3", "YXY"], ["Y1", "Y2", "X3", "YYX"],
         ["XXX", "XYY", "YXY", "YYX"]]


def _operator(name: str) -> np.ndarray:
    """``X2`` is X on qubit 2; a three-letter name is one Pauli per qubit."""
    word = (f"{'I' * (int(name[1]) - 1)}{name[0]}".ljust(3, "I")
            if len(name) == 2 else name)
    out = np.eye(1)
    for letter in word:
        out = np.kron(out, PAULI[letter])
    return out


def star() -> str:
    names = list(dict.fromkeys(name for line in LINES for name in line))
    ops = {name: _operator(name) for name in names}
    for line in LINES:
        product = np.linalg.multi_dot([ops[name] for name in line])
        sign = -1 if line == LINES[-1] else 1
        assert np.allclose(product, sign * np.eye(8))
    rows = ",\n".join(
        f'    "{name}": ' + json.dumps([[[float(z.real) + 0.0, float(z.imag) + 0.0]
                                         for z in row] for row in op.astype(complex)])
        for name, op in ops.items())
    lines = ",\n".join(f"    {json.dumps(line)}" for line in LINES)
    ghz = np.zeros(8)
    ghz[[0, 7]] = np.sqrt(0.5)
    return (f'{{\n  "dimension": 8,\n  "closure": "intersections",\n'
            f'  "operators": {{\n{rows}\n  }},\n  "groups": [\n{lines}\n  ],\n'
            f'  "states": {{"ghz": {json.dumps([[float(x), 0.0] for x in ghz])}}},\n'
            f'  "projectors": {{\n'
            f'    "PXXX": {{"operator": "XXX", "eigenvalues": [1]}},\n'
            f'    "PXYY": {{"operator": "XYY", "eigenvalues": [-1]}}\n  }}\n}}\n')


if __name__ == "__main__":
    (HERE / "mermin_star.json").write_text(star())
