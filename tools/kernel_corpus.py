"""Print one digest line per kernel construction on the kernel-count slots.

Usage, from the root of a checkout::

    python3 tools/kernel_corpus.py SRC_DIR > kernel.txt

``SRC_DIR`` is the directory that holds the ``qtopos`` package to run, such
as ``src`` of this or another checkout.  The slots always come from this
checkout's ``perfbench/gen.py`` (imported, not changed): the 192
``kernel-count`` slots of seeds 7 and 11, each a poset with presheaves X, A,
B and C, validated by ``kernel.presheaf`` as the benchmark worker does.  Per
slot it runs what that worker runs:

* ``all_subobjects(X)``;
* ``omega``, ``power_object(X)``, ``product(C, A)`` and ``exponential(A, B)``,
  each digested with its sets and restrictions, key order included;
* ``global_elements(power_object(X))``;
* ``hom_set`` of (X, omega), (C, exponential(A, B)) and (product(C, A), B),
  each in list order.

A line is ``sha256(repr(result))``, or ``SizeLimit: <message>`` where a
limit trips, then the slot and the construction, so two outputs compare two
programs on the same inputs with ``diff``.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (7, 11)


def _constructions(kernel, op: dict):
    """Each construction of one slot as ``(name, thunk)``, in print order."""
    base = kernel.finposet(op["elements"], op["pairs"])
    x, a, b, c = (kernel.presheaf(base, op[key]["sets"], {
        (frm, to): dict(mapping) for frm, to, mapping in op[key]["restrictions"]})
        for key in "XABC")

    def whole(make):
        def run():
            p = make()
            return (p.sets, p.restrictions)
        return run

    def arrows(make):
        return lambda: [t.components for t in make()]

    return [
        ("all_subobjects(X)",
         lambda: [s.parts for s in kernel.all_subobjects(x)]),
        ("omega", whole(lambda: kernel.omega(base))),
        ("power_object(X)", whole(lambda: kernel.power_object(x))),
        ("product(C, A)", whole(lambda: kernel.product(c, a))),
        ("exponential(A, B)", whole(lambda: kernel.exponential(a, b))),
        ("global_elements(power_object(X))",
         arrows(lambda: kernel.global_elements(kernel.power_object(x)))),
        ("hom_set(X, omega)",
         arrows(lambda: kernel.hom_set(x, kernel.omega(base)))),
        ("hom_set(C, exponential(A, B))",
         arrows(lambda: kernel.hom_set(c, kernel.exponential(a, b)))),
        ("hom_set(product(C, A), B)",
         arrows(lambda: kernel.hom_set(kernel.product(c, a), b))),
    ]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    src = Path(argv[0]).resolve()
    sys.path.insert(0, str(src))
    from qtopos import kernel
    from qtopos.errors import SizeLimit

    if not Path(kernel.__file__).resolve().is_relative_to(src):
        print(f"error: qtopos was not imported from {src}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen

    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            manifest = gen.make_inputs("kernel-count", seed, Path(tmp))
        for op in manifest["ops"]:
            for name, run in _constructions(kernel, op):
                try:
                    line = hashlib.sha256(repr(run()).encode("utf-8")).hexdigest()
                except SizeLimit as exc:
                    line = f"SizeLimit: {exc}"
                print(line, f"seed{seed}/{op['shape']}", name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
