"""The kernel's enumeration order, pinned on a slice of the kernel corpus.

``tools/kernel_corpus.py`` prints one digest per construction on the
perfbench ``kernel-count`` slots; comparing two programs means running it
twice by hand.  This test runs the same constructions on the first 12 slots
of seed 7 and compares one SHA-256 over their lines with the value the
program gave once a subobject became one int over its presheaf's points.
That moved the pin from f03359b3... only through the ``all_subobjects(X)``
lines: their ``parts`` views, once keyed in the enumeration's
``_descending`` order, are keyed in element order, as every other
subobject's are; the sorted items are unchanged.  Every result is digested
with its key and list order, so a change to what the kernel enumerates, or
in what order, fails here.
"""
from __future__ import annotations

import hashlib
import importlib.util
import pathlib

from qtopos import kernel
from qtopos.errors import SizeLimit

ROOT = pathlib.Path(__file__).resolve().parent.parent
PINNED = "0e3a6b0f1b25f9270664980d0eb060b299752294ba0ea69f57277a5ae4f15571"


def _load(name: str, path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


kernel_corpus = _load("kernel_corpus", ROOT / "tools" / "kernel_corpus.py")
gen = _load("perfbench_gen", ROOT / "perfbench" / "gen.py")


def test_first_slots_of_seed_7_match_the_pinned_digest(tmp_path):
    ops = gen.make_inputs("kernel-count", 7, tmp_path)["ops"][:12]
    digest = hashlib.sha256()
    for op in ops:
        for name, run in kernel_corpus._constructions(kernel, op):
            try:
                line = hashlib.sha256(repr(run()).encode("utf-8")).hexdigest()
            except SizeLimit as exc:
                line = f"SizeLimit: {exc}"
            digest.update(f"{line} seed7/{op['shape']} {name}\n".encode("utf-8"))
    assert digest.hexdigest() == PINNED
