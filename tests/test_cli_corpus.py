"""Reports of the CLI corpus, pinned on seed 1.

``tools/cli_corpus.py`` prints one digest per CLI run; comparing two programs
means running it twice by hand.  This test makes four slices of the runs it
makes for seed 1 and compares one SHA-256 over each slice's lines with the
value the program gave before:

* the ``heyting`` and ``truth`` runs of the ``prop-logic`` families (the
  rotated Mermin square under both closures, its Heyting expressions, states
  and projectors), pinned while subobjects were tuples of points;
* the 22 ``ks`` runs of the ``ks-search`` families (``--max-solutions`` 1 and
  64 on each), pinned while global sections were dicts;
* the 20 ``poset`` and ``daseinise`` runs of the ``poset-closure`` families
  (the ``coarsenings`` closure), pinned while the closure interned one
  partition at a time, and again when matrix entries came to be rounded to
  12 decimal places;
* the 11 ``validate`` runs of the ``ks-search`` families, pinned while
  reports went through a recursive float-rounding walk.

A change to the bytes of a subobject, truth-value or section listing fails
here.
"""
from __future__ import annotations

import hashlib
import importlib.util
import json
import pathlib

import pytest

from qtopos import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
PINNED = {  # slice: its workload, the commands of its runs, how many, their digest
    "prop-logic": ("prop-logic", ("heyting", "truth"), 36,
                   "418cef4b4ccc3b056bb3956e606977d83de93024e19e6dd0610252a73f1553e1"),
    "ks-search": ("ks-search", ("ks",), 22,
                  "78b7c1ddc5161ee2d90c609899257ab4b4906fd1c23f70b15c012030c72bd17a"),
    "poset-closure": ("poset-closure", ("poset", "daseinise"), 20,
                      "4d5d19efc1f80adc43487b5072d4183afe5fcccbd5afb7238b4ca4e4c3f0ba02"),
    "ks-search-validate": ("ks-search", ("validate",), 11,
                           "7a1953f2712873a3404019ca192f0b4175d559429019811f1837e56379228b4b"),
}


def _load(name: str, path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


cli_corpus = _load("cli_corpus", ROOT / "tools" / "cli_corpus.py")


@pytest.mark.parametrize("slice_", PINNED)
def test_runs_of_seed_1_match_the_pinned_digest(slice_, tmp_path, monkeypatch):
    workload, commands, count, pinned = PINNED[slice_]
    monkeypatch.chdir(tmp_path)  # runs name their scenario by a relative path
    digest, runs = hashlib.sha256(), 0
    for name, doc, ops in cli_corpus._family_documents(workload, 1, tmp_path):
        pathlib.Path(f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
        for argv in cli_corpus._runs(f"{name}.json", doc, ops):
            if argv[0] in commands:
                digest.update(f"{cli_corpus._line(cli, argv)}\n".encode("utf-8"))
                runs += 1
    assert (runs, digest.hexdigest()) == (count, pinned)
