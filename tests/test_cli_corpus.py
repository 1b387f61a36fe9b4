"""The ``heyting`` and ``truth`` reports of the CLI corpus, pinned on seed 1.

``tools/cli_corpus.py`` prints one digest per CLI run; comparing two programs
means running it twice by hand.  This test makes the ``heyting`` and
``truth`` runs it makes for the ``prop-logic`` families of seed 1 (the
rotated Mermin square under both closures, its Heyting expressions, states
and projectors) and compares one SHA-256 over their lines with the value
the program gave while subobjects were tuples of points.  A change to the
bytes of a subobject or truth-value report fails here.
"""
from __future__ import annotations

import hashlib
import importlib.util
import json
import pathlib

from qtopos import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
PINNED = "418cef4b4ccc3b056bb3956e606977d83de93024e19e6dd0610252a73f1553e1"


def _load(name: str, path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


cli_corpus = _load("cli_corpus", ROOT / "tools" / "cli_corpus.py")


def test_prop_logic_runs_of_seed_1_match_the_pinned_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # runs name their scenario by a relative path
    digest = hashlib.sha256()
    for name, doc, ops in cli_corpus._family_documents("prop-logic", 1, tmp_path):
        pathlib.Path(f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
        for argv in cli_corpus._runs(f"{name}.json", doc, ops):
            if argv[0] in ("heyting", "truth"):
                digest.update(f"{cli_corpus._line(cli, argv)}\n".encode("utf-8"))
    assert digest.hexdigest() == PINNED
