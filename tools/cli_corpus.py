"""Print one digest line per run of a fixed CLI corpus.

Usage, from the root of a checkout::

    python3 tools/cli_corpus.py SRC_DIR > corpus.txt

``SRC_DIR`` is the directory that holds the ``qtopos`` package to run, such
as ``src`` of this or another checkout.  The corpus always comes from this
checkout, so two outputs compare two programs on the same inputs with
``diff``.  It is:

* the bundled scenarios, each under both closures;
* the ``poset-closure`` and ``ks-search`` families of seeds 1-3, written by
  ``perfbench/gen.py`` (imported, not changed), each given the +-1
  projectors of two of its observables and one state;
* the ``prop-logic`` families of seeds 1-3 (the rotated square under both
  closures, with their 4 states), also from ``perfbench/gen.py``.

Every document first runs ``validate``.  Each document of the first two
kinds then runs ``poset``, ``ks --max-solutions 1`` and ``64``,
``daseinise`` of two projectors with and without ``--inner``, ``truth`` of
two projectors by both routes, and ``heyting``; the last three only as far
as the document names projectors and a state.  A ``prop-logic`` family runs
``daseinise`` of two projectors with and without ``--inner`` and, for each
op of its seed, ``heyting`` of the op's expression in its state and
``truth`` of its projector by both routes.  Last come ``kernel-demo
--poset chain2`` and ``--poset antichain3``, so every command is run.
Every run goes through ``qtopos.cli.run_command``.  A line is
``sha256(exit code, stdout, stderr)`` and the run's label.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

# One BLAS thread unless the caller asks for another count, so that the
# corpus can be compared under one and under two threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
WORKLOADS = ("poset-closure", "ks-search")


def _with_queries(doc: dict) -> dict:
    """A family document with the projectors of two observables and a state."""
    first, second = sorted(doc["operators"])[:2]
    doc["projectors"] = {f"P{name}{tag}": {"operator": name,
                                           "eigenvalues": [value]}
                         for name in (first, second)
                         for tag, value in (("p", 1), ("m", -1))}
    op = np.array([[complex(*z) for z in row] for row in doc["operators"][first]])
    vec = np.linalg.eigh(op)[1][:, -1]
    doc["states"] = {"s0": [[float(z.real), float(z.imag)] for z in vec]}
    return doc


def _family_documents(workload: str, seed: int,
                      workdir: Path) -> list[tuple[str, dict, list[dict]]]:
    """The families ``perfbench/gen.py`` writes for one workload and seed,
    each with its name and, for a prop-logic family, its ops."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    import gen

    outdir = workdir / f"{workload}-{seed}"
    outdir.mkdir()
    manifest = gen.make_inputs(workload, seed, outdir)
    docs = []
    for i, path in enumerate(sorted(outdir.glob("*.json"))):
        doc = json.loads(path.read_text(encoding="utf-8"))
        name = f"{workload}-{seed}-{path.stem}"
        if workload == "prop-logic":
            docs.append((name, doc, [op for op in manifest["ops"]
                                     if op["family"] == i]))
        else:
            docs.append((name, _with_queries(doc), []))
    return docs


def _documents(workdir: Path) -> list[tuple[str, dict, list[dict]]]:
    """Each document with its name and, for a prop-logic family, its ops."""
    docs = []
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        for closure in ("intersections", "coarsenings"):
            doc = json.loads(path.read_text(encoding="utf-8"))
            doc["closure"] = closure
            docs.append((f"{path.stem}-{closure}", doc, []))
    for workload in WORKLOADS + ("prop-logic",):
        for seed in SEEDS:
            docs += _family_documents(workload, seed, workdir)
    return docs


def _daseinise_runs(name: str, picked) -> list[list[str]]:
    return [["daseinise", name, "--projector", proj, *inner]
            for proj in picked for inner in ([], ["--inner"])]


def _truth_runs(name: str, state: str, proj: str) -> list[list[str]]:
    return [["truth", name, "--state", state, "--projector", proj, "--via", via]
            for via in ("pseudo-state", "truth-object")]


def _runs(name: str, doc: dict, ops: list[dict]) -> list[list[str]]:
    projectors = sorted(doc.get("projectors", {}))
    picked = (projectors[0], projectors[-1]) if projectors else ()
    runs = [["validate", name]]
    if ops:
        runs += _daseinise_runs(name, picked)
        for op in ops:
            runs.append(["heyting", name, "--state", op["state"],
                         "--expr", op["expr"]])
            runs += _truth_runs(name, op["state"], op["projector"])
        return runs
    states = sorted(doc.get("states", {}))[:1]
    runs += [["poset", name], ["ks", name, "--max-solutions", "1"],
             ["ks", name, "--max-solutions", "64"]]
    for proj in picked:
        runs += _daseinise_runs(name, [proj])
        runs += [run for state in states for run in _truth_runs(name, state, proj)]
    if picked:
        runs += [["heyting", name, "--state", state, "--expr",
                  f"({picked[0]} => !{picked[1]}) | {picked[1]} & {picked[0]}"]
                 for state in states]
    return runs


def _line(cli, argv: list[str]) -> str:
    """The run's digest line: ``sha256(exit code, stdout, stderr)`` and label."""
    code, out, err = cli.run_command(argv)
    digest = hashlib.sha256(json.dumps([code, out, err]).encode("utf-8")).hexdigest()
    return f"{digest} {' '.join(argv)}"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    src = Path(argv[0]).resolve()
    sys.path.insert(0, str(src))
    from qtopos import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"error: qtopos was not imported from {src}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        docs = _documents(workdir)
        os.chdir(workdir)  # runs name their scenario by a relative path
        for name, doc, _ in docs:
            Path(f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
        runs = [argv_ for name, doc, ops in docs
                for argv_ in _runs(f"{name}.json", doc, ops)]
        for argv_ in runs + [["kernel-demo", "--poset", poset]
                             for poset in ("chain2", "antichain3")]:
            print(_line(cli, argv_))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
