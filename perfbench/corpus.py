"""Seeded input corpora for the benchmark.

Every corpus is a pure function of (workload, seed, kind, size): the same
arguments give the same bytes on every machine.  Each corpus draws from
its own generator, seeded by a string, so adding a corpus never shifts
the bytes of another.  The text corpus samples words from ``vocab.txt``
in this directory, never from a repository document, so an edit to the
docs cannot change a workload.

    python3 perfbench/corpus.py --workload cli-small --seed N --out DIR

writes cli-small's files for one seed and prints their manifest.
"""

import argparse
import hashlib
import json
import os
import random
import sys

from spec import WORKLOADS

_VOCAB_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "vocab.txt")


def _vocabulary():
    with open(_VOCAB_PATH, "rb") as fh:
        words = fh.read().split()
    if not words:
        raise ValueError(f"empty vocabulary {_VOCAB_PATH}")
    return words


def _text(rng, size):
    words = _vocabulary()
    # Zipf-like weights: a few words are common, most are rare, as in prose.
    weights = [1.0 / (rank + 1) for rank in range(len(words))]
    out = bytearray()
    while len(out) < size:
        line = rng.choices(words, weights=weights, k=rng.randint(6, 14))
        out += b" ".join(line)
        out += b".\n" if rng.random() < 0.3 else b",\n"
    return bytes(out[:size])


def make(workload, seed, kind, size):
    """The ``size``-byte corpus ``kind`` for one workload and seed."""
    rng = random.Random(f"fbar-bench:{workload}:{seed}:{kind}:{size}")
    if kind == "random":
        return rng.randbytes(size)
    if kind == "text":
        return _text(rng, size)
    if kind == "acgt":
        return bytes(rng.choices(b"ACGT", k=size))
    if kind == "zero":
        return bytes(size)
    raise ValueError(f"unknown corpus kind {kind!r}")


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def main(argv=None):
    """Write the cli-small files for one seed; print their manifest as JSON."""
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    manifest = []
    for n in range(spec["files"]):
        kind, size = spec["inputs"][n % len(spec["inputs"])]
        data = make(args.workload, f"{args.seed}:{n}", kind, size)
        name = f"f{n:02d}"
        with open(os.path.join(args.out, f"{name}.bin"), "wb") as fh:
            fh.write(data)
        manifest.append({"name": name, "kind": kind, "size": size, "sha256": sha256(data)})
    print(json.dumps(manifest))
    return 0


if __name__ == "__main__":
    sys.exit(main())
