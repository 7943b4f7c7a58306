"""One SHA-256 per benchmark workload over every output its requests make.

Usage (from the repository root):

    python3 tools/output_digest.py
    python3 tools/output_digest.py --workloads high-order --seeds 1 2
    python3 tools/output_digest.py --dump DIR
    python3 tools/output_digest.py --ladders
    python3 tools/output_digest.py --workloads high-order --chain-order 12
    python3 tools/output_digest.py --compare DIR_A DIR_B

With no options it digests the standard set, 633 requests: seeds 1-3 of
``catalog-sweep``, ``wide-tuple`` and ``high-order`` and seeds 1-10 of
``mc-crosscheck``.  ``--seeds`` replaces every workload's seeds and
``--workloads`` picks workloads.

The requests are the ones ``perfbench/workloads.py`` builds for each seed,
issued once each, untimed.  The digest of a workload covers, request by
request in issue order: the report document of a ``bound_report`` request
(or the text of its class refusal), and the exit code, JSON document and CSV
table of a CLI request.  Two checkouts that print the same line for a
workload produced byte-identical outputs on it, so a refactor that must not
change results is checked by running this on the parent commit and on the
change.  The program is imported from ``src/`` of the checkout this file
sits in.

``--chain-order N`` reissues every ``chain`` request at order N in place
of the workload's own (``high-order`` chains to 8), so that results can be
compared past the orders the benchmark reaches.  Other requests are issued
as they are.

``--ladders`` also prints, under each workload's line, per seed how many of
its requests built a class ladder (``expectation.Ladder.build``): the ones
the closed-form class rule (``bounds._closed_form``) declines.  The digests
are the same with it and without it.

``--dump DIR`` also writes, per workload, ``DIR/<workload>.json``: every
request's outputs parsed (exit code, JSON document, CSV rows with their
numbers read, or the refusal text), keyed by seed and request key.
``--compare DIR_A DIR_B`` runs no request; it reads two such dumps and
prints per workload the number of requests whose non-numeric content
differs (flags, verdicts, exit codes, names, keys, integers, text, or a
request missing from one dump) and the largest relative move of any
floating-point number, with its request.  That checks a change that may
move numbers in their last digits, or that changes the bytes of a document
but none of its values.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the BLAS threads the benchmark fixes, so that sums come out the same
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from varbounds.errors import ClassMembershipError  # noqa: E402
from varbounds.expectation import Ladder  # noqa: E402

# what the digest takes in front of each kind of output
_PREFIX = {"refused": b"refused: ", "report": b"", "exit": b"exit ",
           "out.json": b"out.json", "out.csv": b"out.csv"}


def _outputs(requests, case):
    """(kind, bytes) of each output one request leaves: its report or
    refusal, or its exit code and the files it wrote."""
    outcome = requests.issue(case)
    if isinstance(outcome, ClassMembershipError):
        yield "refused", str(outcome).encode()
    elif case.kind == "report":
        yield "report", json.dumps(outcome.to_json_dict(),
                                   sort_keys=True).encode()
    else:
        yield "exit", str(outcome).encode()
        for suffix in ("out.json", "out.csv"):
            path = requests._path(case, suffix)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    yield suffix, fh.read()
                os.remove(path)


def _cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _parsed(kind, data):
    text = data.decode()
    if kind in ("report", "out.json"):
        return json.loads(text)
    if kind == "out.csv":
        rows = csv.reader(io.StringIO(text))
        return [[_cell(c) for c in row] for row in rows]
    return int(text) if kind == "exit" else text


# the number of ``Ladder.build`` calls made so far, once
# ``_count_ladder_builds`` has wrapped it
_LADDER_BUILDS = [0]


def _count_ladder_builds():
    build = Ladder.build.__func__

    def counted(cls, *args, **kwargs):
        _LADDER_BUILDS[0] += 1
        return build(cls, *args, **kwargs)

    Ladder.build = classmethod(counted)


def digest(workload, seeds, dump=None, chain_order=None):
    """(number of requests, SHA-256 hex digest, {seed: (number of its
    requests that built a class ladder, number of its requests)}) of
    ``workload`` over ``seeds``; the ladder counts are 0 unless
    ``_count_ladder_builds`` ran.  With a ``dump`` dict, each request's
    parsed outputs go into it under "seed/key".  A ``chain_order`` replaces
    the order of every chain request."""
    sha, count, ladders = hashlib.sha256(), 0, {}
    for seed in seeds:
        cases = [dataclasses.replace(case, n=chain_order)
                 if chain_order is not None and case.kind == "chain"
                 else case for case in workloads.build_cases(workload, seed)]
        built = 0
        with tempfile.TemporaryDirectory() as workdir:
            requests = workloads.Requests(cases, workdir)
            for case in cases:
                sha.update(f"\0{seed}/{case.key}\0".encode())
                parsed, before = {}, _LADDER_BUILDS[0]
                for kind, data in _outputs(requests, case):
                    chunk = _PREFIX[kind] + data
                    sha.update(len(chunk).to_bytes(8, "little") + chunk)
                    parsed[kind] = _parsed(kind, data)
                if dump is not None:
                    dump[f"{seed}/{case.key}"] = parsed
                built += _LADDER_BUILDS[0] > before
                count += 1
        ladders[seed] = (built, len(cases))
    return count, sha.hexdigest(), ladders


def _difference(a, b):
    """(whether a non-numeric part differs, largest relative move of a
    float) between two parsed outputs."""
    if isinstance(a, float) and isinstance(b, float):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return False, 0.0
        if not (math.isfinite(a) and math.isfinite(b)):
            return True, 0.0
        return False, abs(a - b) / max(abs(a), abs(b))
    if type(a) is not type(b):
        return True, 0.0
    if isinstance(a, dict):
        pairs = [(a[k], b[k]) for k in a.keys() & b.keys()]
        differs = a.keys() != b.keys()
    elif isinstance(a, list):
        pairs, differs = list(zip(a, b)), len(a) != len(b)
    else:
        return a != b, 0.0
    move = 0.0
    for x, y in pairs:
        d, m = _difference(x, y)
        differs, move = differs or d, max(move, m)
    return differs, move


def compare(dir_a, dir_b):
    """Print, per workload dumped in both, the requests whose non-numeric
    content differs and the largest relative move of a float."""
    for name in sorted(os.listdir(dir_a)):
        path_b = os.path.join(dir_b, name)
        if not name.endswith(".json") or not os.path.exists(path_b):
            continue
        with open(os.path.join(dir_a, name), encoding="utf-8") as fh:
            a = json.load(fh)
        with open(path_b, encoding="utf-8") as fh:
            b = json.load(fh)
        changed, move, where = [], 0.0, "-"
        for key in sorted(a.keys() | b.keys()):
            if key not in a or key not in b:
                changed.append(key)
                continue
            differs, m = _difference(a[key], b[key])
            if differs:
                changed.append(key)
            if m > move:
                move, where = m, key
        print(f"{name[:-5]}  {len(a.keys() | b.keys())} requests  "
              f"{len(changed)} with non-numeric changes  "
              f"largest relative move {move:.3e} at {where}", flush=True)
        for key in changed:
            print(f"  changed: {key}")


# the seeds digested when none are given
STANDARD_SEEDS = {"catalog-sweep": range(1, 4), "wide-tuple": range(1, 4),
                  "high-order": range(1, 4), "mc-crosscheck": range(1, 11)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+")
    parser.add_argument("--workloads", nargs="+", default=workloads.WORKLOADS,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--dump", metavar="DIR",
                        help="also write each workload's parsed outputs here")
    parser.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"),
                        help="compare two dumps instead of running requests")
    parser.add_argument("--chain-order", type=int, metavar="N",
                        help="issue every chain request at order N")
    parser.add_argument("--ladders", action="store_true",
                        help="also print per seed the requests that built a "
                             "class ladder")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return
    if args.dump:
        os.makedirs(args.dump, exist_ok=True)
    if args.ladders:
        _count_ladder_builds()
    for workload in args.workloads:
        dump = {} if args.dump else None
        seeds = args.seeds or STANDARD_SEEDS[workload]
        count, hexdigest, ladders = digest(workload, seeds, dump,
                                           args.chain_order)
        print(f"{workload}  {count} requests  {hexdigest}", flush=True)
        for seed, (built, total) in ladders.items() if args.ladders else ():
            print(f"  seed {seed}: {built} of {total} requests built a class "
                  f"ladder", flush=True)
        if dump is not None:
            with open(os.path.join(args.dump, workload + ".json"), "w",
                      encoding="utf-8") as fh:
                json.dump(dump, fh, sort_keys=True)


if __name__ == "__main__":
    main()
