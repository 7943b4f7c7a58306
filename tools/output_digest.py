"""One SHA-256 per benchmark workload over every output its requests make.

Usage (from the repository root):

    python3 tools/output_digest.py
    python3 tools/output_digest.py --workloads high-order --seeds 1 2
    python3 tools/output_digest.py --dump DIR
    python3 tools/output_digest.py --ladders
    python3 tools/output_digest.py --identity
    python3 tools/output_digest.py --samples --dump DIR
    python3 tools/output_digest.py --cold
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

By default the requests run one after another in one process, so the
catalog members they name, and the grids those hold, are built by the
first request on each member and shared by the ones after it, as in the
benchmark.  ``--cold`` lets every held member go before each request
(``distributions.clear_members``), so that each request builds its member
and its grids anew; both print the same digests.

``--chain-order N`` reissues every ``chain`` request at order N in place
of the workload's own (``high-order`` chains to 8), so that results can be
compared past the orders the benchmark reaches.  Other requests are issued
as they are.

``--ladders`` also prints, under each workload's line, per seed how many of
its requests built a class ladder (``expectation.Ladder.build``): the ones
the closed-form class rule (``bounds._closed_form``) declines, on a member
that holds no ladder yet (with ``--cold``, every one the rule declines);
and how many the rule declined after building their assembly grid
(``bounds._Grid.build`` inside ``_closed_form``).  The digests are the same
with it and without it.

``--identity`` also prints one more line, ``identity``: a digest over the
printed lines (standard output and error) and exit codes of the CLI's
``infer-q`` and ``verify`` on every member the chosen workloads and seeds
name, in the order first named, then the members of
``workloads.HARD_MEMBERS`` not named yet.  It checks a change to the
membership identity, which no workload request reaches; with ``--dump`` its
parsed lines go to ``DIR/identity.json`` for ``--compare``.

``--samples`` also prints one more line, ``samples``: a digest over the
variates ``expectation.sample`` draws, at the default engine settings,
from every member the chosen workloads and seeds name, in the order first
named, then the members of ``workloads.HARD_MEMBERS`` not named yet.  It
checks a change to a sampler, whose variates reach the ``mc-crosscheck``
digest only through means; with ``--dump`` the variates go to
``DIR/samples.npz``, one array per member, for ``--compare``.

``--dump DIR`` also writes, per workload, ``DIR/<workload>.json``: every
request's outputs parsed (exit code, JSON document, CSV rows with their
numbers read, or the refusal text), keyed by seed and request key.
``--compare DIR_A DIR_B`` runs no request; it reads two such dumps and
prints per workload the number of requests whose non-numeric content
differs (flags, verdicts, exit codes, names, keys, integers, text, or a
request missing from one dump) and the largest relative move of any
floating-point number, with its request.  That checks a change that may
move numbers in their last digits, or that changes the bytes of a document
but none of its values.  For two ``samples.npz`` it prints the members
whose variates differ in number or in a value that is not finite, or that
only one dump holds, and the largest relative move of a variate, with its
member.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import zipfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the BLAS threads the benchmark fixes, so that sums come out the same
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from varbounds import bounds, cli, distributions, expectation  # noqa: E402
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


# the number of ``Ladder.build`` calls, of ``_Grid.build`` calls and of
# ``_closed_form`` calls that built a grid and declined, made so far, once
# ``_count_class_paths`` has wrapped them
_COUNTS = {"ladders": 0, "grids": 0, "declined": 0}


def _counted(method, key):
    build = method.__func__

    def counted(cls, *args, **kwargs):
        _COUNTS[key] += 1
        return build(cls, *args, **kwargs)

    return classmethod(counted)


def _count_class_paths():
    Ladder.build = _counted(Ladder.build, "ladders")
    bounds._Grid.build = _counted(bounds._Grid.build, "grids")
    closed_form = bounds._closed_form

    def counted(*args, **kwargs):
        before = _COUNTS["grids"]
        grid = closed_form(*args, **kwargs)
        _COUNTS["declined"] += grid is None and _COUNTS["grids"] > before
        return grid

    bounds._closed_form = counted


def digest(workload, seeds, dump=None, chain_order=None, cold=False):
    """(number of requests, SHA-256 hex digest, {seed: (number of its
    requests that built a class ladder, number the closed-form rule
    declined after building their grid, number of its requests)}) of
    ``workload`` over ``seeds``; the first two counts are 0 unless
    ``_count_class_paths`` ran.  With a ``dump`` dict, each request's
    parsed outputs go into it under "seed/key".  A ``chain_order`` replaces
    the order of every chain request.  With ``cold``, the held catalog
    members are let go before each request."""
    sha, count, ladders = hashlib.sha256(), 0, {}
    for seed in seeds:
        cases = [dataclasses.replace(case, n=chain_order)
                 if chain_order is not None and case.kind == "chain"
                 else case for case in workloads.build_cases(workload, seed)]
        built = declined = 0
        with tempfile.TemporaryDirectory() as workdir:
            requests = workloads.Requests(cases, workdir)
            for case in cases:
                if cold:
                    distributions.clear_members()
                sha.update(f"\0{seed}/{case.key}\0".encode())
                parsed, before = {}, dict(_COUNTS)
                for kind, data in _outputs(requests, case):
                    chunk = _PREFIX[kind] + data
                    sha.update(len(chunk).to_bytes(8, "little") + chunk)
                    parsed[kind] = _parsed(kind, data)
                if dump is not None:
                    dump[f"{seed}/{case.key}"] = parsed
                built += _COUNTS["ladders"] > before["ladders"]
                declined += _COUNTS["declined"] > before["declined"]
                count += 1
        ladders[seed] = (built, declined, len(cases))
    return count, sha.hexdigest(), ladders


def _printed(text):
    """The lines of ``text``, each a list of its words, a ``key=value`` word
    as [key, value] with the value read as a number where it is one."""
    return [[[key, _cell(value)] if sep else key
             for key, sep, value in (w.partition("=") for w in line.split())]
            for line in text.splitlines()]


def identity_digest(members, dump=None, cold=False):
    """(number of requests, SHA-256 hex digest) over the exit code and the
    printed lines of ``infer-q`` and ``verify`` on each of ``members``
    (inline ``--dist`` forms).  With a ``dump`` dict, each request's exit
    code and parsed lines go into it under "command/member"."""
    sha, count = hashlib.sha256(), 0
    for dist in members:
        for command in ("infer-q", "verify"):
            if cold:
                distributions.clear_members()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main([command, "--dist", dist])
            sha.update(f"\0{command}/{dist}\0".encode())
            for chunk in (f"exit {code}", "out " + out.getvalue(),
                          "err " + err.getvalue()):
                chunk = chunk.encode()
                sha.update(len(chunk).to_bytes(8, "little") + chunk)
            if dump is not None:
                dump[f"{command}/{dist}"] = {
                    "exit": code, "out": _printed(out.getvalue()),
                    "err": _printed(err.getvalue())}
            count += 1
    return count, sha.hexdigest()


def samples_digest(members, path=None):
    """(number of members, SHA-256 hex digest) over the variates that
    ``expectation.sample`` draws from each of ``members`` (inline
    ``--dist`` forms) at the default engine settings.  With a ``path``, the
    variates are written there as an ``.npz`` file, one member at a time,
    an array per member."""
    sha, count = hashlib.sha256(), 0
    with (zipfile.ZipFile(path, "w") if path
          else contextlib.nullcontext()) as archive:
        for dist in members:
            xs = expectation.sample(cli._parse_dist(dist))
            sha.update(f"\0{dist}\0".encode() + xs.tobytes())
            if archive is not None:
                with archive.open(dist + ".npy", "w") as fh:
                    np.lib.format.write_array(fh, xs)
            count += 1
    return count, sha.hexdigest()


def compare_samples(path_a, path_b):
    """Print the members whose variates differ in number or in a value
    that is not finite, or that one dump lacks, and the largest relative
    move of a variate, with its member."""
    with np.load(path_a) as a, np.load(path_b) as b:
        keys = sorted(set(a.files) | set(b.files))
        changed, move, where = [], 0.0, "-"
        for key in keys:
            if key not in a.files or key not in b.files:
                changed.append(key)
                continue
            x, y = a[key], b[key]
            if x.shape == y.shape:
                moved = (x != y) & ~(np.isnan(x) & np.isnan(y))
                x, y = x[moved], y[moved]
            if x.shape != y.shape or not np.all(np.isfinite(x)
                                                & np.isfinite(y)):
                changed.append(key)
            elif x.size:
                m = float(np.max(np.abs(x - y)
                                 / np.maximum(np.abs(x), np.abs(y))))
                if m > move:
                    move, where = m, key
    print(f"samples  {len(keys)} members  {len(changed)} with non-numeric "
          f"changes  largest relative move {move:.3e} at {where}", flush=True)
    for key in changed:
        print(f"  changed: {key}")


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
    if all(os.path.exists(os.path.join(d, "samples.npz"))
           for d in (dir_a, dir_b)):
        compare_samples(os.path.join(dir_a, "samples.npz"),
                        os.path.join(dir_b, "samples.npz"))


# the seeds digested when none are given
STANDARD_SEEDS = {"catalog-sweep": range(1, 4), "wide-tuple": range(1, 4),
                  "high-order": range(1, 4), "mc-crosscheck": range(1, 11)}


def _write_dump(directory, name, dump):
    if dump is not None:
        with open(os.path.join(directory, name + ".json"), "w",
                  encoding="utf-8") as fh:
            json.dump(dump, fh, sort_keys=True)


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
    parser.add_argument("--cold", action="store_true",
                        help="let the held catalog members go before each "
                             "request")
    parser.add_argument("--ladders", action="store_true",
                        help="also print per seed the requests that built a "
                             "class ladder, and those the closed-form rule "
                             "declined after building their grid")
    parser.add_argument("--identity", action="store_true",
                        help="also digest infer-q and verify on every member "
                             "the workloads name, and the hard members")
    parser.add_argument("--samples", action="store_true",
                        help="also digest the variates sampled from every "
                             "member the workloads name, and the hard members")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return
    if args.dump:
        os.makedirs(args.dump, exist_ok=True)
    if args.ladders:
        _count_class_paths()
    members = {}  # the members named, in the order first named
    for workload in args.workloads:
        dump = {} if args.dump else None
        seeds = args.seeds or STANDARD_SEEDS[workload]
        members.update(dict.fromkeys(
            case.dist for seed in seeds
            for case in workloads.build_cases(workload, seed)))
        count, hexdigest, ladders = digest(workload, seeds, dump,
                                           args.chain_order, args.cold)
        print(f"{workload}  {count} requests  {hexdigest}", flush=True)
        for seed, (built, declined, total) in (ladders.items()
                                               if args.ladders else ()):
            print(f"  seed {seed}: {built} of {total} requests built a class "
                  f"ladder, {declined} were declined after building their "
                  f"grid", flush=True)
        _write_dump(args.dump, workload, dump)
    if args.identity:
        members.update(dict.fromkeys(workloads.HARD_MEMBERS))
        dump = {} if args.dump else None
        count, hexdigest = identity_digest(members, dump, args.cold)
        print(f"identity  {count} requests  {hexdigest}", flush=True)
        _write_dump(args.dump, "identity", dump)
    if args.samples:
        members.update(dict.fromkeys(workloads.HARD_MEMBERS))
        count, hexdigest = samples_digest(
            members, args.dump and os.path.join(args.dump, "samples.npz"))
        print(f"samples  {count} members  {hexdigest}", flush=True)


if __name__ == "__main__":
    main()
