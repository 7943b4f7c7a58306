"""One SHA-256 per benchmark workload over every output its requests make.

Usage (from the repository root):

    python3 tools/output_digest.py
    python3 tools/output_digest.py --workloads high-order --seeds 1 2

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
"""

from __future__ import annotations

import argparse
import hashlib
import json
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


def _outputs(requests, case):
    """The bytes one request leaves: its report or refusal, or its exit
    code and the files it wrote."""
    outcome = requests.issue(case)
    if isinstance(outcome, ClassMembershipError):
        yield f"refused: {outcome}".encode()
    elif case.kind == "report":
        yield json.dumps(outcome.to_json_dict(), sort_keys=True).encode()
    else:
        yield f"exit {outcome}".encode()
        for suffix in ("out.json", "out.csv"):
            path = requests._path(case, suffix)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    yield suffix.encode() + fh.read()
                os.remove(path)


def digest(workload, seeds):
    """(number of requests, SHA-256 hex digest) of ``workload`` over
    ``seeds``."""
    sha, count = hashlib.sha256(), 0
    for seed in seeds:
        cases = workloads.build_cases(workload, seed)
        with tempfile.TemporaryDirectory() as workdir:
            requests = workloads.Requests(cases, workdir)
            for case in cases:
                sha.update(f"\0{seed}/{case.key}\0".encode())
                for chunk in _outputs(requests, case):
                    sha.update(len(chunk).to_bytes(8, "little") + chunk)
                count += 1
    return count, sha.hexdigest()


# the seeds digested when none are given
STANDARD_SEEDS = {"catalog-sweep": range(1, 4), "wide-tuple": range(1, 4),
                  "high-order": range(1, 4), "mc-crosscheck": range(1, 11)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+")
    parser.add_argument("--workloads", nargs="+", default=workloads.WORKLOADS,
                        choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    for workload in args.workloads:
        count, hexdigest = digest(workload,
                                  args.seeds or STANDARD_SEEDS[workload])
        print(f"{workload}  {count} requests  {hexdigest}", flush=True)


if __name__ == "__main__":
    main()
