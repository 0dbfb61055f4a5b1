"""Compare the JSON reports of the north-star CLI runs in two checkouts.

    python tools/report_diff.py A B

A and B are two checkout directories of this repository (the same one
twice checks that the reports are deterministic).  Each run of ``RUNS``
is made once in each checkout, as ``python -m hermitia.cli ARGS --out
FILE`` with that checkout's ``src`` on ``PYTHONPATH``, and the two
reports are compared after the time fields (``wall_time_s`` and
``elapsed_s``, wherever they sit) and ``config.out`` are removed.  Prints
one line per run, ``same``, ``DIFFERENT`` or ``FAILED (exit N)`` with the
first non-zero exit status of its two runs, and exits 1 when a run fails
or any pair of reports differs.
"""

import json
import os
import subprocess
import sys
import tempfile

# The north-star CLI runs (the one list of them, which CI runs through
# this tool), then the seeded identity and Codazzi checks, which draw
# other instances than the defaults.
RUNS = (
    "hsc --model gr:2:4",
    "hsc --model fs:2",
    "hsc --model fs:2 --derivatives fd",
    "hsc --model gr:3:6",
    "fibration-scan --model hirz:1",
    "fibration-scan --model hirz:2",
    "fibration-scan --model prod:fs1:fs1",
    "demailly-check",
    "codazzi-check",
    "sum-check",
    "purge",
    "adjoint --demo random --dimV 4 --dimW 3",
    "curvature --model fs:2",
    "curvature --model fs:2 --derivatives fd",
    "curvature --model gr:2:4",
    "curvature --model gr:2:4 --derivatives fd",
    "curvature --model gr:3:6",
    "grassmannian --model gr:2:4",
    "grassmannian --model gr:3:6",
    "fibration-scan --model hirz:3",
    "acceptance",
    "demailly-check --seed 3 --instances 40",
    "codazzi-check --seed 3 --instances 40",
)
TIME_FIELDS = ("wall_time_s", "elapsed_s")


def without_times(value):
    """``value`` with every key of TIME_FIELDS removed, at any depth."""
    if isinstance(value, dict):
        return {k: without_times(v) for k, v in value.items() if k not in TIME_FIELDS}
    if isinstance(value, list):
        return [without_times(v) for v in value]
    return value


def report(checkout, args, out):
    """The report of one run in ``checkout``, without its time fields and
    its ``config.out``; CalledProcessError when the run exits non-zero."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    cmd = [sys.executable, "-m", "hermitia.cli", *args.split(), "--out", out]
    subprocess.run(cmd, cwd=checkout, env=env, check=True, stdout=subprocess.DEVNULL)
    with open(out) as f:
        data = without_times(json.load(f))
    data.get("config", {}).pop("out", None)
    return data


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for args in RUNS:
            try:
                a, b = (report(side, args, os.path.join(tmp, "%d.json" % i)) for i, side in enumerate(argv))
                verdict = "same" if a == b else "DIFFERENT"
            except subprocess.CalledProcessError as failed:
                verdict = "FAILED (exit %d)" % failed.returncode
            differ += verdict != "same"
            print("%-45s %s" % (args, verdict), flush=True)
    if differ:
        sys.exit("%d of %d runs failed or wrote different reports" % (differ, len(RUNS)))


if __name__ == "__main__":
    main()
