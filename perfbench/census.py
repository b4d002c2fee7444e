"""The census workload's commands, the cold CLI child that runs each one,
and the checks on their output."""

import os
import subprocess
import sys
import threading
import time
from collections import namedtuple

import oracle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# `treesec` is not installed as a script and `python -m treesec.cli` warns on
# stderr, so each child imports the entry point from the source tree.
CLI = "import sys; from treesec.cli import main; sys.exit(main(sys.argv[1:]))"
# A fixed hash seed keeps set and dict layouts, and so the work, the same
# from one process to the next.
CHILD_ENV = dict(
    os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONIOENCODING="utf-8", PYTHONHASHSEED="0"
)


# One CLI invocation of the cycle: its argv, its size parameters and the
# check its stdout must pass (returns a problem string, or None).
Command = namedtuple("Command", "name argv size check")


def commands(toy):
    """The four commands a census op cycles through.  Every process starts
    cold, so each pays for its own memoized shape tables."""
    table, verify, kary, star, count, listing = (
        (8, 8, (7, 3), (6, 3), 9, 7) if toy else (20, 20, (12, 3), (11, 3), 21, 17)
    )
    verify_argv = ["verify", "--max-leaves", str(verify), "--kary", *map(str, kary)]
    verify_argv += ["--starlike", *map(str, star)]
    golden_count = f"{oracle.wedderburn_etherington(count)[count]}\n"
    golden_verify = verify_lines(verify, kary, star)
    return [
        Command("table", ["table", "--max-leaves", str(table)], table, lambda out: check_table(out, table)),
        Command(
            "verify",
            verify_argv,
            (verify, kary, star),
            lambda out: None if out == golden_verify else "verify lines differ",
        ),
        Command(
            "enumerate-count",
            ["enumerate", "--leaves", str(count), "--count-only"],
            count,
            lambda out: None if out == golden_count else "wrong shape count",
        ),
        Command(
            "enumerate-list",
            ["enumerate", "--leaves", str(listing)],
            listing,
            memo(lambda out: check_listing(out, listing)),
        ),
    ]


def memo(check):
    """``check`` that passes at once an output equal to one it passed."""
    passed = set()

    def checked(out):
        if out in passed:
            return None
        problem = check(out)
        if problem is None:
            passed.add(out)
        return problem

    return checked


def check_table(out, max_leaves):
    counts = oracle.wedderburn_etherington(max_leaves)
    lines = out.split("\n")
    if lines[0] != "leaves\tshapes\tmax_security\tmaximizers\tfraction" or lines[-1] != "":
        return "table header or trailer wrong"
    rows = lines[1:-1]
    if len(rows) != max_leaves:
        return f"table has {len(rows)} rows, expected {max_leaves}"
    for leaves, row in enumerate(rows, 1):
        l, shapes, best, maxi, frac = row.split("\t")
        if (int(l), int(shapes), int(best)) != (leaves, counts[leaves], oracle.max_security(leaves)):
            return f"table row {leaves} wrong"
        if not 1 <= int(maxi) <= int(shapes) or frac != f"{maxi}/{shapes}":
            return f"table row {leaves}: maximizer count inconsistent"
    return None


def verify_lines(max_leaves, kary, star):
    n, k = kary
    sn, sk = star
    return (
        f"OK: formula = oracle for ℓ=3..{max_leaves}\n"
        f"OK: k-ary root rank = oracle for n=1..{n}, k={k}\n"
        f"OK: degree-{sk} root rank = oracle for n={sk + 1}..{sn}\n"
    )


def check_listing(out, leaves):
    lines = out.split("\n")
    if lines.pop() != "":
        return "listing does not end in a newline"
    if len(lines) != oracle.wedderburn_etherington(leaves)[leaves]:
        return f"listing has {len(lines)} lines"
    if len(set(lines)) != len(lines):
        return "listing repeats a shape"
    for line in lines:
        facts = oracle.analyze(line)
        if facts.leaves != leaves or facts.canonical != line:
            return "listing line is not a canonical tree of the right size"
    return None


ChildResult = namedtuple("ChildResult", "seconds rss_mb code out err")


def run_child(argv):
    """Run one process to completion; return its wall time, its own peak
    RSS (``os.wait4``: ``RUSAGE_CHILDREN`` would keep a running maximum over
    all children), exit code, stdout and stderr."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV, cwd=ROOT
    )
    err = []
    drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    drain.start()
    try:
        out = proc.stdout.read()
        drain.join()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: leave no child behind
        proc.kill()
        proc.wait()
        raise
    seconds = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return ChildResult(seconds, usage.ru_maxrss / 1024, code, out.decode("utf-8"), err[0].decode("utf-8"))


def run_cli(argv):
    return run_child([sys.executable, "-c", CLI, *argv])
