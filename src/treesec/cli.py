"""Command-line interface.

Exit status: 0 on success, 1 on parse/guard errors (message on stderr),
2 when a size guard refuses the request.  All output is line-oriented and
byte-deterministic for fixed inputs.
"""

import argparse
import errno
import os
import sys

# table and enumerate load only exhaustive besides errors; trees, builders,
# formulas and rewrites are imported inside the commands that use them, so
# no command compiles a module it does not run
from . import exhaustive
from .errors import GuardError, ParseError, SizeError, _count

__all__ = ["main"]


def _read_tree_arg(args):
    from . import trees

    if args.tree is not None:
        return trees.read_tree(args.tree)
    try:  # stdin, like a file, is strict UTF-8 whatever the locale
        if args.file == "-":
            if sys.stdin is None:  # Python sets a closed stdin to None
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            text = sys.stdin.buffer.read().decode("utf-8")
        else:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        reason = getattr(e, "strerror", e)  # an OSError's text repeats the path
        raise GuardError(f"cannot read {args.file}: {reason}") from None
    return trees.read_tree(text)


# each family's builder in treesec.builders and the flags it reads, in
# argument order
_FAMILIES = {
    "tl": ("build_power_spine", ("leaves",)),
    "f": ("build_almost_complete", ("leaves",)),
    "complete": ("build_complete_binary", ("height",)),
    "caterpillar": ("build_binary_caterpillar", ("leaves",)),
    "starlike": ("build_starlike", ("arms",)),
    "complete-kary": ("build_complete_kary", ("order", "k")),
}


def _cmd_build(args):
    from . import builders, trees

    name, flags = _FAMILIES[args.family]
    values = [getattr(args, flag) for flag in flags]
    for flag, value in zip(flags, values):
        if value in (None, ""):
            raise GuardError(f"--{flag} is required for family {args.family}")
    if args.family == "starlike":
        try:
            values = [[int(a) for a in args.arms.split(",")]]
        except ValueError:
            raise GuardError("--arms must be comma-separated integers") from None
    build = getattr(builders, name)
    sys.stdout.write(trees.serialize(build(*values), canonical=True) + "\n")


def _cmd_rank(args):
    from . import trees

    tree = trees.canonical_form(_read_tree_arg(args))
    ranks = trees.all_ranks(tree)
    if args.vertex is not None:
        sys.stdout.write(f"{ranks[trees._vertex(tree, args.vertex)]}\n")
    else:
        for v, r in enumerate(ranks):
            sys.stdout.write(f"{v}\t{r}\n")


def _cmd_security(args):
    from . import trees

    sys.stdout.write(f"{trees.security(_read_tree_arg(args))}\n")


def _cmd_protected(args):
    from . import trees

    sys.stdout.write(f"{trees.protected_count(_read_tree_arg(args), args.level)}\n")


def _cmd_partition(args):
    from . import trees

    vec = trees.partition_vector(_read_tree_arg(args))
    sys.stdout.write(" ".join(str(m) for m in vec) + "\n")


def _cmd_normalize(args):
    from . import rewrites, trees

    tree = trees.canonical_form(_read_tree_arg(args))
    result, trace = rewrites.normalize_to_power_spine(tree)
    if args.trace and trace.steps:
        sys.stdout.write(trace.to_text() + "\n")
    sys.stdout.write(trees.serialize(result, canonical=True) + "\n")


def _cmd_flip(args):
    from . import rewrites, trees

    flipped = rewrites.flip_adjacent(_read_tree_arg(args), args.index, args.variant)
    sys.stdout.write(trees.serialize(flipped, canonical=True) + "\n")


def _cmd_enumerate(args):
    leaves = _count(args.leaves, "--leaves", 1, exhaustive.MAX_ENUM_LEAVES)
    if args.count_only:
        sys.stdout.write(f"{exhaustive.count_shapes(leaves)}\n")
    else:
        for block in exhaustive._shape_blocks(leaves):
            sys.stdout.write(block + "\n")


def _security_rows(top):
    from .formulas import max_security

    # every leaf count is measured on one build of the shape tables
    best = exhaustive._bshapes(top)[1]
    for n in range(3, top + 1):
        yield n, max_security(n), max(best[n])


def _kary_rows(orders, k):
    from .formulas import max_root_rank_kary

    for n, got in exhaustive._root_rank_rows(orders, k, proper=True):
        want = max_root_rank_kary(n, k).value
        yield n, want, got.max_root_rank
        yield n, want, got.max_vertex_rank


def _starlike_rows(orders, k):
    from .formulas import max_root_rank_starlike

    for n, got in exhaustive._root_rank_rows(orders, root_degree=k):
        yield n, max_root_rank_starlike(n, k).value, got.max_root_rank


def _cmd_verify(args):
    # every argument is checked before any shape table is built; the rows
    # come from generator functions, so nothing runs until the loop below
    checks = []
    if args.max_leaves is not None:
        top = _count(args.max_leaves, "--max-leaves", 3, exhaustive.MAX_ENUM_LEAVES)
        checks.append((f"formula = oracle for ℓ=3..{top}", _security_rows(top)))
    if args.kary:
        n, k = args.kary
        _count(n, "--kary order", 1)
        _count(k, "--kary arity", 2)
        orders = range(1, n + 1, k)  # the orders of the proper k-ary trees up to n
        exhaustive._kary_guard(orders[-1], k, proper=True)
        claim = f"k-ary root rank = oracle for n=1..{n}, k={k}"
        checks.append((claim, _kary_rows(orders, k)))
    if args.starlike:
        n, k = args.starlike
        _count(k, "--starlike degree", 1)
        _count(n, "--starlike order", k + 1)
        exhaustive._kary_guard(n, None)
        claim = f"degree-{k} root rank = oracle for n={k + 1}..{n}"
        checks.append((claim, _starlike_rows(range(k + 1, n + 1), k)))
    if not checks:
        raise GuardError("nothing to verify: pass --max-leaves, --kary or --starlike")
    for claim, rows in checks:
        for n, want, got in rows:
            if want != got:
                raise GuardError(
                    f"{claim} fails at n={n}: formula {want}, oracle {got}"
                )
        sys.stdout.write(f"OK: {claim}\n")


def _cmd_table(args):
    top = _count(args.max_leaves, "--max-leaves", 1, exhaustive.MAX_ENUM_LEAVES)
    sys.stdout.write(exhaustive.census_tsv(exhaustive._census_counts(top)))


def _cmd_export(args):
    from . import trees

    tree = _read_tree_arg(args)
    if args.format == "dot":
        sys.stdout.write(trees.export_dot(tree, annotate="ranks" if args.ranks else "none"))
    else:
        import json

        try:
            text = json.dumps(trees.tree_to_json(trees.canonical_form(tree)))
        except RecursionError:
            raise SizeError("JSON nesting over the recursion limit") from None
        sys.stdout.write(text + "\n")


def _build_parser(argv):
    """The parser of ``argv``.  When ``argv`` starts with a command name it
    holds that command's subparser alone, and the metavar that lists every
    command keeps the main usage as it reads with all of them."""
    parser = argparse.ArgumentParser(prog="treesec", description=__doc__)
    named = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        metavar=None if named is _COMMANDS else "{%s}" % ",".join(_COMMANDS),
    )
    for name in named:
        run, help, reads_tree, flags = _COMMANDS[name]
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        if reads_tree:
            g = p.add_mutually_exclusive_group(required=True)
            g.add_argument("--tree", help="tree text (parenthesis or JSON)")
            g.add_argument("--file", help="read the tree from this path ('-' = stdin)")
        for flag, options in flags:
            p.add_argument(flag, **options)
    return parser


_ROOT_RANK_CHECK = dict(nargs=2, type=int, metavar=("N", "K"), help="root-rank check")
# each command's function, its help, whether it reads a tree (--tree or
# --file) and its own flags with their add_argument options, in usage order
_COMMANDS = {
    "build": (
        _cmd_build,
        "construct a named tree family",
        False,
        [
            ("--family", dict(required=True, choices=list(_FAMILIES))),
            ("--leaves", dict(type=int)),
            ("--height", dict(type=int)),
            ("--order", dict(type=int)),
            ("--k", dict(type=int)),
            ("--arms", dict(help="comma-separated arm lengths")),
        ],
    ),
    "rank": (
        _cmd_rank,
        "vertex ranks (canonical preorder indices)",
        True,
        [("--vertex", dict(type=int, help="canonical preorder index"))],
    ),
    "security": (_cmd_security, "sum of all vertex ranks", True, []),
    "protected": (
        _cmd_protected,
        "count vertices of rank >= level",
        True,
        [("--level", dict(type=int, required=True))],
    ),
    "partition": (_cmd_partition, "saturated-subtree exponents", True, []),
    "normalize": (
        _cmd_normalize,
        "rewrite into the maximal spine shape",
        True,
        [("--trace", dict(action="store_true", help="print the rewrite log"))],
    ),
    "flip": (
        _cmd_flip,
        "security-preserving spine reshuffle",
        True,
        [
            ("--index", dict(type=int, required=True)),
            ("--variant", dict(type=int, required=True, choices=[1, 2])),
        ],
    ),
    "enumerate": (
        _cmd_enumerate,
        "all proper binary shapes for a leaf count",
        False,
        [
            ("--leaves", dict(type=int, required=True)),
            ("--count-only", dict(action="store_true")),
        ],
    ),
    "verify": (
        _cmd_verify,
        "check closed forms against brute force",
        False,
        [
            ("--max-leaves", dict(type=int)),
            ("--kary", _ROOT_RANK_CHECK),
            ("--starlike", _ROOT_RANK_CHECK),
        ],
    ),
    "table": (
        _cmd_table,
        "security census as TSV",
        False,
        [("--max-leaves", dict(type=int, required=True))],
    ),
    "export": (
        _cmd_export,
        "emit DOT or JSON",
        True,
        [
            ("--format", dict(required=True, choices=["dot", "json"])),
            ("--ranks", dict(action="store_true", help="label vertices with ranks")),
        ],
    ),
}


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    for name in ("stdout", "stderr"):  # Python sets a closed stream to None: drop its text
        # the /dev/null fd stays open until the process ends, so no close is left to miss
        stream = getattr(sys, name) or open(os.open(os.devnull, os.O_WRONLY), "w", closefd=False)
        setattr(sys, name, stream)
        if hasattr(stream, "reconfigure"):  # UTF-8 (OK: lines print ℓ), same error handler
            stream.reconfigure(encoding="utf-8", errors=stream.errors)
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
        args.run(args)
        sys.stdout.flush()
    except SizeError as e:
        print(f"treesec: size guard: {e}", file=sys.stderr)
        return 2
    except (ParseError, GuardError) as e:
        print(f"treesec: error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # argparse's usage errors are 1; 2 is a size refusal
        return 1 if e.code == 2 else e.code or 0
    except BrokenPipeError:
        return 0
    except OSError as e:  # reads raise GuardError, so a write failed: drop what is left
        sys.stdout = open(os.open(os.devnull, os.O_WRONLY), "w", closefd=False)
        print(f"treesec: error: cannot write output: {e.strerror}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
