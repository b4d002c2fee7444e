"""Command-line interface.

Exit status: 0 on success, 1 on parse/guard errors (message on stderr),
2 when a size guard refuses the request.  All output is line-oriented and
byte-deterministic for fixed inputs.
"""

import argparse
import sys

# every census command needs these two; builders, formulas and rewrites are
# imported by the commands that use them, so no other command compiles them
from . import exhaustive, trees
from .errors import GuardError, ParseError, SizeError, _count

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; flag/usage problems are exit 1
    # here, reserving 2 for size-guard refusals.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_tree_arg(args):
    if args.tree is not None:
        text = args.tree
    elif args.file == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as e:
            reason = getattr(e, "strerror", e)  # an OSError's text repeats the path
            raise GuardError(f"cannot read {args.file}: {reason}") from None
    return trees.read_tree(text)


def _build_parser():
    parser = _Parser(prog="treesec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

    def tree_command(name, run, help):
        p = command(name, run, help)
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--tree", help="tree text (parenthesis or JSON)")
        g.add_argument("--file", help="read the tree from this path ('-' = stdin)")
        return p

    p = command("build", _cmd_build, "construct a named tree family")
    p.add_argument("--family", required=True, choices=list(_FAMILIES))
    p.add_argument("--leaves", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--order", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--arms", help="comma-separated arm lengths")

    p = tree_command("rank", _cmd_rank, "vertex ranks (canonical preorder indices)")
    p.add_argument("--vertex", type=int, help="canonical preorder index")

    tree_command("security", _cmd_security, "sum of all vertex ranks")

    p = tree_command("protected", _cmd_protected, "count vertices of rank >= level")
    p.add_argument("--level", type=int, required=True)

    tree_command("partition", _cmd_partition, "saturated-subtree exponents")

    p = tree_command(
        "normalize", _cmd_normalize, "rewrite into the maximal spine shape"
    )
    p.add_argument("--trace", action="store_true", help="print the rewrite log")

    p = tree_command("flip", _cmd_flip, "security-preserving spine reshuffle")
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--variant", type=int, required=True, choices=[1, 2])

    p = command(
        "enumerate", _cmd_enumerate, "all proper binary shapes for a leaf count"
    )
    p.add_argument("--leaves", type=int, required=True)
    p.add_argument("--count-only", action="store_true")

    p = command("verify", _cmd_verify, "check closed forms against brute force")
    p.add_argument("--max-leaves", type=int)
    p.add_argument(
        "--kary", nargs=2, type=int, metavar=("N", "K"), help="root-rank check"
    )
    p.add_argument(
        "--starlike", nargs=2, type=int, metavar=("N", "K"), help="root-rank check"
    )

    p = command("table", _cmd_table, "security census as TSV")
    p.add_argument("--max-leaves", type=int, required=True)

    p = tree_command("export", _cmd_export, "emit DOT or JSON")
    p.add_argument("--format", required=True, choices=["dot", "json"])
    p.add_argument("--ranks", action="store_true", help="label vertices with ranks")

    return parser


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


def _cmd_build(args, out):
    from . import builders

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
    out.write(trees.serialize(build(*values), canonical=True) + "\n")


def _cmd_rank(args, out):
    tree = trees.canonical_form(_read_tree_arg(args))
    ranks = trees.all_ranks(tree)
    if args.vertex is not None:
        out.write(f"{ranks[trees._vertex(tree, args.vertex)]}\n")
    else:
        for v, r in enumerate(ranks):
            out.write(f"{v}\t{r}\n")


def _cmd_security(args, out):
    out.write(f"{trees.security(_read_tree_arg(args))}\n")


def _cmd_protected(args, out):
    out.write(f"{trees.protected_count(_read_tree_arg(args), args.level)}\n")


def _cmd_partition(args, out):
    vec = trees.partition_vector(_read_tree_arg(args))
    out.write(" ".join(str(m) for m in vec) + "\n")


def _cmd_normalize(args, out):
    from . import rewrites

    tree = trees.canonical_form(_read_tree_arg(args))
    result, trace = rewrites.normalize_to_power_spine(tree)
    if args.trace and trace.steps:
        out.write(trace.to_text() + "\n")
    out.write(trees.serialize(result, canonical=True) + "\n")


def _cmd_flip(args, out):
    from . import rewrites

    flipped = rewrites.flip_adjacent(_read_tree_arg(args), args.index, args.variant)
    out.write(trees.serialize(flipped, canonical=True) + "\n")


def _cmd_enumerate(args, out):
    if args.count_only:
        out.write(f"{exhaustive.count_shapes(args.leaves)}\n")
    else:
        for block in exhaustive._shape_blocks(args.leaves):
            out.write(block + "\n")


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


def _cmd_verify(args, out):
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
        out.write(f"OK: {claim}\n")


def _cmd_table(args, out):
    top = _count(args.max_leaves, "--max-leaves", 1, exhaustive.MAX_ENUM_LEAVES)
    out.write(exhaustive.census_tsv(exhaustive.census_table(top)))


def _cmd_export(args, out):
    tree = _read_tree_arg(args)
    if args.format == "dot":
        out.write(trees.export_dot(tree, annotate="ranks" if args.ranks else "none"))
    else:
        import json

        try:
            text = json.dumps(trees.tree_to_json(trees.canonical_form(tree)))
        except RecursionError:
            raise SizeError("JSON nesting over the recursion limit") from None
        out.write(text + "\n")


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.run(args, sys.stdout)
    except SizeError as e:
        print(f"treesec: size guard: {e}", file=sys.stderr)
        return 2
    except (ParseError, GuardError) as e:
        print(f"treesec: error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:
        return e.code or 0
    except BrokenPipeError:
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
