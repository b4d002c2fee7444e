import argparse
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import pytest

from treesec import cli, exhaustive, formulas, rewrites, trees
from treesec import (
    GuardError,
    build_almost_complete,
    build_binary_caterpillar,
    build_complete_binary,
    build_complete_kary,
    build_power_spine,
    build_starlike,
    enumerate_shapes,
    export_dot,
    is_isomorphic,
    max_security,
    parse,
    read_tree,
    security,
    serialize,
)
from treesec.cli import main

FIG1 = "((L(LL))(L((LL)(LL))))"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- a small checker for the DOT grammar (graphviz syntax, digraph form) ---

_TOKEN = re.compile(
    r'\s+|(?P<id>[A-Za-z_][A-Za-z_0-9]*|-?(?:\.\d+|\d+(?:\.\d*)?)|"(?:[^"\\]|\\.)*")'
    r"|(?P<punct>->|--|[{}\[\];,=])"
)


def _tokenize_dot(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise AssertionError(f"DOT tokenizer stuck at {text[pos:pos+20]!r}")
        if m.lastgroup:
            out.append(m.group(m.lastgroup))
        pos = m.end()
    return out


class DotParser:
    """Recursive-descent parser for the DOT grammar subset: a digraph with
    node statements, edge statements and attribute lists."""

    def __init__(self, text):
        self.toks = _tokenize_dot(text)
        self.i = 0
        self.nodes = {}
        self.edges = []

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, expected=None):
        tok = self.peek()
        assert tok is not None, "unexpected end of DOT input"
        if expected is not None:
            assert tok == expected, f"expected {expected!r}, got {tok!r}"
        self.i += 1
        return tok

    def _is_id(self, tok):
        return tok is not None and tok not in "{}[];,=" and tok not in ("->", "--")

    def parse(self):
        if self.peek() == "strict":
            self.take()
        kind = self.take()
        assert kind in ("digraph", "graph")
        if self._is_id(self.peek()):
            self.take()
        self.take("{")
        while self.peek() != "}":
            self.stmt()
            if self.peek() == ";":
                self.take()
        self.take("}")
        assert self.peek() is None, "trailing tokens after the graph"
        return self

    def stmt(self):
        first = self.take()
        assert self._is_id(first), f"statement must start with an id, got {first!r}"
        if self.peek() == "=":
            self.take()
            value = self.take()
            assert self._is_id(value)
            return
        attrs = {}
        while self.peek() == "[":
            attrs.update(self.attr_list())
        if self.peek() in ("->", "--"):
            prev = first
            while self.peek() in ("->", "--"):
                self.take()
                nxt = self.take()
                assert self._is_id(nxt)
                self.edges.append((prev, nxt))
                prev = nxt
            while self.peek() == "[":
                self.attr_list()
        else:
            self.nodes[first] = attrs

    def attr_list(self):
        self.take("[")
        attrs = {}
        while self.peek() != "]":
            key = self.take()
            self.take("=")
            value = self.take()
            attrs[key] = value.strip('"')
            if self.peek() in (",", ";"):
                self.take()
        self.take("]")
        return attrs


class TestExportDot:
    def test_single_vertex_with_rank_label(self):
        dot = export_dot(parse("L"), annotate="ranks")
        p = DotParser(dot).parse()
        assert p.nodes == {"0": {"label": "0"}}
        assert p.edges == []

    def test_worked_example_rank_labels(self):
        dot = export_dot(parse(FIG1), annotate="ranks")
        p = DotParser(dot).parse()
        labels = sorted(int(a["label"]) for a in p.nodes.values())
        assert labels == [0] * 8 + [1] * 5 + [2] * 2
        assert int(p.nodes["0"]["label"]) == 2  # the root
        assert len(p.edges) == 14

    def test_plain_export_parses_and_names_by_preorder(self):
        dot = export_dot(parse("((LL)L)"))
        p = DotParser(dot).parse()
        assert sorted(p.nodes) == ["0", "1", "2", "3", "4"]
        # canonical preorder: leaf child first
        assert ("0", "1") in p.edges

    def test_deterministic(self):
        a = export_dot(parse(FIG1), annotate="ranks")
        b = export_dot(parse(FIG1), annotate="ranks")
        assert a == b

    def test_unknown_annotation_rejected(self):
        with pytest.raises(GuardError, match="^unknown annotation 'x'$"):
            export_dot(parse("(LL)"), annotate="x")


class TestCommands:
    def test_security(self, capsys):
        code, out, _ = run(capsys, "security", "--tree", FIG1)
        assert code == 0 and out == "9\n"

    def test_build_tl(self, capsys):
        code, out, _ = run(capsys, "build", "--family", "tl", "--leaves", "7")
        assert code == 0 and out == "(L((LL)((LL)(LL))))\n"

    def test_build_f_power_of_two_is_complete(self, capsys):
        _, f_out, _ = run(capsys, "build", "--family", "f", "--leaves", "8")
        _, c_out, _ = run(capsys, "build", "--family", "complete", "--height", "3")
        assert f_out == c_out

    def test_build_starlike_and_kary(self, capsys):
        code, out, _ = run(capsys, "build", "--family", "starlike", "--arms", "2,2,2")
        assert code == 0 and len(read_tree(out)) == 7 and out.count("L") == 3
        code, out, _ = run(
            capsys, "build", "--family", "complete-kary", "--order", "13", "--k", "3"
        )
        assert code == 0 and len(read_tree(out)) == 13

    def test_build_missing_flag(self, capsys):
        code, _, err = run(capsys, "build", "--family", "tl")
        assert code == 1 and "leaves" in err

    def test_rank_table_and_vertex(self, capsys):
        code, out, _ = run(capsys, "rank", "--tree", FIG1)
        lines = out.strip().split("\n")
        assert code == 0 and len(lines) == 15
        assert lines[0] == "0\t2"
        code, out, _ = run(capsys, "rank", "--tree", FIG1, "--vertex", "0")
        assert code == 0 and out == "2\n"

    @pytest.mark.parametrize("vertex", ["3", "-1"])
    def test_rank_vertex_out_of_range(self, capsys, vertex):
        code, out, err = run(capsys, "rank", "--tree", "(LL)", "--vertex", vertex)
        assert (code, out) == (1, "")
        assert err == f"treesec: error: vertex id {vertex} out of range\n"

    def test_protected(self, capsys):
        code, out, _ = run(capsys, "protected", "--tree", FIG1, "--level", "2")
        assert code == 0 and out == "2\n"

    def test_partition(self, capsys):
        code, out, _ = run(
            capsys, "partition", "--tree", "(((((LL)(LL))(LL))((LL)(LL)))L)"
        )
        assert code == 0 and out == "2 2 1 0\n"

    def test_normalize_with_trace(self, capsys):
        code, out, _ = run(capsys, "normalize", "--tree", "(L(L(LL)))", "--trace")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[-1] == "((LL)(LL))"
        assert lines[0].startswith("switch_nested_high_sibling: security 3 -> 4")

    def test_flip(self, capsys):
        _, spine, _ = run(capsys, "build", "--family", "tl", "--leaves", "11")
        code, out, _ = run(
            capsys, "flip", "--tree", spine.strip(), "--index", "2", "--variant", "2"
        )
        assert code == 0
        assert security(read_tree(out)) == max_security(11)

    def test_enumerate(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--leaves", "5")
        assert code == 0 and len(out.strip().split("\n")) == 3
        code, out, _ = run(capsys, "enumerate", "--leaves", "5", "--count-only")
        assert code == 0 and out == "3\n"

    def test_verify(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-leaves", "12")
        assert code == 0
        assert out == "OK: formula = oracle for ℓ=3..12\n"

    def test_verify_kary_and_starlike(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--kary", "12", "3", "--starlike", "9", "3"
        )
        assert code == 0
        assert "OK: k-ary root rank = oracle for n=1..12, k=3" in out
        assert "OK: degree-3 root rank = oracle for n=4..9" in out

    @pytest.mark.parametrize(
        "n,k,orders",
        [
            (12, 3, [1, 4, 7, 10]),
            (14, 2, [1, 3, 5, 7, 9, 11, 13]),
            (1, 5, [1]),
            # 37 is the last proper ternary order the guard admits; up to 30
            # the last proper binary order is 29, the binary guard
            (37, 3, list(range(1, 38, 3))),
            (30, 2, list(range(1, 30, 2))),
        ],
    )
    def test_verify_kary_checks_the_proper_orders(self, capsys, monkeypatch, n, k, orders):
        seen = []
        rows = exhaustive._root_rank_rows

        def spy(orders, *args, **kwargs):
            for order, extremes in rows(orders, *args, **kwargs):
                seen.append(order)
                yield order, extremes

        monkeypatch.setattr(exhaustive, "_root_rank_rows", spy)
        code, out, _ = run(capsys, "verify", "--kary", str(n), str(k))
        assert code == 0 and seen == orders
        assert out == f"OK: k-ary root rank = oracle for n=1..{n}, k={k}\n"

    def test_verify_builds_each_root_rank_table_once(self, capsys, monkeypatch):
        # --kary builds its last proper order, --starlike its order n
        calls = []
        build = exhaustive._kshapes

        def spy(n, k, proper):
            calls.append((n, k, proper))
            return build(n, k, proper)

        monkeypatch.setattr(exhaustive, "_kshapes", spy)
        argv = ["verify", "--kary", "12", "3", "--starlike", "11", "3"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and calls == [(10, 3, True), (11, None, False)]
        assert out == (
            "OK: k-ary root rank = oracle for n=1..12, k=3\n"
            "OK: degree-3 root rank = oracle for n=4..11\n"
        )

    def test_table(self, capsys):
        code, out, _ = run(capsys, "table", "--max-leaves", "7")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "leaves\tshapes\tmax_security\tmaximizers\tfraction"
        assert lines[7] == "7\t11\t8\t4\t4/11"
        assert "." not in out

    def test_export_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "export", "--tree", FIG1, "--format", "json")
        assert code == 0
        assert is_isomorphic(read_tree(out), parse(FIG1))
        json.loads(out)

    def test_export_dot_via_cli(self, capsys):
        code, out, _ = run(capsys, "export", "--tree", FIG1, "--format", "dot", "--ranks")
        assert code == 0
        DotParser(out).parse()


# every build family: the flags it reads, in the order they are checked, with
# one valid value each, and the builder that those values reach
BUILD_FAMILIES = [
    ("tl", [("leaves", "7")], lambda: build_power_spine(7)),
    ("f", [("leaves", "6")], lambda: build_almost_complete(6)),
    ("complete", [("height", "3")], lambda: build_complete_binary(3)),
    ("caterpillar", [("leaves", "5")], lambda: build_binary_caterpillar(5)),
    ("starlike", [("arms", "2,1,3")], lambda: build_starlike([2, 1, 3])),
    (
        "complete-kary",
        [("order", "13"), ("k", "3")],
        lambda: build_complete_kary(13, 3),
    ),
]


def _build_argv(family, flags):
    argv = ["build", "--family", family]
    for flag, value in flags:
        argv += [f"--{flag}", value]
    return argv


class TestBuildFamilies:
    @pytest.mark.parametrize("family,flags,build", BUILD_FAMILIES)
    def test_valid_call_prints_the_builders_canonical_text(
        self, capsys, family, flags, build
    ):
        code, out, err = run(capsys, *_build_argv(family, flags))
        assert (code, err) == (0, "")
        assert out == serialize(build(), canonical=True) + "\n"

    @pytest.mark.parametrize("family,flags,build", BUILD_FAMILIES)
    def test_each_missing_flag_is_named(self, capsys, family, flags, build):
        for i, (flag, _) in enumerate(flags):
            rest = flags[:i] + flags[i + 1 :]
            code, out, err = run(capsys, *_build_argv(family, rest))
            want = f"treesec: error: --{flag} is required for family {family}\n"
            assert (code, out, err) == (1, "", want)

    @pytest.mark.parametrize(
        "family,flags,missing",
        [
            ("complete", [("leaves", "5")], "height"),
            ("tl", [("height", "3"), ("arms", "1,2")], "leaves"),
            ("starlike", [("leaves", "5")], "arms"),
            ("starlike", [("arms", "")], "arms"),
            ("complete-kary", [], "order"),
        ],
    )
    def test_the_first_flag_missing_is_named(self, capsys, family, flags, missing):
        # a flag of another family is no substitute, and empty arms are missing
        code, out, err = run(capsys, *_build_argv(family, flags))
        want = f"treesec: error: --{missing} is required for family {family}\n"
        assert (code, out, err) == (1, "", want)

    @pytest.mark.parametrize("arms", ["1,,2", "a", "1.5", "2,x"])
    def test_arms_must_be_integers(self, capsys, arms):
        code, out, err = run(capsys, "build", "--family", "starlike", "--arms", arms)
        assert (code, out) == (1, "")
        assert err == "treesec: error: --arms must be comma-separated integers\n"

    def test_a_zero_value_reaches_the_builders_own_guard(self, capsys):
        with pytest.raises(GuardError) as refused:
            build_power_spine(0)
        code, out, err = run(capsys, "build", "--family", "tl", "--leaves", "0")
        assert (code, out) == (1, "")
        assert err == f"treesec: error: {refused.value}\n"


class TestTreeInputs:
    def test_json_tree_inline(self, capsys):
        obj = json.dumps({"children": [{"children": []}, {"children": []}]})
        code, out, _ = run(capsys, "security", "--tree", obj)
        assert code == 0 and out == "1\n"

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "tree.txt"
        path.write_text(FIG1)
        code, out, _ = run(capsys, "security", "--file", str(path))
        assert code == 0 and out == "9\n"

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(FIG1.encode())))
        code, out, _ = run(capsys, "security", "--file", "-")
        assert code == 0 and out == "9\n"

    def test_outputs_reparse(self, capsys):
        for family, flags in [
            ("tl", ["--leaves", "11"]),
            ("f", ["--leaves", "11"]),
            ("caterpillar", ["--leaves", "5"]),
        ]:
            _, out, _ = run(capsys, "build", "--family", family, *flags)
            reparsed = read_tree(out)
            _, again, _ = run(capsys, "security", "--tree", out.strip())
            assert int(again) == security(reparsed)

    def test_enumerate_lines_are_the_library_trees(self, capsys):
        # the CLI prints the table's texts; the library parses them into trees
        for leaves in range(1, 15):
            code, out, _ = run(capsys, "enumerate", "--leaves", str(leaves))
            want = "".join(serialize(t) + "\n" for t in enumerate_shapes(leaves))
            assert code == 0 and out == want, leaves

    def test_enumerate_output_reparses(self, capsys):
        _, out, _ = run(capsys, "enumerate", "--leaves", "6")
        for line in out.strip().split("\n"):
            t = read_tree(line)
            assert t.leaf_count() == 6


# the OK: lines of verify --max-leaves 6 --kary 7 2 --starlike 6 2
VERIFY_OK_LINES = [
    "OK: formula = oracle for ℓ=3..6\n",
    "OK: k-ary root rank = oracle for n=1..7, k=2\n",
    "OK: degree-2 root rank = oracle for n=3..6\n",
]


class TestExitCodes:
    def test_parse_error_is_one(self, capsys):
        code, _, err = run(capsys, "security", "--tree", "((L)")
        assert code == 1 and "error" in err

    def test_guard_error_is_one(self, capsys):
        code, _, err = run(capsys, "partition", "--tree", "(LLL)")
        assert code == 1 and err

    def test_size_guard_is_two(self, capsys):
        code, _, err = run(capsys, "enumerate", "--leaves", "23")
        assert code == 2 and "size guard" in err

    def test_unknown_flag_is_one(self, capsys):
        code, _, err = run(capsys, "security", "--tree", "L", "--bogus")
        assert code == 1 and err

    def test_unknown_command_is_one(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_table_over_guard_is_two(self, capsys):
        code, out, err = run(capsys, "table", "--max-leaves", "23")
        assert (code, out) == (2, "")
        assert err == "treesec: size guard: --max-leaves over guard (22)\n"

    @pytest.mark.parametrize("count_only", [[], ["--count-only"]])
    def test_enumerate_over_guard_is_two(self, capsys, count_only):
        code, out, err = run(capsys, "enumerate", "--leaves", "23", *count_only)
        assert (code, out) == (2, "")
        assert err == "treesec: size guard: --leaves over guard (22)\n"

    @pytest.mark.parametrize("count_only", [[], ["--count-only"]])
    def test_enumerate_without_leaves_is_one(self, capsys, count_only):
        code, out, err = run(capsys, "enumerate", "--leaves", "0", *count_only)
        assert (code, out) == (1, "")
        assert err == "treesec: error: --leaves must be at least 1\n"

    def test_table_without_leaves_is_one(self, capsys):
        code, out, err = run(capsys, "table", "--max-leaves", "0")
        assert (code, out) == (1, "")
        assert err == "treesec: error: --max-leaves must be at least 1\n"

    def test_verify_over_guard_refuses_before_any_work(self, capsys, monkeypatch):
        def fail(leaves):
            raise AssertionError(f"{leaves}-leaf tables were built before the guard")

        monkeypatch.setattr(exhaustive, "_bshapes", fail)
        limit = exhaustive.MAX_ENUM_LEAVES
        code, out, err = run(capsys, "verify", "--max-leaves", str(limit + 1))
        assert code == 2 and "size guard" in err and out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--max-leaves", "8", "--kary", "40", "3"],
            ["--kary", "12", "3", "--starlike", "12", "3"],
            # the proper guard does not grow with the arity past k = 6
            ["--kary", "1100001", "100000"],
        ],
    )
    def test_verify_root_rank_over_guard_refuses_before_any_work(
        self, capsys, monkeypatch, argv
    ):
        def fail(*args, **kwargs):
            raise AssertionError("a check ran before the order guard")

        monkeypatch.setattr(exhaustive, "_bshapes", fail)
        monkeypatch.setattr(exhaustive, "_root_rank_rows", fail)
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and "size guard" in err and out == ""

    def test_verify_kary_guards_the_last_proper_order(self, capsys, monkeypatch):
        # 31 is a proper binary order, one over the guard of 29
        def fail(*args, **kwargs):
            raise AssertionError("a check ran before the order guard")

        monkeypatch.setattr(exhaustive, "_root_rank_rows", fail)
        code, out, err = run(capsys, "verify", "--kary", "31", "2")
        assert code == 2 and "(29 for this arity)" in err and out == ""

    def test_deep_json_input_is_a_size_refusal(self, capsys, monkeypatch):
        deep = '{"children": [' * 5000 + '{"children": []}' + "]}" * 5000
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(deep.encode())))
        code, out, err = run(capsys, "security", "--file", "-")
        assert code == 2 and err.startswith("treesec: size guard:") and out == ""

    def test_deep_json_export_is_a_size_refusal(self, capsys):
        deep = "(L" * 3000 + "L" + ")" * 3000
        code, out, err = run(capsys, "export", "--format", "json", "--tree", deep)
        assert code == 2 and err.startswith("treesec: size guard:") and out == ""

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit"
    )
    def test_overlong_json_integer_is_a_size_refusal(self, capsys):
        # json.loads raises a plain ValueError past int()'s digit limit
        text = '{"children": [], "x": ' + "1" * 5000 + "}"
        code, out, err = run(capsys, "security", "--tree", text)
        assert (code, out) == (2, "")
        assert err == "treesec: size guard: JSON integer over the digit limit\n"

    @pytest.mark.parametrize(
        "name", ["missing.txt", "a-directory", "latin1.txt", "-strict", "-surrogateescape"]
    )
    def test_unreadable_file_is_one(self, capsys, monkeypatch, tmp_path, name):
        (tmp_path / "a-directory").mkdir()
        (tmp_path / "latin1.txt").write_bytes(b"(L\xe9L)")
        path = str(tmp_path / name)
        if name.startswith("-"):  # stdin, behind either kind of text stream
            path, errors = "-", name[1:]
            stdin = io.TextIOWrapper(io.BytesIO(b"(L\xe9L)"), "utf-8", errors)
            monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, "security", "--file", path)
        assert code == 1 and out == ""
        assert err.startswith(f"treesec: error: cannot read {path}: ")

    def test_verify_empty_kary_range_is_one(self, capsys):
        code, out, err = run(capsys, "verify", "--kary", "0", "3")
        assert code == 1 and "error" in err and out == ""

    def test_verify_empty_starlike_range_is_one(self, capsys):
        code, out, err = run(capsys, "verify", "--starlike", "3", "5")
        assert code == 1 and "error" in err and out == ""

    def test_verify_with_no_check_is_one(self, capsys):
        code, out, err = run(capsys, "verify")
        assert (code, out) == (1, "")
        assert err == (
            "treesec: error: nothing to verify: pass --max-leaves, --kary or --starlike\n"
        )

    def test_a_closed_pipe_is_zero(self, capsys, monkeypatch):
        # a reader that stops early (treesec enumerate ... | head) ends the
        # listing quietly
        writes = []

        def closed(text):
            writes.append(text)
            raise BrokenPipeError

        monkeypatch.setattr(sys.stdout, "write", closed)
        assert main(["enumerate", "--leaves", "9"]) == 0
        assert len(writes) == 1

    @pytest.mark.parametrize(
        "name,ran,message",
        [
            (
                "max_security",
                0,
                "formula = oracle for ℓ=3..6 fails at n=5: formula 6, oracle 5",
            ),
            (
                "max_root_rank_kary",
                1,
                "k-ary root rank = oracle for n=1..7, k=2 fails at n=5: "
                "formula 2, oracle 1",
            ),
            (
                "max_root_rank_starlike",
                2,
                "degree-2 root rank = oracle for n=3..6 fails at n=5: "
                "formula 3, oracle 2",
            ),
        ],
        ids=["max-leaves", "kary", "starlike"],
    )
    def test_verify_disagreement_is_one_and_stops_that_check(
        self, capsys, monkeypatch, name, ran, message
    ):
        # one closed form is off by one at n = 5: the checks before it print
        # their OK: lines, and that check prints none
        real = getattr(formulas, name)

        def off_at_five(n, *args):
            want = real(n, *args)
            if n != 5:
                return want
            return want + 1 if type(want) is int else want._replace(value=want.value + 1)

        monkeypatch.setattr(formulas, name, off_at_five)
        argv = ["--max-leaves", "6", "--kary", "7", "2", "--starlike", "6", "2"]
        code, out, err = run(capsys, "verify", *argv)
        assert (code, err) == (1, f"treesec: error: {message}\n")
        assert out == "".join(VERIFY_OK_LINES[:ran])


# the census commands that read the counting recurrence, at their guards
CENSUS_COUNTS = [
    ["table", "--max-leaves", "20"],
    ["enumerate", "--leaves", "22", "--count-only"],
]


class TestCensusPaths:
    """The census counts come from the counting recurrence and build no
    shape table; ``verify`` measures the enumerated shapes, and the listing
    makes their keys without measuring them."""

    @staticmethod
    def _fail(leaves):
        raise AssertionError(f"the {leaves}-leaf computation ran")

    @pytest.mark.parametrize("argv", CENSUS_COUNTS)
    def test_counts_build_no_shape_table(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(exhaustive, "_bshapes", self._fail)
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == "" and out

    def test_verify_enumerates(self, capsys, monkeypatch):
        monkeypatch.setattr(exhaustive, "_shape_classes", self._fail)
        code, out, _ = run(capsys, "verify", "--max-leaves", "20")
        assert code == 0 and out == "OK: formula = oracle for ℓ=3..20\n"

    def test_verify_builds_the_binary_tables_once(self, capsys, monkeypatch):
        calls = []
        build = exhaustive._bshapes

        def spy(leaves):
            calls.append(leaves)
            return build(leaves)

        monkeypatch.setattr(exhaustive, "_bshapes", spy)
        code, out, _ = run(capsys, "verify", "--max-leaves", "20")
        assert code == 0 and out == "OK: formula = oracle for ℓ=3..20\n"
        assert calls == [20]

    def test_verify_makes_no_keys(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("shape keys were made")

        monkeypatch.setattr(exhaustive, "_bkeys", fail)
        code, out, _ = run(capsys, "verify", "--max-leaves", "20")
        assert code == 0 and out == "OK: formula = oracle for ℓ=3..20\n"

    def test_listing_measures_no_security(self, capsys, monkeypatch):
        want = "".join(trees.serialize(t) + "\n" for t in exhaustive.enumerate_shapes(12))
        monkeypatch.setattr(exhaustive, "_bshapes", self._fail)
        code, out, err = run(capsys, "enumerate", "--leaves", "12")
        assert (code, out, err) == (0, want, "")


class TestPinnedOutputs:
    """sha256 of the census commands' stdout, pinned so that a change to
    the shape tables cannot alter a byte of what they print."""

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ["table", "--max-leaves", "20"],
                "0865136ceed82ffcb2d2623627adfe499f0182d011b9aaa4e3aad99c90f17d3a",
            ),
            (
                ["enumerate", "--leaves", "17"],
                "2949dfbdc9bce5f305f953a832c23fc56e1d07c981f321eced89f672d0cc3868",
            ),
            (
                ["enumerate", "--leaves", "20"],
                "ac62df59b6df71028ff2b70d1658a04a8bd857ee7e603d71cec642e504821f43",
            ),
        ],
    )
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# exit code, stdout and stderr of the parser's help, usage and error paths
# for every command, recorded with COLUMNS=80 on the Python version named
_ARGPARSE = json.loads((Path(__file__).parent / "argparse_pins.json").read_text("utf-8"))


class TestArgparsePinned:
    """A command's subparser is built alone when the command is named first,
    so every help, usage and error text is pinned byte for byte."""

    cases = pytest.mark.parametrize(
        "case", _ARGPARSE["cases"], ids=lambda case: " ".join(case["argv"]) or "-"
    )

    @cases
    def test_output_is_pinned(self, capsys, monkeypatch, case):
        monkeypatch.setenv("COLUMNS", str(_ARGPARSE["columns"]))
        code, out, err = run(capsys, *case["argv"])
        assert code == case["code"]  # main, not argparse, decides it
        # the texts are pinned on one version: others word some differently
        if "%d.%d" % sys.version_info[:2] == _ARGPARSE["python"]:
            assert (out, err) == (case["stdout"], case["stderr"])

    @cases
    def test_one_subparser_prints_as_all_eleven(self, capsys, monkeypatch, case):
        monkeypatch.setenv("COLUMNS", str(_ARGPARSE["columns"]))
        got = run(capsys, *case["argv"])
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda argv: build([]))
        assert got == run(capsys, *case["argv"])

    @pytest.mark.parametrize("argv", [[], ["-h"], ["frobnicate"], ["table"]])
    def test_subparsers_built(self, argv):
        [sub] = cli._build_parser(argv)._subparsers._group_actions
        want = argv[:1] if argv[:1] == ["table"] else list(cli._COMMANDS)
        assert list(sub.choices) == want


# Runs one CLI command, its argv given whole, as a child process that
# inherits stdin, and prints its exit code and peak RSS in KiB, read with
# ``os.wait4`` as perfbench does.  A forked child's peak counts the memory of
# the process that forked it, so this small interpreter does the forking
# rather than the test process.
_PEAK_RSS_PROBE = """
import os, subprocess, sys
proc = subprocess.Popen(
    [sys.executable, "-m", "treesec.cli", *sys.argv[1:]], stdout=subprocess.DEVNULL
)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss_mb(argv, stdin=subprocess.DEVNULL):
    """Exit code and peak RSS in MB of one cold CLI process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_PROBE, *argv],
        stdin=stdin,
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=300,
    )
    code, peak_kib = map(int, result.stdout.split())
    return code, peak_kib / 1024


@pytest.mark.parametrize(
    "argv",
    [["rank"], ["export", "--format", "dot"], ["normalize"], ["normalize", "--trace"]],
)
def test_deep_tree_commands_stay_small(tmp_path, argv):
    path = tmp_path / "caterpillar.txt"
    path.write_text("(L" * 16382 + "(LL)" + ")" * 16382)  # 16,384 leaves
    with open(path) as stdin:
        code, peak_mb = _peak_rss_mb([*argv, "--file", "-"], stdin)
    assert code == 0
    assert peak_mb < 100


@pytest.mark.parametrize("argv", CENSUS_COUNTS)
def test_census_counts_stay_small(argv):
    # the 20- and 22-leaf shape tables alone would take about 84 and 378 MB
    code, peak_mb = _peak_rss_mb(argv)
    assert code == 0
    assert peak_mb < 40


@pytest.mark.parametrize(
    "argv,limit_mb",
    [
        (["verify", "--max-leaves", "20"], 45),
        (["verify", "--max-leaves", "22"], 40),
        (["enumerate", "--leaves", "20"], 46),
        (["enumerate", "--leaves", "22"], 185),
    ],
    ids=["verify-20", "verify-22", "enumerate-20", "enumerate-22"],
)
def test_shape_tables_stay_small(argv, limit_mb):
    # verify stores one security byte per shape and makes no key (with the
    # keys of 1..21 leaves stored, 22 leaves took about 101 MB); enumerate
    # keeps the text keys of the lower levels and merges its output level
    # from them without storing it (with the level stored and sorted, 20
    # and 22 leaves took 47-51 and 203-208 MB)
    code, peak_mb = _peak_rss_mb(argv)
    assert code == 0
    assert peak_mb < limit_mb


def test_package_imports_only_the_standard_library():
    # a fresh interpreter, so that modules the tests import hide nothing;
    # dir() loads every module of the package
    probe = (
        "import sys; before = set(sys.modules); import treesec, treesec.cli; dir(treesec); "
        "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    imported = set(result.stdout.split())
    assert "treesec" in imported
    assert imported - {"treesec"} <= sys.stdlib_module_names


def _run_without_site(probe):
    # a fresh interpreter without site, so that nothing else loads modules
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return result.stdout


def test_package_import_skips_the_modules_it_does_not_need():
    # dataclasses pulls in inspect, and json and fractions are imported
    # where they are used; dir() loads every module of the package
    probe = "import sys, treesec, treesec.cli; dir(treesec); print(*sys.modules)"
    loaded = set(_run_without_site(probe).split())
    assert "treesec.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "json", "fractions"}


@pytest.mark.parametrize(
    "argv",
    [
        "table --max-leaves 8",
        "verify --max-leaves 8 --kary 7 2 --starlike 6 2",
        "enumerate --leaves 8 --count-only",
        "enumerate --leaves 8",
    ],
    ids=["table", "verify", "enumerate-count", "enumerate-list"],
)
def test_census_commands_make_no_fraction(argv):
    # table renders the census counts and verify reads the class bests, so
    # neither builds a census row; fractions loads only with a Fraction
    out = _run_without_site(
        "import sys; from treesec.cli import main; "
        f"code = main({argv.split()!r}); print(code, 'fractions' in sys.modules)"
    )
    assert out.splitlines()[-1] == "0 False"


class _Writes:
    """An ``out`` that keeps each ``write``."""

    def __init__(self):
        self.calls = []

    def write(self, text):
        self.calls.append(text)


class TestListingBlocks:
    @pytest.mark.parametrize("leaves", range(1, 18))
    def test_listing_is_written_in_blocks(self, leaves):
        out = _Writes()
        cli._cmd_enumerate(argparse.Namespace(leaves=leaves, count_only=False), out)
        want = "".join(trees.serialize(t) + "\n" for t in exhaustive.enumerate_shapes(leaves))
        assert "".join(out.calls) == want
        blocks = -(-exhaustive.count_shapes(leaves) // exhaustive._TEXT_BLOCK)
        assert len(out.calls) <= blocks

    def test_unbuffered_stdout_prints_the_same_bytes(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("PYTHONUNBUFFERED", None)
        outs = []
        for extra in ({}, {"PYTHONUNBUFFERED": "1"}):
            result = subprocess.run(
                [sys.executable, "-m", "treesec.cli", "enumerate", "--leaves", "12"],
                capture_output=True,
                check=True,
                env={**env, **extra},
            )
            outs.append(result.stdout)
        assert outs[0] == outs[1]
        assert outs[0].count(b"\n") == exhaustive.count_shapes(12)


# each result record, its field names and one value per field
RECORDS = [
    (
        trees.ShapeReport,
        "leaf_count height is_proper_binary is_complete_binary outdegree_sequence",
        (3, 2, True, False, (0, 0, 0, 2, 2)),
    ),
    (
        exhaustive.ShapeCensus,
        "leaf_count total_shapes max_security maximizer_count maximizer_fraction",
        (7, 11, 8, 4, Fraction(4, 11)),
    ),
    (
        exhaustive.RootRankExtremes,
        "max_root_rank max_vertex_rank trees_scanned",
        (2, 3, 40),
    ),
    (formulas.BoundReport, "value", (5,)),
    (rewrites.SwitchContext, "u w u0 w0 u1 w1", (3, 6, 1, 2, 4, 5)),
    (
        rewrites.RewriteStep,
        "rule edges_removed edges_added security_before security_after",
        ("hoist_min_saturated", ((0, 1),), ((2, 1),), 4, 5),
    ),
    (rewrites.RewriteTrace, "steps", ((),)),
]


@pytest.mark.parametrize(
    "record,names,values", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_result_records_keep_their_fields_and_stay_immutable(record, names, values):
    names = names.split()
    by_position = record(*values)
    by_keyword = record(**dict(zip(names, values)))
    assert by_position == by_keyword and hash(by_position) == hash(by_keyword)
    assert [getattr(by_keyword, name) for name in names] == list(values)
    fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    assert repr(by_position) == f"{record.__name__}({fields})"
    for name in [*names, "extra"]:
        with pytest.raises(AttributeError):
            setattr(by_position, name, 0)
    assert record.__doc__


def _declared_names():
    from treesec import builders, errors, formulas, rewrites, trees

    modules = (builders, errors, exhaustive, formulas, rewrites, trees)
    return [name for module in modules for name in module.__all__]


def test_package_exports_the_union_of_the_modules_public_names():
    import treesec

    declared = set(_declared_names())
    dir(treesec)  # the names load on first use
    public = {
        name
        for name, value in vars(treesec).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == declared
    assert "MAX_ENUM_LEAVES" in public


def test_star_import_dir_and_all_give_the_union_of_the_modules_names():
    import treesec

    declared = _declared_names()
    namespace = {}
    exec("from treesec import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(declared)
    listed = {
        name
        for name in dir(treesec)
        if not name.startswith("_") and not isinstance(getattr(treesec, name), ModuleType)
    }
    assert listed == set(declared)
    assert sorted(treesec.__all__) == sorted(declared)


@pytest.mark.parametrize("name", ["no_such_name", "_private", "__wrapped__"])
def test_package_has_no_other_attribute(name):
    import treesec

    with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
        getattr(treesec, name)


def test_package_names_load_on_first_use():
    # importing one module loads only what it imports; the first public
    # name of the package loads every module
    out = _run_without_site(
        "import sys, treesec\n"
        "from treesec import trees\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('treesec.'))\n"
        "print(*loaded())\n"
        "treesec.parse\n"
        "print(*loaded())"
    )
    modules = "builders errors exhaustive formulas rewrites trees"
    assert out.splitlines() == [
        "treesec.errors treesec.trees",
        " ".join(f"treesec.{m}" for m in modules.split()),
    ]


# the modules that only some commands import, and which of them each loads;
# heapq merges the listed level, so only the listing loads it
@pytest.mark.parametrize(
    "argv,want",
    [
        ("table --max-leaves 5", set()),
        ("enumerate --leaves 5", {"heapq"}),
        ("enumerate --leaves 5 --count-only", set()),
        ("verify --max-leaves 5", {"formulas"}),
        ("verify --kary 7 3 --starlike 6 3", {"formulas"}),
        ("build --family tl --leaves 5", {"builders", "formulas", "trees"}),
        ("normalize --tree ((LL)(L(LL)))", {"builders", "formulas", "rewrites", "trees"}),
        (
            "flip --tree (L((LL)((LL)(LL)))) --index 2 --variant 2",
            {"builders", "formulas", "rewrites", "trees"},
        ),
        ("security --tree ((LL)(L(LL)))", {"trees"}),
        ("export --tree ((LL)(L(LL))) --format dot", {"trees"}),
    ],
)
def test_each_command_loads_only_the_modules_it_runs(argv, want):
    out = _run_without_site(
        "import sys; from treesec.cli import main; "
        f"code = main({argv.split()!r}); print(code, *sys.modules)"
    )
    code, *loaded = out.splitlines()[-1].split()
    names = {m: f"treesec.{m}" for m in ("builders", "formulas", "rewrites", "trees")}
    names["heapq"] = "heapq"
    assert code == "0"
    assert {m for m, name in names.items() if name in loaded} == want


def test_module_entry_point_runs_without_warnings():
    # a fresh interpreter, so that the package is imported the way ``-m`` does
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-m", "treesec.cli", "security", "--tree", "(LL)"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "1\n", "")
    probe = "import sys, treesec; print('treesec.cli' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env
    )
    assert result.stdout == "False\n"


def _closed_stream_run(command):
    # a fresh interpreter in sh, so that ``<&-`` and ``>&-`` close the stream
    # before Python starts and Python sets it to None; dev mode shows any
    # ResourceWarning for a stream left unclosed at exit
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = f"{shlex.quote(sys.executable)} -m treesec.cli {command}"
    return subprocess.run(
        ["sh", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src, "PYTHONDEVMODE": "1"},
    )


@pytest.mark.parametrize("closed", ["<&-", "<&- >&-"])
def test_closed_stdin_is_a_read_error(closed):
    result = _closed_stream_run(f"security --file - {closed}")
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.startswith("treesec: error: cannot read -: ")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "command, code, err",
    [
        ('security --tree "(LL)"', 0, ""),
        ("verify --max-leaves 5 --kary 7 3", 0, ""),
        ('normalize --tree "(L(L(LL)))" --trace', 0, ""),
        ('security --tree "(L"', 1, "treesec: error: unbalanced '(' (at offset 2)\n"),
        ('rank --tree "(LL)" --vertex 3', 1, "treesec: error: vertex id 3 out of range\n"),
        ("-h", 0, ""),
        ("security -h", 0, ""),
    ],
)
def test_closed_stdout_drops_the_output(command, code, err):
    # the command (or help) runs as with stdout sent to /dev/null; refusals go to stderr
    result = _closed_stream_run(command + " >&-")
    assert (result.returncode, result.stderr) == (code, err)


@pytest.mark.parametrize(
    "command, code, out",
    [
        ('security --tree "(L"', 1, ""),
        ("enumerate --leaves 23", 2, ""),
        ("security", 1, ""),
        ('security --tree "(LL)"', 0, "1\n"),
    ],
)
def test_closed_stderr_drops_only_the_messages(command, code, out):
    # a refusal or usage line with nowhere to go is dropped, never sent to stdout
    result = _closed_stream_run(command + " 2>&-")
    assert (result.returncode, result.stdout) == (code, out)


def test_main_keeps_open_streams(capsys):
    # the same objects with the same error handlers, for callers that hold them
    before = [(s, s.errors) for s in (sys.stdout, sys.stderr)]
    assert main(["security", "--tree", "(LL)"]) == 0
    assert [(s, s.errors) for s in (sys.stdout, sys.stderr)] == before


def _ascii_stream_run(*args):
    # a fresh interpreter whose standard streams default to ASCII
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-m", "treesec.cli", *args],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "ascii"},
    )


def test_verify_prints_the_readme_lines_whatever_the_stdout_encoding():
    # the OK: lines hold a non-ASCII ℓ; stdout is UTF-8 under any locale
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    block = readme.split("$ treesec verify --max-leaves 12 --kary 12 3 --starlike 9 3\n")[1]
    want = block.split("```")[0].encode("utf-8")
    result = _ascii_stream_run(
        "verify", "--max-leaves", "12", "--kary", "12", "3", "--starlike", "9", "3"
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, want, b"")


def test_stderr_is_utf8_whatever_the_locale():
    result = _ascii_stream_run("security", "--tree", "(Lé)")
    err = "treesec: error: stray character 'é' (at offset 2)\n".encode("utf-8")
    assert (result.returncode, result.stdout, result.stderr) == (1, b"", err)


def test_a_surrogate_file_name_is_escaped_on_stderr(tmp_path):
    # argv decodes byte 0xff as a surrogate; stderr keeps its backslash escape
    path = os.fsencode(tmp_path) + b"/tree\xff.txt"
    with open(path, "wb") as fh:
        fh.write(b"(L\xffL)")
    result = _ascii_stream_run("security", "--file", path)
    assert (result.returncode, result.stdout) == (1, b"")
    assert result.stderr.count(b"\n") == 1 and b"\\udcff" in result.stderr
    assert b"Traceback" not in result.stderr
