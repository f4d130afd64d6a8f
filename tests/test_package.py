import ast
import doctest
import importlib
import importlib.util
import pathlib
import re
import subprocess
import sys
import typing

import pytest

import jugglecards

# the names the package exported when it imported every submodule eagerly
PUBLIC = {
    "cards": (
        "Card", "CardSequence", "MultiplexError", "apply_card",
        "arrangement_history", "backward_step", "card_crossings",
        "card_permutation", "compose", "crossings", "cycle_count",
        "cycle_string", "cycles", "final_arrangement", "identity_perm",
        "increasing_suffix_length", "inverse", "inversions", "is_identity",
        "is_primitive", "parse_card", "parse_sequence", "reduced_pattern",
        "sequence_of", "sequence_permutation", "single_throw",
        "single_throws", "siteswap_of", "throw_pattern", "uses_top_throw",
        "verify_siteswap",
    ),
    "bijections": (
        "CoverMatrix", "LabeledDigraph", "canonical_pattern",
        "canonicalize_family", "compose_plus_two", "cover_canonical_order",
        "cover_partial_order", "cover_to_multigraph", "cover_to_sequence",
        "decompose_plus_two", "digraph_to_family", "dyck_peaks",
        "dyck_to_minimal", "dyck_to_pattern", "family_to_digraph",
        "family_to_sequence", "is_minimal", "is_noncrossing",
        "minimal_to_dyck", "multigraph_to_cover", "partition_to_sequence",
        "sequence_from_pattern", "sequence_to_cover", "sequence_to_family",
        "sequence_to_partition",
    ),
    "counting": (
        "binomial", "convolved_pair_identity", "count_suffix_at_least",
        "falling_factorial", "falling_factorial_identity",
        "functional_equation_residual", "gen_stirling",
        "gen_stirling_explicit", "js_count", "minimal_count_table",
        "multinomial_identity", "narayana", "p0", "p2", "p4",
        "plus_two_count", "q_from_p", "stirling1", "stirling2",
    ),
    "enumeration": (
        "CensusQuery", "all_sequences", "brute_js", "census",
        "census_rows", "count_by_permutation", "cycle_census",
        "enumerate_2covers", "enumerate_dyck_words",
        "enumerate_labeled_digraphs", "enumerate_minimal",
        "enumerate_noncrossing_partitions", "enumerate_plus",
        "enumerate_plus_two", "enumerate_set_partitions",
        "throw_cards",
    ),
    "rng": ("RandomStream",),
    "stochastic": (
        "GroupDistribution", "card_distribution",
        "cycle_count_distribution", "cycle_type_limit",
        "estimate_single_cycle_probability", "exact_step_distribution",
        "point_distribution", "sample_sequence", "single_cycle_mass",
        "step_distribution", "total_variation", "uniform_distribution",
    ),
}
NAMES = [name for names in PUBLIC.values() for name in names]


def test_all_lists_the_public_names_once():
    assert len(NAMES) == 104
    assert sorted(jugglecards.__all__) == sorted(NAMES)
    assert len(set(jugglecards.__all__)) == len(jugglecards.__all__)


@pytest.mark.parametrize("module", PUBLIC)
def test_each_name_is_its_submodule_object(module):
    home = importlib.import_module("jugglecards." + module)
    for name in PUBLIC[module]:
        assert getattr(jugglecards, name) is getattr(home, name)


def test_dir_and_star_import_give_every_name():
    assert set(NAMES) <= set(dir(jugglecards))
    scope = {}
    exec("from jugglecards import *", scope)
    for name in NAMES:
        assert scope[name] is getattr(jugglecards, name)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="split_minimal"):
        jugglecards.split_minimal
    with pytest.raises(ImportError):
        from jugglecards import no_such_name  # noqa: F401
    assert jugglecards.__version__ == "0.1.0"


@pytest.mark.parametrize("module", ["cards", "bijections", "counting", "enumeration", "svg"])
def test_module_doctests_pass(module):
    result = doctest.testmod(importlib.import_module("jugglecards." + module))
    assert result.failed == 0
    assert result.attempted > 0


def test_readme_tour_runs():
    # the python blocks, joined, run as one doctest so later blocks see
    # the names earlier ones bound; the closing fences stay out of it
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.DOTALL)
    test = doctest.DocTestParser().get_doctest("\n".join(blocks), {}, "README", str(readme), 0)
    assert doctest.DocTestRunner().run(test) == (0, 13)


def test_code_lines_drops_docstrings_comments_and_blanks():
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    source = '''"""A module docstring,
on two lines."""

import os  # a trailing comment leaves the line code

# a comment line


class Thing:
    """A class docstring."""

    def method(self):
        """A function
        docstring."""
        text = """a string that
is no docstring"""
        return (text,
                os.sep)
'''
    # import, class, def, the two lines of the string and the two of the return
    assert tool.code_lines(source) == 7


def test_peak_rss_reports_each_fresh_run_and_the_medians():
    tool = pathlib.Path(__file__).resolve().parents[1] / "tools" / "peak_rss.py"

    def report(*command):
        done = subprocess.run(
            [sys.executable, str(tool), "--runs", "2", "--", *command],
            capture_output=True, text=True, timeout=60,
        )
        lines = done.stdout.splitlines()
        assert [line.split(":")[0] for line in lines] == ["run 1", "run 2", "median"], done
        return done.returncode, [re.fullmatch(
            r"[^:]+: (\d+\.\d{3}) s, (\d+\.\d) MB(, exit \d+)?", line).group(2) for line in lines]

    code, idle = report(sys.executable, "-c", "pass")
    assert code == 0 and all(0 < float(mb) < 40 for mb in idle)
    # a child that writes 80 MB peaks past that, and a failing run is kept
    code, busy = report(sys.executable, "-c", "b = b'x' * (80 << 20); raise SystemExit(3)")
    assert code == 1 and all(float(mb) > 80 for mb in busy)
    # a command that cannot start is one line on stderr, not a traceback
    done = subprocess.run([sys.executable, str(tool), "--", "no-such-command"],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "cannot run no-such-command: No such file or directory\n"


def test_no_function_calls_itself():
    # legal inputs must never meet the interpreter's recursion limit
    calls = []
    for path in sorted(pathlib.Path(jugglecards.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(func)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == func.name
                ]
    assert calls == []


def test_no_module_imports_dataclasses():
    # dataclasses pulls in inspect, which would cost every CLI run milliseconds
    # of import; the records are plain __slots__ classes instead
    found = []
    for path in sorted(pathlib.Path(jugglecards.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_top_level_function_or_class_is_used():
    # a helper that no module names, that the package does not export and
    # that is no CLI entry point is dead code
    trees = {
        path.name: ast.parse(path.read_text())
        for path in sorted(pathlib.Path(jugglecards.__file__).parent.glob("*.py"))
    }
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    exported = {name for names in jugglecards._EXPORTS.values() for name in names}
    kept = {*exported, "main", "build_parser", "__getattr__", "__dir__"}
    unused = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in kept | named
        and not node.name.startswith("cmd_")
    ]
    assert unused == []


def test_every_annotation_resolves():
    # postponed annotations must name what the module can reach when they
    # are evaluated, even where the name is imported only inside a function
    checked = 0
    for path in sorted(pathlib.Path(jugglecards.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"jugglecards.{path.stem}".removesuffix(".__init__"))
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if isinstance(obj, type) else ()
            for func in (obj, *members):
                func = getattr(func, "fget", func)  # a property's getter
                func = getattr(func, "__func__", func)  # a static or class method
                if callable(func):
                    typing.get_type_hints(func)
                    checked += 1
    assert checked > 200
