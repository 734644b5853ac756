"""Two whole-package invariants, checked on the source by its syntax
tree: one function reads a clock, and the package needs nothing beyond
the standard library and numpy."""
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "reconbench"

CLOCKS = {
    name + suffix
    for name in ("perf_counter", "time", "monotonic", "process_time")
    for suffix in ("", "_ns")
}


def modules() -> dict[str, ast.Module]:
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    assert "bench" in trees and "autodecoder" in trees
    return trees


def clock_reads(tree: ast.Module) -> list[tuple[str | None, str]]:
    """(enclosing function or None, clock) for each clock the module
    names: an attribute of an imported ``time`` module, or a name
    imported from it."""
    modules_as = set()
    names_as = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules_as |= {a.asname or a.name for a in node.names if a.name == "time"}
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            names_as |= {a.asname or a.name: a.name for a in node.names if a.name in CLOCKS}
    reads = []

    def visit(node: ast.AST, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules_as and node.attr in CLOCKS):
            reads.append((function, node.attr))
        elif isinstance(node, ast.Name) and node.id in names_as:
            reads.append((function, names_as[node.id]))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return reads


def test_only_bench_timed_reads_a_clock():
    readers = {
        (module, function)
        for module, tree in modules().items()
        for function, _ in clock_reads(tree)
    }
    assert readers == {("bench", "_timed")}


def test_imports_only_the_standard_library_numpy_and_itself():
    allowed = set(sys.stdlib_module_names) | {"numpy", "reconbench"}
    foreign = set()
    for module, tree in modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                tops = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            foreign |= {(module, top) for top in tops if top not in allowed}
    assert not foreign
