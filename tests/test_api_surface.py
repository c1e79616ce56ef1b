"""No public name in `src/wfoc` is kept only so that tests can call it.

The check reads the package's source with `ast`: every module-level
function or class refers, by name, to the ones its body mentions.  From
the command line's `main`, each module's import-time statements and the
allow-list below, following those references must reach every public
module-level function and class.  A reference is matched by name alone,
to every definition of that name, so the graph can only over-reach: a
name it calls unreachable has no caller in the package at all.  A public
method of a public class is reachable when some code in the package
outside its own definition mentions its name.
Brute-force references for tests belong in `tests/reference_*.py`.

The names the benchmark reads must exist: each per-layer metric of
`BENCHMARK.json` that names a function or method, and each `wfoc` import
in `bench/*.py`.  Both files are only read here.
"""

import ast
import collections
import importlib
import json
import pathlib

import wfoc

SRC = pathlib.Path(wfoc.__file__).parent
REPO = pathlib.Path(__file__).resolve().parent.parent

# kept without a caller in the package: name -> why
ALLOWED = {
    "main": "the command line's entry point",
    "canonical_relabel": "BENCHMARK.json names textfmt.canonical_relabel"
                         " as a per-layer metric",
    "aggr_sp": "the sum-product definition on multisets; BENCHMARK.json"
               " names semantics.aggr_sp as a per-layer metric",
    "aggr_ma": "the max-average definition on multisets; BENCHMARK.json"
               " names semantics.aggr_ma as a per-layer metric",
    "eval_wfo_at": "bench/oracles.py checks compile outputs against it",
    "eval_fo": "the brute-force evaluator's FO layer, beside eval_wfo_at",
    "eval_step": "the brute-force evaluator's step layer, beside"
                 " eval_wfo_at",
    "rewrite_sum_normal_form": "a lemma of the paper: every sentence has"
                               " a sum normal form",
    "relativize": "a lemma of the paper: relativization to a factor",
    "before": "a factor mode of relativize",
    "after": "a factor mode of relativize",
    "between": "a factor mode of relativize",
    "decompose": "documented API: the finitely ambiguous split",
    "unambiguous_to_wfo": "documented API: the pair translation",
    "parse_fo": "documented API: parse one FO formula",
    "parse_step": "documented API: parse one step formula",
    "parse_wfo": "documented API: parse one wFO formula",
}


def _names(node):
    """Every name a piece of code mentions, as a variable or attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def reference_graph():
    """(defs, roots): defs maps each module-level function or class name
    to the names its definitions mention; roots are the names that
    import-time statements mention.  `__init__` modules only re-export."""
    defs, roots = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(stmt.name, set()).update(_names(stmt))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots.update(_names(stmt))
    return defs, roots


def unreachable():
    defs, roots = reference_graph()
    seen, todo = set(), [n for n in roots | set(ALLOWED) if n in defs]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(n for n in defs[name] if n in defs)
    return sorted(n for n in defs if not n.startswith("_") and n not in seen)


def test_every_public_name_is_reachable():
    assert unreachable() == []


def test_allowed_names_exist():
    defs, _ = reference_graph()
    assert sorted(set(ALLOWED) - set(defs)) == []


def unmentioned_methods():
    """`Class.method` for each public method of a public module-level
    class whose name no code in the package mentions outside the
    method's own definition."""
    mentions, methods = collections.Counter(), []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        mentions.update(_names(tree))
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                methods += [(cls.name, fn) for fn in cls.body
                            if isinstance(fn, ast.FunctionDef)
                            and not fn.name.startswith("_")]
    return sorted("%s.%s" % (cls, fn.name) for cls, fn in methods
                  if mentions[fn.name] == list(_names(fn)).count(fn.name))


def test_every_public_method_is_mentioned():
    assert unmentioned_methods() == []


# -- the names the benchmark reads -------------------------------------------


def _modules():
    """The dotted names of the package's modules, without `wfoc.`."""
    return {".".join(p.relative_to(SRC).with_suffix("").parts)
            for p in SRC.rglob("*.py") if p.name != "__init__.py"}


def layer_targets():
    """(metric, module, attribute path) for each per-layer metric of
    BENCHMARK.json named `<module>.<function or Class.method>.<field>`:
    the longest prefix that names a module, and the rest but the field."""
    modules = _modules()
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    out = []
    for metric in spec["per_layer"]:
        parts = metric["name"].split(".")[:-1]
        cut = next((i for i in range(len(parts), 0, -1)
                    if ".".join(parts[:i]) in modules), None)
        if cut is not None and cut < len(parts):
            out.append((metric["name"], ".".join(parts[:cut]), parts[cut:]))
    return out


def test_benchmark_layers_resolve():
    targets = layer_targets()
    assert targets
    missing = []
    for metric, module, path in targets:
        obj = importlib.import_module("wfoc." + module)
        for attr in path:
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(metric)
    assert missing == []


def test_bench_imports_resolve():
    """Every `from wfoc... import name` and `import wfoc...` in bench/."""
    missing, seen = [], 0
    for path in sorted((REPO / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "wfoc":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    seen += 1
                    if not hasattr(module, alias.name):
                        missing.append("%s: %s.%s" % (path.name, node.module,
                                                      alias.name))
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "wfoc":
                        seen += 1
                        importlib.import_module(alias.name)
    assert seen and missing == []
