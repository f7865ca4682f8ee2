"""Everything public in src/convexkit is reached by something other than its
own unit tests. Code that only its own tests call, or a setting that only its
own tests set, belongs in tests/ or nowhere.

- A top-level public def or class: its name appears in src/ outside its own
  definition, in a perfbench script, or in the README, which names the
  library code kept for users.
- A public method of a public class: an attribute access to its name outside
  its own body in src/ or perfbench/, or its name in a code span of the
  README.
- A defaulted parameter of a public function or method: some call in src/
  or perfbench/ passes it, by keyword or by position. Calls match by callee
  name, and by class name for __init__; a call with *args or **kwargs passes
  every parameter. ALLOWED lists the exceptions and why each is kept.
- A private top-level def, class or constant: its name appears in src/ or
  perfbench/ outside its own definition, so no helper outlives its caller.
"""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent

ALLOWED = {
    "ipm.path_follow.c0": "the only way the tests reach its NumericalError path",
    "ipm.preliminary_stage.c0": "the only way the tests reach its CenteringFailed path",
    "ipm.damped_newton.max_iter": "the only way the tests reach its NumericalError path",
    "frankwolfe.approx_caratheodory.max_iter":
        "the only way the tests reach its NumericalError path",
    "stochastic.run_svrg.g": "golden case run_svrg/doubling pins it",
    "stochastic.run_svrg.h": "golden case run_svrg/doubling pins it",
    "stochastic.run_svrg.epoch_plan": "golden case run_svrg/doubling pins it",
    "stochastic.clt_check.noise_scale": "golden case clt/full-2x2-shifted-noise2 pins it",
    "core.ProblemOracle.loo": "a capability slot that require and the registry read",
    "core.ProblemOracle.block_argmin": "a capability slot that require and the registry read",
    "core.ProblemOracle.n_blocks": "the block count that goes with block_argmin",
}


def _words(text):
    return collections.Counter(re.findall(r"\w+", text))


def _sources():
    return {p: p.read_text(encoding="utf-8")
            for p in sorted((ROOT / "src" / "convexkit").glob("*.py"))}


def _readme():
    return (ROOT / "README.md").read_text(encoding="utf-8")


def _trees():
    """(path, AST) of every src/ module and perfbench script."""
    paths = [*sorted((ROOT / "src" / "convexkit").glob("*.py")),
             *sorted((ROOT / "perfbench").glob("*.py"))]
    return [(p, ast.parse(p.read_text(encoding="utf-8"))) for p in paths]


def _index(trees, kind, name_of):
    """name -> (path, node) of each node of type kind in trees, by name_of(node)."""
    index = collections.defaultdict(list)
    for path, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, kind):
                index[name_of(node)].append((path, node))
    return index


def _src_defs(trees):
    """(path, class, def) of each method of a public class in src/, and
    (path, None, def) of each top-level function there."""
    for path, tree in trees:
        for node in tree.body if path.parent.name == "convexkit" else ():
            if isinstance(node, ast.FunctionDef):
                yield path, None, node
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef):
                        yield path, node, fn


def _outside(fn_path, fn, uses):
    """The (path, node) uses that lie outside fn's own body."""
    return [(p, node) for p, node in uses
            if not (p == fn_path and fn.lineno <= node.lineno <= fn.end_lineno)]


def test_every_public_name_in_src_is_reached():
    sources = _sources()
    readers = [_readme()]
    readers += [p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").glob("*.py"))]
    everywhere = _words("\n".join([*sources.values(), *readers]))
    unreached = []
    for path, text in sources.items():
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                own = _words("\n".join(lines[first - 1:node.end_lineno]))
                if everywhere[node.name] == own[node.name]:
                    unreached.append("%s.%s" % (path.stem, node.name))
    assert not unreached, ("reached only by their own tests; call them, name them in "
                           "README.md's Layout table, or delete them: %s" % ", ".join(unreached))


def _top_level_names(node):
    """The names a top-level statement defines: a def's or class's, or an assignment's."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_every_private_name_in_src_is_referenced():
    sources = _sources()
    readers = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").glob("*.py"))]
    everywhere = _words("\n".join([*sources.values(), *readers]))
    orphans = []
    for path, text in sources.items():
        lines = text.splitlines()
        for node in ast.parse(text).body:
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            own = _words("\n".join(lines[first - 1:node.end_lineno]))
            orphans += ["%s.%s" % (path.stem, name) for name in _top_level_names(node)
                        if name.startswith("_") and not name.startswith("__")
                        and everywhere[name] == own[name]]
    assert not orphans, ("private names that nothing outside their own definition "
                         "references; use them or delete them: %s" % ", ".join(orphans))


def test_every_public_method_in_src_is_reached():
    trees = _trees()
    named = _words(" ".join(re.findall(r"`([^`\n]+)`", _readme())))
    accesses = _index(trees, ast.Attribute, lambda node: node.attr)
    unreached = ["%s.%s.%s" % (path.stem, cls.name, fn.name)
                 for path, cls, fn in _src_defs(trees)
                 if cls and not fn.name.startswith("_") and not named[fn.name]
                 and not _outside(path, fn, accesses[fn.name])]
    assert not unreached, ("methods that nothing in src/ or perfbench/ calls; call them, "
                           "name them in README.md or delete them: %s" % ", ".join(unreached))


def _defaults(cls, fn):
    """{name: its index among a call's positional arguments, or None if it is
    keyword-only} of each defaulted parameter of fn, a method of cls if given."""
    args = fn.args.posonlyargs + fn.args.args
    bound = cls is not None and not any(
        getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)  # self or cls
    first = len(args) - len(fn.args.defaults)
    params = {arg.arg: i - bound for i, arg in enumerate(args) if i >= first}
    params.update((arg.arg, None) for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                  if default is not None)
    return params


def _passes(call, param, position):
    if any(kw.arg in (None, param) for kw in call.keywords):  # None: **kwargs
        return True
    return position is not None and (len(call.args) > position
                                     or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_default_in_src_is_set_by_a_caller():
    trees = _trees()
    calls = _index(trees, ast.Call,
                   lambda node: getattr(node.func, "id", getattr(node.func, "attr", None)))
    unset, exempt = [], []
    for path, cls, fn in _src_defs(trees):
        if fn.name.startswith("_") and fn.name != "__init__":
            continue
        init = fn.name == "__init__"
        qual = ".".join([path.stem] + ([cls.name] if cls else []) + ([] if init else [fn.name]))
        uses = _outside(path, fn, calls[cls.name if init else fn.name])
        for param, position in _defaults(cls, fn).items():
            if not any(_passes(call, param, position) for _, call in uses):
                key = "%s.%s" % (qual, param)
                (exempt if key in ALLOWED else unset).append(key)
    assert not unset, ("defaults that no caller in src/ or perfbench/ sets; pass them, "
                       "wire their value in, or list them in ALLOWED: %s" % ", ".join(unset))
    assert sorted(exempt) == sorted(ALLOWED), ("ALLOWED lists defaults that a caller sets, or "
                                               "that are gone: %s"
                                               % ", ".join(sorted(set(ALLOWED) - set(exempt))))



def test_no_function_imports_from_the_package():
    # modules import each other at their top, in one direction, so that a cycle
    # fails when the package loads; the registry alone imports the solvers late,
    # so that core stays at the bottom of the order
    lazy = {}
    for path, text in _sources().items():
        for fn in ast.walk(ast.parse(text)):  # outer functions first: the innermost name wins
            if isinstance(fn, ast.FunctionDef):
                lazy.update(((path.stem, node.lineno), fn.name) for node in ast.walk(fn)
                            if isinstance(node, ast.ImportFrom)
                            and (node.level or node.module.split(".")[0] == "convexkit"))
    found = ["%s.py:%d in %s" % (stem, line, name) for (stem, line), name in sorted(lazy.items())
             if (stem, name) != ("core", "_solver_registry")]
    assert not found, "imports from convexkit inside a function body: %s" % ", ".join(found)
