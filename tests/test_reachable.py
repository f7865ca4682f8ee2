"""Every top-level public def and class in src/convexkit is reached: its name
appears in src/ outside its own definition, in a perfbench script, or in the
README, which names the library code kept for users. Code that only its own
unit tests call belongs in tests/ or nowhere."""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _words(text):
    return collections.Counter(re.findall(r"\w+", text))


def test_every_public_name_in_src_is_reached():
    sources = {p: p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "src" / "convexkit").glob("*.py"))}
    readers = [(ROOT / "README.md").read_text(encoding="utf-8")]
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
