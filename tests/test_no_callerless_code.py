"""No function, class or method in the package lacks a caller.

Every module-level function and class, and every method, of
`quasispin` must be referenced somewhere under `src/` outside its own
definition.  A reference to a function or class is any name or
attribute with the same identifier; a method is referenced only through
an attribute (`x.name`), since a bare name is a local or a module-level
definition, never the method.  The scan is still conservative: it can
miss dead code that shares a name with live code, never the reverse.
Dunder methods are called by the language and are exempt.  Code kept on
purpose without a caller goes in ALLOWED with its reason.
"""

import ast
from pathlib import Path

import quasispin

PACKAGE = Path(quasispin.__file__).parent

ALLOWED: dict = {
    "liealg.GenIndex.key": "the generator's index pair, which the tests "
                           "compare brackets by",
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree):
    """(qualified name, identifier, first line, last line) per definition."""
    for node in tree.body:
        if not isinstance(node, DEFS):
            continue
        yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, DEFS) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")):
                    yield (f"{node.name}.{sub.name}", sub.name, sub.lineno,
                           sub.end_lineno)


def references(tree):
    """(identifier, line, whether an attribute) of every name and
    attribute use."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True


def callerless():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    uses = {}
    for module, tree in trees.items():
        for name, line, attribute in references(tree):
            uses.setdefault(name, []).append((module, line, attribute))
    found = []
    for module, tree in trees.items():
        for qual, name, first, last in definitions(tree):
            method = "." in qual
            if not any((m != module or not first <= line <= last)
                       and (attribute or not method)
                       for m, line, attribute in uses.get(name, ())):
                found.append(f"{module}.{qual}")
    return found


def test_every_definition_has_a_caller():
    missing = [q for q in callerless() if q not in ALLOWED]
    assert not missing, f"no caller under src/: {missing}"


def test_allowlist_names_callerless_code_only():
    stale = sorted(set(ALLOWED) - set(callerless()))
    assert not stale, f"allowlisted but gone or called: {stale}"
