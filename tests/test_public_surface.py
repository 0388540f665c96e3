"""Every public name nothing calls is either documented or gone.

A stdlib-only survey (``ast`` + the import graph) of ``src/repro``: it lists
every ``__all__`` name, public top-level ``def`` / ``class`` and public
method that no *other* module under ``src/repro`` references, a package
``__init__`` re-export (its ``from .x import y`` lines and ``__all__``, or
its ``surface(globals(), {"x": ("y", ...)})`` table, read as both) not
counting as a reference.  A top-level name is referenced by a module that
imports its defining module - directly or through re-exporting packages -
and mentions the identifier; a method by any other module that reads the
attribute.  Names bound through a ``register_*`` decorator are referenced by
registration and are not candidates.

The tier-1 test then asserts each surviving unreferenced name appears in
docs/API.md: that file is the allowlist (paper surface and plug-in surface
both live there), and there is no second exemption list.  Run as a script
(``python tests/test_public_surface.py``) it prints the triage table.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
API_MD = ROOT / "docs" / "API.md"


def _public(name):
    return not name.startswith("_")


def _load_modules():
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        is_init = parts[-1] == "__init__"
        name = ".".join(parts[:-1] if is_init else parts)
        modules[name] = (path, ast.parse(path.read_text()), is_init)
    return modules


def _is_all_assign(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__"
        for target in node.targets for t in getattr(target, "elts", [target])
    )


def _surface(tree):
    """``(node, {submodule: names})`` of a package's ``surface(...)`` table,
    or ``(None, {})``."""
    for node in tree.body:
        call = getattr(node, "value", None)
        if _is_all_assign(node) and isinstance(call, ast.Call) and (
            getattr(call.func, "id", "") == "surface"
        ):
            return node, ast.literal_eval(call.args[1])
    return None, {}


def _all_names(tree):
    _, table = _surface(tree)
    if table:  # the table's names, and each submodule that exports none
        return {n for module, names in table.items() for n in (names or (module,))}
    for node in tree.body:
        if _is_all_assign(node):
            return {e.value for e in getattr(node.value, "elts", ()) if isinstance(e, ast.Constant)}
    return set()


def _registered(node):
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        label = getattr(target, "attr", getattr(target, "id", ""))
        if label.startswith("register"):
            return True
    return False


def _definitions(tree):
    """Names this module itself binds: ``name`` for an ``__all__`` entry or a
    public top-level def / class, ``Class.method`` for a public method."""
    exported = _all_names(tree)
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if _registered(node):
                continue
            if _public(node.name) or node.name in exported:
                out.append(node.name)
            if isinstance(node, ast.ClassDef) and _public(node.name):
                out.extend(
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and _public(item.name)
                )
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.extend(
                t.id for t in targets if isinstance(t, ast.Name) and t.id in exported
            )
    return out


def _imported_modules(module, tree, is_init, modules):
    """Modules under ``repro`` that *module* imports (function-level too)."""
    package = module if is_init else module.rpartition(".")[0]
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    for submodule, names in _surface(tree)[1].items():  # a table entry re-exports
        found.add(f"{package}.{submodule}")
        found.update(f"{package}.{submodule}.{name}" for name in names)
    return {name for name in found if name in modules}


def _mentions(tree, is_init):
    """Identifiers a module mentions; a package ``__init__``'s re-exports
    (its import lines and ``__all__``) are not mentions."""
    skip = set()
    if is_init:  # the surface table is an ``__all__`` assignment too
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) or _is_all_assign(node):
                skip.update(id(sub) for sub in ast.walk(node))
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names, attrs


def unreferenced():
    """Sorted ``(module, name)`` rows of the survey; the identifier a
    reference would spell is the last dotted part of ``name``."""
    modules = _load_modules()
    direct = {
        name: _imported_modules(name, tree, is_init, modules)
        for name, (_, tree, is_init) in modules.items()
    }

    def reach(name):
        # what importing *name* can hand over: itself plus, for a package,
        # whatever its __init__ re-exports, transitively
        seen, stack = set(), [name]
        while stack:
            cur = stack.pop()
            if cur not in seen:
                seen.add(cur)
                if modules[cur][2]:
                    stack.extend(direct[cur])
        return seen

    reaches = {name: set().union(*map(reach, direct[name])) for name in modules}
    mentions = {name: _mentions(tree, is_init) for name, (_, tree, is_init) in modules.items()}

    def used(module, name):
        owner, _, ident = name.rpartition(".")
        for other, (names, attrs) in mentions.items():
            if other == module:
                continue
            if owner:  # a method: instances travel, so any reader counts
                if ident in attrs:
                    return True
            elif module in reaches[other] and (ident in names or ident in attrs):
                return True
        return False

    return sorted(
        (module, name)
        for module, (_, tree, _) in modules.items()
        for name in _definitions(tree)
        if not used(module, name)
    )


def _documented(name, api_text):
    ident = re.escape(name.rpartition(".")[2])
    return re.search(rf"(?<![A-Za-z0-9_]){ident}(?![A-Za-z0-9_])", api_text) is not None


def test_every_unreferenced_public_name_is_documented():
    api_text = API_MD.read_text()
    undocumented = [
        f"{module}:{name}" for module, name in unreferenced() if not _documented(name, api_text)
    ]
    assert not undocumented, (
        "public names no other module under src/repro references and docs/API.md "
        "does not list - document (paper / plug-in surface), make private, or delete:\n  "
        + "\n  ".join(undocumented)
    )


if __name__ == "__main__":
    text = API_MD.read_text()
    print("| name | defined in | docs/API.md |")
    print("|---|---|---|")
    for module, name in unreferenced():
        print(f"| `{name}` | `{module}` | {'listed' if _documented(name, text) else '-'} |")
