"""The recursive `freshen` that the one-pass version replaced, kept as its
test oracle.

It renames a binder's name in the binder's whole body with `_rename_free`
before walking on, so it is quadratic under nested binders and recurses
once per level.  It also captures: when a binder takes a primed name that
an inner binder already has, the occurrences it renamed are renamed again
by the inner one.  Everywhere else the two agree node for node.
"""

from dataclasses import replace

from wfoc.logic.syntax import (
    _BINDERS, _SUB, _VARS, free_vars, fresh_name, map_children,
)


def rename_free(node, mapping):
    names = _VARS.get(type(node))
    if names:
        return replace(node, **{f: mapping.get(getattr(node, f),
                                               getattr(node, f))
                                for f in names})
    if isinstance(node, _BINDERS) and node.var in mapping:
        mapping = {k: v for k, v in mapping.items() if k != node.var}
    return map_children(node, lambda c: rename_free(c, mapping))


def reference_freshen(node, avoid=()):
    used = set(free_vars(node)) | set(avoid)

    def walk(n):
        if isinstance(n, _BINDERS):
            v = n.var
            new = fresh_name(v, used)
            used.add(new)
            if new != v:
                n = replace(map_children(
                    n, lambda c: rename_free(c, {v: new})), var=new)
        return map_children(n, walk)

    return walk(node)


def captures(node, avoid=()):
    """Whether reference_freshen may capture a variable of node: some
    binder takes a new name that a binder inside it has as its own."""
    used = set(free_vars(node)) | set(avoid)
    stack = [(node, frozenset())]
    while stack:
        n, renamed = stack.pop()
        if isinstance(n, _BINDERS):
            if n.var in renamed:
                return True
            new = fresh_name(n.var, used)
            used.add(new)
            if new != n.var:
                renamed = renamed | {new}
        stack.extend((getattr(n, f), renamed)
                     for f in reversed(_SUB[type(n)]))
    return False
