"""Answer checks made apart from the program: stdlib only, no vcstream.

``judge`` returns None for a right answer and a reason otherwise.  An
answer is ``[kind, cover]`` as the worker reports it, or
``["error", message]`` when the query (or an update before it) raised.
"""

from __future__ import annotations


def acyclic_without(edges, removed) -> bool:
    """True when ``edges`` minus the vertices in ``removed`` is a forest."""
    parent: dict = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while x != root:
            parent[x], x = root, parent.get(x, x)
        return root

    for u, v in edges:
        if u in removed or v in removed:
            continue
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def judge(expect, answer) -> str | None:
    kind, cover = answer
    if kind == "error":
        return cover
    if kind not in ("yes", "no"):
        return f"answer {kind!r}"
    if (kind == "yes") != expect.yes:
        return f"answer {kind}, expected {'yes' if expect.yes else 'no'}"
    if kind == "no":
        return None
    chosen = set(cover)
    if len(chosen) > expect.k:
        return f"certificate has {len(chosen)} > k={expect.k} vertices"
    if expect.acyclic:
        if not acyclic_without(expect.edges, chosen):
            return "certificate leaves a cycle"
    elif any(u not in chosen and v not in chosen for u, v in expect.edges):
        return "certificate misses a live edge"
    return None
