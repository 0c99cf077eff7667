"""No new broad exception handlers in the package.

A handler for ``Exception``, ``BaseException`` or a bare ``except`` turns
a bug into whatever the handler does next.  Every such handler in
``src/repro`` must be on the allowlist below, with the reason it has to
catch everything; the rest catch the types their code raises.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

BROAD = {"Exception", "BaseException"}

#: (path under src/repro, enclosing function) → why it must catch everything.
ALLOWED = {
    ("serve/frontdoor.py", "FrontDoor._process"): (
        "the serving tiers' last resort: every admitted request is answered, "
        "a bug with the op's failure code, and it is counted and logged"
    ),
    ("pipeline/diskcache.py", "DiskCache.get_entry"): (
        "unpickling a corrupt envelope from disk can raise anything; the "
        "entry is discarded and counted as a miss, its error type on the span"
    ),
    ("loadgen.py", "_run_socket.reader"): (
        "whatever stops the socket reader thread is stored and re-raised "
        "to the caller once the schedule is sent"
    ),
}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(t, ast.Name) and t.id in BROAD for t in types)


def _broad_handlers(tree: ast.AST):
    """Yield ``(qualified enclosing function, line)`` per broad handler."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, scope + [child.name])
                continue
            if isinstance(child, ast.ExceptHandler) and _is_broad(child):
                yield ".".join(scope) or "<module>", child.lineno
            yield from walk(child, scope)

    yield from walk(tree, [])


def _all_broad_handlers() -> dict[tuple[str, str], list[int]]:
    found: dict[tuple[str, str], list[int]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope, line in _broad_handlers(tree):
            key = (path.relative_to(PACKAGE).as_posix(), scope)
            found.setdefault(key, []).append(line)
    return found


def test_no_broad_catch_outside_the_allowlist():
    found = _all_broad_handlers()
    unexpected = {
        f"{path}:{lines[0]} in {scope}"
        for (path, scope), lines in found.items()
        if (path, scope) not in ALLOWED
    }
    assert not unexpected, (
        "broad exception handlers (catch the types the code raises, or "
        f"allowlist with a reason): {sorted(unexpected)}"
    )


def test_each_allowlisted_site_has_one_broad_catch():
    found = _all_broad_handlers()
    for key in ALLOWED:
        assert len(found.get(key, [])) == 1, key


def test_the_guard_sees_every_broad_form():
    source = """
def f():
    try:
        pass
    except Exception:
        pass
    try:
        pass
    except (ValueError, BaseException):
        pass
    try:
        pass
    except:
        pass
    try:
        pass
    except ValueError:
        pass
"""
    assert [line for _, line in _broad_handlers(ast.parse(source))] == [5, 9, 13]
