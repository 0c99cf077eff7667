"""One front end: only the session turns MiniACC text into IR.

Every parse in the package goes through
:meth:`repro.compiler.session.CompilerSession.function`, which parses
each source once per session and hands out clones.  A direct call to
``parse_program`` or ``build_module`` anywhere else is a second front end
with its own cache key and its own idea of which kernel a source means.
The front end's own packages (``lang/``, ``ir/``) and the session module
are the only places allowed to call them.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

FRONT_END = {"parse_program", "build_module"}

#: Paths under src/repro (a trailing ``/`` names a package) that may call
#: the front end directly.
ALLOWED = ("lang/", "ir/", "compiler/session.py")


def _front_end_calls(tree: ast.AST) -> list[int]:
    """The lines of calls to a front-end function, by name or attribute."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in FRONT_END:
            lines.append(node.lineno)
    return lines


def test_only_the_session_calls_the_front_end():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        if rel.startswith(ALLOWED):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{rel}:{line}" for line in _front_end_calls(tree)]
    assert not found, (
        "parse through CompilerSession.function (or .run), not directly: "
        f"{found}"
    )


def test_the_session_still_calls_its_own_names():
    """The session calls the front end through its module-level names, so
    one patch of ``repro.compiler.session.parse_program`` sees every
    parse in the package."""
    tree = ast.parse((PACKAGE / "compiler" / "session.py").read_text())
    assert _front_end_calls(tree)


def test_the_guard_sees_both_call_forms():
    source = """
from repro.lang import parser
fn = build_module(parser.parse_program(text))
"""
    assert _front_end_calls(ast.parse(source)) == [3, 3]
