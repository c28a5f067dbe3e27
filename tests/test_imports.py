"""No module of `idemq` imports a name it never uses, or an underscore
name of another `idemq` module. A deletion that leaves an import behind
fails here, so dead imports do not pile up, and a module's private names
stay its own. No module reaches the parser's token cliff either (see
test_module_stays_below_the_token_cliff), and none loads a costly
standard module at import time that only some commands need (see
test_module_imports_no_costly_module_at_import_time).

A name counts as used when it occurs anywhere in the module's syntax
tree, in a quoted annotation or in `__all__`."""

import ast
import tokenize
from pathlib import Path

import pytest

import idemq

MODULES = sorted(Path(idemq.__file__).parent.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name the module binds by an import, with its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    out[alias.asname or alias.name] = node.lineno
    return out


def _private_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """Each underscore name the module imports from an `idemq` module,
    with its line."""
    return sorted(
        (node.lineno, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "idemq")
        for alias in node.names
        if alias.name.startswith("_")
    )


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used.update(
                    n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                    if isinstance(n, ast.Name)
                )
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = sorted(
        (line, name) for name, line in _imported(tree).items() if name not in used
    )
    assert unused == [], f"{path.name}: imported and never used: {unused}"


def test_an_unused_import_is_found():
    tree = ast.parse(
        "from typing import Optional, Iterator\nimport os\n"
        "def f(x: 'Optional[int]') -> None:\n    return x\n"
    )
    assert {n for n in _imported(tree) if n not in _used(tree)} == {"Iterator", "os"}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_imports_no_private_name_of_another(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _private_imports(tree) == [], f"{path.name}: imports private names"


def test_a_private_import_is_found():
    tree = ast.parse(
        "from .derived import Tower, _settle\nfrom idemq.rings import _RING_CACHE\n"
        "from os import _exit\nfrom . import _private\n"
    )
    assert _private_imports(tree) == [(1, "_settle"), (2, "_RING_CACHE"), (4, "_private")]


# standard modules that no idemq module may import at module level
COSTLY = {"dataclasses", "csv", "hashlib"}


def _import_time_modules(tree: ast.Module) -> list[tuple[int, str]]:
    """Each top-level module name imported outside every function body
    and every `except ImportError` clause, with its line."""
    out, todo = [], list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
            isinstance(node, ast.ExceptHandler)
            and isinstance(node.type, ast.Name)
            and node.type.id == "ImportError"
        ):
            continue
        if isinstance(node, ast.Import):
            out += [(node.lineno, a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.append((node.lineno, node.module.split(".")[0]))
        todo.extend(ast.iter_child_nodes(node))
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_imports_no_costly_module_at_import_time(path):
    """Every command is its own process, so what a module imports is paid
    at every start-up. `dataclasses` pulls in inspect, ast, dis, tokenize,
    linecache and copy, and each @dataclass execs generated code: in a
    fresh CPython 3.11 on a 2-core VM the import took about 8 ms and
    sixteen two-field classes about 5 ms more. With idemq's sixteen
    records made NamedTuples or classes with __slots__, the benchmark's
    setup_s fell about 10 ms (0.089 to 0.079 s) and peak RSS 1.1 MB.
    `csv` (about 0.6 ms) serves `--format csv` only, so `cli._emit_csv`
    imports it where it is used. `hashlib` loads OpenSSL's libcrypto
    (`_hashlib`) and `_blake2` for the one ~100-byte spec hash: without it
    each command's own peak (VmHWM) fell about 3.6 MB, e.g. `tower --n-max
    5` from 22.0 to 18.4 MB, so `cli` takes CPython's built-in SHA-256. An
    import in an `except ImportError` clause does not count: it runs only
    when the module tried first is missing, as `cli`'s fallback to
    `hashlib` on a build without the built-in SHA-256."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [(line, name) for line, name in _import_time_modules(tree) if name in COSTLY]
    assert found == [], f"{path.name}: imports at import time: {found}"


def test_an_import_time_import_is_found():
    tree = ast.parse(
        "import csv\nfrom dataclasses import dataclass\nfrom .rings import RingSpec\n"
        "class A:\n    import os.path\n"
        "def f():\n    import json\n"
        "try:\n    import _sha2\nexcept ImportError:\n    import hashlib\n"
        "except OSError:\n    import ssl\n"
    )
    assert _import_time_modules(tree) == [
        (1, "csv"), (2, "dataclasses"), (5, "os"), (9, "_sha2"), (13, "ssl")
    ]


TOKEN_CLIFF = 8192
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def _code_tokens(path: Path) -> int:
    with path.open("rb") as f:
        return sum(1 for t in tokenize.tokenize(f.readline) if t.type not in NOT_CODE)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_stays_below_the_token_cliff(path):
    """Compiling a module of more than 8,192 tokens peaks about 0.5 MB
    higher. With CPython 3.11, compile() of a synthetic module of
    assignments raised the peak RSS by 3,840 KB at 8,181 tokens and by
    4,480 KB at 8,193, and it jumps again past 16,384: the parser's token
    array doubles. Every process that compiles `idemq` from source (no
    bytecode cache) pays that, so a module past the cliff raises peak RSS
    on every command. Comments and blank lines never reach the parser,
    and a docstring is one token. Split a module before it gets there."""
    assert _code_tokens(path) < TOKEN_CLIFF, f"{path.name}: split it"
