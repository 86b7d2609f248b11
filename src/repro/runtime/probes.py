"""Compile-time block probes for the protocol servers.

The paper's Peach*-clang pass (§IV-B) inserts the edge-count snippet at
every basic block when the target is compiled, as AFL's afl-clang does.
This module is the Python equivalent: an import hook rewrites every
``repro.protocols.*`` module so that each statement inside a function
body first calls a probe with a constant block id::

    _repro_cov(0x1f3a9c02)
    if function == codec.FC_READ_COILS:
        _repro_cov(0x8e11d4b7)
        return self._read_bits(...)

* Probes go before every statement of a function body, recursively
  through ``if``/``for``/``while``/``try``/``with``/``match`` bodies.
  A function's docstring and ``global``/``nonlocal`` declarations run
  no code and get none.  Module and class bodies get none either.
* Every ``for``/``while`` body also ends with a back-edge probe that
  carries the loop header's id, and one goes before each ``continue``,
  so a loop header counts once on entry and once per iteration.
* A comprehension or generator expression in a probed statement calls a
  probe with that statement's id on every iteration of each of its
  ``for`` clauses (as a first, always-true ``if`` filter), so reading a
  packet field byte by byte in a generator counts like the equivalent
  ``for`` loop does.
* Each id is :func:`line_block_id` of the module's file and the
  statement's line, the ids the settrace reference records.  Probe
  nodes take their statement's location, so tracebacks and crash call
  sites are unchanged.

``_repro_cov`` is a module global.  It holds :data:`NOOP` (a C-level
call that ignores its argument) until a
:class:`~repro.runtime.instrument.ProbeCollector` binds it to its hit
function for one collection window.

The rewritten code is cached next to the source, in ``__pycache__``
under ``<module>.<cache tag>.probes.pyc``, keyed by the mtime and size
of the source and of this file, the interpreter's cache tag and
optimization level, and the file name block ids hash.  The
cache is written even under ``PYTHONDONTWRITEBYTECODE``: without it,
every process would parse and rewrite the servers again.  When it
cannot be written, the loader compiles in memory.
"""

from __future__ import annotations

import _imp
import ast
import importlib.machinery
import importlib.util
import marshal
import os
import sys
from typing import Dict, List, Optional, Set, Tuple

from repro.util import fnv1a32

#: the global every probe calls
PROBE_NAME = "_repro_cov"
#: the fields of a compound statement that hold nested statements;
#: everything else is the statement's own code
_BODY_FIELDS = frozenset(("body", "orelse", "finalbody", "handlers",
                          "cases"))
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp,
                   ast.GeneratorExp)

#: the package whose modules are rewritten
PROBED_PACKAGE = "repro.protocols"
#: what a probe calls outside a collection window
NOOP = {}.get

#: the directory that holds the ``repro`` package, with a trailing
#: separator
_PACKAGE_PARENT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "")
#: this file: the rewrite rules live here, so the cache key includes it
_REWRITER = os.path.abspath(__file__)

#: (filename, globals) of every probed module, in import order
_probed: List[Tuple[str, dict]] = []


def _block_file(filename: str) -> str:
    """*filename* as block ids name it: ``repro/protocols/...`` for a
    file of this package, the filename unchanged for anything else."""
    path = os.path.abspath(filename)
    if path.startswith(_PACKAGE_PARENT):
        return path[len(_PACKAGE_PARENT):].replace(os.sep, "/")
    return filename


def line_block_id(filename: str, lineno: int) -> int:
    """The stable id of the basic block at *filename*:*lineno*.

    Hashes the package-relative path, so the same campaign run from two
    checkouts records the same coverage and crash buckets.
    """
    return fnv1a32(f"{_block_file(filename)}:{lineno}")


def probed_modules() -> List[Tuple[str, dict]]:
    """``(filename, globals)`` of every module loaded with probes."""
    return _probed


# ---------------------------------------------------------------------------
# the rewrite
# ---------------------------------------------------------------------------


def _is_docstring(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


class _ProbeInserter(ast.NodeTransformer):
    """Puts a probe before every statement of every function body."""

    def __init__(self, filename: str):
        self.filename = filename
        #: line numbers that received a statement probe
        self.lines: Set[int] = set()
        self._ids: Dict[int, int] = {}

    def _call(self, stmt: ast.stmt, where: ast.AST) -> ast.Call:
        """``_repro_cov(<stmt's id>)`` located at *where*."""
        lineno = stmt.lineno
        block_id = self._ids.get(lineno)
        if block_id is None:
            block_id = self._ids[lineno] = line_block_id(self.filename,
                                                         lineno)
        call = ast.Call(ast.Name(PROBE_NAME, ast.Load()),
                        [ast.Constant(block_id)], [])
        for part in ast.walk(call):
            ast.copy_location(part, where)
        return call

    def _probe(self, node: ast.stmt) -> ast.Expr:
        return ast.copy_location(ast.Expr(self._call(node, node)), node)

    def _probe_comprehensions(self, stmt: ast.stmt) -> None:
        """Give every ``for`` clause of each comprehension in *stmt*'s
        own code a first filter ``(_repro_cov(<stmt's id>), True)[1]``:
        one probe per iteration, whatever the filters after it decide."""
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # visited as a function or class of its own
        pending = [value for name, value in ast.iter_fields(stmt)
                   if name not in _BODY_FIELDS]
        while pending:
            node = pending.pop()
            if isinstance(node, list):
                pending.extend(node)
                continue
            if not isinstance(node, ast.AST):
                continue
            if isinstance(node, _COMPREHENSIONS):
                for clause in node.generators:
                    where = clause.target
                    always = ast.Subscript(
                        ast.Tuple([self._call(stmt, where),
                                   ast.Constant(True)], ast.Load()),
                        ast.Constant(1), ast.Load())
                    for part in (always, always.value, always.slice,
                                 always.value.elts[1]):
                        ast.copy_location(part, where)
                    clause.ifs.insert(0, always)
            pending.extend(ast.iter_child_nodes(node))

    def visit_FunctionDef(self, node):
        body = node.body
        head = body[:1] if _is_docstring(body[0]) else []
        node.body = head + self._body(body[len(head):], None)
        return node

    visit_AsyncFunctionDef = visit_FunctionDef

    def _body(self, body: List[ast.stmt],
              loop: Optional[ast.stmt]) -> List[ast.stmt]:
        """*body* with probes; *loop* is the innermost enclosing loop of
        this function, which a ``continue`` jumps back to."""
        out = []
        for stmt in body:
            if not isinstance(stmt, (ast.Global, ast.Nonlocal)):
                out.append(self._probe(stmt))
                self.lines.add(stmt.lineno)
                self._probe_comprehensions(stmt)
            if isinstance(stmt, ast.Continue) and loop is not None:
                out.append(self._probe(loop))
            self._descend(stmt, loop)
            out.append(stmt)
        return out

    def _descend(self, stmt: ast.stmt, loop: Optional[ast.stmt]) -> None:
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            stmt.body = self._body(stmt.body, stmt) + [self._probe(stmt)]
            stmt.orelse = self._body(stmt.orelse, loop)
        elif isinstance(stmt, ast.If):
            stmt.body = self._body(stmt.body, loop)
            stmt.orelse = self._body(stmt.orelse, loop)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            stmt.body = self._body(stmt.body, loop)
        elif isinstance(stmt, (ast.Try, ast.TryStar)):
            stmt.body = self._body(stmt.body, loop)
            for handler in stmt.handlers:
                handler.body = self._body(handler.body, loop)
            stmt.orelse = self._body(stmt.orelse, loop)
            stmt.finalbody = self._body(stmt.finalbody, loop)
        elif isinstance(stmt, ast.Match):
            for case in stmt.cases:
                case.body = self._body(case.body, loop)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            # a nested function starts afresh; a class body gets no
            # probes, but its methods do
            self.visit(stmt)


def instrument(tree: ast.Module, filename: str) -> Set[int]:
    """Insert probes into *tree* (parsed from *filename*) in place.

    Returns the line numbers that received a statement probe: the
    statement-start lines whose settrace ids the probes reproduce.
    """
    inserter = _ProbeInserter(filename)
    inserter.visit(tree)
    return inserter.lines


# ---------------------------------------------------------------------------
# the compiled-code cache
# ---------------------------------------------------------------------------


def _cache_path(path: str) -> Optional[str]:
    tag = sys.implementation.cache_tag
    if tag is None:
        return None
    head, tail = os.path.split(path)
    stem = tail.rpartition(".")[0]
    return os.path.join(head, "__pycache__", f"{stem}.{tag}.probes.pyc")


def _cache_key(path: str) -> tuple:
    source, rewriter = os.stat(path), os.stat(_REWRITER)
    return (source.st_mtime_ns, source.st_size, rewriter.st_mtime_ns,
            rewriter.st_size, sys.implementation.cache_tag,
            sys.flags.optimize, _block_file(path))


def _read_cache(cache: str, key: tuple):
    try:
        with open(cache, "rb") as handle:
            data = handle.read()
    except OSError:
        return None
    magic = importlib.util.MAGIC_NUMBER
    if not data.startswith(magic):
        return None
    try:
        cached_key, code = marshal.loads(data[len(magic):])
    except (EOFError, ValueError, TypeError):
        return None
    return code if cached_key == key else None


def _write_cache(cache: str, key: tuple, code) -> None:
    """Write atomically (temp file, then rename); give up on OSError."""
    temp = f"{cache}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(cache), exist_ok=True)
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        with open(fd, "wb") as handle:
            handle.write(importlib.util.MAGIC_NUMBER)
            handle.write(marshal.dumps((key, code)))
        os.replace(temp, cache)
    except OSError:
        try:
            os.unlink(temp)
        except OSError:
            pass


# ---------------------------------------------------------------------------
# the import hook
# ---------------------------------------------------------------------------


class ProbeLoader(importlib.machinery.SourceFileLoader):
    """Loads a source module with probes compiled in."""

    def get_code(self, fullname):
        path = self.get_filename(fullname)
        key = _cache_key(path)
        cache = _cache_path(path)
        code = _read_cache(cache, key) if cache is not None else None
        if code is None:
            tree = ast.parse(self.get_data(path), path)
            instrument(tree, path)
            code = compile(tree, path, "exec", dont_inherit=True)
            if cache is not None:
                _write_cache(cache, key, code)
        else:
            _imp._fix_co_filename(code, path)
        return code

    def exec_module(self, module) -> None:
        namespace = module.__dict__
        namespace[PROBE_NAME] = NOOP
        _probed.append((module.__file__, namespace))
        super().exec_module(module)


class ProbeFinder:
    """``sys.meta_path`` entry routing ``repro.protocols.*`` source
    modules through :class:`ProbeLoader`."""

    @classmethod
    def find_spec(cls, fullname, path=None, target=None):
        if not fullname.startswith(PROBED_PACKAGE + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is not None and isinstance(
                spec.loader, importlib.machinery.SourceFileLoader):
            spec.loader = ProbeLoader(fullname, spec.origin)
        return spec


def install() -> None:
    """Put :class:`ProbeFinder` first on ``sys.meta_path`` (once)."""
    if ProbeFinder not in sys.meta_path:
        sys.meta_path.insert(0, ProbeFinder)
