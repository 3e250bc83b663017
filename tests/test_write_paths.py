"""Every file warmstart writes goes through corpus.replacing, and every text
input is read through errors.read_text.

Outside the body of `replacing`, a builtin `open()` may only read or append,
and its mode must be a literal, so a finished artifact never appears half
written. Calls that open or write files by another name (`os.open`,
`Path.open`, `write_text`, `write_bytes`) are not allowed at all. Outside
the body of `errors.read_text`, a builtin `open()` may not read text, so one
function decides how a text input is decoded and how a bad byte fails.
"""

import ast
import stat
from pathlib import Path

import numpy as np
import pytest

import warmstart
from warmstart.corpus import write_store
from warmstart.translate import IdentityProvider, TranslationTable, translate_all
from warmstart.transplant import EmbeddingMatrix, write_embeddings

SRC = Path(warmstart.__file__).resolve().parent
WRITING_METHODS = {"open", "write_text", "write_bytes"}


def _open_mode(node: ast.Call):
    """The mode node of a builtin `open()` call (None for the default "r")."""
    mode = node.args[1] if len(node.args) > 1 else None
    return next((k.value for k in node.keywords if k.arg == "mode"), mode)


def _is_builtin_open(node: ast.Call) -> bool:
    return isinstance(node.func, ast.Name) and node.func.id == "open"


def _is_read_or_append(mode) -> bool:
    if mode is None:  # open()'s default, "r"
        return True
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return False
    chars = set(mode.value)
    return chars <= set("rabt") and len(chars & {"r", "a"}) == 1


class _WriteFinder(ast.NodeVisitor):
    def __init__(self):
        self.offences: list[int] = []
        self.opens = 0

    def visit_FunctionDef(self, node):
        if node.name != "replacing":
            self.generic_visit(node)

    def visit_Call(self, node):
        if _is_builtin_open(node):
            self.opens += 1
            if not _is_read_or_append(_open_mode(node)):
                self.offences.append(node.lineno)
        elif isinstance(node.func, ast.Attribute) and node.func.attr in WRITING_METHODS:
            self.offences.append(node.lineno)
        self.generic_visit(node)


def _scan(source: str) -> _WriteFinder:
    finder = _WriteFinder()
    finder.visit(ast.parse(source))
    return finder


def test_only_replacing_opens_files_for_writing():
    offences, opens = [], 0
    modules = sorted(SRC.glob("*.py"))
    assert any(p.name == "corpus.py" for p in modules)
    for path in modules:
        finder = _scan(path.read_text(encoding="utf-8"))
        offences += [f"{path.name}:{line}" for line in finder.offences]
        opens += finder.opens
    assert opens > 0  # the scan saw the package's reads
    assert offences == []


@pytest.mark.parametrize("call", [
    'open(p, "w")', 'open(p, "wb")', 'open(p, "r+")', 'open(p, "x")',
    'open(p, mode="w", encoding="utf-8")', "open(p, mode)", "os.open(p, flags)",
    'Path(p).open("w")', 'p.write_text("x")', 'p.write_bytes(b"x")',
])
def test_guard_flags_writing_opens(call):
    assert _scan(f"def save(p, mode, flags):\n    {call}\n").offences == [2]


@pytest.mark.parametrize("call", [
    "open(p)", 'open(p, "rb")', 'open(p, "a", encoding="utf-8")', 'open(p, mode="ab")',
])
def test_guard_allows_reads_and_appends(call):
    assert _scan(f"def load(p):\n    {call}\n").offences == []


def test_guard_skips_the_body_of_replacing():
    assert _scan('def replacing(path, mode="wb"):\n    open(path, mode)\n').offences == []


def _is_text_read(mode) -> bool:
    """True for the default "r" and a literal text mode that reads ("r" or
    "+"). A mode that is not a literal is the write guard's to flag: only the
    body of `replacing` may have one."""
    if mode is None:
        return True
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return False
    return "b" not in mode.value and bool(set(mode.value) & {"r", "+"})


class _TextReadFinder(ast.NodeVisitor):
    """Builtin `open()` calls that read text, outside the function `exempt`."""

    def __init__(self, exempt):
        self.exempt = exempt
        self.offences: list[int] = []

    def visit_FunctionDef(self, node):
        if node.name != self.exempt:
            self.generic_visit(node)

    def visit_Call(self, node):
        if _is_builtin_open(node) and _is_text_read(_open_mode(node)):
            self.offences.append(node.lineno)
        self.generic_visit(node)


def _text_reads(source: str, module: str) -> list[int]:
    finder = _TextReadFinder("read_text" if module == "errors.py" else None)
    finder.visit(ast.parse(source))
    return finder.offences


def test_only_read_text_opens_files_for_reading_text():
    errors = (SRC / "errors.py").read_text(encoding="utf-8")
    assert len(_text_reads(errors, "elsewhere.py")) == 1  # the scan sees read_text's open
    offences = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
                for line in _text_reads(path.read_text(encoding="utf-8"), path.name)]
    assert offences == []


@pytest.mark.parametrize("call", [
    "open(p)", 'open(p, "r")', 'open(p, "rt", encoding="utf-8")',
    'open(p, mode="r", newline="")', 'open(p, encoding="utf-8-sig")', 'open(p, "a+")',
])
def test_text_guard_flags_text_reads(call):
    assert _text_reads(f"def load(p):\n    {call}\n", "vocab.py") == [2]


@pytest.mark.parametrize("call", [
    'open(p, "rb")', 'open(p, mode="rb", buffering=0)', 'open(p, "a", encoding="utf-8")',
    'open(p, mode="ab")',
])
def test_text_guard_allows_binary_reads_and_text_appends(call):
    assert _text_reads(f"def load(p):\n    {call}\n", "vocab.py") == []


def test_text_guard_skips_the_body_of_read_text_in_errors_only():
    source = "def read_text(path):\n    open(path)\n"
    assert _text_reads(source, "errors.py") == []
    assert _text_reads(source, "vocab.py") == [2]


def _write_cache(path, first):
    table = TranslationTable(persist_path=path) if first else TranslationTable.load(path, persist=True)
    translate_all(table, IdentityProvider(), ["bil", "hus"], retry_failed=not first)


def _write_embeddings(path, first):
    write_embeddings(EmbeddingMatrix(np.full((2, 2), float(first), dtype=np.float32)), path)


def _write_store(path, first):
    write_store([[1, 2] if first else [3]], path)


@pytest.mark.parametrize("name,write", [
    ("cache.tsv", _write_cache), ("e.embt", _write_embeddings), ("c.seqs", _write_store),
])
def test_rewrite_keeps_the_targets_permission_bits(tmp_path, name, write):
    write(tmp_path / name, True)
    for p in tmp_path.iterdir():
        p.chmod(0o600)
    inodes = {p.name: p.stat().st_ino for p in tmp_path.iterdir()}
    write(tmp_path / name, False)
    after = {p.name: p.stat() for p in tmp_path.iterdir()}
    assert after.keys() == inodes.keys()
    assert all(st.st_ino != inodes[n] for n, st in after.items())  # replaced, not rewritten
    assert {n: stat.S_IMODE(st.st_mode) for n, st in after.items()} == dict.fromkeys(inodes, 0o600)
