"""R013 — docs/FORMAT.md and the struct constants cannot drift.

docs/FORMAT.md is the byte-level contract for the v2/v3 page files:
magic strings, struct format codes, field offsets, alignment.  Nothing
executable ties it to ``storage.py`` / ``nodecodec.py``, so a layout
change that forgets the doc (or a doc edit that forgets the code) ships
a spec that lies.  This project rule closes the loop: during the
per-file pass it collects the module-level struct constants from the
storage modules (``struct.Struct`` format strings, magic byte
literals, derived offsets like ``_DATA_START = _SUPER.size + 2 *
_SLOT.size`` via a tiny constant evaluator); in the
finish pass it parses the layout anchors out of docs/FORMAT.md and
cross-checks every pair.  A mismatch is a finding on the constant's
line; a *missing* anchor is also a finding, so rewording the doc out
from under the rule fails loudly instead of silently checking nothing.

The doc uses ``<QII>``-style tokens (trailing ``>``) where the code
writes ``"<QII"``; tokens are normalized before comparison.
"""

from __future__ import annotations

import ast
import os
import re
import struct
from dataclasses import dataclass, field
from typing import Iterator

from tools.lint.engine import Finding, Rule, SourceFile, register

#: Storage modules whose constants define the on-disk layout.
_LAYOUT_MODULES = frozenset({"storage.py", "nodecodec.py"})


def _norm(fmt: str) -> str:
    """Doc tokens carry a closing ``>`` (``<QII>``); struct strings
    don't."""
    return fmt[:-1] if fmt.endswith(">") else fmt


@dataclass
class _Constants:
    """Module-level layout constants of one storage module."""

    path: str
    #: name -> (struct format string, line, col)
    formats: dict[str, tuple[str, int, int]] = field(default_factory=dict)
    #: name -> (bytes literal, line, col)
    magics: dict[str, tuple[bytes, int, int]] = field(default_factory=dict)
    #: name -> (evaluated integer, line, col)
    ints: dict[str, tuple[int, int, int]] = field(default_factory=dict)

    def size_of(self, name: str) -> int | None:
        entry = self.formats.get(name)
        if entry is None:
            return None
        try:
            return struct.calcsize(entry[0])
        except struct.error:
            return None


@dataclass
class _DocSpec:
    """The layout anchors parsed out of docs/FORMAT.md.

    ``None`` means the anchor pattern did not match — reported as its
    own finding so the conformance check cannot silently go blind.
    """

    super_offset: int | None = None
    super_size: int | None = None
    super_fmt: str | None = None
    slot_offsets: tuple[int, int] | None = None
    slot_size: int | None = None
    slot_fmt: str | None = None
    record_fmt: str | None = None
    record_size: int | None = None
    heap_offset: int | None = None
    stamp_size: int | None = None
    stamp_fmt: str | None = None
    stamp_magic: str | None = None
    node_size: int | None = None
    node_fmt: str | None = None
    count_fmt: str | None = None
    entry_fmt: str | None = None
    align: int | None = None
    table_id: int | None = None
    meta_id: int | None = None
    magic_strings: frozenset[str] = frozenset()

    @classmethod
    def parse(cls, text: str) -> "_DocSpec":
        spec = cls()
        match = re.search(r"Superblock .* offset (\d+), (\d+) bytes "
                          r"\(`([^`]+)`\)", text)
        if match:
            spec.super_offset = int(match.group(1))
            spec.super_size = int(match.group(2))
            spec.super_fmt = _norm(match.group(3))
        match = re.search(r"Header slots .* offsets (\d+) and (\d+), "
                          r"(\d+) bytes each \(`([^`]+)`\)", text)
        if match:
            spec.slot_offsets = (int(match.group(1)), int(match.group(2)))
            spec.slot_size = int(match.group(3))
            spec.slot_fmt = _norm(match.group(4))
        match = re.search(r"^(<\w+>)\s+page_id, payload_size.*"
                          r"\((\d+)-byte record header\)", text,
                          re.MULTILINE)
        if match:
            spec.record_fmt = _norm(match.group(1))
            spec.record_size = int(match.group(2))
        match = re.search(r"heap from offset (\d+)", text)
        if match:
            spec.heap_offset = int(match.group(1))
        match = re.search(r"(\d+)-byte stamp", text)
        if match:
            spec.stamp_size = int(match.group(1))
        match = re.search(r"\(`(<\w+>?)`: magic `(\w+)`", text)
        if match:
            spec.stamp_fmt = _norm(match.group(1))
            spec.stamp_magic = match.group(2)
        match = re.search(r"\((\d+)-byte node header `([^`]+)`", text)
        if match:
            spec.node_size = int(match.group(1))
            spec.node_fmt = _norm(match.group(2))
        match = re.search(r"^(<\w+>)\s+entry count", text, re.MULTILINE)
        if match:
            spec.count_fmt = _norm(match.group(1))
        match = re.search(r"^(<\w+>)\s+page_id, record_offset, "
                          r"record_size", text, re.MULTILINE)
        if match:
            spec.entry_fmt = _norm(match.group(1))
        match = re.search(r"next (\d+)-byte boundary", text)
        if match:
            spec.align = int(match.group(1))
        match = re.search(r"`2\*\*64 - (\d+)` marks a page-table", text)
        if match:
            spec.table_id = 2 ** 64 - int(match.group(1))
        match = re.search(r"`2\*\*64 - (\d+)`[^`]*application-metadata",
                          text, re.DOTALL)
        if match:
            spec.meta_id = 2 ** 64 - int(match.group(1))
        spec.magic_strings = frozenset(
            re.findall(r"`(WALRUS\w+)`", text))
        return spec


@register
class FormatSpecRule(Rule):
    code = "R013"
    name = "format-spec-conformance"
    rationale = ("docs/FORMAT.md is the on-disk contract; magic "
                 "strings, struct format codes and offsets must match "
                 "the constants in storage.py/nodecodec.py exactly")
    project = True

    def __init__(self, doc_path: str | None = None) -> None:
        self.doc_path = doc_path
        self.start_run()

    def applies_to(self, path: str) -> bool:
        return os.path.basename(path) in _LAYOUT_MODULES \
            and "tests" not in path.split(os.sep)

    def start_run(self) -> None:
        self._modules: dict[str, _Constants] = {}

    def check(self, source: SourceFile) -> Iterator[Finding]:
        constants = _Constants(path=source.path)
        for statement in source.tree.body:
            if not isinstance(statement, ast.Assign) \
                    or len(statement.targets) != 1 \
                    or not isinstance(statement.targets[0], ast.Name):
                continue
            name = statement.targets[0].id
            value = statement.value
            where = (statement.lineno, statement.col_offset)
            if isinstance(value, ast.Call) \
                    and self._is_struct_ctor(value) and value.args \
                    and isinstance(value.args[0], ast.Constant) \
                    and isinstance(value.args[0].value, str):
                constants.formats[name] = (value.args[0].value, *where)
            elif isinstance(value, ast.Constant) \
                    and isinstance(value.value, bytes):
                constants.magics[name] = (value.value, *where)
            else:
                evaluated = self._eval_int(value, constants)
                if evaluated is not None:
                    constants.ints[name] = (evaluated, *where)
        self._modules[os.path.basename(source.path)] = constants
        return iter(())

    @staticmethod
    def _is_struct_ctor(call: ast.Call) -> bool:
        func = call.func
        if isinstance(func, ast.Attribute):
            return func.attr == "Struct"
        return isinstance(func, ast.Name) and func.id == "Struct"

    def _eval_int(self, expr: ast.AST,
                  constants: _Constants) -> int | None:
        """Evaluate simple constant integer expressions:
        ``2 ** 64 - 1``, ``_SUPER.size + 2 * _SLOT.size``."""
        if isinstance(expr, ast.Constant) \
                and isinstance(expr.value, int) \
                and not isinstance(expr.value, bool):
            return expr.value
        if isinstance(expr, ast.Name):
            entry = constants.ints.get(expr.id)
            return entry[0] if entry is not None else None
        if isinstance(expr, ast.Attribute) and expr.attr == "size" \
                and isinstance(expr.value, ast.Name):
            return constants.size_of(expr.value.id)
        if isinstance(expr, ast.BinOp):
            left = self._eval_int(expr.left, constants)
            right = self._eval_int(expr.right, constants)
            if left is None or right is None:
                return None
            if isinstance(expr.op, ast.Add):
                return left + right
            if isinstance(expr.op, ast.Sub):
                return left - right
            if isinstance(expr.op, ast.Mult):
                return left * right
            if isinstance(expr.op, ast.Pow) and right < 256:
                return left ** right
        return None

    # ------------------------------------------------------------------
    # finish(): cross-check
    # ------------------------------------------------------------------

    def finish(self) -> Iterator[Finding]:
        if not self._modules:
            return
        doc_path = self.doc_path or self._locate_doc()
        first = next(iter(self._modules.values()))
        if doc_path is None or not os.path.isfile(doc_path):
            yield self._at(first.path, 1, 0,
                           "docs/FORMAT.md not found; the on-disk "
                           "format has no checkable spec")
            return
        with open(doc_path, "r", encoding="utf-8") as stream:
            spec = _DocSpec.parse(stream.read())
        doc_name = os.path.relpath(doc_path)
        for module, checks in self._checks(spec):
            constants = self._modules.get(module)
            if constants is None:
                continue
            for kind, name, doc_value, anchor in checks:
                yield from self._compare(constants, kind, name,
                                         doc_value, anchor, doc_name)
        if "storage.py" in self._modules:
            yield from self._check_magics(self._modules["storage.py"],
                                          spec, doc_name)

    def _checks(self, spec: _DocSpec) -> Iterator[
            tuple[str, list[tuple[str, str, object, str]]]]:
        """(module, [(kind, constant, doc value, doc anchor), ...])."""
        slot_off2 = None
        super_entry = self._modules.get("storage.py")
        if super_entry is not None:
            super_size = super_entry.size_of("_SUPER")
            slot_size = super_entry.size_of("_SLOT")
            if super_size is not None and slot_size is not None \
                    and spec.slot_offsets is not None:
                slot_off2 = (spec.slot_offsets
                             == (super_size, super_size + slot_size))
        yield "storage.py", [
            ("fmt", "_SUPER", spec.super_fmt, "superblock layout"),
            ("size", "_SUPER", spec.super_size, "superblock size"),
            ("fmt", "_SLOT", spec.slot_fmt, "header-slot layout"),
            ("size", "_SLOT", spec.slot_size, "header-slot size"),
            ("offsets", "_SLOT", slot_off2, "header-slot offsets"),
            ("fmt", "_RECORD", spec.record_fmt, "record-header layout"),
            ("size", "_RECORD", spec.record_size, "record-header size"),
            ("int", "_DATA_START", spec.heap_offset, "heap start offset"),
            ("fmt", "_TABLE_STAMP", spec.stamp_fmt, "table-stamp layout"),
            ("size", "_TABLE_STAMP", spec.stamp_size, "table-stamp size"),
            ("magic", "_TABLE_MAGIC", spec.stamp_magic,
             "table-stamp magic"),
            ("int", "_TABLE_ID", spec.table_id, "page-table record id"),
            ("int", "_META_ID", spec.meta_id, "metadata record id"),
            ("fmt", "_TABLE_COUNT", spec.count_fmt,
             "v3 table entry count layout"),
            ("fmt", "_TABLE_ENTRY", spec.entry_fmt,
             "v3 table entry layout"),
            ("int", "_RECORD_ALIGN", spec.align, "record alignment"),
        ]
        yield "nodecodec.py", [
            ("fmt", "_NODE_HEADER", spec.node_fmt, "node-header layout"),
            ("size", "_NODE_HEADER", spec.node_size, "node-header size"),
        ]

    def _compare(self, constants: _Constants, kind: str, name: str,
                 doc_value: object, anchor: str,
                 doc_name: str) -> Iterator[Finding]:
        if doc_value is None:
            line, col = self._where(constants, name)
            yield self._at(constants.path, line, col,
                           f"{doc_name} anchor for the {anchor} "
                           f"(checked against {name}) was not found; "
                           "the spec was reworded out from under the "
                           "conformance check")
            return
        if kind == "fmt":
            entry = constants.formats.get(name)
            if entry is None:
                yield self._missing(constants, name, anchor)
            elif entry[0] != doc_value:
                yield self._at(constants.path, entry[1], entry[2],
                               f"{name} packs '{entry[0]}' but "
                               f"{doc_name} documents the {anchor} as "
                               f"'{doc_value}'")
        elif kind == "size":
            size = constants.size_of(name)
            if size is None:
                yield self._missing(constants, name, anchor)
            elif size != doc_value:
                entry = constants.formats[name]
                yield self._at(constants.path, entry[1], entry[2],
                               f"{name} is {size} bytes but {doc_name} "
                               f"documents the {anchor} as {doc_value} "
                               "bytes")
        elif kind == "int":
            entry = constants.ints.get(name)
            if entry is None:
                yield self._missing(constants, name, anchor)
            elif entry[0] != doc_value:
                yield self._at(constants.path, entry[1], entry[2],
                               f"{name} = {entry[0]} but {doc_name} "
                               f"documents the {anchor} as {doc_value}")
        elif kind == "magic":
            entry = constants.magics.get(name)
            if entry is None:
                yield self._missing(constants, name, anchor)
            elif entry[0].decode("ascii", "replace") != doc_value:
                yield self._at(constants.path, entry[1], entry[2],
                               f"{name} = {entry[0]!r} but {doc_name} "
                               f"documents the {anchor} as "
                               f"'{doc_value}'")
        elif kind == "offsets":
            # doc_value is the precomputed boolean from _checks.
            if doc_value is False:
                entry = constants.formats.get(name)
                line, col = (entry[1], entry[2]) if entry \
                    else self._where(constants, name)
                yield self._at(constants.path, line, col,
                               "header-slot offsets in the doc do not "
                               "equal _SUPER.size and _SUPER.size + "
                               "_SLOT.size")

    def _check_magics(self, constants: _Constants, spec: _DocSpec,
                      doc_name: str) -> Iterator[Finding]:
        code_magics = {
            name: value for name, (value, _, _)
            in constants.magics.items()
            if value.startswith(b"WALRUS")
        }
        decoded = {value.decode("ascii", "replace")
                   for value in code_magics.values()}
        for name, (value, line, col) in constants.magics.items():
            if not value.startswith(b"WALRUS"):
                continue
            text = value.decode("ascii", "replace")
            if text not in spec.magic_strings:
                yield self._at(constants.path, line, col,
                               f"magic {name} = {value!r} is not "
                               f"documented in {doc_name}")
        for magic in sorted(spec.magic_strings - decoded):
            yield self._at(constants.path, 1, 0,
                           f"{doc_name} documents magic '{magic}' but "
                           "no storage constant defines it")

    def _locate_doc(self) -> str | None:
        for constants in self._modules.values():
            directory = os.path.dirname(os.path.abspath(constants.path))
            while True:
                candidate = os.path.join(directory, "docs", "FORMAT.md")
                if os.path.isfile(candidate):
                    return candidate
                parent = os.path.dirname(directory)
                if parent == directory:
                    break
                directory = parent
        return None

    def _where(self, constants: _Constants, name: str) -> tuple[int, int]:
        for table in (constants.formats, constants.magics,
                      constants.ints):
            entry = table.get(name)
            if entry is not None:
                return entry[1], entry[2]
        return 1, 0

    def _missing(self, constants: _Constants, name: str,
                 anchor: str) -> Finding:
        return self._at(constants.path, 1, 0,
                        f"expected layout constant {name} (the "
                        f"{anchor}) was not found in this module")

    def _at(self, path: str, line: int, col: int,
            message: str) -> Finding:
        return Finding(path=path, line=line, col=col, code=self.code,
                       message=message)
