"""Protocol-dispatch completeness (REP030).

A tagged union in a JSON record needs no such rule — :mod:`repro.serde`
dispatches on the tag each member declares — but the wire protocol is
dispatched by hand.  Adding a ``KIND_*`` message kind is a three-site
change — encoder branch, decoder branch, node-side handler — and
forgetting any one of them fails only at runtime, on the first live frame
of that kind: the encoder raises ``CodecError`` mid-gossip, or worse, the
node silently drops a message category and the cluster wedges below
quorum.

The check is entirely fact-driven: kind constants come from the project
string-constant table, codec branches from the ``kind ==`` comparisons
recorded for the wire module's encode/decode functions, and handler
coverage from the same comparisons across the configured handler
modules (literal strings and resolved constant references both count,
as does a ``!=`` guard — rejecting a kind is handling it).
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import Rule, register

if TYPE_CHECKING:  # pragma: no cover - typing-only
    from repro.lint.facts import ProjectSymbols


@register
class DispatchCompletenessRule(Rule):
    """REP030 — every wire message kind needs a codec round-trip and a handler.

    For each ``KIND_*`` string constant declared in the configured kind
    modules: (a) the wire module's encode path must branch on it, (b) the
    decode path must branch on it, and (c) some handler module must
    compare a message ``kind`` against it.  Encoder/decoder asymmetry is
    reported even for kinds without a declared constant.
    """

    code = "REP030"
    name = "dispatch-completeness"
    summary = "wire kinds need encoder, decoder, and node-side handler"

    def check(self, project: "ProjectSymbols") -> Iterator[Diagnostic]:
        wire = self.config.wire
        wire_record = project.files.get(wire.wire_module)
        if wire_record is None:
            return
        handler_modules = [m for m in wire.handler_modules if m in project.files]
        encode_re = re.compile(wire.encode_name_pattern)
        decode_re = re.compile(wire.decode_name_pattern)
        encode_kinds: set[str] = set()
        decode_kinds: set[str] = set()
        handler_kinds: set[str] = set()
        for module in {wire.wire_module, *handler_modules}:
            for test in project.files[module].kind_tests:
                value = test.value
                for ref in test.refs:
                    if value is None:
                        value = project.resolve_constant(ref)
                if value is None:
                    continue
                if module in handler_modules:
                    handler_kinds.add(value)
                if module == wire.wire_module:
                    if encode_re.search(test.function.name):
                        encode_kinds.add(value)
                    if decode_re.search(test.function.name):
                        decode_kinds.add(value)
        wire_path = wire_record.display_path

        for qualname, (value, line) in sorted(project.str_constants.items()):
            module, _, constant = qualname.rpartition(".")
            if module not in wire.kind_modules:
                continue
            if not constant.startswith(wire.constant_prefix):
                continue
            if value not in encode_kinds:
                yield self.diagnostic(
                    wire_path,
                    1,
                    0,
                    f"wire kind {value!r} ({constant}) has no encoder "
                    f"branch in {wire.wire_module}; sending it raises "
                    "CodecError at runtime",
                )
            if value not in decode_kinds:
                yield self.diagnostic(
                    wire_path,
                    1,
                    0,
                    f"wire kind {value!r} ({constant}) has no decoder "
                    f"branch in {wire.wire_module}; receiving it raises "
                    "CodecError at runtime",
                )
            if handler_modules and value not in handler_kinds:
                yield self.diagnostic(
                    project.files[module].display_path,
                    line,
                    0,
                    f"wire kind {value!r} ({constant}) has no node-side "
                    "handler: no function in "
                    f"{', '.join(handler_modules)} dispatches on it, so "
                    "received messages of this kind are silently dropped",
                )

        for value in sorted(encode_kinds - decode_kinds):
            yield self.diagnostic(
                wire_path,
                1,
                0,
                f"wire kind {value!r} is encoded but never decoded; the "
                "codec does not round-trip",
            )
        for value in sorted(decode_kinds - encode_kinds):
            yield self.diagnostic(
                wire_path,
                1,
                0,
                f"wire kind {value!r} is decoded but never encoded; the "
                "codec does not round-trip",
            )
