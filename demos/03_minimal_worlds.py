"""Walkthrough: minimal possible worlds and why packed blocks matter.

Run with:  python3 demos/03_minimal_worlds.py
"""

from pathlib import Path

from dx import (
    Atom,
    Const,
    Schema,
    atom_blocks,
    atom_in_some_minimal,
    blocks_packed,
    core_solution,
    enum_min_c,
    parse_instance,
    parse_mapping,
    serialize_instance,
)
from dx.errors import PreconditionViolated
from dx.minrep import BlockReps
from dx.textio import SourceText

DATA = Path(__file__).parent / "data"

mapping = parse_mapping(SourceText.from_file(DATA / "chain.dx"))
source = parse_instance(SourceText.from_file(DATA / "chain.inst"), mapping.source)
core = core_solution(mapping, source)
print("core:")
print(serialize_instance(core))

# Whole-instance representatives: every way of mapping the nulls into the
# instance (plus a chosen constant pool) that cannot be shrunk any further.
reps = enum_min_c(core, {Const("c")})
print(f"min-representatives over pool {{c}}: {len(reps)}")
for rep in reps:
    print("  " + "  ".join(serialize_instance(rep).split()))

# Per-block enumeration is the polynomial-time variant the query evaluator
# uses; on this packed core it already captures every atom above.  One
# BlockReps serves every block of the core over the pool.
blocks = BlockReps(core, {Const("c")})
print(f"block-local representatives: {len(blocks.instances(0))}")

probe = Atom("E", (Const("a"), Const("c")))
print(f"is {probe!r} in some minimal world? ->",
      atom_in_some_minimal(core, probe))

# On an unpacked block the block-local answer would overshoot, so the
# operation refuses; the whole-instance enumeration remains available.
unpacked = parse_instance(
    SourceText.from_file(DATA / "unpacked.inst"), Schema.of({"E": 2})
)
print("\nunpacked instance blocks:", len(atom_blocks(unpacked).blocks),
      "packed:", blocks_packed(unpacked))
probe2 = Atom("E", (Const("c"), Const("a")))
try:
    atom_in_some_minimal(unpacked, probe2)
except PreconditionViolated as exc:
    print(f"membership test refused: {exc.reason}")
whole = enum_min_c(unpacked, {Const("c"), Const("a")})
print("whole-instance enumeration says:",
      any(probe2 in rep for rep in whole))
