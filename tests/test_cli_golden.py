"""``dx`` output on ``demos/data`` and on a 20-edge EF chain, byte for byte.

Each case runs ``dx.cli.main`` in-process and compares its exit code,
stdout and stderr with ``golden_cli.json``, keyed by the command line as
written below.  ``demos/data/`` names the committed demo files and
``{tmp}/`` the files this test writes.  After a deliberate change of
output, rewrite the goldens with ``PYTHONPATH=src python
tests/test_cli_golden.py`` and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from dx.cli import main
from dx.oracle import SEMANTICS

from families import FAMILIES, source_text

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
NON_CORE = "E(a,_x). E(a,_y). E(b,_u). E(b,_v). E(c,_w)."


def _commands():
    data = {
        "chain": ("chain_fb", "chain_reach", "chain_three"),
        "copy": ("copy_unique",),
        "successor": ("successor_some", "successor_unique"),
    }
    for name, queries in data.items():
        io = f"-m demos/data/{name}.dx -s demos/data/{name}.inst"
        yield f"chase {io}"
        yield f"core {io}"
        for q in queries:
            yield f"eval {io} -q demos/data/{q}.q"
            for semantics in SEMANTICS:
                # the owa oracle scans 300 000 subsets (11 s) before it
                # refuses chain_three.q; ROADMAP item 6 is its mending
                if (q, semantics) != ("chain_three", "owa"):
                    yield f"eval {io} -q demos/data/{q}.q --semantics {semantics} --oracle"
    blocks = "-m demos/data/chain.dx -i demos/data/unpacked.inst"
    yield f"blocks {blocks}"
    yield f"blocks {blocks} --format json"
    yield f"minrep {blocks}"
    yield f"minrep {blocks} --whole"
    # a non-core instance: its blocks share one core test
    yield "minrep -m demos/data/chain.dx -i {tmp}/noncore.inst"
    yield "compare -m demos/data/chain.dx -s demos/data/chain.inst -q demos/data/chain_three.q"
    yield "eval -m {tmp}/ef.dx -s {tmp}/ef20.inst -q {tmp}/chain.q"


COMMANDS = list(_commands())


def _write_inputs(tmp: Path) -> None:
    ef_chain = FAMILIES["ef-chain"]
    (tmp / "ef.dx").write_text(ef_chain.mapping + "\n", encoding="utf-8")
    (tmp / "chain.q").write_text(ef_chain.query + "\n", encoding="utf-8")
    (tmp / "ef20.inst").write_text(source_text(ef_chain.edges(20)), encoding="utf-8")
    (tmp / "noncore.inst").write_text(NON_CORE + "\n", encoding="utf-8")


def _run(command: str, tmp: Path) -> dict:
    argv = [w.replace("demos/data/", f"{ROOT}/demos/data/").replace("{tmp}", str(tmp))
            for w in command.split()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_command(golden):
    assert sorted(golden) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_dx_output_matches_golden(command, golden, tmp_path):
    _write_inputs(tmp_path)
    assert _run(command, tmp_path) == golden[command]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(Path(tmp))
        results = {command: _run(command, Path(tmp)) for command in COMMANDS}
    GOLDEN.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(results)} cases to {GOLDEN}")
