import json
from pathlib import Path

import pytest

import dx.corelib
from dx.cli import main

from families import EF_MAP
from fixtures import (
    C23_MAP,
    COPY_MAP,
    COPY_QUERY,
    COPY_SRC,
    EF_SRC,
    EF_UCQ,
    NAF_INSTANCE,
    PE_MAP,
    PE_QUERY,
    PE_SRC,
)


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text + "\n", encoding="utf-8")
        return str(path)

    return write, tmp_path


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_chase_emits_canonical_solution(files, capsys):
    write, _ = files
    code, out, _ = run(
        ["chase", "-m", write("m.dx", COPY_MAP), "-s", write("s.inst", COPY_SRC)],
        capsys,
    )
    assert code == 0 and out == "Rp(a,b).\n"


def test_core_emits_two_atom_instance(files, capsys):
    write, _ = files
    code, out, _ = run(
        ["core", "-m", write("m.dx", EF_MAP), "-s", write("s.inst", EF_SRC)], capsys
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 2 and "_n1" in out


def test_eval_copy_gcwa_star_json(files, capsys):
    write, _ = files
    code, out, _ = run(
        [
            "eval",
            "-m", write("m.dx", COPY_MAP),
            "-s", write("s.inst", COPY_SRC),
            "-q", write("q1.q", COPY_QUERY),
            "--semantics", "gcwa-star",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["answers"] == [["a", "b"]]
    assert doc["semantics"] == "gcwa-star"
    assert doc["meta"]["path"] == "fast-core"


def test_eval_is_byte_deterministic(files, capsys):
    write, _ = files
    argv = [
        "eval",
        "-m", write("m.dx", COPY_MAP),
        "-s", write("s.inst", COPY_SRC),
        "-q", write("q1.q", COPY_QUERY),
    ]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second


def test_eval_ucq_uses_core_path(files, capsys):
    write, _ = files
    code, out, _ = run(
        [
            "eval",
            "-m", write("m.dx", EF_MAP),
            "-s", write("s.inst", EF_SRC),
            "-q", write("q.q", EF_UCQ),
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["answers"] == [["a"]] and doc["meta"]["path"] == "ucq-core"


def test_eval_oracle_semantics(files, capsys):
    write, _ = files
    code, out, _ = run(
        [
            "eval",
            "-m", write("m.dx", PE_MAP),
            "-s", write("s.inst", PE_SRC),
            "-q", write("q.q", PE_QUERY),
            "--semantics", "rcwa",
            "--budget-fresh", "3",
            "--budget-atoms", "8",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["answers"] == [] and doc["meta"]["diagnostic"] == "no RCWA-solution"


def test_eval_non_universal_needs_oracle(files, capsys):
    write, _ = files
    query = "q(x) := exists z: E(x,z) /\\ ~E(z,x)."
    code, _, err = run(
        [
            "eval",
            "-m", write("m.dx", PE_MAP),
            "-s", write("s.inst", PE_SRC),
            "-q", write("q.q", query),
        ],
        capsys,
    )
    assert code == 1 and "--oracle" in err
    code, out, _ = run(
        [
            "eval",
            "-m", write("m.dx", PE_MAP),
            "-s", write("s.inst", PE_SRC),
            "-q", write("q.q", query),
            "--oracle",
        ],
        capsys,
    )
    assert code == 0 and json.loads(out)["answers"] == []


def test_eval_counting_mapping_fast_path_exit_code(files, capsys):
    # the fast path refuses mappings with general constraints
    write, _ = files
    code, _, err = run(
        [
            "eval",
            "-m", write("m.dx", C23_MAP),
            "-s", write("s.inst", PE_SRC),
            "-q", write("q.q", "q() := forall z: E(a,z) -> z = a."),
        ],
        capsys,
    )
    assert code == 2 and "precondition" in err


def test_parse_error_exit_code(files, capsys):
    write, _ = files
    code, _, err = run(
        ["chase", "-m", write("m.dx", "source R/2. tgd R(x,y) -> E(x,y)."),
         "-s", write("s.inst", COPY_SRC)],
        capsys,
    )
    assert code == 1 and "error" in err


def test_blocks_report(files, capsys):
    write, _ = files
    code, out, _ = run(
        [
            "blocks",
            "-m", write("m.dx", "source R/2. target E/2."),
            "-i", write("t.inst", NAF_INSTANCE),
            "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["blocks"]) == 3 and doc["all_packed"] is False


def test_chase_output_with_awkward_constants_reads_back(files, capsys):
    write, tmp_path = files
    m = write("m.dx", "source R/2. target E/2. tgd R(x,y) -> E(x,y).")
    code, out, _ = run(["chase", "-m", m, "-s", write("s.inst", 'R("a b",c). R("_z",d).')], capsys)
    assert code == 0 and out == 'E("_z",d).\nE("a b",c).\n'
    chased = tmp_path / "t.inst"
    chased.write_text(out, encoding="utf-8")
    code, out, err = run(["blocks", "-m", m, "-i", str(chased), "--format", "json"], capsys)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert len(doc["blocks"]) == 2 and doc["all_packed"] is True
    code, out, _ = run(["core", "-m", m, "-s", write("s2.inst", 'R("a b",c). R("_z",d).')], capsys)
    assert code == 0 and out == 'E("_z",d).\nE("a b",c).\n'


def test_minrep_emits_representatives(files, capsys):
    write, _ = files
    code, out, _ = run(
        [
            "minrep",
            "-m", write("m.dx", EF_MAP),
            "-i", write("t.inst", "E(a,_n1). F(_n1,b)."),
        ],
        capsys,
    )
    assert code == 0
    assert out.count("# rep") == 3  # the three one-null images


def test_minrep_tests_a_non_core_once(files, capsys, monkeypatch):
    # work without a clock: all five blocks share one core search of the
    # non-core instance; a search per block made five
    calls, core_of = [], dx.corelib.core_of

    def counting(inst):
        calls.append(inst)
        return core_of(inst)

    monkeypatch.setattr(dx.corelib, "core_of", counting)
    write, _ = files
    inst = write("t.inst", "E(a,_x). E(a,_y). E(b,_u). E(b,_v). E(c,_w).")
    code, out, _ = run(["minrep", "-m", write("m.dx", EF_MAP), "-i", inst], capsys)
    assert code == 0 and out.count("# rep") == 8
    assert len(calls) == 1


def test_compare_agreement(files, capsys):
    write, _ = files
    code, out, _ = run(
        [
            "compare",
            "-m", write("m.dx", COPY_MAP),
            "-s", write("s.inst", COPY_SRC),
            "-q", write("q.q", COPY_QUERY),
        ],
        capsys,
    )
    assert code == 0 and json.loads(out)["agree"] is True


def test_eval_force_oracle_is_oracle(files, capsys):
    write, _ = files
    argv = [
        "eval",
        "-m", write("m.dx", COPY_MAP),
        "-s", write("s.inst", COPY_SRC),
        "-q", write("q1.q", COPY_QUERY),
        "--budget-fresh", "2",
        "--budget-atoms", "4",
    ]
    code, oracle_out, _ = run(argv + ["--oracle"], capsys)
    assert code == 0 and json.loads(oracle_out)["meta"]["path"] == "oracle"
    code, forced_out, _ = run(argv + ["--force-oracle"], capsys)
    assert code == 0 and forced_out == oracle_out


def test_compare_random_seeded(files, capsys):
    code, out, _ = run(["compare", "--random", "5", "--seed", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["agree"] is True and doc["trials"] == 5
    assert doc["skipped"] == 1
    assert doc["skip_reasons"] == ["oracle: fresh-value universe exceeded its cap of 3 values (4 needed)"]


def test_compare_over_budget_exits_3(capsys):
    data = Path(__file__).resolve().parent.parent / "demos" / "data"
    code, out, err = run(
        [
            "compare",
            "-m", str(data / "chain.dx"),
            "-s", str(data / "chain.inst"),
            "-q", str(data / "chain_fb.q"),
            "--budget-fresh", "0",
        ],
        capsys,
    )
    assert code == 3 and out == ""
    assert err == "error: budget exceeded: fresh-value universe exceeded its cap of 0 values (1 needed)\n"


def test_minrep_strips_spaces_in_constants(files, capsys):
    write, _ = files
    argv = ["minrep", "-m", write("m.dx", EF_MAP), "-i", write("t.inst", "E(a,_n1). F(_n1,b).")]
    code, spaced, _ = run(argv + ["--constants", " c, d "], capsys)
    assert code == 0 and "E(a,d)." in spaced and " d" not in spaced
    assert run(argv + ["--constants", "c,d"], capsys)[1] == spaced


def test_non_utf8_file_is_a_parse_error(files, capsys):
    write, tmp_path = files
    bad = tmp_path / "s.inst"
    bad.write_bytes(b"R(a,b).\nR(c,\xff).\n")
    code, out, err = run(["chase", "-m", write("m.dx", COPY_MAP), "-s", str(bad)], capsys)
    assert code == 1 and out == ""
    assert err == f"error: {bad}:2:5: invalid UTF-8 byte 0xff\n"


def test_non_ascii_digits_are_not_a_number(files, capsys):
    write, _ = files
    mapping = write("m.dx", "source R/².\ntarget E/2.")
    code, _, err = run(["chase", "-m", mapping, "-s", write("s.inst", "")], capsys)
    assert code == 1 and err == f"error: {mapping}:1:10: expected a number\n"


@pytest.mark.parametrize("flag, field", [
    ("--budget-fresh", "fresh_constants"),
    ("--budget-atoms", "max_atoms"),
    ("--budget-rounds", "max_fixpoint_rounds"),
])
def test_negative_budget_is_a_usage_error(flag, field, capsys):
    # -1 atoms would leave the oracle no minimal solution and answer []
    data = Path(__file__).resolve().parent.parent / "demos" / "data"
    argv = ["eval", "-m", str(data / "chain.dx"), "-s", str(data / "chain.inst"),
            "-q", str(data / "chain_fb.q"), "--oracle"]
    code, out, _ = run(argv, capsys)
    assert code == 0 and json.loads(out)["answers"] == [[]]
    code, out, err = run(argv + [flag, "-1"], capsys)
    assert code == 1 and out == ""
    assert err == f"error: budget field {field} must be nonnegative, not -1\n"


def test_compare_refuses_a_negative_random_count(capsys):
    code, out, err = run(["compare", "--random", "-3"], capsys)
    assert code == 1 and out == ""
    assert err == "error: compare --random needs a nonnegative count, not -3\n"
