import hashlib
import json
import os
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import bnc_engine
from bnc_engine.algebra import CheckReport, MismatchedAlgebra
from bnc_engine.bimult import ReductionError
from bnc_engine.cli import main
from bnc_engine.cumulants import ColouringError, SideMismatch
from bnc_engine.diagrams import SuffixMismatch
from bnc_engine.errors import (
    BROKEN_PIPE,
    BncError,
    CapExceeded,
    FixtureError,
    InputError,
)
from bnc_engine.fixtures import load_system
from bnc_engine.freeprod import DepthExceeded
from bnc_engine.partitions import AlphabetError, NotBNC, SizeMismatch


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate_bnc_count(capsys):
    code, out, _ = run(capsys, "enumerate", "bnc", "--chi", "lrlllr")
    assert code == 0
    assert json.loads(out)["count"] == 132


def test_enumerate_lr_example(capsys):
    code, out, _ = run(capsys, "enumerate", "lr", "--chi", "lrl", "--eps", "1,1,2")
    assert code == 0
    assert json.loads(out)["count"] == 8


def test_enumerate_lr0(capsys):
    code, out, _ = run(
        capsys, "enumerate", "lr", "--chi", "lrl", "--eps", "1,1,2", "--k", "0"
    )
    data = json.loads(out)
    assert data["count"] == 2


def test_enumerate_bncffb(capsys):
    code, out, _ = run(capsys, "enumerate", "bncffb", "--chihat", "rbl")
    assert code == 0
    assert json.loads(out)["count"] == 4


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "enumerate", "bnc", "--chi", "lxq")
    assert code == 2
    assert "error" in err


def test_cap_exceeded_exit_code(capsys):
    code, _, err = run(capsys, "enumerate", "bnc", "--chi", "l" * 12)
    assert code == 3
    # mobius reads the NC(n) kernel, and refuses before building it
    pi, sigma = ",".join(map(str, range(11))), ",".join("0" * 11)
    code, out, err = run(
        capsys, "mobius", "--chi", "l" * 11, "--pi", pi, "--sigma", sigma
    )
    assert (code, out) == (3, "")
    assert "n=11 exceeds cap 10" in err


def test_mobius_two_element_interval(capsys):
    code, out, _ = run(capsys, "mobius", "--chi", "ll", "--pi", "0,1", "--sigma", "0,0")
    assert code == 0
    assert json.loads(out)["mu"] == -1


def test_mobius_accepts_block_syntax(capsys):
    code, out, _ = run(
        capsys, "mobius", "--chi", "lrl", "--pi", "{1},{2},{3}", "--sigma",
        "{1,2,3}",
    )
    assert code == 0
    assert json.loads(out)["mu"] == 2


def test_cumulants_roundtrip_flag(capsys):
    code, out, _ = run(
        capsys, "cumulants", "--chi", "ll", "--fixture", "m2-scalar", "--seed", "7"
    )
    assert code == 0
    data = json.loads(out)
    assert data["roundtrip_ok"] is True
    assert data["entries"]


def test_byte_determinism(capsys):
    _, out1, _ = run(
        capsys, "cumulants", "--chi", "lr", "--fixture", "diag2", "--seed", "3"
    )
    _, out2, _ = run(
        capsys, "cumulants", "--chi", "lr", "--fixture", "diag2", "--seed", "3"
    )
    assert out1 == out2


def test_verify_bb_axioms(capsys):
    code, out, _ = run(capsys, "verify", "bb-axioms", "--fixture", "diag2")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_lr_decompose(capsys):
    code, out, _ = run(
        capsys, "verify", "lr-decompose", "--seed", "5", "--trials", "4",
        "--max-n", "3",
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_bifree(capsys):
    code, out, _ = run(
        capsys, "verify", "bifree", "--trials", "5", "--word-cap", "3", "--seed", "2"
    )
    assert code == 0


def test_verify_ffb_system(capsys):
    code, out, _ = run(
        capsys, "verify", "ffb-system", "--fixture", "doubled-m2", "--word-cap", "4"
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_bb_axioms_defaults_to_a_space_fixture(capsys):
    code, out, err = run(capsys, "verify", "bb-axioms")
    assert (code, err) == (0, "")
    assert json.loads(out)["ok"] is True


def test_moments_table(capsys):
    code, out, _ = run(
        capsys, "moments", "--chi", "lrl", "--fixture", "diag2", "--seed", "3"
    )
    assert code == 0
    assert json.loads(out)["entries"]


def test_render_empty_diagram_is_header_only(capsys):
    code, out, _ = run(
        capsys, "render", "--kind", "lr", "--chi", "", "--eps", "", "--index", "0"
    )
    assert code == 0
    assert "circle" not in out
    assert out.startswith("\\begin{tikzpicture}")


def test_render_bnc_figure(capsys):
    code, out, _ = run(
        capsys, "render", "--kind", "bnc", "--chi", "lrlllr",
        "--pi", "{1,2,5,6},{3,4}",
    )
    assert code == 0
    assert out.startswith("\\begin{tikzpicture}")
    assert out.count("circle") == 6


def test_render_rejects_crossing_partition(capsys):
    code, _, err = run(
        capsys, "render", "--kind", "bnc", "--chi", "lrlllr",
        "--pi", "{1,4,5,6},{2,3}",
    )
    assert code == 2


def test_render_lr_dot(capsys):
    code, out, _ = run(
        capsys, "render", "--kind", "lr", "--chi", "lrl", "--eps", "1,1,2",
        "--index", "3", "--format", "dot",
    )
    assert code == 0
    assert out.startswith("graph lr {")


def test_render_standalone_compilable_header(capsys):
    code, out, _ = run(
        capsys, "render", "--kind", "bnc", "--chi", "lr", "--pi", "0,0",
        "--standalone",
    )
    assert code == 0
    assert out.startswith("\\documentclass[tikz]{standalone}")
    assert out.rstrip().endswith("\\end{document}")


def test_verify_bad_fixture_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "bb-axioms", "--fixture", "diag2-bad")
    assert code == 4


def test_tables_refuse_a_bad_fixture(capsys):
    code, out, err = run(capsys, "moments", "--chi", "ll", "--fixture", "diag2-bad")
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command",
    ["moments --chi lr", "cumulants --chi lr", "mobius --chi ll --pi 0,1 --sigma 0,0",
     "verify bb-axioms"],
)
def test_json_only_commands_refuse_format(capsys, command):
    with pytest.raises(SystemExit) as e:
        main(shlex.split(command) + ["--format", "text"])
    assert e.value.code == 2
    assert capsys.readouterr().out == ""


def test_claim_failure_exit_code():
    from bnc_engine.cli import _report_exit
    from bnc_engine.cumulants import CheckReport

    rep = CheckReport()
    rep.record("broken", False)
    import io, contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert _report_exit(rep) == 5


def test_enumerate_lrlat(capsys):
    code, out, _ = run(
        capsys, "enumerate", "lrlat", "--chi", "llll", "--eps", "1,2,1,2"
    )
    assert code == 0
    data = json.loads(out)
    assert data["closure"] == "lateral"
    assert data["count"] >= 16


def test_render_worked_example_diagram(capsys):
    # the two-node string with its spine into the top gap
    code, out, _ = run(
        capsys, "render", "--kind", "lr", "--chi", "lrl", "--eps", "1,1,2",
        "--index", "7",
    )
    assert code == 0
    assert "orange" in out
    assert "\\end{tikzpicture}" in out


def test_verify_depth_flag(capsys):
    code, out, _ = run(
        capsys, "verify", "ffb-system", "--fixture", "doubled-m2",
        "--word-cap", "2", "--depth", "5",
    )
    assert code == 0


def test_ffb_sweep_witness_is_the_first_failing_word(monkeypatch, capsys):
    # a system whose right faces act through the other colour's operator
    def recoloured(name, depth):
        system = load_system(name, depth)
        faces_r = {
            k: [replace(h, chain=system.faces_r[3 - k][0].chain) for h in hs]
            for k, hs in system.faces_r.items()
        }
        return replace(system, faces_r=faces_r)

    monkeypatch.setattr("bnc_engine.cli.load_system", recoloured)
    code, out, err = run(
        capsys, "verify", "ffb-sweep", "--fixture", "doubled-m2", "--max-n", "2"
    )
    assert (code, err) == (5, "")
    assert json.loads(out)["claims"] == [
        {
            "id": "ffb-sweep (11 words passed)",
            "status": "fail",
            "witness": {
                "shape": "lr",
                "colours": [1, 2],
                "word": ["l1.0", "r2.0"],
                "claims": [
                    {
                        "id": "mixed-ffb-cumulant-vanishes",
                        "status": "fail",
                        "witness": "1*1",
                    }
                ],
            },
        }
    ]


def _diagram(eps, strings, spine_order, chi="lr"):
    strings = [{"nodes": nodes, "top": top} for nodes, top in strings]
    return {"chi": chi, "eps": eps, "strings": strings, "spine_order": spine_order}


BAD_DIAGRAMS = [
    _diagram([1], [], []),  # chi and eps differ in length
    _diagram([1, 1], [([1], False)], []),  # node 2 is on no string
    _diagram([1, 1], [([1, 2], False), ([2], False)], []),  # node 2 twice
    _diagram([1, 1], [([1, 2], False), ([], False)], []),  # an empty string
    _diagram([1, 2], [([1, 2], False)], []),  # a string of two colours
    _diagram([1, 1], [([1, 2], False)], [[1, 2]]),  # a closed string on the spine
    _diagram([1, 1], [([1, 2], True)], []),  # a top string off the spine
    _diagram([1, 1], [([1, 2], "yes")], [[1, 2]]),  # top is not a boolean
    _diagram([1, 1], [([1, 2], True)], [[1, 2]], chi="lb"),  # three-letter chi
]


@pytest.mark.parametrize(
    "command, flag",
    [
        ("enumerate bnc", "--chi"),
        ("enumerate lr --chi lr", "--eps"),
        ("render --kind bnc --chi lr", "--pi"),
        ("verify bifree --dims 2", "--dims"),
        ("verify ffb-system --word-cap 0", "--word-cap"),
        ("verify bifree --word-cap 1", "--word-cap"),
        ("verify lr-decompose --max-n 0", "--max-n"),
        ("verify ffb-sweep --max-n 0", "--max-n"),
        ("verify ffb-sweep --max-n 2 --depth 0", "--depth"),
        ("verify bifree --trials -1", "--trials"),
        ("verify lr-decompose --trials 0", "--trials"),
        ("verify ffb-independence --word-cap 2 --depth 1", "--depth"),
        ("enumerate lr --chi lr --eps 1,x", "--eps"),
        ("enumerate lr --chi lr --eps 1,,2", "--eps"),
        ("enumerate lr --chi lr --eps 1,1 --k -1", "--k"),
        ("enumerate lrlat --chi lr --eps 1,1 --k -1", "--k"),
        ("verify ffb-system --word-cap -1 --depth 3", "--word-cap"),
        ("verify bifree --dims 2,x", "--dims"),
        ("verify bifree --dims=-1,2", "--dims"),
        ("BNC_ENGINE_CAP=x enumerate bnc --chi lr", "BNC_ENGINE_CAP"),
        ("moments --chi ''", "--chi"),
        ("moments --chi lbr", "--chi"),
        ("cumulants --chi lbr", "--chi"),
        ("mobius --chi lbr --pi 0,1,2 --sigma 0,0,0", "--chi"),
        ("enumerate bnc --chi lbr", "--chi"),
        ("enumerate lr --chi lbr --eps 1,1,1", "--chi"),
        ("enumerate lrlat --chi lbr --eps 1,1,1", "--chi"),
        ("render --kind bnc --chi lbr --pi 0,1,2", "--chi"),
        ("render --kind lr --chi lbr --eps 1,1,1 --index 0", "--chi"),
        ("cumulants --chi l --fixture nope", "--fixture"),
        ("verify ffb-system --fixture nope", "--fixture"),
        ("mobius --chi lrl --pi 0,1,2 --sigma '{1,2,3'", "--sigma"),
        ("mobius --chi lrl --pi 0,1,2 --sigma '{1,2},{2,3}'", "--sigma"),
        ("mobius --chi ll --pi 0,1,2 --sigma 0,0", "--pi"),
        ("render --kind lr --json '{x'", "--json"),
        ("render --kind lr --json '[]'", "--json"),
        ("render --kind lr --json '{}'", "--json"),
        *(("render --kind lr --json " + shlex.quote(json.dumps(d)), "--json")
          for d in BAD_DIAGRAMS),
    ],
)
def test_malformed_invocation_names_its_flag(monkeypatch, capsys, command, flag):
    argv = shlex.split(command)
    while "=" in argv[0]:  # leading NAME=value words set the environment
        monkeypatch.setenv(*argv.pop(0).split("=", 1))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag in err


@pytest.mark.parametrize(
    "command, flag",
    [
        ("verify lr-decompose --max-n 9 --trials 1", "--max-n"),
        ("verify lr-decompose --max-n 30 --trials 1", "--max-n"),
        ("verify bifree --word-cap 11", "--word-cap"),
        ("verify bifree --dims 1,1 --word-cap 12 --trials 10 --seed 0", "--word-cap"),
        ("BNC_ENGINE_CAP=8 verify bifree --word-cap 9", "--word-cap"),
        ("verify ffb-sweep --max-n 6", "--max-n"),
        ("verify ffb-sweep --fixture doubled-m2 --max-n 6 --depth 4", "--max-n"),
        ("BNC_ENGINE_CAP=11 verify ffb-sweep --max-n 6", "--max-n"),
        ("BNC_ENGINE_CAP=8 verify ffb-sweep --max-n 5", "--max-n"),
    ],
)
def test_over_cap_word_length_is_refused_before_any_work(
    monkeypatch, capsys, command, flag
):
    # lr-decompose's --max-n is held to the diagram cap (8), --word-cap
    # to the lattice cap (10), and twice ffb-sweep's --max-n (a boolean
    # letter is two positions) to the lattice cap: the refusal comes
    # before any system is built or word drawn, so the seed that would
    # never draw an over-cap length is refused too
    argv = shlex.split(command)
    while "=" in argv[0]:
        monkeypatch.setenv(*argv.pop(0).split("=", 1))
    monkeypatch.setattr("bnc_engine.cli.reduced_free_product", None)
    monkeypatch.setattr("bnc_engine.cli.load_system", None)
    code, out, err = run(capsys, *argv)
    assert code == CapExceeded.code
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag in err


def test_raised_cap_lets_ffb_sweep_take_longer_words(monkeypatch, capsys):
    # BNC_ENGINE_CAP=12 admits --max-n 6; the sweep itself is stood in
    # for, since n̂ = 6 words take minutes
    def stand_in(system, max_n):
        rep = CheckReport()
        rep.record(f"stand-in sweep (max_n {max_n})", True)
        return rep

    monkeypatch.setenv("BNC_ENGINE_CAP", "12")
    monkeypatch.setattr("bnc_engine.cli.ffb_sweep", stand_in)
    code, out, _ = run(capsys, "verify", "ffb-sweep", "--max-n", "6")
    assert code == 0
    assert json.loads(out)["claims"][0]["id"] == "stand-in sweep (max_n 6)"


def test_raised_cap_lets_lr_decompose_run_longer_words(monkeypatch, capsys):
    # seed 17 draws n = 9 on its one trial
    monkeypatch.setenv("BNC_ENGINE_CAP", "9")
    code, out, _ = run(
        capsys, "verify", "lr-decompose", "--max-n", "9", "--trials", "1",
        "--seed", "17",
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize("fault", [ReductionError("no collapsible block"), KeyError("x")])
def test_internal_fault_exits_70(monkeypatch, capsys, fault):
    def broken(*args, **kwargs):
        raise fault

    monkeypatch.setattr("bnc_engine.cli.moment_table", broken)
    code, out, err = run(capsys, "moments", "--chi", "lr")
    assert code == 70
    assert out == ""
    assert err.startswith("error: internal") and err.count("\n") == 1



def test_closed_stdout_ends_quietly():
    """A reader that stops early (as `| head -c 10` does) is no engine
    fault: the command ends with 141, as a tool ended by SIGPIPE, and
    prints nothing on stderr.  The output (about 160 kB) overfills the
    pipe, so the write meets the closed end."""
    env = dict(os.environ, PYTHONPATH=str(Path(bnc_engine.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "bnc_engine.cli", "enumerate", "bnc", "--chi", "lrlllrlr"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (BROKEN_PIPE, b"")
    assert BROKEN_PIPE == 141


ERROR_CODES = [
    (InputError, 2),
    (AlphabetError, 2),
    (SizeMismatch, 2),
    (NotBNC, 2),
    (SideMismatch, 2),
    (ColouringError, 2),
    (SuffixMismatch, 2),
    (MismatchedAlgebra, 2),
    (DepthExceeded, 2),
    (CapExceeded, 3),
    (FixtureError, 4),
]


@pytest.mark.parametrize("cls, code", ERROR_CODES)
def test_error_class_exit_code(cls, code):
    assert issubclass(cls, BncError)
    assert cls.code == code


def test_every_error_class_has_a_pinned_code():
    found, todo = set(), [BncError]
    while todo:
        subs = todo.pop().__subclasses__()
        found.update(subs)
        todo.extend(subs)
    assert found == {cls for cls, _ in ERROR_CODES}


# sha256 of stdout and the exit code of each README command that runs in
# about a second or less; any change to the output bytes shows up here.
README_OUTPUTS = [
    ("enumerate bnc --chi lrlllr",
     "8ea1c0b32034cd495309b422157cda4fba2c7f14b836a6cac12e3e9d5e5e563f", 0),
    ("enumerate lr --chi lrl --eps 1,1,2",
     "1892efcb4a80f58e1e09afc1ead4fdb40a03445034cf53f720405132d824b058", 0),
    ("enumerate lrlat --chi llll --eps 1,2,1,2",
     "fff4bf803d31be1a17186eff103d926bb5790d77229e8162e3192a116a8942a8", 0),
    ("enumerate bncffb --chihat rbl",
     "d11b227220c87eb0fae3a913b376ead39fd1a53d1cc05806b9f512da27740f5e", 0),
    ("enumerate bnc --chi lrl --format text",
     "c848fef9789aa0b8dded12493d1969548eaabaeec0a0720545b1eb888398c005", 0),
    ("mobius --chi ll --pi 0,1 --sigma 0,0",
     "3597d91730092b113236c412a0cc42305d1079a24a000c0d080cfa19a7cf15a2", 0),
    ("moments --chi lrl --fixture diag2 --seed 3",
     "fedc6704029daff9959c300a34ba91be38ca23eae15e9b3dd14dfa298cb8a888", 0),
    ("cumulants --chi ll --fixture m2-scalar --seed 7",
     "f603980c8eb81e22dc14240bc336d4c0b3d13fea4eda0dc25f2c1aab1bd61029", 0),
    ("moments --chi lrlrrll --fixture m2-scalar --seed 7",
     "24f7c29a4a6fc00c903c9d1dc11c68467f69356e83dcf54dbeb9e39e9a343158", 0),
    ("cumulants --chi lrlrrll --fixture m2-scalar --seed 7",
     "57fc5a04a8e8120f0d88fc46857aabb3f5cbc82e5483c43ebce4a3a842310722", 0),
    ("verify bb-axioms --fixture diag2",
     "7552b6cfc111f78dc35d5fa0f6f5aaf7cbd5c5914753372884c164e8824b7ba5", 0),
    ("verify bifree --trials 10 --word-cap 4 --seed 2",
     "a3f04668826da6af7a2f7c43299924f50887fe5638ca2e3164ea54f20417ecda", 0),
    ("verify ffb-system --fixture doubled-m2 --word-cap 4",
     "8b7e5c0708e7e5df917cb5e79e0ea33f54aaadaaae9180bfd7f6a84c71127dc8", 0),
    ("verify ffb-independence --fixture doubled-m2 --word-cap 4",
     "ed1c3945d60c24f7f402842624cef1bc0b19bb67149b36c21e6cdf8b6c3f9ef8", 0),
    ("verify ffb-system --fixture doubled-diag2 --word-cap 3",
     "1253cbec5a57acd5d44ee04e648a55db1966e4612e9036982b04ca5e88e506bc", 0),
    ("verify ffb-independence --fixture doubled-diag2 --word-cap 4",
     "1cc15d3f66e5bae634ae0d4c14a3dc4591b6200df363aaed52bc6460e93ab652", 0),
    ("verify ffb-sweep --fixture doubled-dual --max-n 3",
     "e3d256ba3e39d0ee04198222beb820ad9ca5073e07dc69b3e4c080fe78fa8afd", 0),
    ("verify lr-decompose --seed 5 --trials 10 --max-n 4",
     "ce0899189e80f0ab57c0b5888c79ab31673c7478463fd3fee0c8f2808afa3ca5", 0),
    ('render --kind bnc --chi lrlllr --pi "{1,2,5,6},{3,4}" --standalone',
     "63f42fb9ee1cd30bee0f6cdbae8eb3dbd48e7e882a82ae41025fa509047cc368", 0),
    ('render --kind bnc --chi lrlllr --pi "{1,2,5,6},{3,4}" --format dot',
     "6adf3a091213a90d491fac92818cd16269340c58868d4707ff154a83c280ad8a", 0),
    ("render --kind lr --chi lrl --eps 1,1,2 --index 7 --format dot",
     "5f71da301fbb44e67bb6ff354c12b2d0698ffa10592370218e6c35dd7680c70c", 0),
]


@pytest.mark.parametrize("command, digest, exit_code", README_OUTPUTS)
def test_readme_command_output_bytes(capsys, command, digest, exit_code):
    code, out, _ = run(capsys, *shlex.split(command))
    assert code == exit_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# The shaded TikZ picture, which no README command prints: top-gap spines
# in spine order, closed spines by depth, one colour per shade.  The
# second diagram has three top strings and three shades.
RENDER_OUTPUTS = [
    ("render --kind lr --chi lrl --eps 1,1,2 --index 7",
     "3ef0adcd2a96c067b79e0ef09c3b7bff2effb09081945fce06a4c5d03172f687"),
    ("render --kind lr --chi lrlrl --eps 1,2,1,2,3 --index 11",
     "ace9fe139f7586cdfde56f9912c0cab490d0da3f92ee8c80a9bf37a8aa08b811"),
]


@pytest.mark.parametrize("command, digest", RENDER_OUTPUTS)
def test_lr_tikz_output_bytes(capsys, command, digest):
    code, out, _ = run(capsys, *shlex.split(command))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
