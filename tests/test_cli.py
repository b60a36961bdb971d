import hashlib
import io
import json
import time
from types import SimpleNamespace

import pytest

import pnh.cli
import pnh.model
from pnh.cli import run


def test_fvector_table(tmp_path):
    out = tmp_path / "t.txt"
    assert run(["fvector", "--type", "A3", "--building", "minimal",
                "--output", str(out)]) == 0
    text = out.read_text()
    assert "120" in text and "192" in text and "74" in text


def test_verify_pass_and_fail(tmp_path):
    out = tmp_path / "r.txt"
    assert run(["verify", "--type", "A2", "--a", "1",
                "--output", str(out)]) == 0
    assert "FAIL" not in out.read_text()
    assert run(["verify", "--type", "A2", "--epsilons", "1/3,1",
                "--output", str(out)]) == 1
    assert "FAIL" in out.read_text()


def test_verify_fast_a5_decides_on_base_vertices(tmp_path):
    # 30,240 vertices and 4,682 inequalities, decided on the 42 base
    # vertices; scanning every pair took about a minute on a 2-vCPU machine
    out = tmp_path / "a5.txt"
    t0 = time.perf_counter()
    code = run(["verify", "--level", "fast", "--type", "A5",
                "--building", "minimal", "--output", str(out)])
    elapsed = time.perf_counter() - t0
    heads = [line for line in out.read_text().splitlines()
             if not line.startswith(" ")]
    assert code == 0
    assert heads and all(line.startswith("PASS ") for line in heads), heads
    assert elapsed < 20, f"{elapsed:.1f}s"


def test_verify_full_counts_every_pair(tmp_path):
    out = tmp_path / "b4.txt"
    assert run(["verify", "--level", "full", "--type", "B4",
                "--building", "minimal", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert "PASS vertex/halfspace incidence: 9117696 checks" in lines
    assert not [line for line in lines if line.startswith("FAIL")]


# the digests pin the nestohedron check counts too: 147, 30, 42, 60, 184, 147
_VERIFY_FULL_DIGESTS = {
    ("A4", "minimal"):
        "4d17b915e3952556ddef12b8a7cbda45600d0d0c20f7be9016a4fb5450cf4b8a",
    ("A3", "minimal"):
        "3881fbe1d83100e42b4a501678ec619f01905fce7838e2f76c6ff02fc1192b5b",
    ("B3", "maximal"):
        "19e68d7b7198be9b858f7953f43f21ea51e6a73dfc1b19bb6488ea971615ac52",
    ("A2xB2", "minimal"):
        "bfacda09981839bcbf4b5f76c9678b8525e7d871bd48cfde0f21d70a538d6aa7",
    ("D4", "minimal"):
        "4ba60c9df114d717c640edb21d98104c8053e32a70c50e38ab5896170b084848",
    ("B4", "minimal"):
        "08bb135f02cfe700e7141d4a268dfeeddc86e91fb0fb8fb67ebaceaf16243186",
}


@pytest.mark.parametrize("spec, building", list(_VERIFY_FULL_DIGESTS))
def test_verify_full_output_is_byte_identical(spec, building, tmp_path):
    out = tmp_path / "full.txt"
    assert run(["verify", "--level", "full", "--type", spec,
                "--building", building, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        _VERIFY_FULL_DIGESTS[spec, building]
    )


def test_build_emits_parseable_json(tmp_path):
    out = tmp_path / "a2.json"
    assert run(["build", "--type", "A2", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["hrep"]) == 12
    assert len(doc["vrep"]) == 12
    assert doc["config"]["type"] == "A2"


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["--type", "A3", "--building", "minimal", "--a", "3/2"],
            "b0f399f69560e4aaded8203f3885d8ce3ed6248c328510854d90cd129ea23aac",
        ),
        (
            ["--type", "B3", "--building", "maximal", "--a", "1"],
            "728498ee1f8659981fbfe1e278a80caeff558e7d3fd526f9566fb77fe149dd6d",
        ),
        (
            ["--type", "B4", "--building", "minimal"],
            "d5fb135c9e12b15be1132ffcb2907529cb41c07db9a0e346604d81c917528947",
        ),
        (
            ["--type", "D4", "--building", "minimal"],
            "24c9a1e7fc58977788d9c63a1f202917e96c71b5c2473f4fd332ce7b752a6e94",
        ),
        (
            ["--type", "A4", "--building", "maximal", "--a", "1"],
            "a0081489b834e1ad005a9f1d7a27437bed86e9e55e1d9bd616882b42aed9dd98",
        ),
        (
            ["--type", "A2xB2", "--building", "minimal", "--a", "1"],
            "6e15b2b423b6720c27dc94b1ca344437707267e3c5339de63956e55ae941c73a",
        ),
    ],
)
def test_build_output_is_byte_identical(tmp_path, argv, digest):
    # frozen SHA-256 of the whole document: a reordered H-rep or V-rep, or a
    # changed sigma or coordinate, cannot pass unnoticed
    out = tmp_path / "frozen.json"
    assert run(["build", *argv, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["build", "--type", "A4", "--building", "minimal", "--a", "2"],
            "274a26c5ddef7ae9b913155460c81e38edfd982e1f46cd47c7833cc9b994f0a1",
        ),
        (
            ["build", "--type", "A1^4", "--building", "interval", "--a", "3"],
            "88d09a5614b3bc702b14eb9e1de9ff2593ee2735986dc0ef0f056a2cae49680d",
        ),
        (
            # the second build_document call site: export's JSON format
            ["export", "--type", "B3", "--building", "maximal", "--format", "json"],
            "2c384997c301a2e1838d71837e7182681fb19a290112adff40780157ee868818",
        ),
    ],
)
def test_construct_json_is_byte_identical(tmp_path, argv, digest):
    # frozen SHA-256 of the JSON of the benchmark's build types and of export
    out = tmp_path / "frozen.json"
    assert run([*argv, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["--type", "A3", "--building", "minimal"],
            "0e990cc5ac140f5cadd638db76e688ca824f58c0d21c56167e2135ddc0606658",
        ),
        (
            ["--type", "A4", "--building", "maximal"],
            "1e93f53eea20c4d03ba0cdd7b3dcbdfef2e431f378456f924105d647f40050ce",
        ),
        (
            ["--type", "D4", "--building", "minimal"],
            "058e2c28ca213cd3e8f9e976322ebb6d09367e5cbe0aca59563cf36c0dc45b4b",
        ),
    ],
)
def test_fvector_output_is_byte_identical(tmp_path, argv, digest):
    # frozen SHA-256 of the table, whose H line is read from the f-vector
    out = tmp_path / "frozen.txt"
    assert run(["fvector", *argv, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["--type", "B3", "--building", "maximal", "--a", "2"],
            "4dbb89328034c2c4ca320ed4b87eeec89d9be9bb43a700bf9e23820636502faf",
        ),
        (
            ["--type", "A1^4", "--building", "interval", "--a", "5/2"],
            "db3b9c357e8a7c2c6202ca55e312265fcad7ee6f5e3b627b79e16c35a332ba62",
        ),
        (
            ["--type", "A2xB2", "--building", "minimal", "--a", "1"],
            "8da046f82b7ae905a042e1bfb08e87858f1a861aaca2ba6565d25a9cef88fe2e",
        ),
    ],
)
def test_poset_output_is_byte_identical(tmp_path, argv, digest):
    # frozen SHA-256 of the face poset with its covering edges
    out = tmp_path / "frozen.json"
    assert run(["poset", *argv, "--edges", "yes", "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["--type", "B3", "--building", "maximal"],
            "7e2f8b4f07d23c71f09264609fa5ef1d1b0d7f38680b5371ace9441550dcd99b",
        ),
        (
            ["--type", "A3", "--building", "minimal"],
            "ca6e5ccda75004f44c97c1589221bc7f0d57d36499fd681c84065ec28f7789eb",
        ),
        (
            ["--type", "A3", "--building", "maximal"],
            "21cbae679e2cbd4ff7019d9178f36ff8a37ceb86d324cc183289e3f20af7aee1",
        ),
        (
            ["--type", "B3", "--building", "minimal"],
            "15ca741b39b53b9e14dd0a663432ac65543518442ab9aeeec92fbcb909eeb70b",
        ),
        (
            ["--type", "C3", "--building", "minimal"],
            "092f5f0557edbe6eff69eb3c966c5d143257a06e5807848a54eb1c83fe03601a",
        ),
        (
            ["--type", "C3", "--building", "maximal"],
            "21cc8e5864150f286e77daeac8caa42760ba57a4f843472bc1e588fb9b27302b",
        ),
        (
            ["--type", "A1^3", "--building", "interval"],
            "56840dc5a3fad44421f62ed2230f83aa6c198f6a28b9b20b892a8fd04a071c58",
        ),
        (
            ["--type", "A2xA1", "--building", "minimal"],
            "ddcd429d19e28455cb537d351daadeaf21a665b399e659c3a3290f782d326db0",
        ),
        (
            ["--type", "A2xA1", "--building", "maximal"],
            "f81555d79aadb38d709b50b91c47ca29ce1276baf94bfff0716d50c74080681b",
        ),
        (
            ["--type", "B2xA1", "--building", "maximal"],
            "653b822de9da79ff5c994f323f8fde3830a91b2d4e691bf554038f8b51c7cb3a",
        ),
        (
            # fails only the epsilon checks: no vertex exceeds an
            # inequality, so the mesh is still written
            ["--type", "A3", "--epsilons", "1/50,1/3,1"],
            "6b4c82ceca142a235de013f66b723fa8f0e64ee077c53305488b5b01cdff0442",
        ),
    ],
)
def test_off_output_is_byte_identical(tmp_path, argv, digest):
    # frozen SHA-256 of the OFF mesh: its decimals are rounded from the
    # exact coordinates, so a changed coordinate path shows here
    out = tmp_path / "frozen.off"
    assert run(["export", *argv, "--format", "off", "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_off_export_of_a_non_polytope_exits_two(tmp_path, capsys):
    # eps 1/10, 1/2, 1 puts base vertices beyond member inequalities, so the
    # chamber facts that give each facet's vertices do not hold
    out = tmp_path / "m.off"
    assert run(["export", "--type", "A3", "--epsilons", "1/10,1/2,1",
                "--format", "off", "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        "pnh: error: member inequality of <dim 1: roots 0>: "
        "a base vertex exceeds its bound\n"
    )
    assert not out.exists()


def test_build_with_verification_gate(tmp_path):
    out = tmp_path / "gate.json"
    assert run(["build", "--type", "A2", "--verify", "full",
                "--output", str(out)]) == 0
    assert run(["build", "--type", "A2", "--epsilons", "1/3,1",
                "--verify", "fast", "--output", str(out)]) == 1


def test_usage_errors_exit_two(tmp_path, capsys):
    assert run(["build", "--type", "Q7"]) == 2
    assert run(["build", "--type", "A2", "--building", "nonsense"]) == 2
    assert run(["build", "--type", "A2", "--a", "0"]) == 2
    assert run(["nonsense"]) == 2
    assert run([]) == 2
    # rank 2 cannot be meshed
    assert run(["export", "--type", "A2", "--format", "off"]) == 2
    capsys.readouterr()
    assert run(["build", "--type", "A2", "--a", "1/0"]) == 2
    assert "invalid rational '1/0': zero denominator" in capsys.readouterr().err
    assert run(["build", "--type", "A2", "--epsilons", "1,1/0"]) == 2
    assert "invalid rational '1/0': zero denominator" in capsys.readouterr().err


def test_group_cap_is_checked_before_the_root_system(monkeypatch, capsys):
    def unreachable(spec):
        raise AssertionError(f"built the root system of {spec}")

    monkeypatch.setattr("pnh.cli.build_root_system", unreachable)
    assert run(["fvector", "--type", "A99"]) == 2
    assert "exceeds cap 50000" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec",
    [
        "A99999999999999999999",
        "A1^99999999999999",
        "B99999999999999999999",
        "D99999999999999999999",
    ],
)
def test_oversized_type_exits_two_before_any_expansion(spec, capsys):
    # |W| >= 2^rank decides the cap before a factorial, power or list
    t0 = time.perf_counter()
    assert run(["fvector", "--type", spec]) == 2
    assert time.perf_counter() - t0 < 1
    err = capsys.readouterr().err
    assert err.startswith("pnh: error: rank ") and "exceeds cap 50000" in err


def test_epsilon_list_of_the_wrong_length_exits_two(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["verify", "--type", "A3", "--epsilons", "1/100,1",
                "--output", str(out)]) == 2
    assert "epsilon list has 2 entries; rank 3 needs 3" in capsys.readouterr().err
    assert run(["build", "--type", "A3", "--epsilons=1/100,1/10,1,2",
                "--output", str(out)]) == 2
    assert "epsilon list has 4 entries; rank 3 needs 3" in capsys.readouterr().err
    assert not out.exists()
    # the right length failing the growth conditions is a FAIL, not a usage error
    assert run(["verify", "--type", "A3", "--epsilons", "1/10,1/3,1",
                "--output", str(out)]) == 1
    assert "FAIL epsilon growth conditions" in out.read_text()


def test_interval_building(tmp_path):
    out = tmp_path / "iv.json"
    assert run(["build", "--type", "A1^3", "--building", "interval",
                "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    # associahedron per chamber: 5 maximal nested sets, 8 chambers
    assert doc["f_vector"][0] == 40
    assert run(["build", "--type", "A2", "--building", "interval"]) == 2


def test_interval_building_enumerates_one_group(monkeypatch, tmp_path):
    # the group of the building's own A1^n system, not a second one for --type
    calls = []
    real = pnh.model.enumerate_group

    def counted(rs, cap):
        calls.append(rs.components)
        return real(rs, cap=cap)

    monkeypatch.setattr("pnh.model.enumerate_group", counted)
    out = tmp_path / "iv.json"
    assert run(["poset", "--type", "A1^4", "--building", "interval",
                "--output", str(out)]) == 0
    assert calls == [(("A", 1),) * 4]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["verify", "--level", "full", "--type", "A3"],
         _VERIFY_FULL_DIGESTS["A3", "minimal"]),
        (["verify", "--level", "full", "--type", "B3", "--building", "maximal"],
         _VERIFY_FULL_DIGESTS["B3", "maximal"]),
        (["verify", "--level", "fast", "--type", "A2xB2"],
         "0b3f775fe78dc72611644268c27a760c338cb6383193542c10cfcd3f5299de66"),
        (["fvector", "--type", "A4", "--building", "maximal"],
         "1e93f53eea20c4d03ba0cdd7b3dcbdfef2e431f378456f924105d647f40050ce"),
    ],
)
def test_verify_and_fvector_build_no_group(argv, digest, monkeypatch, tmp_path):
    # every order is read from the root heights: no group, so no coset table
    def unreachable(*args):
        raise AssertionError("made a group")

    monkeypatch.setattr("pnh.model.enumerate_group", unreachable)
    monkeypatch.setattr("pnh.weyl.WeylGroup.__init__", unreachable)
    out = tmp_path / "out"
    assert run([*argv, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_group_cap_is_checked_before_the_building_set(monkeypatch, capsys):
    def unreachable(rs):
        raise AssertionError(f"built the building set of {rs}")

    monkeypatch.setattr("pnh.cli.build_minimal", unreachable)
    assert run(["fvector", "--type", "A8"]) == 2
    assert capsys.readouterr().err == "pnh: error: |W| = 362880 exceeds cap 50000\n"


def test_building_from_file(tmp_path, capsys):
    spec = tmp_path / "family.json"
    spec.write_text(json.dumps({
        "roots": [[1, 0], [0, 1], [1, 1]],
        "flats": [[0], [1], [2], [0, 1, 2]],
    }))
    out = tmp_path / "custom.json"
    assert run(["build", "--type", "A2",
                "--building", f"file:{spec}", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["f_vector"] == [12, 12, 1]
    # wrong roots are rejected
    spec.write_text(json.dumps({
        "roots": [[1, 0], [0, 1], [2, 1]],
        "flats": [[0], [1], [2], [0, 1, 2]],
    }))
    assert run(["build", "--type", "A2",
                "--building", f"file:{spec}"]) == 2
    # a root that is not a coordinate list is a usage error, not a traceback
    spec.write_text(json.dumps({
        "roots": [5, [0, 1], [1, 1]],
        "flats": [[0], [1], [2], [0, 1, 2]],
    }))
    assert run(["build", "--type", "A2",
                "--building", f"file:{spec}"]) == 2
    capsys.readouterr()
    spec.write_text(json.dumps({
        "roots": [["1/0", 0], [0, 1], [1, 1]],
        "flats": [[0], [1], [2], [0, 1, 2]],
    }))
    assert run(["build", "--type", "A2",
                "--building", f"file:{spec}"]) == 2
    assert "invalid rational '1/0': zero denominator" in capsys.readouterr().err


def test_non_invariant_building_file_is_refused(tmp_path, capsys):
    # every flat of A3 except span(alpha_1, alpha_3) = roots {0, 2}: each
    # flat sums directly from its maximal members, but s_2 (simple index 1)
    # moves the plane of roots {3, 4} onto it
    spec = tmp_path / "family.json"
    spec.write_text(json.dumps({
        "roots": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 1], [1, 1, 0], [1, 1, 1]],
        "flats": [[0], [1], [2], [3], [4], [5], [1, 2, 3], [0, 1, 4], [3, 4],
                  [1, 5], [0, 3, 5], [2, 4, 5], [0, 1, 2, 3, 4, 5]],
    }))
    capsys.readouterr()
    assert run(["verify", "--type", "A3", "--building", f"file:{spec}"]) == 2
    err = capsys.readouterr().err
    assert "pnh: error: simple reflection 1 moves flat <dim 2: roots 3,4>" in err


def test_poset_and_off_outputs(tmp_path):
    poset = tmp_path / "p.json"
    assert run(["poset", "--type", "A2", "--output", str(poset)]) == 0
    doc = json.loads(poset.read_text())
    assert len(doc["nodes"]) == 25 and len(doc["edges"]) == 36
    mesh = tmp_path / "m.off"
    assert run(["export", "--type", "A3", "--format", "off",
                "--output", str(mesh)]) == 0
    assert mesh.read_text().startswith("OFF\n")


def test_missing_file_is_usage_error():
    assert run(["build", "--type", "A2", "--building", "file:/nonexistent"]) == 2


class _ClosedPipe:
    """A stdout buffer whose reader goes away after ``accepted`` writes."""

    def __init__(self, accepted):
        self.accepted = accepted
        self.data = []

    def write(self, data):
        if len(self.data) == self.accepted:
            raise BrokenPipeError(32, "Broken pipe")
        self.data.append(bytes(data))
        return len(data)

    def flush(self):
        if len(self.data) == self.accepted:
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("accepted", [0, 1, 3])
@pytest.mark.parametrize("argv", [
    ["build", "--type", "B3"],
    ["poset", "--type", "A3", "--edges", "yes"],
    ["fvector", "--type", "A3"],
])
def test_a_reader_that_closes_stdout_early_ends_the_output_quietly(
    monkeypatch, argv, accepted
):
    # ``pnh build ... | head -c 10``: exit 0, no message, no traceback
    pipe, err = _ClosedPipe(accepted), io.StringIO()
    monkeypatch.setattr("sys.stdout", SimpleNamespace(buffer=pipe))
    monkeypatch.setattr("sys.stderr", err)
    assert run(argv) == 0
    assert err.getvalue() == ""
    assert len(pipe.data) <= accepted
