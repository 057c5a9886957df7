import json

import pytest
from test_spanning import kill_children

from lusztig_cones import spanning
from lusztig_cones.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestChambers:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "chambers", "--n", "3", "--word", "1,3,2,1,3,2")
        assert code == 0
        assert "set=134" in out and "set=3" in out and "set=13" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "chambers", "--n", "3", "--word", "1,3,2,1,3,2",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["word"] == [1, 3, 2, 1, 3, 2]
        assert {"pair": [2, 5], "set": [3]} in payload["chambers"]


class TestRoots:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "roots", "--n", "2", "--word", "1,2,1")
        assert code == 0
        assert out.splitlines() == ["1 (1,2)", "2 (1,3)", "3 (2,3)"]


class TestRender:
    def test_svg_stable(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.svg", tmp_path / "b.svg"
        for f in (f1, f2):
            code, _, _ = run(
                capsys, "render", "--n", "3", "--word", "1,3,2,1,3,2",
                "--format", "svg", "--out", str(f),
            )
            assert code == 0
        assert f1.read_bytes() == f2.read_bytes()
        assert f1.read_text().startswith("<?xml")

    def test_ascii_default(self, capsys):
        code, out, _ = run(capsys, "render", "--n", "2", "--word", "1,2,1")
        assert code == 0
        assert "\\/" in out


class TestVerify:
    def test_exhaustive_text(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3", "--mode", "exhaustive")
        assert code == 0
        assert out.strip() == "16 words, 0 mismatches"

    def test_sample_json(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "4", "--mode", "sample", "--count", "5",
            "--seed", "1", "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {"n": 4, "checked": 5, "mismatches": []}

    @pytest.mark.parametrize(
        "extra",
        [["--count", "0"], ["--count", "-5"], ["--jobs", "0"], ["--jobs", "-1"]],
    )
    def test_nonpositive_count_or_jobs_exit_2(self, capsys, extra):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "3", "--mode", "sample", *extra])
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err


class TestSpanning:
    def test_json_matches_exact_inverse(self, capsys):
        from lusztig_cones.cone import spanning_set
        from lusztig_cones.words import ReducedWord

        code, out, _ = run(
            capsys, "spanning", "--n", "3", "--word", "1,3,2,1,3,2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["overall"] is True
        span = spanning_set(ReducedWord(3, (1, 3, 2, 1, 3, 2)))
        assert [v["position"] for v in payload["vectors"]] == [
            list(col) for col in span.columns
        ]


class TestMember:
    def test_outside_point(self, capsys):
        code, out, _ = run(
            capsys, "member", "--n", "3", "--word", "1,3,2,1,3,2",
            "--point", "0,0,1,0,0,0",
        )
        assert code == 0
        assert out.splitlines()[0] == "false"
        assert "chamber(3,6)" in out

    def test_inside_point(self, capsys):
        code, out, _ = run(
            capsys, "member", "--n", "3", "--word", "1,3,2,1,3,2",
            "--point", "0,0,1,1,1,1",
        )
        assert code == 0
        assert out.strip() == "true"

    def test_json_reports_both_coordinate_systems(self, capsys):
        code, out, _ = run(
            capsys, "member", "--n", "2", "--word", "1,2,1",
            "--point", "2,3,0", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["member"] is True
        assert payload["point"]["values"] == [2, 3, 0]
        assert payload["root"]["(1,3)"] == 3


class TestDecompose:
    def test_text(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--n", "2", "--word", "1,2,1", "--point", "2,3,0"
        )
        assert code == 0
        assert "simple(1)" in out and "chamber(1,3)" in out

    def test_outside_point_is_domain_error(self, capsys):
        code, out, err = run(
            capsys, "decompose", "--n", "3", "--word", "1,3,2,1,3,2",
            "--point", "0,0,1,0,0,0",
        )
        assert code == 1
        assert "error" in json.loads(err)


class TestEnumerate:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2")
        assert code == 0
        assert sorted(out.split()) == ["1,2,1", "2,1,2"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--format", "json")
        assert len(json.loads(out)["words"]) == 16


class TestBfzWord:
    def test_rank_two(self, capsys):
        code, out, _ = run(capsys, "bfz-word", "--quiver", "R")
        assert code == 0
        assert out.strip() == "1,2,1"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "bfz-word", "--quiver", "RLRL", "--format", "json")
        payload = json.loads(out)
        assert payload["quiver"] == "RLRL"
        assert payload["n"] == 5
        assert len(payload["word"]) == 15


class TestPq:
    def test_from_set(self, capsys):
        code, out, _ = run(capsys, "pq", "--n", "3", "--set", "1,3")
        assert code == 0
        assert "pq=LR" in out and "set=13" in out

    def test_from_string(self, capsys):
        code, out, _ = run(capsys, "pq", "--n", "3", "--pq", "L-", "--format", "json")
        payload = json.loads(out)
        assert payload["set"] == [3]
        assert payload["components"] == [{"type": "L", "a": 3, "b": 3}]

    def test_requires_exactly_one_input(self, capsys):
        code, _, err = run(capsys, "pq", "--n", "3")
        assert code == 1
        assert "error" in json.loads(err)


class TestErrors:
    def test_bad_word_is_domain_error(self, capsys):
        code, _, err = run(capsys, "roots", "--n", "3", "--word", "1,2,3")
        assert code == 1
        assert "error" in json.loads(err)

    def test_unwritable_out_is_structured_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "verify", "--n", "3", "--out", str(path))
        assert (code, out) == (1, "")
        assert str(path) in json.loads(err)["error"]
        assert not path.exists()

    def test_unwritable_out_fails_before_the_run(self, capsys, monkeypatch, tmp_path):
        def run_all(*args, **kwargs):
            raise AssertionError("verify_all ran before --out was opened")

        monkeypatch.setattr(spanning, "verify_all", run_all)
        path = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "verify", "--n", "4", "--out", str(path))
        assert (code, out) == (1, "")
        assert str(path) in json.loads(err)["error"]

    def test_dead_verify_process_is_structured_error(self, capsys, monkeypatch):
        kill_children(monkeypatch)
        code, out, err = run(capsys, "verify", "--n", "3", "--jobs", "2")
        assert (code, out) == (1, "")
        assert "exited with code 3" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "command, fmt",
        [
            ("roots", "svg"), ("chambers", "svg"), ("render", "json"),
            ("cone-matrix", "svg"), ("spanning", "svg"), ("member", "svg"),
            ("decompose", "svg"), ("verify", "svg"), ("enumerate", "svg"),
        ],
    )
    def test_unsupported_format_exit_2(self, command, fmt):
        argv = [command, "--n", "2", "--format", fmt]
        if command not in ("verify", "enumerate"):
            argv += ["--word", "1,2,1"]
        if command in ("member", "decompose"):
            argv += ["--point", "0,0,0"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_bad_arguments_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chambers", "--n", "3"])  # missing --word
        assert exc.value.code == 2
