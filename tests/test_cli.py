"""End-to-end CLI behavior: commands, exit codes, determinism, SVG output."""

import argparse
import json
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import encwrithe
from encwrithe import elimination, projection, svg, verify, writhe
from encwrithe.algnum import algebraic_value
from encwrithe.bipoly import BiPoly
from encwrithe.cli import PARSER, main
from encwrithe.curves import Link, sample_random_curve
from encwrithe.data import (
    LINKED_CIRCLES_PATH,
    MODEL_CROSSING_PATH,
    MODEL_FAMILY_PATH,
    MODEL_SOLITARY_PATH,
    WALL_QUARTIC_FAMILY_PATH,
    linked_circles,
    model_link,
)
from encwrithe.errors import SamplingExhausted, TriplePoint
from encwrithe.fileio import link_to_lines, parse_curve_file, write_link_file
from encwrithe.projection import CANONICAL_CENTER, LocusKind
from encwrithe.writhe import build_diagram

CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus"
GOLDEN = Path(__file__).parent / "golden"


class TestWritheCommand:
    def test_model_crossing(self, capsys):
        code = main(["writhe", str(MODEL_CROSSING_PATH), "--center", "0,0,1,0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Cw = -1" in out
        assert "1 crossing(s), 0 solitary" in out

    def test_model_solitary(self, capsys):
        code = main(["writhe", str(MODEL_SOLITARY_PATH), "--center", "0,0,1,0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Cw = -1" in out
        assert "0 crossing(s), 1 solitary" in out

    def test_oriented_output_and_json(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code = main(["writhe", str(LINKED_CIRCLES_PATH), "--seed", "3", "--json", str(report)])
        out = capsys.readouterr().out
        assert code == 0
        assert "Cw (oriented) =" in out
        assert "lk[0][1] =" in out
        payload = json.loads(report.read_text())
        assert payload["unoriented"] == 0
        assert abs(int(payload["linking"][0][1])) == 1

    def test_conic_empty_diagram(self, capsys, tmp_path):
        path = tmp_path / "conic.jsonl"
        path.write_text(
            '{"kind": "link"}\n'
            '{"x": [1, 0, -1], "y": [0, 2], "z": [0], "w": [1, 0, 1]}\n'
        )
        code = main(["writhe", str(path), "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Cw = 0" in out
        assert "0 crossing(s), 0 solitary" in out

    def test_sampled_center_on_a_common_image_root(self, capsys, tmp_path):
        # with this seed the first sampled center puts a rational crossing
        # image on W = 0, where the image resultant vanishes identically;
        # the analysis rejects that center and sampling goes on
        path = tmp_path / "quintic.jsonl"
        path.write_text(
            '{"kind": "link"}\n'
            '{"x": [-1, 2, 2, 1, -2, -2], "y": [-1, 2, 2, 0, -1, -1], '
            '"z": [2, -1, 1, 0, -2, 1], "w": [-1, 1, -2, -1, 1, 1]}\n'
        )
        code = main(["writhe", str(path), "--seed", "1118936630"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Cw = 0" in out

    def test_family_json(self, capsys, tmp_path):
        writhe_json = tmp_path / "writhe.json"
        verify_json = tmp_path / "verify.json"
        assert main(["writhe", str(MODEL_FAMILY_PATH), "--json", str(writhe_json)]) == 0
        assert main(["verify", str(MODEL_FAMILY_PATH), "--json", str(verify_json)]) == 0
        capsys.readouterr()
        members = json.loads(writhe_json.read_text())["members"]
        assert members == json.loads(verify_json.read_text())["members"]
        assert [m["tau"] for m in members] == ["-2", "-1", "-1/2", "0", "1/2", "1", "2"]
        assert [m["writhe"] for m in members] == [-1, -1, -1, None, -1, -1, -1]
        assert members[3]["status"] == "degenerate-projection"

    def test_family_center_flag_overrides_the_header(self, capsys, tmp_path):
        # at (1, 2, 3, 5) the projection of tau = 0 is generic, unlike at the
        # canonical center of the family header
        report = tmp_path / "writhe.json"
        argv = ["writhe", str(MODEL_FAMILY_PATH), "--center", "1,2,3,5", "--json", str(report)]
        assert main(argv) == 0
        assert "degenerate" not in capsys.readouterr().out
        members = json.loads(report.read_text())["members"]
        assert [m["writhe"] for m in members] == [-1] * 7
        family = parse_curve_file(MODEL_FAMILY_PATH)
        scan = verify.scan_family(family.instantiate, family.grid, center=(1, 2, 3, 5))
        assert [m["writhe"] for m in members] == [m.writhe for m in scan.members]
        assert main(["writhe", str(MODEL_FAMILY_PATH), "--center", "1,2,3"]) == 2
        assert capsys.readouterr().err.startswith("error: center must be four rationals")

    def test_sampled_center_reproduces_with_center(self, capsys, tmp_path):
        path = tmp_path / "quartic.jsonl"
        write_link_file(Link([sample_random_curve(4, seed=5)]), path)
        assert main(["writhe", str(path), "--seed", "3"]) == 0
        sampled = capsys.readouterr().out
        line = next(l for l in sampled.splitlines() if l.startswith("center: "))
        center = line[len("center: ("):-1].replace(" ", "")
        assert main(["writhe", str(path), f"--center={center}"]) == 0
        assert capsys.readouterr().out == sampled

    def test_coincident_images_exit_2(self, capsys, tmp_path):
        # a trisecant through the center: t = 1, 2, -3 all project to (0, 0)
        path = tmp_path / "trisecant.jsonl"
        path.write_text(
            '{"kind": "link"}\n'
            '{"x": [6, -7, 0, 1], "y": [0, 6, -7, 0, 1], "z": [0, 1], "w": [1, 0, 1]}\n'
        )
        code = main(["writhe", str(path), "--center", "0,0,1,0"])
        captured = capsys.readouterr()
        assert code == 2
        assert "coincident images" in captured.err

    def test_coincident_images_on_an_exact_root_end(self, tmp_path):
        # a quintic with a trisecant through the center, one of whose three
        # double points is the rational (e, f) = (0, -2). Boxes cannot part
        # coincident images, so they are formed exactly by algebraic_value,
        # whose box search used to refine forever on a value that is an
        # exact root of its eliminant. Run in a subprocess, so that a hang
        # fails here instead of stalling the suite
        path = tmp_path / "quintic.jsonl"
        path.write_text(
            '{"kind": "link"}\n'
            '{"x": [0, 6, 4, -5, -2, 1], "y": [18, 12, -33, 0, 12, -3], '
            '"z": [2, 1], "w": [1, 1, 1]}\n'
        )
        src = str(Path(encwrithe.__file__).parents[1])

        def run(*args):
            return subprocess.run(
                [sys.executable, "-m", "encwrithe.cli", "writhe", str(path), *args],
                capture_output=True,
                text=True,
                timeout=60,
                env=dict(os.environ, PYTHONPATH=src),
            )

        at_center = run("--center", "0,0,1,0")
        assert at_center.returncode == 2
        assert "coincident images" in at_center.stderr
        sampled = run("--seed", "0")
        assert sampled.returncode == 0
        assert "Cw = 0" in sampled.stdout

    def test_explicit_center_puts_a_crossing_image_on_w_zero(self, capsys, tmp_path):
        # the model cubic at tau = -1 moved by X' = X + W, W' = W - X': its
        # crossing (e, f) = (0, -1) projects from 0,0,1,0 onto W = 0, outside
        # the affine chart of the image plane
        path = tmp_path / "cubic.jsonl"
        path.write_text(
            '{"kind": "link"}\n'
            '{"x": [2, 0, -1], "y": [0, 1, 0, -1], "z": [0, -1], "w": [-1, 0, 1]}\n'
        )
        code = main(["writhe", str(path), "--center", "0,0,1,0"])
        captured = capsys.readouterr()
        assert code == 2
        assert "image lies outside the affine chart" in captured.err
        # reported once, by the image check; the sign check skips the locus
        assert captured.err.count("affine chart") == 1
        code = main(["writhe", str(path), "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Cw = -1" in out
        assert "center: (3, -1, 3, -2)" in out

    def test_sampling_exhausted_names_rejections(self, capsys, monkeypatch):
        def always_triple(link, center):
            raise TriplePoint("coincident images")

        monkeypatch.setattr(projection, "analyze_projection", always_triple)
        code = main(["writhe", str(MODEL_CROSSING_PATH), "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "240 draws: " in captured.err and " triple-point" in captured.err

    def test_deterministic_output(self, capsys):
        main(["writhe", str(MODEL_CROSSING_PATH), "--seed", "4"])
        first = capsys.readouterr().out
        main(["writhe", str(MODEL_CROSSING_PATH), "--seed", "4"])
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize(
        "path, seed",
        [
            ("links/link33_neg.jsonl", 0),
            ("knots/d5a_pos.jsonl", 3),
            ("links/circles_chain_neg.jsonl", 3),
            ("knots/d3d_pos.jsonl", 3),
            ("links/link33_base.jsonl", 3),
        ],
    )
    def test_stdout_matches_golden(self, capsys, path, seed):
        # the printed f/t and e/s intervals follow how a survivor's defining
        # polynomial is split by the completion member, so they pin that the
        # member is divided by its content over Z[f] before it is used; the
        # last two print exact survivors (f in [-5/2, -5/2], and f in [0, 0]
        # found at the first bisection midpoint), which pin root isolation
        code = main(["writhe", str(CORPUS / path), "--seed", str(seed)])
        assert code == 0
        golden = GOLDEN / f"{Path(path).stem}_seed{seed}.txt"
        assert capsys.readouterr().out == golden.read_text()

    @pytest.mark.parametrize(
        "path, flags, golden",
        [
            (CORPUS / "links/link33_neg.jsonl", ["--seed", "0"], "link33_neg_seed0.json"),
            (CORPUS / "knots/d5a_pos.jsonl", ["--seed", "3"], "d5a_pos_seed3.json"),
            (
                CORPUS / "links/circles_chain_neg.jsonl",
                ["--seed", "3"],
                "circles_chain_neg_seed3.json",
            ),
            (CORPUS / "knots/d3d_pos.jsonl", ["--seed", "3"], "d3d_pos_seed3.json"),
            (CORPUS / "links/link33_base.jsonl", ["--seed", "3"], "link33_base_seed3.json"),
            (MODEL_CROSSING_PATH, ["--center", "0,0,1,0"], "model_crossing_center0010.json"),
            (LINKED_CIRCLES_PATH, ["--seed", "3"], "linked_circles_seed3.json"),
        ],
    )
    def test_json_matches_golden(self, capsys, tmp_path, path, flags, golden):
        # the whole --json report, byte for byte: oriented writhe, linking
        # matrix, center, every locus description and sign, complex counts
        report = tmp_path / "report.json"
        assert main(["writhe", str(path), *flags, "--json", str(report)]) == 0
        capsys.readouterr()
        assert report.read_bytes() == (GOLDEN / golden).read_bytes()


# the inputs of tests/golden/failures.json, one component per line
FAILING_CURVES = {
    "trisecant": '{"x": [6, -7, 0, 1], "y": [0, 6, -7, 0, 1], "z": [0, 1], "w": [1, 0, 1]}',
    "w_zero": '{"x": [2, 0, -1], "y": [0, 1, 0, -1], "z": [0, -1], "w": [-1, 0, 1]}',
    "model_tau0": '{"x": [0, 0, -1], "y": [0, 0, 0, -1], "z": [0, -1], "w": [1]}',
    # the curves of test_curves.TestValidation
    "nodal_quartic": '{"x": [0, -1, 1, -1, 1], "y": [0, -1, 0, -1, 2], "z": [0, 1, 0, -2, 1], "w": [1]}',
    "cuspidal": '{"x": [0, 0, 1], "y": [0, 0, 0, 1], "z": [0, 0, 1, 1], "w": [1]}',
    "reducible": '{"x": [0, 1, 1], "y": [0, 1], "z": [0, 2], "w": [0, 1]}',
    "coplanar_circles": '{"x": [1, 0, -1], "y": [0, 2], "z": [0], "w": [1, 0, 1]}\n'
    '{"x": [4, 0, 2], "y": [0, 2], "z": [0], "w": [1, 0, 1]}',
    "cusp_at_infinity": '{"x": [-2, 0, 3, 2, 2], "y": [-2, 0, 2, 1, 1], "z": [3, 1, 2, 1, 1], "w": [2, 0, -2, 2, 2]}',
    # real nodes at finite parameters, P(0) = P(1) among them, and one
    # through P(infinity)
    "node_and_node_at_infinity": '{"x": [-15, 0, -2, 1, 1], "y": [-3, 2, -2, -1, 1], '
    '"z": [-25, -3, 0, 2, 1], "w": [39, 5, -3, 1, -3]}',
    # a cusp at t = 0, which the (e, f) system also sees as the real root (0, 0)
    "cusp_and_node": '{"x": [0, 0, 1, 0, -1], "y": [0, 0, 0, 1, -1], "z": [0, 0, 1, 1, 0], "w": [1]}',
    # P(1) = P(2) and P(-1) = P(-2): both nodes have f = st = 2, and no
    # completion member verifies at f = 2
    "two_real_nodes": '{"x": [10, -100, -15, 1, 3, 3], "y": [-1, 114, 5, -3, -1, -3], '
    '"z": [0, -21, 0, 3], "w": [14, 62, -15, 0, 3, -2]}',
}


class TestFailureGoldens:
    """`writhe` at failing centers: each case raises one error class. The
    trisecant at 0,0,1,0 (TriplePoint) reaches the exact triple-point
    fallback, at 1,0,0,0 its elimination degenerates; the cubic of
    test_explicit_center_puts_a_crossing_image_on_w_zero gives
    ZeroDeterminant; the model cubic at tau = 0 fails the tangency and the
    transversality checks at 0,0,1,0, which pins their priority
    (TangentialPair, both notes), and its eliminant degree at 1,0,0,0
    (NonGenericProjection). The cases with no center fail validation, which
    runs before a center is parsed or sampled: each raises the first failed
    check in validation's order, so the cusp is reported before its real
    (e, f) root and the node through P(infinity) before the finite ones; the
    two-node quintic
    is rejected because a real (e, f) root could not be completed."""

    @pytest.mark.parametrize(
        "case",
        json.loads((GOLDEN / "failures.json").read_text()),
        ids=lambda case: f"{case['input']}-{case['center']}",
    )
    def test_failure_matches_golden(self, capsys, tmp_path, case):
        path = tmp_path / "link.jsonl"
        path.write_text('{"kind": "link"}\n' + FAILING_CURVES[case["input"]] + "\n")
        center = ["--center", case["center"]] if case["center"] else []
        code = main(["writhe", str(path), *center])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (case["exit"], case["stdout"], case["stderr"])

    def test_family_notes_match_golden(self, capsys):
        assert main(["writhe", str(MODEL_FAMILY_PATH)]) == 0
        assert capsys.readouterr().out == (GOLDEN / "model_family.txt").read_text()

    def test_center_on_curve_prints_rationals(self, capsys):
        assert main(["writhe", str(MODEL_CROSSING_PATH), "--center=0,1,0,0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: projection center (0, 1, 0, 0) lies on the link\n"


class TestVerifyCommand:
    def test_model_passes(self, capsys, tmp_path):
        report = tmp_path / "verify.json"
        code = main(
            [
                "verify",
                str(MODEL_CROSSING_PATH),
                "--centers",
                "4",
                "--isotopies",
                "3",
                "--seed",
                "1",
                "--json",
                str(report),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "center-independence: pass" in out
        assert "isotopy-invariance-and-mirror: pass" in out
        payload = json.loads(report.read_text())
        assert payload["passed"] is True

    @pytest.mark.parametrize("path", [LINKED_CIRCLES_PATH, MODEL_CROSSING_PATH])
    def test_each_trial_is_built_once(self, capsys, tmp_path, monkeypatch, path):
        # the isotopy run takes trial 0 of the center run, which has the same
        # trial seed, as its base; with no center trials it builds its own
        seeds = []
        real = verify.build_diagram

        def counted(link, center=None, seed=0):
            seeds.append(seed)
            return real(link, center, seed)

        monkeypatch.setattr(verify, "build_diagram", counted)
        report = tmp_path / "verify.json"
        argv = ["verify", str(path), "--isotopies", "3", "--seed", "0", "--json", str(report)]
        assert main(argv + ["--centers", "3"]) == 0
        capsys.readouterr()
        assert seeds == [1, 8, 15, 1, 8, 15, 22, 29, 36]
        # the run reads as one that built its base itself
        alone = verify.verify_isotopy_invariance(parse_curve_file(path), 3, 0)
        assert json.loads(report.read_text())["runs"][1] == alone.to_json()
        seeds.clear()
        assert main(argv + ["--centers", "0"]) == 0
        capsys.readouterr()
        assert seeds == [1, 1, 8, 15, 22, 29, 36]
        assert json.loads(report.read_text())["runs"][1] == alone.to_json()

    def test_family_scan(self, capsys):
        code = main(["verify", str(WALL_QUARTIC_FAMILY_PATH)])
        out = capsys.readouterr().out
        assert code == 0
        assert "singular-curve" in out
        assert "jump" in out

    def test_model_family_scan(self, capsys):
        code = main(["verify", str(MODEL_FAMILY_PATH)])
        out = capsys.readouterr().out
        assert code == 0
        assert "degenerate-projection" in out
        assert "jump +0" in out

    def test_wall_crossed_between_grid_points_fails(self, capsys, tmp_path):
        # no grid point lands on the wall at tau = 0, so the writhe changes
        # between two ok members: a failed verification, exit 1
        header, member = WALL_QUARTIC_FAMILY_PATH.read_text().splitlines()
        record = json.loads(header)
        record["grid"] = ["-6", "-2", "2", "8"]
        path = tmp_path / "family.jsonl"
        path.write_text(json.dumps(record) + "\n" + member + "\n")
        report = tmp_path / "verify.json"
        assert main(["verify", str(path), "--json", str(report)]) == 1
        out = capsys.readouterr().out
        assert "constant between walls: FAIL" in out
        assert "singular-curve" not in out
        assert json.loads(report.read_text())["passed"] is False


class TestSampleCommand:
    def test_sample_writes_validated_reloadable_files(self, capsys, tmp_path):
        code = main(
            ["sample", "--degree", "3", "--count", "2", "--seed", "1", "--out", str(tmp_path)]
        )
        assert code == 0
        files = sorted(tmp_path.glob("*.jsonl"))
        assert len(files) == 2
        for f in files:
            link = parse_curve_file(f)
            assert link.components[0].degree == 3

    def test_sample_deterministic_bytes(self, tmp_path, capsys):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        main(["sample", "--degree", "3", "--count", "2", "--seed", "7", "--out", str(a_dir)])
        main(["sample", "--degree", "3", "--count", "2", "--seed", "7", "--out", str(b_dir)])
        capsys.readouterr()
        for fa, fb in zip(sorted(a_dir.iterdir()), sorted(b_dir.iterdir())):
            assert fa.read_bytes() == fb.read_bytes()


class TestDiagramCommand:
    def test_crossing_svg(self, capsys, tmp_path):
        out = tmp_path / "crossing.svg"
        code = main(
            ["diagram", str(MODEL_CROSSING_PATH), "--center", "0,0,1,0", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        text = out.read_text()
        assert text.startswith("<svg")
        assert "-1" in text  # sign label
        assert "exact diagram data" in text
        assert '"kind": "crossing"' in text

    def test_solitary_svg_has_dashed_marker(self, capsys, tmp_path):
        out = tmp_path / "solitary.svg"
        code = main(
            ["diagram", str(MODEL_SOLITARY_PATH), "--center", "0,0,1,0", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        text = out.read_text()
        assert "stroke-dasharray" in text
        assert '"kind": "solitary"' in text

    @pytest.mark.parametrize(
        "link,center", [(model_link(-1), CANONICAL_CENTER), (linked_circles(), None)]
    )
    def test_crossing_preimages_share_an_image(self, link, center):
        # the under-strand break is placed at float preimages read from the
        # root: both branches of a crossing must reach its image point
        diagram = build_diagram(link, center, seed=3)
        crossings = [l for l in diagram.loci if l.kind is not LocusKind.SOLITARY]
        assert crossings
        for locus in crossings:
            images = []
            for comp, t in svg._crossing_preimages_float(locus):
                curve = diagram.link.components[comp]
                w = svg._feval(curve.W, t)
                images.append((svg._feval(curve.X, t) / w, svg._feval(curve.Y, t) / w))
            (xa, ya), (xb, yb) = images
            assert abs(xa - xb) < 1e-6 and abs(ya - yb) < 1e-6

    @pytest.mark.parametrize(
        "path,seed", [(LINKED_CIRCLES_PATH, 3), (MODEL_CROSSING_PATH, 0)]
    )
    def test_markers_form_no_algebraic_value(self, capsys, tmp_path, monkeypatch, path, seed):
        # a marker sits at the midpoints of the image's interval box, so
        # drawing it forms no exact image coordinate
        calls = []
        real = projection.algebraic_value

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(projection, "algebraic_value", counted)
        argv = ["diagram", str(path), "--seed", str(seed), "--out", str(tmp_path / "d.svg")]
        code = main(argv)
        capsys.readouterr()
        assert code == 0
        assert calls == []

    @pytest.mark.parametrize(
        "path,seed", [(LINKED_CIRCLES_PATH, 3), (MODEL_CROSSING_PATH, 0)]
    )
    def test_markers_lie_at_the_exact_image(self, path, seed):
        diagram = build_diagram(parse_curve_file(path), None, seed=seed)
        assert diagram.loci
        for locus in diagram.loci:
            x, y = svg._image_point_float(locus)
            num_x, num_y, den = locus.image_fractions
            for value, num in ((x, num_x), (y, num_y)):
                exact = algebraic_value(locus.root.survivor, num, den)
                exact.refine_below(Fraction(1, 10**9))
                assert abs(value - float(exact)) < 1e-6

    def test_svg_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for target in (a, b):
            main(["diagram", str(MODEL_CROSSING_PATH), "--seed", "2", "--out", str(target)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "path, flags, golden",
        [
            (LINKED_CIRCLES_PATH, ["--seed", "3"], "linked_circles_seed3.svg"),
            (MODEL_SOLITARY_PATH, ["--center", "0,0,1,0"], "model_solitary_center0010.svg"),
            (CORPUS / "knots/d5a_base.jsonl", ["--seed", "0"], "d5a_base_seed0.svg"),
        ],
    )
    def test_svg_matches_golden(self, capsys, tmp_path, path, flags, golden):
        # the whole drawing: the audit block, the under-strand breaks (an
        # over/under sign at every crossing), the markers and their labels
        out = tmp_path / "d.svg"
        code = main(["diagram", str(path), *flags, "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()

    @pytest.mark.parametrize(
        "link, center",
        [
            (model_link(-1), CANONICAL_CENTER),
            (linked_circles(), (1, -3, 3, 3)),
            # one crossing and one solitary point on the one component
            (parse_curve_file(CORPUS / "knots/d5a_base.jsonl"), (3, -1, 3, -2)),
        ],
    )
    def test_each_locus_polynomial_is_built_once(self, monkeypatch, link, center):
        # every bivariate polynomial is made by one of these builders; a
        # diagram and its drawing build each polynomial of a component or
        # pair once and share it among the loci, the signs and the SVG
        link.validation()  # validation builds its own systems, in the input frame
        built = []

        def recording(builder):
            def wrapper(*args):
                poly = builder(*args)
                built.append(poly)
                return poly

            return wrapper

        for name in ("symmetric_sum", "symmetric_quotient"):
            real = getattr(elimination, name)
            for module in (elimination, projection, svg, writhe):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, recording(real))
        for name in ("outer", "from_upoly"):
            monkeypatch.setattr(BiPoly, name, staticmethod(recording(getattr(BiPoly, name))))
        diagram = build_diagram(link, center)
        svg.render_diagram_svg(diagram)
        assert diagram.loci and built
        assert [p for p, n in Counter(built).items() if n > 1] == []


class TestCenterInACirclePlane:
    # the first circle of circles_apart lies in the plane z = 0, which holds
    # both centers below, the sampler's first two draws at seed 3. The first
    # runs all eight reparametrizations away from parameter infinity before
    # it is refused, the second two before its elimination degenerates
    PATH = CORPUS / "links" / "circles_apart_base.jsonl"

    @pytest.mark.parametrize(
        "center, message",
        [
            ("-2,-2,0,3", "could not move double points away from parameter infinity"),
            (
                "-3,2,0,-3",
                "projection from (-3, 2, 0, -3) degenerates on component 0: "
                "single bivariate equation is not zero-dimensional",
            ),
        ],
    )
    def test_writhe_refuses_the_center(self, capsys, center, message):
        assert main(["writhe", str(self.PATH), f"--center={center}"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_sampler_names_both_refusals(self):
        with pytest.raises(SamplingExhausted) as info:
            projection.sample_generic_center(parse_curve_file(self.PATH), seed=3, budget=2)
        assert str(info.value) == (
            "no generic center found (seed 3); 2 draws: "
            "1 degenerate-elimination, 1 non-generic-projection"
        )


class TestErrorPaths:
    def test_zero_w_coordinate_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"kind": "link"}\n'
            '{"x": [1, 0, -1], "y": [0, 1, 0, -1], "z": [0, -1], "w": [0]}\n'
        )
        code = main(["writhe", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "identically zero" in err

    def test_invalid_json_rejected(self, capsys, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text("not json at all\n")
        code = main(["writhe", str(path)])
        assert code == 2

    def test_singular_curve_rejected(self, capsys, tmp_path):
        path = tmp_path / "nodal.jsonl"
        path.write_text(
            '{"kind": "link"}\n'
            '{"x": [0, -1, 1, -1, 1], "y": [0, -1, 0, -1, 2], "z": [0, 1, 0, -2, 1], "w": [1]}\n'
        )
        code = main(["writhe", str(path)])
        assert code == 2

    def test_huge_power_in_family_rejected(self, capsys, tmp_path):
        path = tmp_path / "huge.jsonl"
        path.write_text(
            '{"kind": "family", "parameter": "tau", "grid": ["2"]}\n'
            '{"x": ["-tau**200000", 0, -1], "y": [0, "-tau", 0, -1], "z": [0, -1], "w": [1]}\n'
        )
        for command in ("writhe", "verify"):
            t0 = time.monotonic()
            code = main([command, str(path)])
            elapsed = time.monotonic() - t0
            assert code == 2
            assert "budget" in capsys.readouterr().err
            assert elapsed < 1.0

    @pytest.mark.parametrize(
        "entry,message",
        [("-tau + foo", "unknown symbol 'foo'"), ("-tau +", "bad coefficient expression")],
    )
    @pytest.mark.parametrize("command", ["writhe", "verify"])
    def test_structural_family_error_rejected(self, capsys, tmp_path, command, entry, message):
        # an error that does not depend on tau is a parse error, not a
        # singular member
        path = tmp_path / "family.jsonl"
        path.write_text(
            '{"kind": "family", "parameter": "tau", "grid": ["-1", "1"]}\n'
            f'{{"x": ["{entry}", 0, -1], "y": [0, "-tau", 0, -1], "z": [0, -1], "w": [1]}}\n'
        )
        code = main([command, str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("bad", ["1/0", "abc"])
    @pytest.mark.parametrize(
        "command,source",
        [("writhe", "flag"), ("diagram", "flag"), ("writhe", "family"), ("verify", "family")],
    )
    def test_malformed_center_rejected(self, capsys, tmp_path, command, source, bad):
        # a center entry that is not a rational, or has a zero denominator, is
        # an input error; `verify` reads a center only from a family header.
        # An exception escaping main fails the test, as a traceback would.
        if source == "flag":
            argv = [command, str(MODEL_CROSSING_PATH), "--center", f"{bad},0,1,0"]
            if command == "diagram":
                argv += ["--out", str(tmp_path / "out.svg")]
        else:
            path = tmp_path / "family.jsonl"
            path.write_text(
                '{"kind": "family", "parameter": "tau", "grid": ["-1", "1"], '
                f'"center": ["0", "0", "{bad}", "0"]}}\n'
                '{"x": ["-tau", 0, -1], "y": [0, "-tau", 0, -1], "z": [0, -1], "w": [1]}\n'
            )
            argv = [command, str(path)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert repr(bad) in captured.err

    @pytest.mark.parametrize("command", ["writhe", "verify"])
    def test_family_center_must_be_a_list(self, capsys, tmp_path, command):
        path = tmp_path / "family.jsonl"
        path.write_text(
            '{"kind": "family", "parameter": "tau", "grid": ["-1", "1"], "center": 5}\n'
            '{"x": ["-tau", 0, -1], "y": [0, "-tau", 0, -1], "z": [0, -1], "w": [1]}\n'
        )
        code = main([command, str(path)])
        assert code == 2
        assert "'center' must be a list" in capsys.readouterr().err

    def test_member_error_stays_per_member(self, capsys, tmp_path):
        path = tmp_path / "family.jsonl"
        path.write_text(
            '{"kind": "family", "parameter": "tau", "grid": ["0", "1"]}\n'
            '{"x": ["-1/tau", 0, -1], "y": [0, "-tau", 0, -1], "z": [0, -1], "w": [1]}\n'
        )
        code = main(["verify", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "tau = 0: singular-curve" in out
        assert "tau = 1: Cw = -1" in out

    @pytest.mark.parametrize(
        "entry,message",
        [
            ("(-8)**(1/3)", "bad exponent in '(-8)**(1/3)'"),
            ("1/0", "division by zero in '1/0'"),
            ("-tau*True", "non-integer literal in '-tau*True'"),
        ],
        ids=["exponent", "division", "boolean"],
    )
    @pytest.mark.parametrize("command", ["writhe", "verify"])
    def test_constant_expression_error_is_a_parse_error(self, capsys, tmp_path, command, entry, message):
        # the first two used to mark every member singular-curve, and verify
        # exited 0; the boolean was read as 1, so "-tau*True" was -tau
        path = tmp_path / "family.jsonl"
        path.write_text(
            '{"kind": "family", "parameter": "tau", "grid": ["-1", "1"]}\n'
            f'{{"x": ["{entry}", 0, -1], "y": [0, "-tau", 0, -1], "z": [0, -1], "w": [1]}}\n'
        )
        code = main([command, str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: component 0, x[0]: {message}\n"

    def test_parameter_dependent_error_stays_per_member(self, capsys, tmp_path):
        path = tmp_path / "family.jsonl"
        path.write_text(
            '{"kind": "family", "parameter": "tau", "grid": ["0", "1"]}\n'
            '{"x": ["1/tau", 0, -1], "y": [0, "-tau", 0, -1], "z": [0, -1], "w": [1]}\n'
        )
        code = main(["writhe", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "  tau = 0: singular-curve (division by zero in '1/tau')\n" in out
        assert "  tau = 1: Cw = -1\n" in out

    @pytest.mark.parametrize(
        "entry",
        ["-" * 990 + "tau", "1" + "+tau" * 3000, "-" * 100_000 + "1"],
        ids=["unary-chain", "long-sum", "parser-stack"],
    )
    def test_deeply_nested_expression_is_a_parse_error(self, capsys, tmp_path, entry):
        # a RecursionError in the checks or in Python's parser, or the
        # parser's MemoryError, used to escape main as a traceback; the
        # fuzzer in test_fuzz.py found the first two
        path = tmp_path / "family.jsonl"
        path.write_text(
            '{"kind": "family", "parameter": "tau", "grid": ["1"]}\n'
            f'{{"x": ["{entry}", 0, -1], "y": [0, "-tau", 0, -1], "z": [0, -1], "w": [1]}}\n'
        )
        code = main(["verify", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: component 0, x[0]: coefficient expression ")
        assert captured.err.endswith(" nested too deeply\n")

    def test_missing_file(self, capsys):
        assert main(["writhe", "/nonexistent/file.jsonl"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["writhe", str(MODEL_CROSSING_PATH), "--center", "0,0,1,0", "--json", "{missing}"],
            ["verify", str(MODEL_CROSSING_PATH), "--centers", "1", "--isotopies", "1",
             "--json", "{missing}"],
            ["diagram", str(MODEL_CROSSING_PATH), "--center", "0,0,1,0", "--out", "{missing}"],
            ["sample", "--degree", "3", "--out", "{existing}"],
        ],
    )
    def test_unwritable_output_is_an_input_error(self, capsys, tmp_path, argv):
        # exit 1 means a failed verification; an output path that cannot be
        # written is exit 2 with one error line, like an unreadable input
        existing = tmp_path / "file"
        existing.write_text("")
        paths = {"missing": tmp_path / "no" / "such" / "dir" / "out", "existing": existing}
        code = main([arg.format(**paths) for arg in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["link", "family"])
    @pytest.mark.parametrize("command", ["writhe", "verify"])
    def test_orientation_count_checked_at_parse(self, capsys, tmp_path, kind, command):
        # one flag for two components: a family used to accept the header
        # and report every member singular
        family = ', "parameter": "tau", "grid": ["1", "2"]' if kind == "family" else ""
        path = tmp_path / "flags.jsonl"
        path.write_text(
            f'{{"kind": "{kind}"{family}, "orientations": [1]}}\n'
            + (LINKED_CIRCLES_PATH.read_text().splitlines(keepends=True)[1] * 2)
        )
        code = main([command, str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {path}: one orientation flag per component required\n"

    @pytest.mark.parametrize("flag", ["true", "1.0"])
    @pytest.mark.parametrize("kind", ["link", "family"])
    def test_non_integer_orientation_flag_rejected(self, capsys, tmp_path, kind, flag):
        # `True in (1, -1)` and `1.0 in (1, -1)` hold, so such a flag used to
        # pass as +1; a boolean or float coefficient is refused too
        family = ', "parameter": "tau", "grid": ["1", "2"]' if kind == "family" else ""
        path = tmp_path / "flags.jsonl"
        path.write_text(
            f'{{"kind": "{kind}"{family}, "orientations": [{flag}]}}\n'
            + LINKED_CIRCLES_PATH.read_text().splitlines(keepends=True)[1]
        )
        code = main(["writhe", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {path}: orientations must be a list of +1/-1\n"

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"kind": "link"}\n5\n', "component 0: must be a JSON object\n"),
            (
                b'{"kind": "link"}\n' + b"[" * 200_000 + b"\n",
                "{path}:2: invalid JSON: maximum recursion depth exceeded",
            ),
            (b"\xff\xfe\x00", "cannot read {path}: 'utf-8' codec can't decode byte 0xff"),
        ],
        ids=["scalar-component", "deep-nesting", "not-utf8"],
    )
    def test_hostile_file_is_a_parse_error(self, capsys, tmp_path, content, message):
        # each of these used to end in a traceback with exit 1, the code of a
        # failed verification
        path = tmp_path / "hostile.jsonl"
        path.write_bytes(content)
        start = time.process_time()
        code = main(["writhe", str(path)])
        assert time.process_time() - start < 1.0
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: " + message.format(path=path))
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", str(MODEL_CROSSING_PATH), "--centers", "-2"],
            ["verify", str(MODEL_CROSSING_PATH), "--isotopies", "-1"],
            ["sample", "--degree", "3", "--count", "-1", "--out", "{out}"],
        ],
        ids=["centers", "isotopies", "count"],
    )
    def test_negative_count_is_a_usage_error(self, capsys, tmp_path, argv):
        # a negative count used to run no trial, pass and exit 0
        out = tmp_path / "curves"
        with pytest.raises(SystemExit) as exc:
            main([arg.format(out=out) for arg in argv])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "error: argument --" in captured.err
        assert "expected a non-negative integer, got '-" in captured.err
        assert not out.exists()

    def test_integer_past_the_digit_limit_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "digits.jsonl"
        path.write_text(
            '{"kind": "link"}\n'
            f'{{"x": [{"1" * 4400}, 0, -1], "y": [0, 1, 0, -1], "z": [0, -1], "w": [1]}}\n'
        )
        code = main(["writhe", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {path}:2: invalid JSON: ")

    @pytest.mark.parametrize("where", ["coefficient", "grid", "header center", "--center"])
    def test_decimal_exponent_past_the_budget(self, capsys, tmp_path, where):
        # Fraction("1e10000000") would form 10**10000000; the exponent is
        # refused before the power is formed, on every route a rational
        # string takes
        huge = "1e10000000"
        coeff, grid, center, argv = '"-tau"', '"1"', "", []
        if where == "coefficient":
            coeff = f'"{huge}"'
        elif where == "grid":
            grid = f'"{huge}"'
        elif where == "header center":
            center = f', "center": ["0", "0", "{huge}", "0"]'
        path = tmp_path / "exponent.jsonl"
        path.write_text(
            f'{{"kind": "family", "parameter": "tau", "grid": [{grid}]{center}}}\n'
            f'{{"x": [{coeff}, 0, -1], "y": [0, "-tau", 0, -1], "z": [0, -1], "w": [1]}}\n'
        )
        if where == "--center":
            path, argv = MODEL_CROSSING_PATH, ["--center", f"0,0,{huge},0"]
        start = time.process_time()
        code = main(["writhe", str(path), *argv])
        assert time.process_time() - start < 1.0
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: '{huge}' exceeds the 4096-bit budget for a power\n"


class TestSharedParser:
    """`main` parses every call with the one parser built at import."""

    def test_main_builds_no_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        for _ in range(2):
            assert main(["writhe", str(MODEL_CROSSING_PATH), "--center", "0,0,1,0"]) == 0
        assert built == []

    def test_a_center_does_not_leak_into_the_next_call(self, capsys, tmp_path):
        # (0, 0, 1, 0) lies in the plane of the second circle, so this call
        # exits 2, naming the center and the component; the next one samples
        # its center as if it ran alone
        assert main(["writhe", str(LINKED_CIRCLES_PATH), "--center", "0,0,1,0"]) == 2
        assert capsys.readouterr().err == (
            "error: projection from (0, 0, 1, 0) degenerates on component 1: "
            "single bivariate equation is not zero-dimensional\n"
        )
        report = tmp_path / "report.json"
        assert main(["writhe", str(LINKED_CIRCLES_PATH), "--seed", "3", "--json", str(report)]) == 0
        capsys.readouterr()
        assert report.read_bytes() == (GOLDEN / "linked_circles_seed3.json").read_bytes()

    def test_defaults_survive_a_parse(self):
        path = str(MODEL_CROSSING_PATH)
        assert PARSER.parse_args(["verify", path, "--centers", "3"]).centers == 3
        assert PARSER.parse_args(["verify", path]).centers == 20

    def test_a_usage_error_leaves_the_next_call_alone(self, capsys):
        argv = ["writhe", str(MODEL_CROSSING_PATH)]
        assert main(argv) == 0
        alone = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "5", "--center"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr() == alone


class TestHostileCoefficients:
    """Coefficients of 10^60 and denominators of 7^20 change no answer.

    Scaling all four coordinates by one constant leaves the projective curve
    unchanged, and so the whole stdout. The constructor already takes a
    common factor out, so the reparametrizations t -> 10^20 t and
    t -> t / 7^20 are what put coefficients of 10^60 and 7^60 into the
    resultants: the same curve and projection, with the e and f values
    rescaled, so Cw, the kinds and the signs must not move.
    """

    CENTER = "1,2,3,5"
    BOUND_S = 10.0

    def writhe_stdout(self, capsys, path) -> str:
        capsys.readouterr()
        assert main(["writhe", str(path), "--center", self.CENTER]) == 0
        return capsys.readouterr().out

    @staticmethod
    def kinds_and_signs(out: str) -> list[str]:
        lines = [l for l in out.splitlines() if not l.startswith("center:")]
        return [l.split(":")[0] if l.lstrip().startswith("[") else l for l in lines]

    @pytest.mark.parametrize("source", [MODEL_CROSSING_PATH, MODEL_SOLITARY_PATH])
    def test_scaled_coordinates_same_output(self, capsys, tmp_path, source):
        from fractions import Fraction

        header, record = [json.loads(l) for l in source.read_text().splitlines()]
        base = self.writhe_stdout(capsys, source)
        for scale in (Fraction(10**60), Fraction(1, 7**20)):
            scaled = {k: [str(Fraction(c) * scale) for c in v] for k, v in record.items()}
            path = tmp_path / "scaled.jsonl"
            path.write_text(json.dumps(header) + "\n" + json.dumps(scaled) + "\n")
            start = time.perf_counter()
            assert self.writhe_stdout(capsys, path) == base
            assert time.perf_counter() - start < self.BOUND_S

    @pytest.mark.parametrize("source", [MODEL_CROSSING_PATH, MODEL_SOLITARY_PATH])
    def test_reparametrized_huge_coefficients(self, capsys, tmp_path, source):
        from encwrithe.curves import MoebiusReparam

        link = parse_curve_file(source)
        base = self.writhe_stdout(capsys, source)
        for moebius in (MoebiusReparam.of(10**20, 0, 0, 1), MoebiusReparam.of(1, 0, 0, 7**20)):
            curve = moebius.apply(link.components[0])
            assert max(abs(c) for p in curve.coords for c in p.coeffs) >= 10**50
            path = tmp_path / "reparametrized.jsonl"
            write_link_file(Link([curve]), path)
            start = time.perf_counter()
            out = self.writhe_stdout(capsys, path)
            assert time.perf_counter() - start < self.BOUND_S
            assert self.kinds_and_signs(out) == self.kinds_and_signs(base)


    def test_answer_with_more_digits_than_the_str_limit_prints(self, capsys, tmp_path):
        # with 3000-bit coefficients the printed e interval of the solitary
        # point has endpoints of more than 4300 digits, past the limit of
        # str(int); the answer is certified and must print
        path = tmp_path / "wide.jsonl"
        write_link_file(Link([sample_random_curve(3, seed=1, coefficient_bound=2**3000)]), path)
        assert main(["writhe", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Cw = -1\n")
        assert max(len(line) for line in out.splitlines()) > 4300


class TestRoundTrip:
    def test_parse_write_reproduces_coefficients(self, tmp_path):
        link = parse_curve_file(LINKED_CIRCLES_PATH)
        out = tmp_path / "roundtrip.jsonl"
        write_link_file(link, out)
        again = parse_curve_file(out)
        assert [c.coords for c in again.components] == [
            c.coords for c in link.components
        ]
        assert again.orientations == link.orientations

    def test_canonical_file_bytes_stable(self):
        link = parse_curve_file(LINKED_CIRCLES_PATH)
        assert "\n".join(link_to_lines(link)) + "\n" == LINKED_CIRCLES_PATH.read_text()

    def test_rational_coefficients_survive(self, tmp_path):
        from encwrithe.curves import Link, RationalSpaceCurve
        from fractions import Fraction

        curve = RationalSpaceCurve(
            [Fraction(1, 3), 1], [Fraction(-2, 7)], [0], [1]
        )
        out = tmp_path / "frac.jsonl"
        write_link_file(Link([curve]), out)
        again = parse_curve_file(out)
        assert again.components[0] == curve
