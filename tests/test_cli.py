"""End-to-end CLI behavior: commands, exit codes, determinism, SVG output."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import encwrithe
from encwrithe import projection, svg
from encwrithe.algnum import algebraic_value
from encwrithe.cli import main
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
        # the certificate rejects that center and sampling goes on
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
        code = main(["writhe", str(path), "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Cw = -1" in out
        assert "center: (3, -1, 3, -2)" in out

    def test_sampling_exhausted_names_rejections(self, capsys, monkeypatch):
        from encwrithe import projection

        def always_triple(link, center):
            cert = projection.GenericityCertificate(no_triple_points=False)
            return SimpleNamespace(certificate=cert)

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
            polys = svg._over_under_polys(diagram, locus)
            images = []
            for comp, t in svg._crossing_preimages_float(locus, polys):
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

    def test_missing_file(self, capsys):
        assert main(["writhe", "/nonexistent/file.jsonl"]) == 2


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
        from encwrithe.curves import MoebiusReparam, reparametrize

        link = parse_curve_file(source)
        base = self.writhe_stdout(capsys, source)
        for moebius in (MoebiusReparam.of(10**20, 0, 0, 1), MoebiusReparam.of(1, 0, 0, 7**20)):
            curve = reparametrize(link.components[0], moebius)
            assert max(abs(c) for p in curve.coords for c in p.coeffs) >= 10**50
            path = tmp_path / "reparametrized.jsonl"
            write_link_file(Link([curve]), path)
            start = time.perf_counter()
            out = self.writhe_stdout(capsys, path)
            assert time.perf_counter() - start < self.BOUND_S
            assert self.kinds_and_signs(out) == self.kinds_and_signs(base)


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
