"""Package-wide constraints that no single module's tests see."""

import ast
import importlib
import importlib.util
import inspect
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

import encwrithe
from encwrithe import (
    algnum,
    curves,
    elimination,
    errors,
    fileio,
    projection,
    rationals,
    svg,
    upoly,
    writhe,
)
from encwrithe.bipoly import BiPoly, resultant_bivariate
from encwrithe.curves import ProjectiveTransform
from encwrithe.data import model_curve

PACKAGE = Path(encwrithe.__file__).parent


def test_library_imports_only_the_standard_library():
    # the library runs with no third-party packages: every absolute import
    # names a standard-library module, every other import is relative
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    offenders = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    offenders.append(f"{path.relative_to(PACKAGE)}:{node.lineno}: {name}")
    assert offenders == []


def test_bench_span_targets_resolve():
    # the bench wraps these (module, qualname) targets from outside; a target
    # the package lost would turn its per-layer metric into a silent zero
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    tree = ast.parse(spans.read_text(), filename=str(spans))
    tables = {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("SPAN_TARGETS", "COUNT_TARGETS")
    }
    assert set(tables) == {"SPAN_TARGETS", "COUNT_TARGETS"}
    missing = []
    for module_name, qualname, _metric in tables["SPAN_TARGETS"] + tables["COUNT_TARGETS"]:
        owner = importlib.import_module(module_name)
        for part in qualname.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{qualname}")
    assert missing == []


def test_bipoly_has_no_ring_arithmetic():
    # every bivariate polynomial is built by BiPoly.outer or an (e, f) closed
    # form on cleared integers; Fraction ring arithmetic on BiPolys stays out
    banned = ("__add__", "__sub__", "__mul__", "__pow__", "__neg__", "var", "const", "zero", "derivative")
    assert [name for name in banned if hasattr(BiPoly, name)] == []


def test_polynomials_store_only_integers():
    # UPoly and BiPoly keep integers over one denominator, whatever they were
    # built from; Fractions exist only in the coeffs and terms views
    p = upoly.UPoly([Fraction(1, 2), Fraction(-2, 3), 0, Fraction(5, -6)])
    b = BiPoly({(1, 0): Fraction(1, 2), (0, 3): Fraction(-4, 9), (2, 2): 3})
    polys = [p, p * p, p * Fraction(3, 7), p + Fraction(1, 5), p.derivative()]
    polys += [b, b.swap_vars(), BiPoly.outer([(p, p.derivative())]), BiPoly.from_upoly(p)]
    for poly in polys:
        for slot in type(poly).__slots__:
            value = getattr(poly, slot)
            if isinstance(value, dict):
                assert all(type(i) is int and type(j) is int for i, j in value)
                value = value.values()
            elif isinstance(value, int):
                value = [value]
            assert all(type(v) is int for v in value), (poly, slot)


def _bench_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_coefficient_bits_of_a_resultant():
    # the bench reads bipoly.resultant_bivariate.bits_max through the coeffs
    # view of the result; a polynomial without that view would read 0
    a = BiPoly({(2, 0): Fraction(3, 7), (0, 1): 5, (1, 1): Fraction(-11, 2)})
    b = BiPoly({(1, 0): Fraction(1, 3), (0, 2): 2**40 + 1, (0, 0): -9})
    ours = resultant_bivariate(a, b)
    s, t = sympy.symbols("s t")

    def as_sympy(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * s**i * t**j for (i, j), c in p.terms.items())

    expected = sympy.Poly(sympy.resultant(as_sympy(a), as_sympy(b), s), t)
    bits = max(max(c.p.bit_length(), c.q.bit_length()) for c in expected.coeffs())
    assert bits > 80
    assert _bench_spans().coefficient_bits(ours) == bits


def _package_modules():
    return [encwrithe] + [
        importlib.import_module(f"encwrithe.{path.stem}")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    ]


def test_one_polynomial_division():
    # every remainder and exact quotient is the integer pseudo-division
    # upoly._pdivmod or upoly._iexact_div; there is no division over Q
    assert [name for name in ("divmod", "__mod__", "__floordiv__") if hasattr(upoly.UPoly, name)] == []
    assert [name for name in ("xgcd", "invert_mod", "_prem_signed") if hasattr(upoly, name)] == []


def test_one_elimination():
    # each pair is eliminated once, by the subresultant chain
    # upoly._subresultants; no Sylvester determinant over Z[x] and no second
    # PRS with a content removal at every step stay beside it
    banned = ("_content_free", "_linear_prs_member", "sylvester_matrix", "det_bareiss")
    modules = _package_modules()
    assert len(modules) > 10
    assert [f"{m.__name__}.{name}" for m in modules for name in banned if hasattr(m, name)] == []


def _loops_where(tree: ast.AST, holds, prefix: str = "") -> set[str]:
    """Qualified names of the functions in tree with a loop for which
    holds(loop) is true."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            found |= _loops_where(node, holds, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}{node.name}"
            for loop in ast.walk(node):
                if isinstance(loop, (ast.For, ast.While, ast.comprehension)) and holds(loop):
                    found.add(name)
            found |= _loops_where(node, holds, f"{name}.")
    return found


def _calls_to(tree: ast.AST, callee: str) -> list[ast.Call]:
    return [n for n in ast.walk(tree) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == callee]


def _loops_calling(tree: ast.AST, callee: str) -> set[str]:
    """Qualified names of the functions in tree with a loop that calls callee."""
    return _loops_where(tree, lambda loop: bool(_calls_to(loop, callee)))


def _feeds_gcd_back(loop: ast.AST) -> bool:
    """Does the loop assign a name from a poly_gcd call that reads that name?"""
    for node in ast.walk(loop):
        if isinstance(node, ast.Assign):
            assigned = {t.id for t in node.targets if isinstance(t, ast.Name)}
            for call in _calls_to(node.value, "poly_gcd"):
                if any(isinstance(arg, ast.Name) and arg.id in assigned for arg in call.args):
                    return True
    return False


def _none_or_degree_tests(tree: ast.AST, scope: str = ""):
    """The enclosing function of every `x is None or x.degree ...` in tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _none_or_degree_tests(node, f"{scope}{node.name}.")
            continue
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
            is_none = any(
                isinstance(v, ast.Compare)
                and isinstance(v.ops[0], ast.Is)
                and getattr(v.comparators[0], "value", 0) is None
                for v in node.values
            )
            reads_degree = any(
                isinstance(n, ast.Attribute) and n.attr == "degree" for n in ast.walk(node)
            )
            if is_none and reads_degree:
                yield scope.rstrip(".")
        yield from _none_or_degree_tests(node, scope)


def test_one_remainder_sequence():
    # gcds, Sturm chains and the modular inverse read the one primitive
    # pseudo-remainder sequence upoly._prs. The other loops that divide by
    # _pdivmod are the reduction at a root, whose divisor is one fixed
    # modulus, and the subresultant chain over Z[y][x], which takes each
    # remainder from it on packed integers: no loop keeps its own remainder
    readers = (upoly._igcd_poly, upoly.sturm_chain, upoly.quotient_mod)
    for reader in readers:
        tree = ast.parse(inspect.getsource(reader))
        assert any(isinstance(n, ast.Name) and n.id == "_prs" for n in ast.walk(tree)), reader
    looping = {
        f"{m.__name__}.{name}"
        for m in _package_modules()
        for name in _loops_calling(ast.parse(inspect.getsource(m)), "_pdivmod")
    }
    assert looping == {
        "encwrithe.upoly._prs",
        "encwrithe.upoly._subresultants",
        "encwrithe.elimination.TriangularRoot.substitute",
    }


def _four_product_min_max(loop: ast.AST) -> bool:
    """Does the loop form a 4-tuple of products and call min and max, the
    step of interval Horner?"""
    calls = {getattr(n.func, "id", None) for n in ast.walk(loop) if isinstance(n, ast.Call)}
    products = any(
        isinstance(n, ast.Tuple)
        and len(n.elts) == 4
        and all(isinstance(e, ast.BinOp) and isinstance(e.op, ast.Mult) for e in n.elts)
        for n in ast.walk(loop)
    )
    return products and {"min", "max"} <= calls


def test_one_interval_horner():
    # every interval enclosure of a polynomial is the integer interval Horner
    # upoly._ihorner_interval: UPoly.eval_interval divides its bounds into an
    # Interval, and the certified sign test and the quotient boxes read them
    # as they are. No second kernel runs beside it, and it has no option
    kernels = {
        f"{m.__name__}.{name}"
        for m in _package_modules()
        for name in _loops_where(ast.parse(inspect.getsource(m)), _four_product_min_max)
    }
    assert kernels == {"encwrithe.upoly._ihorner_interval"}
    for reader in (upoly.UPoly.eval_interval, algnum.AlgebraicNumber.sign_of_poly, algnum.quotient_boxes):
        tree = ast.parse(textwrap.dedent(inspect.getsource(reader)))
        assert _calls_to(tree, "_ihorner_interval"), reader
    parameters = inspect.signature(upoly._ihorner_interval).parameters.values()
    assert [p.name for p in parameters if p.default is not inspect.Parameter.empty] == []


def test_one_incidence_test():
    # "does this curve pass through that point at a finite parameter?" is
    # upoly.hits, on the one running gcd upoly.gcd_all: no other loop feeds
    # poly_gcd's result back into poly_gcd, and the None-or-nonconstant test
    # of a gcd stays only in hits and in the cusp check, whose message
    # prints the gcd
    modules = _package_modules()
    running = {
        f"{m.__name__}.{name}"
        for m in modules
        for name in _loops_where(ast.parse(inspect.getsource(m)), _feeds_gcd_back)
    }
    assert running == {"encwrithe.upoly.gcd_all"}
    tests = {
        f"{m.__name__}.{scope}"
        for m in modules
        for scope in _none_or_degree_tests(ast.parse(inspect.getsource(m)))
    }
    assert tests == {"encwrithe.upoly.hits", "encwrithe.curves.validate"}


def test_sturm_counts_take_finite_bounds():
    # Sturm sequences are evaluated at rationals only, with no +-inf branch
    params = inspect.signature(upoly.count_real_roots).parameters
    assert [p.default for p in params.values()] == [inspect.Parameter.empty] * 3


def test_deleted_names_stay_gone():
    # "which root is this?" is one Sturm count on an isolating interval, not a
    # search of the number over the boxes of a second isolation; the center
    # frame is written in closed form, with no general inverse beside it;
    # BiPoly.to_upoly had no caller; and Sturm counts have no infinite bound
    assert not hasattr(algnum, "_locate_in_isolation")
    assert not hasattr(ProjectiveTransform, "inverse")
    assert not hasattr(BiPoly, "to_upoly")
    assert not hasattr(upoly, "_sign_at_inf")
    # the polynomials of a locus are built once, by its writhe.LocusPolys
    # record, and the components and pairs are solved by one loop; the
    # wrappers around the record, the analysis and the curve's
    # reparametrization had no caller in the program
    gone = {
        projection: (
            "_classify_same_component",
            "_solve_inter_component",
            "_expected_count",
            "_image_polys",
            "_check_transversality",
            "classify_double_points",
            "double_point_system",
        ),
        writhe: ("chart_product", "crossing_sign_polys", "solitary_sign_polys"),
        svg: ("_over_under_polys",),
        curves: ("reparametrize",),
    }
    # a failed center has one channel, the typed error analyze_projection
    # raises; the analysis it returns is the certified diagram, and a center
    # is a tuple of four Fractions
    gone[projection] += ("GenericityCertificate", "genericity_check", "ProjectionCenter", "_singular_line_flag")
    gone[writhe] += ("Diagram",)
    gone[encwrithe] = ("GenericityCertificate", "genericity_check", "first_failure_error", "Diagram", "ProjectionCenter")
    # a failed validation has one channel too, the typed error of its first
    # failed check; a real eliminant root that no member completes is the
    # solution's undecided root, never dropped by a knob
    gone[curves] += ("CurveValidationReport",)
    gone[encwrithe] += ("CurveValidationReport",)
    # the certified diagram is the one report: the CLI prints from it, and
    # names with no reader in the program go
    gone[writhe] += ("WritheReport", "writhe_report", "linking_total")
    gone[encwrithe] += ("WritheReport", "writhe_report", "linking_total")
    gone[curves.RationalSpaceCurve] = ("transformed",)
    gone[rationals] = ("Rat",)
    gone[fileio.CurveFamily] = ("orientations",)
    # P(infinity) is the leading coefficient vector, with no sentinel
    # parameter beside it, and a parameter change is MoebiusReparam.apply
    gone[curves] += ("INFINITY", "_ParameterInfinity")
    gone[encwrithe] += ("INFINITY",)
    gone[curves.MoebiusReparam] = ("map_parameter",)
    gone[curves.RationalSpaceCurve] += ("reparametrized",)
    # names only tests read: a test forms a resultant of UPolys through
    # resultant_bivariate, an identity through of(...), and reads an exact
    # number as is_exact plus lo
    gone[upoly] = ("resultant",)
    gone[encwrithe] += ("resultant",)
    gone[upoly.UPoly] = ("zero",)
    gone[curves.MoebiusReparam] += ("identity",)
    gone[curves.ProjectiveTransform] = ("identity",)
    gone[algnum.AlgebraicNumber] = ("exact_value",)
    gone[BiPoly] = ("degree_in",)
    gone[rationals.Interval] = ("of",)
    # variable 0 is always the one eliminated, and a parameter the program
    # sets one way is a module constant
    signatures = {
        BiPoly.integer_rows: ["self"],
        BiPoly.from_upoly: ["p"],
        resultant_bivariate: ["a", "b"],
        svg.render_diagram_svg: ["diagram", "out_path"],
        curves.sample_random_curve: ["degree", "seed", "coefficient_bound"],
    }
    for function, parameters in signatures.items():
        assert list(inspect.signature(function).parameters) == parameters, function.__name__
    assert list(inspect.signature(elimination.solve_system).parameters) == ["polys"]
    assert tuple(curves.LinkValidationReport.__dataclass_fields__) == ("error", "imaginary_singular_candidates")
    assert [f"{m.__name__}.{name}" for m, names in gone.items() for name in names if hasattr(m, name)] == []
    fields = projection.ProjectionAnalysis.__dataclass_fields__
    assert [name for name in ("transform", "certificate", "component_solutions") if name in fields] == []
    for sign_raw in (writhe.crossing_sign_raw, writhe.solitary_sign_raw):
        assert list(inspect.signature(sign_raw).parameters) == ["root", "polys"]
    assert list(inspect.signature(projection._fill_images).parameters) == ["loci"]


def test_one_failure_channel():
    # the genericity failures are raised in projection only, as the gravest
    # of the failures one analysis noted, and the sampler rejects a draw by
    # the one ProjectionError it catches; the validation failures are raised
    # in curves only, each by the check that finds it
    owners = {
        errors.TangentialPair: "encwrithe.projection",
        errors.TriplePoint: "encwrithe.projection",
        errors.CenterOnSingularLine: "encwrithe.projection",
        errors.ReducibleParametrization: "encwrithe.curves",
        errors.CuspDetected: "encwrithe.curves",
        errors.RealSingularityDetected: "encwrithe.curves",
        errors.ComponentsIntersect: "encwrithe.curves",
    }
    for error, owner in owners.items():
        users = {
            m.__name__
            for m in _package_modules()
            if m not in (encwrithe, errors)
            for node in ast.walk(ast.parse(inspect.getsource(m)))
            if isinstance(node, ast.Name) and node.id == error.__name__
        }
        assert users == {owner}, error
    sampler = ast.parse(inspect.getsource(projection.sample_generic_center))
    handlers = [node for node in ast.walk(sampler) if isinstance(node, ast.ExceptHandler)]
    assert [handler.type.id for handler in handlers] == ["ProjectionError"]


def test_validation_stops_at_the_first_failure(monkeypatch):
    # a cusped curve is rejected before its (e, f) system is solved, and a
    # link whose component 0 is cusped never validates component 1
    solves = []
    real_solve = elimination.solve_system

    def spy(polys, *args, **kwargs):
        solves.append(polys)
        return real_solve(polys, *args, **kwargs)

    monkeypatch.setattr(curves, "solve_system", spy)
    cusped = curves.RationalSpaceCurve([0, 0, 1], [0, 0, 0, 1], [0, 0, 1, 1], [1])
    report = curves.validate_link(curves.Link([cusped, model_curve(-1)]))
    assert solves == []
    assert isinstance(report.error, errors.CuspDetected)
    with pytest.raises(errors.CuspDetected):
        curves.validate(cusped)
    assert solves == []


def _calls(tree: ast.AST, scope: str = ""):
    """(qualified name of the enclosing function, called name) for every call
    in tree; the called name is the attribute or the bare name called."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _calls(node, f"{scope}{node.name}.")
            continue
        if isinstance(node, ast.Call):
            func = node.func
            yield scope.rstrip("."), getattr(func, "attr", getattr(func, "id", ""))
        yield from _calls(node, scope)


def test_one_sign_route():
    # every sign at a root is TriangularRoot.sign_of of a polynomial in the
    # root's two coordinates; only the completion's univariate test u(f0) asks
    # the survivor directly. The polynomials a locus is read through are
    # built by its writhe.LocusPolys record, never in projection or svg
    askers = {
        f"{m.__name__}.{scope}"
        for m in _package_modules()
        if m is not algnum
        for scope, callee in _calls(ast.parse(inspect.getsource(m)))
        if callee == "sign_of_poly"
    }
    assert askers == {"encwrithe.elimination.TriangularRoot.sign_of", "encwrithe.elimination._complete_root"}
    builders = ("symmetric_sum", "symmetric_quotient", "outer", "from_upoly")
    for module in (projection, svg):
        built = [
            f"{scope}: {callee}"
            for scope, callee in _calls(ast.parse(inspect.getsource(module)))
            if callee in builders or callee.endswith("_double_point_system")
        ]
        assert built == [], module.__name__


def test_no_unused_imports():
    # no linter runs on the package: every name a module imports is read in it
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        unused.append(f"{path.relative_to(PACKAGE)}:{node.lineno}: {name}")
    assert unused == []


def test_no_module_level_caches():
    # memos live with the objects they serve (the reduction record of one
    # solve_system lives on its roots), never in a module: no module- or
    # class-level dict, list or set but __all__, and no functools memoizing
    # decorator (cached_property stores on its instance, so it may stay)
    containers = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    factories = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter"}

    def is_container(value):
        if isinstance(value, containers):
            return True
        return isinstance(value, ast.Call) and getattr(value.func, "id", getattr(value.func, "attr", None)) in factories

    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bodies = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
        for body in bodies:
            for node in body:
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    targets = [node.target]
                else:
                    continue
                names = [getattr(t, "id", None) for t in targets]
                if node.value is not None and is_container(node.value) and names != ["__all__"]:
                    offenders.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for deco in node.decorator_list:
                    target = deco.func if isinstance(deco, ast.Call) else deco
                    if getattr(target, "id", getattr(target, "attr", None)) in ("cache", "lru_cache"):
                        offenders.append(f"{path.relative_to(PACKAGE)}:{deco.lineno}")
    assert offenders == []
