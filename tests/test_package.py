"""Package-wide constraints that no single module's tests see."""

import ast
import importlib
import importlib.util
import inspect
import sys
from fractions import Fraction
from pathlib import Path

import sympy

import encwrithe
from encwrithe import algnum, upoly
from encwrithe.bipoly import BiPoly, resultant_bivariate
from encwrithe.curves import ProjectiveTransform

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
    polys += [b, b.swap_vars(), BiPoly.outer([(p, p.derivative())]), BiPoly.from_upoly(p, 1)]
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
    ours = resultant_bivariate(a, b, 0)
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


def _loops_calling(tree: ast.AST, callee: str, prefix: str = "") -> set[str]:
    """Qualified names of the functions in tree with a loop that calls callee."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            found |= _loops_calling(node, callee, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}{node.name}"
            for loop in ast.walk(node):
                if isinstance(loop, (ast.For, ast.While, ast.comprehension)) and any(
                    isinstance(call, ast.Call) and getattr(call.func, "id", None) == callee
                    for call in ast.walk(loop)
                ):
                    found.add(name)
            found |= _loops_calling(node, callee, f"{name}.")
    return found


def test_one_remainder_sequence():
    # gcds, Sturm chains and the modular inverse read the one primitive
    # pseudo-remainder sequence upoly._prs. The only other loop that divides
    # by _pdivmod is the reduction at a root, whose divisor is one fixed
    # modulus; the subresultant chain over Z[y][x] keeps its own remainder
    readers = (upoly._igcd_poly, upoly.sturm_chain, upoly.quotient_mod)
    for reader in readers:
        tree = ast.parse(inspect.getsource(reader))
        assert any(isinstance(n, ast.Name) and n.id == "_prs" for n in ast.walk(tree)), reader
    looping = {
        f"{m.__name__}.{name}"
        for m in _package_modules()
        for name in _loops_calling(ast.parse(inspect.getsource(m)), "_pdivmod")
    }
    assert looping == {"encwrithe.upoly._prs", "encwrithe.elimination.TriangularRoot.substitute"}


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
