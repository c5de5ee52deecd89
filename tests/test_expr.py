import gc
import math
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (central_diff, random_expr, reference_differentiate, reference_evaluate,
                     reference_folded_differentiate, tame_at)
from rotsurf4.expr import (Binary, Constant, EvalDomainError, ExprSyntaxError,
                           Interval, Profile, Unary, UnknownIdentifierError,
                           Variable, _tape, _Tape, compile_expr, differentiate,
                           evaluate, parse, unparse)


# ---------------------------------------------------------------------------
# parsing

def test_parse_variable():
    assert parse("u") == Variable()


def test_parse_power():
    assert parse("u^2") == Binary("^", Variable(), Constant(2.0))


def test_parse_scaled_root():
    assert parse("2*u^0.5") == Binary("*", Constant(2.0),
                                      Binary("^", Variable(), Constant(0.5)))


def test_parse_precedence_and_unary():
    # pow binds tighter than unary minus, which binds tighter than mul
    assert parse("-u^2") == Unary("neg", Binary("^", Variable(), Constant(2.0)))
    assert parse("-2*u") == Binary("*", Constant(-2.0), Variable())
    assert parse("u^-0.5") == Binary("^", Variable(), Constant(-0.5))


def test_parse_right_assoc_power():
    assert parse("u^2^3") == Binary("^", Variable(),
                                    Binary("^", Constant(2.0), Constant(3.0)))


def test_parse_double_star_alias():
    assert parse("u**2") == parse("u^2")


def test_parse_scientific_notation():
    assert parse("1.5e-3") == Constant(0.0015)


def test_parse_function_call():
    assert parse("sin(u)") == Unary("sin", Variable())


def test_parse_empty_input():
    with pytest.raises(ExprSyntaxError):
        parse("")
    with pytest.raises(ExprSyntaxError):
        parse("   ")


def test_parse_unknown_identifier_offset():
    with pytest.raises(UnknownIdentifierError) as err:
        parse("2*spam(u)")
    assert err.value.offset == 2


def test_parse_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("u + * 2")
    assert err.value.offset == 4


def test_parse_trailing_garbage():
    with pytest.raises(ExprSyntaxError):
        parse("u 2")


# ---------------------------------------------------------------------------
# evaluation

def test_eval_square():
    assert evaluate(parse("u^2"), 3.0) == 9.0
    assert evaluate(parse("u^2"), 0.0) == 0.0


def test_eval_negative_power():
    # hand arithmetic: 2 * 4^(-1/2) = 1
    assert evaluate(parse("2*u^(-0.5)"), 4.0) == 1.0


def test_eval_integer_power_negative_base_exact():
    assert evaluate(parse("u^3"), -2.0) == -8.0
    assert evaluate(parse("u^2"), -3.0) == 9.0


def test_eval_fractional_power_negative_base_rejected():
    with pytest.raises(EvalDomainError):
        evaluate(parse("u^0.5"), -1.0)


def test_eval_domain_errors_name_subtree():
    with pytest.raises(EvalDomainError) as err:
        evaluate(parse("1 + log(u)"), -1.0)
    assert "log(u)" in str(err.value)
    with pytest.raises(EvalDomainError):
        evaluate(parse("sqrt(u)"), -4.0)
    with pytest.raises(EvalDomainError):
        evaluate(parse("1/u"), 0.0)


def test_eval_matches_reference_evaluator():
    # independent table-driven evaluator as an oracle
    import operator
    unary = {"neg": operator.neg, "sin": math.sin, "cos": math.cos,
             "exp": math.exp, "log": math.log, "sqrt": math.sqrt}
    binary = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv, "^": math.pow}

    def reference(e, u):
        if isinstance(e, Constant):
            return e.value
        if isinstance(e, Variable):
            return u
        if isinstance(e, Unary):
            return unary[e.op](reference(e.child, u))
        return binary[e.op](reference(e.left, u), reference(e.right, u))

    rng = random.Random(7)
    checked = 0
    while checked < 100:
        e = random_expr(rng, 5)
        u = rng.uniform(0.3, 2.5)
        if not tame_at(e, u, 1e-5):
            continue
        assert evaluate(e, u) == pytest.approx(reference(e, u), rel=1e-12, abs=1e-12)
        checked += 1


# ---------------------------------------------------------------------------
# differentiation

def test_diff_square():
    d = differentiate(parse("u^2"))
    assert evaluate(d, 3.0) == 6.0


def test_diff_sin():
    d = differentiate(parse("sin(u)"))
    assert evaluate(d, 0.7) == math.cos(0.7)


def test_diff_scaled_root_against_central_difference():
    # d/du (2 sqrt(u)) = u^(-1/2); at u=1 the value is 1
    e = parse("2*u^0.5")
    d = differentiate(e)
    assert abs(evaluate(d, 1.0) - 1.0) <= 1e-15
    fd = central_diff(lambda x: evaluate(e, x), 1.0, 1e-6)
    assert abs(evaluate(d, 1.0) - fd) <= 1e-9


def test_diff_nonconstant_exponent():
    # d/du u^u = u^u (log u + 1)
    d = differentiate(parse("u^u"))
    u = 1.7
    expected = u ** u * (math.log(u) + 1.0)
    assert evaluate(d, u) == pytest.approx(expected, rel=1e-14)


def test_diff_random_trees_against_finite_difference():
    rng = random.Random(20250809)
    checked = 0
    while checked < 200:
        e = random_expr(rng, 6)
        u = rng.uniform(0.3, 2.5)
        h = 1e-5 * max(1.0, abs(u))
        if not tame_at(e, u, h):
            continue
        try:
            sym = evaluate(differentiate(e), u)
        except EvalDomainError:
            continue
        fd = central_diff(lambda x: evaluate(e, x), u, h)
        if abs(fd) > 1e4:
            continue
        assert abs(sym - fd) <= 1e-6 * max(1.0, abs(fd)), unparse(e)
        checked += 1


# ---------------------------------------------------------------------------
# printing round trip

_leaf = st.one_of(
    st.just(Variable()),
    st.builds(Constant, st.floats(min_value=-4.0, max_value=4.0,
                                  allow_nan=False).map(lambda x: round(x, 3))),
)


def _compound(children):
    return st.one_of(
        st.builds(Unary, st.sampled_from(("neg", "sin", "cos", "exp", "log", "sqrt")), children),
        st.builds(Binary, st.sampled_from(("+", "-", "*", "/")), children, children),
        st.builds(Binary, st.just("^"), children,
                  st.sampled_from((Constant(2.0), Constant(3.0), Constant(0.5),
                                   Constant(-1.0), Constant(-2.0)))),
        st.builds(Binary, st.just("^"), children, children),
    )


expr_trees = st.recursive(_leaf, _compound, max_leaves=16)


@settings(max_examples=300)
@given(expr_trees)
def test_unparse_parse_round_trip(e):
    assert parse(unparse(e)) == e


@given(expr_trees)
def test_text_round_trip_is_idempotent(e):
    text = unparse(e)
    again = unparse(parse(text))
    assert again == text
    assert parse(again) == parse(text)


def _hex_form(e):
    """``e`` as nested tuples with each constant as ``float.hex``, so that
    ``Constant(0.0)`` and ``Constant(-0.0)`` compare unequal."""
    match e:
        case Constant(v):
            return v.hex()
        case Variable():
            return "u"
        case Unary(op, child):
            return op, _hex_form(child)
        case Binary(op, left, right):
            return op, _hex_form(left), _hex_form(right)


@settings(max_examples=300)
@given(expr_trees)
def test_round_trip_keeps_the_bits_of_every_constant(e):
    assert _hex_form(parse(unparse(e))) == _hex_form(e)


@pytest.mark.parametrize("tree, text", [
    (parse("u*-0"), "u*-0"),
    (Binary("^", Constant(-0.0), Constant(2.0)), "(-0)^2"),
    (Unary("neg", Constant(-0.0)), "-(-0)"),
    (Binary("-", Variable(), Constant(-0.0)), "u--0"),
])
def test_negative_zero_keeps_its_sign_in_text(tree, text):
    assert unparse(tree) == text
    assert _hex_form(parse(text)) == _hex_form(tree)
    assert evaluate(parse(text), 2.0).hex() == evaluate(tree, 2.0).hex()


def test_round_trip_on_sample_texts():
    for text in ("u", "u^2", "2*u^0.5", "-u^2", "sin(u)*cos(u)-1/u",
                 "1.5e-3*u + sqrt(u+2)", "u^-2", "-(2)", "(u+1)*(u-1)"):
        e = parse(text)
        assert parse(unparse(e)) == e


# ---------------------------------------------------------------------------
# compiled evaluation and folding, checked bit for bit

SAMPLE_U = (-1.5, -0.0, 0.0, 0.7, 2.0)


def _run(fn, u):
    """(float.hex() of fn(u), None), or (None, the domain error raised)."""
    try:
        return fn(u).hex(), None
    except EvalDomainError as exc:
        return None, exc


def _failed_operation(exc, u):
    """The operation a domain error names, as its kind and the exact values
    of its operands; folded and unfolded trees share no node objects."""
    node = exc.node
    operands = (node.child,) if isinstance(node, Unary) else (node.left, node.right)
    return type(node), node.op, tuple(evaluate(x, u).hex() for x in operands)


def _assert_compiled_matches_reference(e):
    compiled = compile_expr(e)
    for u in SAMPLE_U:
        want, want_err = _run(lambda x: reference_evaluate(e, x), u)
        got, got_err = _run(compiled, u)
        assert got == want, (unparse(e), u)
        if want_err is not None:
            assert type(got_err) is type(want_err)
            assert got_err.node is want_err.node
            assert str(got_err) == str(want_err)


@settings(max_examples=300)
@given(expr_trees)
def test_compiled_matches_evaluate(e):
    _assert_compiled_matches_reference(e)


@pytest.mark.parametrize("text", [
    "exp(709.5)+exp(709.5)", "-exp(709.5)-exp(709.5)", "exp(709)*(u+3)", "exp(709)/0.25",
    "1/(u-u)", "exp(1000*u)", "log(u-3)", "sqrt(u-3)", "(u+3)^1000",
    "(u-3)^0.5", "(u-u)^-1",
])
def test_compiled_raises_where_evaluate_does(text):
    # every error branch, each raising at some of the sample points
    _assert_compiled_matches_reference(parse(text))


@settings(max_examples=300)
@given(expr_trees)
def test_folded_derivative_matches_unfolded_reference(e):
    # the second level sees the shapes differentiate builds (x*1, x - 0, ...)
    for tree in (e, differentiate(e)):
        folded, reference = differentiate(tree), reference_differentiate(tree)
        for u in SAMPLE_U:
            want, want_err = _run(lambda x: evaluate(reference, x), u)
            got, got_err = _run(lambda x: evaluate(folded, x), u)
            assert got == want, (unparse(tree), u)
            if want_err is not None:
                assert type(got_err) is type(want_err)
                assert _failed_operation(got_err, u) == _failed_operation(want_err, u)


@pytest.mark.parametrize("text, expected", [
    # d = -(2*u^1) + 0 is -0 + 0 = +0 at u = 0; folding x+0 would give -0
    ("-u^2 + 5", 0.0),
    # d = 0*(-u^2) + 2*(-(2*u^1)) is -0 + -0 = -0; folding 0*x to 0 would give +0
    ("2*(-u^2)", -0.0),
])
def test_folding_keeps_the_sign_of_zero(text, expected):
    e = parse(text)
    assert evaluate(reference_differentiate(e), 0.0).hex() == expected.hex()
    assert evaluate(differentiate(e), 0.0).hex() == expected.hex()


@pytest.mark.parametrize("text, derivative", [
    ("u^2", "2*u^1"),            # x*1
    ("u^2 - 3", "2*u^1"),        # x - 0
    ("u + 1", "1"),              # 1 + 0 on two constants
    ("3*u", "0*u+3"),            # 0*x and x+0 stay
    ("sin(u) + 1", "cos(u)+0"),
])
def test_differentiate_folds_only_exact_identities(text, derivative):
    assert unparse(differentiate(parse(text))) == derivative


# constants where a fold can go wrong: signed zeros, the ends of the double
# range, subnormals, negative bases under integer and fractional exponents
fold_constants = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 3.0, -3.0, 1 / 3, 2.5, -8.0,
                     1e308, -1e308, 1.7976931348623157e308, 5e-324, -5e-324,
                     2.2250738585072014e-308, -1.1125369292536007e-308, 1024.0, -1075.0]),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=500)
@given(st.sampled_from("+-*/^"), fold_constants, fold_constants)
def test_constant_fold_is_the_evaluated_node_or_the_node(op, x, y):
    a, b = Constant(x), Constant(y)
    tape = _Tape()
    operands = (tape.visit(a), tape.visit(b))
    size = len(tape.nodes)
    folded = tape.fold(op, *operands)
    try:
        want = evaluate(Binary(op, a, b), 0.0)
    except EvalDomainError:
        # kept exactly where evaluation raises, so the error names this node
        assert folded == size and tape.nodes[folded] == (op, *operands)
        trees = tape.fill()
        node = trees[folded]
        assert type(node) is Binary and node.op == op
        assert node.left is trees[operands[0]] and node.right is trees[operands[1]]
    else:
        # a value, or an operand (1*x, x*1, x - 0): no entry for the folded node
        value = folded if type(folded) is float else tape.nodes[folded][1]
        assert value.hex() == want.hex()
        assert len(tape.nodes) == size


def _node_objects(*trees) -> int:
    """The number of distinct node objects (by ``id``) in ``trees``."""
    seen, stack = set(), list(trees)
    while stack:
        e = stack.pop()
        if id(e) not in seen:
            seen.add(id(e))
            stack.extend(getattr(e, name) for name in ("child", "left", "right")
                         if hasattr(e, name))
    return len(seen)


@pytest.mark.parametrize("text", ["log(u-3)*log(u-3)", "sqrt(u-3)+exp(1000*u)*sqrt(u-3)"])
def test_repeated_failing_subtree_raises_at_its_first_occurrence(text):
    # a repeat shares the closure of its first occurrence, which a walk fails at first
    e = parse(text)
    _assert_compiled_matches_reference(e)  # the very node the walk fails at
    p = Profile.from_expr(e)
    for tree, read in ((p.expr, p.value), (p.d1, p.deriv1), (p.d2, p.deriv2)):
        for u in SAMPLE_U:
            want, want_err = _run(lambda x: reference_evaluate(tree, x), u)
            got, got_err = _run(read, u)
            assert want_err is not None and got is None
            # value, d1 and d2 share subtrees: the node is equal, not identical
            assert got_err.node == want_err.node
            assert unparse(got_err.node) == unparse(want_err.node)
            assert str(got_err) == str(want_err)
    assert all(p.grid([u]) is None for u in SAMPLE_U) and p.grid(list(SAMPLE_U)) is None


def test_unknown_node_is_rejected_when_compiled():
    for tree in (Unary("tan", Variable()), Binary("%", Variable(), Constant(2.0)), 2.0):
        with pytest.raises(TypeError, match="not an expression node"):
            compile_expr(tree)
        with pytest.raises(TypeError, match="not an expression node"):
            Profile(Variable(), Constant(1.0), tree)


# ---------------------------------------------------------------------------
# grid runs, checked bit for bit against the reference walker and the closures

u_grids = st.lists(st.one_of(st.sampled_from(SAMPLE_U + (1e-300, 700.0, -1e308)),
                             st.floats(allow_nan=False, allow_infinity=False)), max_size=6)


def _scalar_column(tree, us):
    """float.hex of the reference walker at each u, or None if it raises at any."""
    try:
        return [reference_evaluate(tree, u).hex() for u in us]
    except EvalDomainError:
        return None


def _tree_grid(tree, us):
    """float.hex of a grid run of ``tree`` alone (in all three places of a
    profile), or None on a miss."""
    columns = Profile(tree, tree, tree).grid(us)
    if columns is None:
        return None
    assert columns[0] == columns[1] == columns[2]
    return [x.hex() for x in columns[0]]


@settings(max_examples=300)
@given(expr_trees, u_grids)
def test_grid_kernel_matches_scalar_closure(e, us):
    d1 = differentiate(e)
    for tree in (e, d1, differentiate(d1)):
        assert _tree_grid(tree, us) == _scalar_column(tree, us), (unparse(tree), us)


@settings(max_examples=300)
@given(expr_trees, u_grids)
def test_profile_grid_matches_its_scalar_reads(e, us):
    p = Profile.from_expr(e)
    try:
        want = [[read(u).hex() for u in us] for read in (p.value, p.deriv1, p.deriv2)]
    except EvalDomainError:
        want = None
    got = p.grid(us)
    assert (None if got is None else [[x.hex() for x in c] for c in got]) == want, \
        (unparse(e), us)


@settings(max_examples=300)
@given(expr_trees, u_grids)
def test_profile_values_are_its_scalar_value_reads(e, us):
    # the value column runs the tape's prefix up to the value root only: a
    # derivative that raises where the value does not leaves it whole
    for p in (Profile.from_expr(e), Profile.from_text(unparse(e))):
        try:
            want = [p.value(u).hex() for u in us]
        except EvalDomainError:
            want = None
        got = p.values(us)
        assert (None if got is None else [x.hex() for x in got]) == want, (unparse(e), us)


def test_profile_values_need_no_derivative():
    p = Profile.from_text("sqrt(u-0.9999)")
    assert p.grid([0.9999]) is None and p.values([0.9999]) == [0.0]
    assert p.values([0.5, 1.0]) is None
    assert Profile.from_text("u", domain=Interval(0.0, 1.0)).values([0.5, 1.5]) is None


@pytest.mark.parametrize("text", [
    "exp(709.5)+exp(709.5)", "exp(709)*(u+3)", "exp(709)/0.25", "1/(u-u)", "exp(1000*u)",
    "log(u-3)", "sqrt(u-3)", "(u+3)^1000", "(u-3)^0.5", "(u-u)^-1", "u^3", "(u-1)^3",
    "(-u)^2.5", "sin(u)*exp(-u^2)+sqrt(u)",
])
def test_grid_kernel_misses_where_a_point_raises(text):
    # every miss branch: each text raises at some of the sample points only
    tree = parse(text)
    for us in ([u] for u in SAMPLE_U):
        assert _tree_grid(tree, us) == _scalar_column(tree, us)
    assert _tree_grid(tree, list(SAMPLE_U)) == _scalar_column(tree, SAMPLE_U)


def test_grid_keeps_the_sign_of_zero_of_power():
    # math.pow(-0.0, 3) is -0.0, _power gives +0.0 for a zero base
    assert _tree_grid(parse("u^3"), [-0.0, 2.0])[0] == "0x0.0p+0"
    assert compile_expr(parse("u^3"))(-0.0).hex() == "0x0.0p+0"


def test_grid_keeps_constants_of_either_sign_of_zero_apart():
    # Constant(0.0) == Constant(-0.0): a tape keyed by equality would merge them
    p = Profile(parse("u*0"), parse("u*-0"), parse("u*0"))
    columns = p.grid([1.0])
    assert [column[0].hex() for column in columns] == ["0x0.0p+0", "-0x0.0p+0", "0x0.0p+0"]
    assert p.deriv1(1.0).hex() == "-0x0.0p+0"


def test_tape_records_last_readers_and_keeps_roots():
    # value u*u + u, d1 u*u (a root that the value also reads), d2 sin(u)
    tape, roots = _tape((parse("u*u + u"), parse("u*u"), parse("sin(u)")))
    nodes, roots, last = tape.dag(roots)
    assert [n[0] for n in nodes] == ["u", "*", "+", "sin"]
    assert roots == [2, 1, 3]
    assert last == [3, None, None, None]  # u is read last by sin; roots are kept
    # the prefix up to the value root: u's last reader there is the sum
    assert tape.dag([2], 3) == (nodes[:3], [2], [2, 2, None])
    p = Profile(parse("u*u + u"), parse("u*u"), parse("sin(u)"))
    assert p.grid([2.0, 3.0]) == [[6.0, 12.0], [4.0, 9.0], [math.sin(2.0), math.sin(3.0)]]


# ---------------------------------------------------------------------------
# profiles

def test_profile_derivatives_are_structural():
    for text in ("u^2 + sin(u)", "sin(u^2)*exp(u)/sqrt(u)"):
        p = Profile.from_text(text)
        assert p.d1 == differentiate(p.expr)
        assert p.d2 == differentiate(p.d1)


# ---------------------------------------------------------------------------
# derivatives on the tape, against the recursive tree rewrite

def _same_entries(nodes, other) -> bool:
    """Whether two tapes hold the same subtrees, each once, in any order:
    each entry of ``nodes`` is found in ``other`` by its key with the
    operands renamed, and that map is one to one and onto."""
    slots = {entry: j for j, entry in enumerate(other)}
    to_other = []
    for op, a, b in nodes:
        if op != "u" and op != "const":
            a, b = to_other[a], None if b is None else to_other[b]
        to_other.append(slots.get((op, a, b)))
    return None not in to_other and sorted(to_other) == list(range(len(other)))


def _reachable(nodes, roots) -> set[int]:
    seen, stack = set(), list(roots)
    while stack:
        j = stack.pop()
        if j not in seen:
            seen.add(j)
            op, a, b = nodes[j]
            if op != "u" and op != "const":
                stack.extend(x for x in (a, b) if x is not None)
    return seen


@settings(max_examples=300)
@given(expr_trees)
def test_tape_derivatives_equal_the_tree_rewrite(e):
    p = Profile.from_expr(e)
    d1 = reference_folded_differentiate(e)
    d2 = reference_folded_differentiate(d1)
    assert _hex_form(p.d1) == _hex_form(d1) and _hex_form(p.d2) == _hex_form(d2)
    assert _hex_form(differentiate(e)) == _hex_form(d1)
    assert _hex_form(differentiate(p.d1)) == _hex_form(d2)
    nodes, roots, _ = p._dag
    # the distinct subtrees of the three trees, each once, and nothing else:
    # no constant that a fold discarded, no entry that no root reads
    assert _same_entries(nodes, _tape((e, d1, d2))[0].nodes)
    assert _reachable(nodes, roots) == set(range(len(nodes)))
    # d1 and d2 add one node object per distinct subtree that e lacks
    assert (_node_objects(p.expr, p.d1, p.d2) - _node_objects(p.expr)
            == len(nodes) - len(_tape((e,))[0].nodes))
    # the parser adds the same entries as a visit of its tree: a negative
    # literal ("-2") leaves no entry of its positive value behind
    q = Profile.from_text(unparse(e))
    assert [_hex_form(t) for t in (q.expr, q.d1, q.d2)] == [_hex_form(t) for t in (e, d1, d2)]
    assert q._dag[0] == nodes and q._dag[1] == roots


def test_profile_first_derivative_matches_central_difference():
    p = Profile.from_text("u^3 - 2*u + exp(u/4)")
    for u in (0.5, 1.0, 2.0):
        fd = central_diff(p.value, u, 1e-6 * max(1.0, abs(u)))
        assert abs(p.deriv1(u) - fd) <= 1e-7 * max(1.0, abs(fd))


def test_profile_domain_enforced():
    p = Profile.from_text("u^0.5", domain=Interval(0.0, math.inf, open_lo=True))
    assert p.value(4.0) == 2.0
    with pytest.raises(EvalDomainError):
        p.value(0.0)
    with pytest.raises(EvalDomainError):
        p.value(-1.0)


def test_profile_whole_line_domain_admits_every_float():
    p = Profile.from_text("u")
    assert p.domain == Interval()
    assert p.value(-math.inf) == -math.inf and p.deriv1(math.inf) == 1.0
    assert math.isnan(p.value(math.nan))  # Interval().contains(nan) is True
    assert Interval().contains(math.nan)


def test_profile_half_line_domain_still_checked():
    closed = Profile.from_text("u", domain=Interval(-math.inf, math.inf, open_lo=True))
    with pytest.raises(EvalDomainError):
        closed.deriv2(-math.inf)
    bounded = Profile.from_text("u", domain=Interval(0.0, 1.0))
    assert bounded.value(1.0) == 1.0
    with pytest.raises(EvalDomainError):
        bounded.deriv1(1.5)


def test_profile_grid_equals_scalar_reads():
    p = Profile.from_text("sin(u)*exp(-u^2)+sqrt(u)")
    us = [0.25, 0.5, 1.0, 3.0]
    assert p.grid(us) == [[read(u) for u in us] for read in (p.value, p.deriv1, p.deriv2)]
    assert p.grid([0.5, -1.0]) is None  # sqrt(-1) at the second point


def test_profile_builds_its_closures_on_the_first_scalar_read():
    p = Profile.from_text("sin(u^2)*exp(u)/sqrt(u)")
    us = [0.25, 0.5, 1.0, 3.0]
    columns = p.grid(us)
    assert "_value" not in vars(p)
    reads = [[read(u).hex() for u in us] for read in (p.value, p.deriv1, p.deriv2)]
    assert reads == [[x.hex() for x in column] for column in columns]
    assert {"_value", "_deriv1", "_deriv2"} <= vars(p).keys()


def test_profile_grid_misses_outside_the_domain():
    p = Profile.from_text("u", domain=Interval(0.0, 1.0))
    assert p.grid([0.0, 1.0]) == [[0.0, 1.0], [1.0, 1.0], [0.0, 0.0]]
    assert p.grid([0.5, 1.5]) is None


def test_profile_is_freed_without_the_cycle_collector():
    # the lazy closures must not reference their profile: profiles read only
    # through the grid would otherwise pile up for the cycle collector
    gc.disable()
    try:
        for read in (lambda p: p.grid([1.0]), lambda p: p.deriv2(1.0), lambda p: None):
            p = Profile.from_text("u^2 + 1")
            read(p)
            ref = weakref.ref(p)
            del p
            assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# value semantics: nodes and profiles compare, hash, print and match as
# frozen records, however their trees were made

_U2_TREES = (
    "expr=Binary(op='^', left=Variable(), right=Constant(value=2.0)), "
    "d1=Binary(op='*', left=Constant(value=2.0), "
    "right=Binary(op='^', left=Variable(), right=Constant(value=1.0))), "
    "d2=Binary(op='+', left=Binary(op='*', left=Constant(value=0.0), "
    "right=Binary(op='^', left=Variable(), right=Constant(value=1.0))), "
    "right=Binary(op='*', left=Constant(value=2.0), "
    "right=Binary(op='^', left=Variable(), right=Constant(value=0.0))))")


def _profiles_of(text):
    """Fresh profiles of ``text`` from ``from_text``, ``from_expr`` and the
    constructor, none of whose fields has been read."""
    e = parse(text)
    d1 = differentiate(e)
    return [Profile.from_text(text), Profile.from_expr(parse(text)),
            Profile(e, d1, differentiate(d1))]


@pytest.mark.parametrize("text", ["u^2", "u^2 + sin(u)", "sin(u^2)*exp(u)/sqrt(u)",
                                  "-(2)*u - -0*u^0.5", "u*u + u*u"])
def test_profiles_of_one_text_are_equal_and_hash_alike(text):
    first, second, third = _profiles_of(text)
    assert first == third and second == third and third == first
    assert len({hash(p) for p in _profiles_of(text)}) == 1
    assert Profile.from_text(text) != Profile.from_text(f"{text} + 1")
    assert Profile.from_text(text) != Profile.from_text(text, domain=Interval(0.0))


def test_profile_repr_prints_its_trees_and_domain():
    for p in _profiles_of("u^2"):
        assert repr(p) == (f"Profile({_U2_TREES}, "
                           "domain=Interval(lo=-inf, hi=inf, open_lo=False))")


@pytest.mark.parametrize("name", ["expr", "d1", "d2", "domain"])
def test_profile_fields_are_frozen_before_and_after_their_first_read(name):
    for p in _profiles_of("sin(u)*u"):
        for _ in range(2):  # unread, then read
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(p, name, Variable())
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(p, name)
            assert getattr(p, name) != Variable()
        assert p == Profile.from_text("sin(u)*u")


def test_nodes_compare_hash_print_and_freeze_as_values():
    assert Binary("+", Variable(), Constant(1.0)) == parse("u+1") == parse("u + 1.0")
    assert hash(parse("sin(u)*2")) == hash(Binary("*", Unary("sin", Variable()), Constant(2.0)))
    # equal as floats: the tapes, not the trees, keep signed zeros apart
    assert Constant(0.0) == Constant(-0.0) and hash(Constant(0.0)) == hash(Constant(-0.0))
    assert parse("-(2)*u") != parse("-2*u")
    assert repr(parse("-(2)*u - -0")) == (
        "Binary(op='-', left=Binary(op='*', left=Unary(op='neg', child=Constant(value=2.0)), "
        "right=Variable()), right=Constant(value=-0.0))")
    for node, name in ((Constant(1.0), "value"), (Unary("sin", Variable()), "child"),
                       (parse("u*u"), "left"), (parse("u*u"), "op")):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(node, name, None)


def _shape(e) -> str:
    # the positional patterns of _render_prec
    match e:
        case Unary("neg", Constant(v)) if v >= 0:
            return "negated literal"
        case Unary(op, Variable()):
            return f"{op} of u"
        case Binary("+" | "-" as op, Constant(v), b):
            return f"{v!r} {op} {_shape(b)}"
        case Binary("^", a, Constant(p)):
            return f"({_shape(a)})^{p!r}"
        case Constant(v):
            return repr(v)
        case Variable():
            return "u"
    return "other"


def test_nodes_match_positional_patterns():
    assert _shape(parse("-(2)")) == "negated literal"
    assert _shape(parse("-2")) == "-2.0"
    assert _shape(parse("1 - sqrt(u)^0.5")) == "1.0 - (sqrt of u)^0.5"
    p = Profile.from_text("sin(u)")
    match p:
        case Profile(Unary("sin", Variable()), Unary("cos", Variable()), Unary("neg", d2)):
            assert d2 == Unary("sin", Variable())
        case _:
            pytest.fail(f"no match: {p!r}")


# ---------------------------------------------------------------------------
# node objects: made only when a tree or a scalar is read

def test_a_flat_sum_longer_than_the_recursion_limit_parses():
    # the parser loops over a sum, and the node objects of the tape's
    # entries are made in one forward pass, with no recursion
    e = parse("+".join(["u"] * 5000))
    depth = 0
    while type(e) is Binary:
        e, depth = e.left, depth + 1
    assert depth == 4999 and e == Variable()


_NODE_TYPES = (Constant, Unary, Binary)


def _live_nodes() -> int:
    return sum(type(o) in _NODE_TYPES for o in gc.get_objects())


def _sweep_profiles():
    from test_profile_pins import SWEEP
    return [Profile.from_text(g_text) for g_text, _, _ in SWEEP]


@pytest.mark.parametrize("read", [lambda p: p.d2, lambda p: p.value(1.0)], ids=["d2", "value"])
def test_grid_makes_no_node_objects_and_a_first_read_makes_them(read):
    us = [0.5 + 1.5 * k / 7 for k in range(8)]
    gc.collect()
    gc.disable()
    try:
        before = _live_nodes()
        profiles = _sweep_profiles()
        assert all(p.grid(us) is not None for p in profiles)
        assert _live_nodes() == before
        for p in profiles:
            read(p)
        # one object per entry, the variable's entry aside
        assert _live_nodes() - before == sum(op != "u" for p in profiles
                                             for op, *_ in p._dag[0])
    finally:
        gc.enable()
