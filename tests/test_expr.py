"""Expression language: parsing, evaluation, differentiation, chain
programs; and a printer whose output re-parses to the same values."""

import math
import struct
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erfapprox.errors import (
    DivisionByZero,
    ExprSyntaxError,
    NonDifferentiable,
    PreconditionViolated,
    UnknownFunction,
)
from erfapprox import corpus, expr
from erfapprox.expr import (
    Bin,
    Fun,
    Neg,
    Node,
    Num,
    Pow,
    Var,
    compile,
    derivatives,
    evaluate,
    parse,
)
from erfapprox.special_functions import TWO_OVER_SQRT_PI, erf


class TestParsing:
    def test_shapes(self):
        assert parse("x") == Var()
        assert parse("2 + x") == Bin("+", Num(2.0), Var())
        assert parse("sin(x)") == Fun("sin", Var())
        assert parse("x^2") == Pow(Var(), 2.0)
        assert parse("x^-2") == Pow(Var(), -2.0)
        assert parse("2*x") == Bin("*", Num(2.0), Var())

    def test_precedence(self):
        # 2 + 3*x^2 groups as 2 + (3*(x^2))
        assert parse("2 + 3*x^2") == Bin("+", Num(2.0), Bin("*", Num(3.0), Pow(Var(), 2.0)))

    def test_left_associativity(self):
        assert evaluate(parse("8 - 3 - 2"), 0.0) == 3.0
        assert evaluate(parse("8 / 4 / 2"), 0.0) == 1.0

    def test_constants(self):
        assert evaluate(parse("pi"), 0.0) == math.pi
        assert evaluate(parse("e"), 0.0) == math.e

    def test_syntax_error_offsets(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("x + $")
        assert exc.value.offset == 4
        with pytest.raises(ExprSyntaxError) as exc:
            parse("x^x")
        assert exc.value.offset == 2
        with pytest.raises(ExprSyntaxError):
            parse("sin(x")
        with pytest.raises(ExprSyntaxError):
            parse("x 2")

    def test_unknown_function(self):
        with pytest.raises(UnknownFunction):
            parse("tan(x)")

    @pytest.mark.parametrize("nested", [
        lambda k: "(" * k + "x" + ")" * k,
        lambda k: "-" * k + "x",
        lambda k: "exp(" * k + "x" + ")" * k,
        lambda k: " + ".join(["x"] * (k + 1)),
        lambda k: "x^2" + " * x" * (k - 1),
        lambda k: "(" * (k // 2) + " / ".join(["x"] * (k - k // 2 + 1)) + ")" * (k // 2),
    ], ids=["groups", "minus", "calls", "chain", "chain-power", "groups-chain"])
    def test_nesting_is_at_most_max_depth(self, nested):
        parse(nested(expr.MAX_DEPTH))
        with pytest.raises(ExprSyntaxError, match=f"nested deeper than {expr.MAX_DEPTH}"):
            parse(nested(expr.MAX_DEPTH + 1))

    @pytest.mark.parametrize("text", ["(" * 1200 + "x" + ")" * 1200,
                                      " + ".join(["x"] * 1500)], ids=["groups", "chain"])
    def test_a_deep_expression_is_a_syntax_error_not_a_recursion_error(self, text):
        # 1,200 groups overflowed the parser; the 1,500-term sum parsed, then
        # overflowed the differentiator and the printer
        with pytest.raises(ExprSyntaxError):
            parse(text)


class TestEvaluation:
    @pytest.mark.parametrize("text,fn", [
        ("sin(x)", np.sin),
        ("cos(2*x)", lambda t: np.cos(2 * t)),
        ("exp(-x^2)", lambda t: np.exp(-t ** 2)),
        ("abs(x) + 1", lambda t: np.abs(t) + 1),
        ("x^3 - 2*x", lambda t: t ** 3 - 2 * t),
    ])
    def test_identities(self, text, fn):
        node = parse(text)
        xs = np.linspace(-2.0, 2.0, 37)
        assert np.max(np.abs(evaluate(node, xs) - fn(xs))) <= 1e-14

    def test_erf_delegates_inhouse(self):
        assert evaluate(parse("erf(x)"), 1.0) == erf(1.0)

    def test_scalar_vs_array(self):
        node = parse("sin(x) * x")
        assert isinstance(evaluate(node, 0.5), float)
        assert evaluate(node, np.array([0.5]))[0] == evaluate(node, 0.5)

    def test_constant_broadcasts(self):
        node = parse("3")
        out = evaluate(node, np.zeros(5))
        assert out.shape == (5,)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            evaluate(parse("1 / x"), 0.0)

    def test_evaluate_computes_each_distinct_node_once(self, monkeypatch):
        calls = []
        real, deriv = expr._FUNCTIONS["sin"]
        monkeypatch.setitem(expr._FUNCTIONS, "sin", (lambda u: calls.append(1) or real(u), deriv))
        node = Fun("sin", Var())
        for _ in range(12):          # 4096 paths to sin, 14 distinct nodes
            node = Bin("+", node, node)
        assert evaluate(node, 0.5) == 4096.0 * math.sin(0.5)
        assert len(calls) == 1

    def test_evaluate_drops_a_shared_value_after_its_last_use(self, monkeypatch):
        # holding every intermediate array to the end of the call doubled
        # the evaluation time of the expression benchmark
        values = []
        real_sin, d_sin = expr._FUNCTIONS["sin"]
        real_cos, d_cos = expr._FUNCTIONS["cos"]

        def sin(u):
            out = real_sin(u)
            values.append(weakref.ref(out))
            return out

        def cos(u):
            assert values[0]() is None      # the two uses of sin(x) are done
            return real_cos(u)

        monkeypatch.setitem(expr._FUNCTIONS, "sin", (sin, d_sin))
        monkeypatch.setitem(expr._FUNCTIONS, "cos", (cos, d_cos))
        shared = Fun("sin", Var())
        xs = np.linspace(0.0, 1.0, 9)
        got = evaluate(Bin("+", Bin("*", shared, shared), Fun("cos", Var())), xs)
        assert np.array_equal(got, np.sin(xs) * np.sin(xs) + np.cos(xs))


def tree_walk(node, x):
    """The naive evaluator: every path through the tree walked afresh."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -tree_walk(node.arg, x)
    if isinstance(node, Pow):
        return np.power(tree_walk(node.base, x), node.exponent)
    if isinstance(node, Fun):
        return {"sin": np.sin, "cos": np.cos, "exp": np.exp, "erf": erf,
                "abs": np.abs}[node.name](tree_walk(node.arg, x))
    left, right = tree_walk(node.left, x), tree_walk(node.right, x)
    if node.op == "/" and np.any(np.asarray(right) == 0.0):
        raise DivisionByZero("division by zero during evaluation")
    return {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}[node.op](left, right)


def walk_or_error(evaluator, node, x):
    try:
        with np.errstate(all="ignore"):
            return np.asarray(evaluator(node, x), dtype=float) + np.zeros_like(x)
    except DivisionByZero:
        return DivisionByZero


LEAVES = st.one_of(st.just(Var()), st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.7, math.inf, -math.inf]).map(Num))


def trees(leaves):
    return st.recursive(leaves, lambda kids: st.one_of(
        kids.map(Neg),
        st.builds(Bin, st.sampled_from("+-*/"), kids, kids),
        st.builds(Pow, kids, st.sampled_from([2.0, 3.0, 0.5, 0.0, -1.0, -2.0])),
        st.builds(Fun, st.sampled_from(["sin", "cos", "exp", "erf", "abs"]), kids),
    ), max_leaves=10)


EXPRESSIONS = trees(LEAVES)
#: trees that serialize (below) can print: every constant finite
FINITE_EXPRESSIONS = trees(st.one_of(st.just(Var()), st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 0.5, -3.7, 1e300, -1e300, 5e-324, -5e-324]).map(Num)))
POINTS = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 0.5, -1.3, 2.0, 1e-300, 700.0])


def chain_of(node, order):
    """node's derivative chain to order, or node alone when it has none."""
    try:
        return derivatives(node, order)
    except NonDifferentiable:
        return [node]


class TestCompiledPrograms:
    @given(EXPRESSIONS, st.sampled_from([*POINTS, POINTS]))
    @settings(max_examples=300, deadline=None)
    def test_match_a_tree_walk(self, node, x):
        for tree in chain_of(node, 3):
            want = walk_or_error(tree_walk, tree, x)
            got = walk_or_error(lambda t, v: evaluate(compile(t), v), tree, x)
            if want is DivisionByZero or got is DivisionByZero:
                assert got is want
            else:
                assert np.array_equal(got, want, equal_nan=True)

    def test_zero_and_negative_zero_constants_stay_two_steps(self):
        # 1/0.0 - 1/(-0.0) = inf - (-inf); one merged step would give inf - inf
        node = Bin("-", Pow(Num(0.0), -1.0), Pow(Num(-0.0), -1.0))
        assert len(compile(node).steps) == 5
        with np.errstate(divide="ignore"):
            assert evaluate(node, 1.0) == math.inf

    def test_structurally_equal_nodes_become_one_step(self):
        second = derivatives(parse("exp(-0.7*x^2)*cos(1.3*x)"), 2)[2]
        funs = [step[2] for step in compile(second).steps if step[0] is Fun]
        assert len(compile(second).steps) == 32
        assert sorted(funs) == ["cos", "exp", "sin"]
        assert compile(Bin("+", Fun("sin", Var()), Fun("sin", Var()))).steps[-1][1] == (1, 1)

    def test_binary_ops_stay_apart(self):
        # the op is a Bin step's constant, so x + 1 and x - 1 are two steps
        x, one = Var(), Num(1.0)
        program = compile(Bin("-", Bin("+", x, one), Bin("-", x, one)))
        assert len(program.steps) == 5
        assert evaluate(program, 0.5) == 2.0
        assert compile(Bin("+", x, x)).steps[-1] != compile(Bin("*", x, x)).steps[-1]

    def test_arithmetic_writes_into_arrays_the_program_made(self, monkeypatch):
        xs = np.linspace(0.0, 1.0, 100_000)
        program = compile(parse("((x + 1) * 2 - 3) / 4 + x * x"))
        tracemalloc.start()
        got = evaluate(program, xs)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert np.array_equal(got, ((xs + 1) * 2 - 3) / 4 + xs * xs)
        assert peak < 2.5 * xs.nbytes       # three arrays without the spares
        # neither x nor an array a function returned is written
        kept = np.cos(xs)
        monkeypatch.setitem(expr._FUNCTIONS, "cos", (lambda u: kept, None))
        assert np.array_equal(evaluate(parse("-cos(x) * 2 + 1"), xs), -np.cos(xs) * 2 + 1)
        assert np.array_equal(kept, np.cos(xs))
        assert np.array_equal(xs, np.linspace(0.0, 1.0, 100_000))
        assert evaluate(parse("x"), xs) is not xs

    def test_a_program_frees_each_value_after_its_last_use(self):
        program = compile(parse("sin(x) * sin(x) + cos(x)"))
        freed = [slot for _, frees, _ in program.levels[0] for slot in frees]
        assert sorted(freed) == list(range(len(program.steps) - 1))
        # each level of a chain frees every slot it reads but its root, once
        program = compile(*derivatives(parse("sin(x) * sin(x) + cos(x)"), 3))
        for level in program.levels:
            freed = [slot for _, frees, _ in level for slot in frees]
            assert sorted(freed) == sorted(i for i, _, _ in level[:-1])


def standalone(program, level):
    """program's level as a program of its own: its steps in its order,
    each slot renumbered to its step's position, a float constant by its
    bits."""
    at = {i: p for p, (i, _, _) in enumerate(program.levels[level])}
    out = []
    for i, frees, spare in program.levels[level]:
        kind, args, const = program.steps[i]
        out.append((kind, tuple(at[a] for a in args),
                    struct.pack("<d", const) if isinstance(const, float) else const,
                    tuple(at[a] for a in frees), None if spare is None else at[spare]))
    return out


class TestChainPrograms:
    """One Program per derivative chain: level k of ``compile(*chain)`` is
    ``compile(chain[k])``, renumbered into the shared table."""

    @given(EXPRESSIONS)
    @settings(max_examples=200, deadline=None)
    def test_each_level_is_the_program_of_its_root_alone(self, node):
        chain = chain_of(node, 6)
        program = compile(*chain)
        assert len(program.levels) == len(chain)
        for k, root in enumerate(chain):
            alone = compile(root)
            # one root's level runs its whole table in table order
            assert [i for i, _, _ in alone.levels[0]] == list(range(len(alone.steps)))
            assert standalone(program, k) == standalone(alone, 0)

    @given(EXPRESSIONS)
    @settings(max_examples=200, deadline=None)
    def test_each_level_evaluates_bit_equal_to_its_own_program(self, node):
        chain = chain_of(node, 6)
        program = compile(*chain)
        for k, root in enumerate(chain):
            alone = compile(root)
            for x in (POINTS, *POINTS):
                got = walk_or_error(lambda _, v: evaluate(program, v, k), root, x)
                want = walk_or_error(lambda _, v: evaluate(alone, v), root, x)
                if want is DivisionByZero or got is DivisionByZero:
                    assert got is want
                else:
                    assert np.array_equal(got, want, equal_nan=True)

    @given(EXPRESSIONS, st.data())
    @settings(max_examples=200, deadline=None)
    def test_levels_evaluated_together_equal_each_level_alone(self, node, data):
        # one pass over any subset of a chain's levels, in any order, gives
        # each level's value bit for bit (NaN where it is NaN), and raises
        # exactly where one of those levels alone raises
        chain = chain_of(node, 6)
        program = compile(*chain)
        order = data.draw(st.permutations(range(len(chain))))
        levels = tuple(order[:data.draw(st.integers(1, len(chain)))])

        def value_or_error(level, x):
            try:
                with np.errstate(all="ignore"):
                    return evaluate(program, x, level)
            except DivisionByZero:
                return DivisionByZero

        for x in (POINTS, *POINTS[:3]):
            together = value_or_error(levels, x)
            alone = [value_or_error(k, x) for k in levels]
            assert (together is DivisionByZero) == any(a is DivisionByZero for a in alone)
            if together is DivisionByZero:
                continue
            assert len(together) == len(levels)
            for got, want in zip(together, alone):
                got, want = np.asarray(got), np.asarray(want)
                nan = np.isnan(want)
                assert np.array_equal(np.isnan(got), nan)
                assert got[~nan].tobytes() == want[~nan].tobytes()

    def test_levels_evaluated_together_share_their_steps(self):
        # exp(-0.8*x^2)*cos(1.9*x)'s first and second derivatives, of 20
        # and 32 steps, share 17, among them its exp, cos and sin: one pass
        # runs the 35 of their union, each once, and keeps both roots
        program = compile(*derivatives(parse("exp(-0.8*x^2)*cos(1.9*x)"), 2))
        joint = program.plan((1, 2))
        assert (len(program.levels[1]), len(program.levels[2]), len(joint)) == (20, 32, 35)
        assert len({i for i, _, _ in joint}) == len(joint)
        funs = [program.steps[i][2] for i, _, _ in joint if program.steps[i][0] is Fun]
        assert sorted(funs) == ["cos", "exp", "sin"]
        freed = [a for _, frees, _ in joint for a in frees]
        roots = {program.levels[k][-1][0] for k in (1, 2)}
        assert len(freed) == len(set(freed)) and not roots & set(freed)
        assert program.plan((1,)) is program.levels[1]
        xs = np.linspace(-1.0, 1.0, 33)
        first, second = evaluate(program, xs, (1, 2))
        assert first.tobytes() == evaluate(program, xs, 1).tobytes()
        assert second.tobytes() == evaluate(program, xs, 2).tobytes()

    def test_the_deepest_product_to_order_22_is_one_small_table(self):
        # compiled level by level, the 23 programs held 111,759 steps
        chain = derivatives(parse(" * ".join(["x"] * 65)), 22)
        program = compile(*chain)
        assert len(program.steps) <= 14_000
        assert sum(len(level) for level in program.levels) == 111_759
        assert max(len(level) for level in program.levels) == 11_888
        want = math.perm(65, 22)
        assert abs(evaluate(program, 1.0, 22) - want) <= 1e-12 * want

    def test_an_expression_function_compiles_its_chain_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(corpus, "compile", lambda *roots: calls.append(roots) or
                            compile(*roots))
        f = corpus.function_from_expression("g", "sin(3*x)*exp(-x^2)", orders=4)
        chain = derivatives(parse("sin(3*x)*exp(-x^2)"), 4)
        assert [len(roots) for roots in calls] == [5]
        xs = np.linspace(-2.0, 2.0, 101)
        for k, root in enumerate(chain):
            level = f.derivative(k) if k else f
            assert np.array_equal(level.eval(xs), evaluate(compile(root), xs))


class TestDifferentiation:
    CASES = [
        "sin(x)", "cos(3*x)", "exp(-x^2)", "x^5 - x^2 + 7", "erf(x)",
        "sin(x) * exp(x)", "x / (x^2 + 1)", "2^2 + x^-1",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_matches_central_difference(self, text):
        node = parse(text)
        d = derivatives(node, 1)[-1]
        rng = np.random.default_rng(11)
        h = 1e-6
        for x in rng.uniform(0.2, 2.0, 50):
            x = float(x)
            fd = (evaluate(node, x + h) - evaluate(node, x - h)) / (2.0 * h)
            got = evaluate(d, x)
            assert abs(got - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_erf_derivative_closed_form(self):
        d = derivatives(parse("erf(x)"), 1)[-1]
        for x in (-1.5, 0.0, 0.8):
            want = TWO_OVER_SQRT_PI * math.exp(-x * x)
            assert abs(evaluate(d, x) - want) <= 1e-14

    def test_higher_order(self):
        d2 = derivatives(parse("sin(x)"), 2)[-1]
        assert abs(evaluate(d2, 0.7) + math.sin(0.7)) <= 1e-14

    def test_abs_refused(self):
        with pytest.raises(NonDifferentiable):
            derivatives(parse("abs(x)"), 1)
        # u^0 is constant, so its rule reads no derivative of abs
        assert derivatives(parse("abs(x)^0"), 2)[1:] == [Num(0.0), Num(0.0)]

    def test_the_deepest_product_differentiates_to_order_24(self):
        # x^65 as MAX_DEPTH + 1 factors: the recursive differentiator ran out
        # of stack at order 24
        chain = derivatives(parse(" * ".join(["x"] * (expr.MAX_DEPTH + 1))), 24)
        want = math.perm(expr.MAX_DEPTH + 1, 24)
        assert abs(evaluate(chain[-1], 1.0) - want) <= 1e-12 * want

    def test_order_zero_is_identity(self):
        node = parse("x^2")
        assert derivatives(node, 0)[-1] == node

    def test_a_derivative_chain_shares_its_subtrees(self):
        # without sharing the order-8 tree held 40,970 nodes
        chain = derivatives(parse("exp(-x^2)*sin(3*x)"), 8)
        assert node_objects(chain[-1]) <= 1000
        assert chain[3] == derivatives(parse("exp(-x^2)*sin(3*x)"), 3)[-1]

    def test_every_level_is_one_object_per_program_step(self):
        # each level is interned before it is differentiated again; without
        # that the order-6 level held 275 objects for its 85 steps
        chain = derivatives(parse("exp(-x^2)*sin(3*x)"), 6)
        assert [node_objects(level) for level in chain] == [
            len(compile(level).steps) for level in chain]

    @staticmethod
    def chain_interned_level_by_level(node, order):
        """derivatives as it was before the chain shared one slot: each level
        interned with a fresh one, so it walks the whole level."""
        nodes, index, memo = [], {}, {}
        chain = [expr._intern(node, nodes, index, {})]
        for _ in range(order):
            chain.append(expr._intern(expr._d(chain[-1], memo), nodes, index, {}))
        return chain

    @pytest.mark.parametrize("text, order", [
        ("exp(-x^2)*sin(3*x)", 6), ("x / (x^2 + 1) - -0.0*x", 5), ("erf(2*x)*cos(x)^3", 5),
        ("sin(sin(sin(x)))", 6), (" * ".join(["x"] * 65), 8),
    ])
    def test_one_slot_gives_the_programs_of_a_slot_per_level(self, text, order):
        got = [compile(level) for level in derivatives(parse(text), order)]
        want = [compile(level) for level in self.chain_interned_level_by_level(parse(text),
                                                                               order)]
        assert got == want

    def test_interning_a_level_walks_only_its_new_nodes(self, monkeypatch):
        # x^65 to order 22: a slot per level walked each whole level, 11,888
        # nodes at order 22 and 111,823 over the chain; one slot walks each
        # node once, and a level's walk grows at most linearly with its order
        visits = []
        post_order, intern = expr._post_order, expr._intern

        def counting(root, done, operands=expr._operands):
            for node in post_order(root, done, operands):
                visits[-1] += operands is expr._operands
                yield node

        def interning(*args):
            visits.append(0)
            return intern(*args)

        monkeypatch.setattr(expr, "_post_order", counting)
        monkeypatch.setattr(expr, "_intern", interning)
        chain = derivatives(parse(" * ".join(["x"] * 65)), 22)
        assert len(visits) == 23 and visits[0] == 129
        assert all(visits[k] <= k * visits[1] for k in range(1, 23)), visits
        assert sum(visits) < 15_000
        monkeypatch.undo()
        want = math.perm(65, 22)
        assert abs(evaluate(chain[-1], 1.0) - want) <= 1e-12 * want


def node_objects(root) -> int:
    """Distinct node objects under root, counted by identity, since == on a
    shared tree walks every path."""
    seen = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(v for v in vars(node).values() if not isinstance(v, (str, float)))
    return len(seen)


def serialize(node: Node) -> str:
    """Render an AST as a string that re-parses to a tree of equal value:
    a negative constant comes back as the negation of its magnitude.  It
    walks the tree, not the DAG, so its cost grows with the number of
    root-to-leaf paths."""
    return _ser(node, 0)


# precedence levels: add 1, mul 2, unary 3, power 4
def _ser(node: Node, parent: int) -> str:
    if isinstance(node, Num):
        v = repr(node.value)
        return f"({v})" if v.startswith("-") else v
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Neg):
        s = f"-{_ser(node.arg, 3)}"
        return f"({s})" if parent > 2 else s
    if isinstance(node, Bin):
        level = 1 if node.op in "+-" else 2
        s = f"{_ser(node.left, level)} {node.op} {_ser(node.right, level + 1)}"
        return f"({s})" if parent > level else s
    if isinstance(node, Pow):
        expo = node.exponent
        etext = repr(expo) if expo >= 0 else f"-{-expo!r}"
        s = f"{_ser(node.base, 5)}^{etext}"
        return f"({s})" if parent > 4 else s
    if isinstance(node, Fun):
        return f"{node.name}({_ser(node.arg, 0)})"
    raise TypeError(f"unknown node {node!r}")


class TestSerialization:
    ROUND_TRIP = [
        "x", "sin(x)", "x^2", "x^-2", "-x", "2 + x", "x - 1", "2*x/3",
        "sin(x) * exp(-x^2) + cos(x)/2", "(x + 1) * (x - 1)", "erf(2*x)", "(x^2)^3",
    ]

    @pytest.mark.parametrize("text", ROUND_TRIP)
    def test_round_trip(self, text):
        node = parse(text)
        assert parse(serialize(node)) == node

    @given(st.floats(-5.0, 5.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_preserves_value(self, x):
        node = parse("sin(x)*x - exp(-x^2)/(x^2 + 1)")
        again = parse(serialize(node))
        assert evaluate(again, x) == evaluate(node, x)

    def test_derivative_round_trips(self):
        d = derivatives(parse("x / (x^2 + 1)"), 1)[-1]
        assert parse(serialize(d)) == d

    @given(FINITE_EXPRESSIONS)
    @settings(max_examples=300, deadline=None)
    def test_serialized_trees_evaluate_bit_equal(self, node):
        # a negative constant re-parses as Neg of its magnitude, so the
        # trees may differ; their values may not
        got = walk_or_error(evaluate, parse(serialize(node)), POINTS)
        want = walk_or_error(evaluate, node, POINTS)
        if want is DivisionByZero or got is DivisionByZero:
            assert got is want
        else:
            assert np.array_equal(got, want, equal_nan=True)


class TestInputChecks:
    @pytest.mark.parametrize("text, match", [
        ("2*y", "unknown name 'y'"),
        ("x +", "unexpected end of input"),
        ("x + )", "unexpected token"),
    ])
    def test_a_malformed_expression_is_a_syntax_error(self, text, match):
        with pytest.raises(ExprSyntaxError, match=match):
            parse(text)

    def test_a_negative_derivative_order_is_a_precondition(self):
        # a bare ValueError would escape `except ErfApproxError`
        with pytest.raises(PreconditionViolated, match="order must be >= 0, got -1"):
            derivatives(parse("x"), -1)
