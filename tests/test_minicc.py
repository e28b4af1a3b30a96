"""MiniC compiler tests: lexer, parser, codegen, and compile-and-run."""

import pytest

from repro.errors import CompileError
from repro.memory.machine import Machine
from repro.minicc import compile_source, compile_to_asm
from repro.minicc.lexer import tokenize
from repro.minicc.parser import parse
from repro.minicc import c_ast as ast
from repro.pipelines.inorder import InOrderCore


def run_main(source):
    """Compile, run on the simple core, return (machine, console values)."""
    program = compile_source(source)
    machine = Machine(program)
    core = InOrderCore(machine)
    result = core.run()
    assert result.reason == "halt"
    return machine, [v for _, v in machine.mmio.console]


def outputs(source):
    return run_main(source)[1]


class TestLexer:
    def test_token_kinds(self):
        tokens = tokenize("int x = 42; float y = 1.5; // comment\n")
        kinds = [(t.kind, t.value) for t in tokens[:4]]
        assert kinds == [
            ("keyword", "int"), ("ident", "x"), ("op", "="), ("int_lit", 42),
        ]

    def test_hex_and_float_literals(self):
        tokens = tokenize("0x1F 2.5 1e3 3.0e-2")
        values = [t.value for t in tokens[:-1]]
        assert values == [31, 2.5, 1000.0, 0.03]

    def test_block_comments(self):
        tokens = tokenize("a /* stuff \n more */ b")
        assert [t.value for t in tokens[:-1]] == ["a", "b"]
        assert tokens[1].line == 2

    def test_two_char_operators(self):
        tokens = tokenize("<= >= == != && || << >>")
        assert [t.value for t in tokens[:-1]] == [
            "<=", ">=", "==", "!=", "&&", "||", "<<", ">>",
        ]

    def test_unterminated_comment(self):
        with pytest.raises(CompileError):
            tokenize("/* never ends")

    def test_bad_character(self):
        with pytest.raises(CompileError):
            tokenize("int @x;")

    def test_non_decimal_digit_is_a_compile_error(self):
        for source in ("x = \u00b2;", "x = 3\u00b2;", "x = 1.5\u00b2;"):
            with pytest.raises(CompileError, match="unexpected character"):
                tokenize(source)


class TestParser:
    def test_precedence(self):
        module = parse("void main() { int x; x = 1 + 2 * 3; }")
        assign = module.functions[0].body.stmts[1].expr
        # constant folding collapses it
        assert isinstance(assign.value, ast.IntLit)
        assert assign.value.value == 7

    def test_for_bound_inference(self):
        module = parse(
            "void main() { int i; for (i = 2; i < 10; i = i + 2) { } }"
        )
        loop = module.functions[0].body.stmts[1]
        assert loop.bound == 4

    def test_downward_for_bound(self):
        module = parse(
            "void main() { int i; for (i = 9; i >= 0; i = i - 1) { } }"
        )
        assert module.functions[0].body.stmts[1].bound == 10

    def test_explicit_loopbound(self):
        module = parse(
            "void main() { int i; i = 0;"
            " while (i < 5) __loopbound(5) { i = i + 1; } }"
        )
        assert module.functions[0].body.stmts[2].bound == 5

    def test_while_requires_bound(self):
        with pytest.raises(CompileError):
            parse("void main() { int i; while (i < 5) { i = i + 1; } }")

    def test_unboundable_for_requires_annotation(self):
        with pytest.raises(CompileError):
            parse("void main() { int i; int n; for (i = 0; i < n; i = i + 1) {} }")

    def test_global_arrays(self):
        module = parse("int a[4]; float b[2][3] ; void main() {}")
        assert module.globals[0].dims == (4,)
        assert module.globals[1].dims == (2, 3)

    def test_initializer_lists(self):
        module = parse("int t[4] = {1, 2, 3}; void main() {}")
        assert module.globals[0].init == [1, 2, 3]

    def test_syntax_error_has_line(self):
        with pytest.raises(CompileError) as excinfo:
            parse("void main() {\n  int x\n}")
        assert "line" in str(excinfo.value)


class TestCodegenErrors:
    def test_missing_main(self):
        with pytest.raises(CompileError):
            compile_to_asm("int f() { return 1; }")

    def test_main_must_be_void(self):
        with pytest.raises(CompileError):
            compile_to_asm("int main() { return 0; }")

    def test_undefined_variable(self):
        with pytest.raises(CompileError):
            compile_to_asm("void main() { x = 1; }")

    def test_undefined_function(self):
        with pytest.raises(CompileError):
            compile_to_asm("void main() { f(); }")

    def test_wrong_arity(self):
        with pytest.raises(CompileError):
            compile_to_asm("int f(int a) { return a; } void main() { f(); }")

    def test_array_needs_indices(self):
        with pytest.raises(CompileError):
            compile_to_asm("int a[3]; void main() { int x; x = a; }")

    def test_break_outside_loop(self):
        with pytest.raises(CompileError):
            compile_to_asm("void main() { break; }")

    def test_subtask_outside_main(self):
        with pytest.raises(CompileError):
            compile_to_asm(
                "int f() { __subtask(0); return 1; } void main() { f(); }"
            )


class TestExecution:
    def test_arithmetic(self):
        assert outputs("void main() { __out(2 + 3 * 4 - 1); }") == [13]

    def test_division_semantics(self):
        src = "void main() { int a; a = -7; __out(a / 2); __out(a % 2); }"
        assert outputs(src) == [-3, -1]

    def test_shifts_and_bitwise(self):
        src = (
            "void main() { __out(1 << 4); __out(256 >> 2); "
            "__out(12 & 10); __out(12 | 10); __out(12 ^ 10); __out(~0); }"
        )
        assert outputs(src) == [16, 64, 8, 14, 6, -1]

    def test_comparisons(self):
        src = (
            "void main() { __out(1 < 2); __out(2 <= 1); __out(3 > 2); "
            "__out(2 >= 3); __out(2 == 2); __out(2 != 2); }"
        )
        assert outputs(src) == [1, 0, 1, 0, 1, 0]

    def test_short_circuit_evaluation(self):
        src = """
        int calls;
        int bump() { calls = calls + 1; return 1; }
        void main() {
          calls = 0;
          if (0 && bump()) { }
          __out(calls);
          if (1 || bump()) { }
          __out(calls);
          if (1 && bump()) { }
          __out(calls);
        }
        """
        assert outputs(src) == [0, 0, 1]

    def test_if_else_chain(self):
        src = """
        int classify(int x) {
          if (x < 0) { return -1; }
          else { if (x == 0) { return 0; } else { return 1; } }
        }
        void main() {
          __out(classify(-5)); __out(classify(0)); __out(classify(9));
        }
        """
        assert outputs(src) == [-1, 0, 1]

    def test_while_break_continue(self):
        src = """
        void main() {
          int i; int total;
          total = 0;
          i = 0;
          while (i < 100) __loopbound(100) {
            i = i + 1;
            if (i % 2 == 0) { continue; }
            if (i > 9) { break; }
            total = total + i;
          }
          __out(total);
        }
        """
        assert outputs(src) == [1 + 3 + 5 + 7 + 9]

    def test_nested_loops_2d_array(self):
        src = """
        int grid[3][5];
        void main() {
          int i; int j; int total;
          for (i = 0; i < 3; i = i + 1) {
            for (j = 0; j < 5; j = j + 1) {
              grid[i][j] = i * 10 + j;
            }
          }
          total = 0;
          for (i = 0; i < 3; i = i + 1) {
            for (j = 0; j < 5; j = j + 1) {
              total = total + grid[i][j];
            }
          }
          __out(total);
          __out(grid[2][4]);
        }
        """
        expected = sum(i * 10 + j for i in range(3) for j in range(5))
        assert outputs(src) == [expected, 24]

    def test_float_arithmetic_and_casts(self):
        src = """
        float acc;
        void main() {
          float x; int n;
          x = 2.5;
          x = x * 4.0 + 1.0;
          acc = x;
          n = (int)x;
          __out(n);
          __out((int)((float)7 / 2.0 * 10.0));
        }
        """
        machine, values = run_main(src)
        assert values == [11, 35]
        assert machine.memory.read(
            compile_source(src).address_of("acc")
        ) == 11.0

    def test_float_comparisons(self):
        src = (
            "void main() { float a; a = 1.5;"
            " __out(a > 1.0); __out(a <= 1.5); __out(a != 1.5); }"
        )
        assert outputs(src) == [1, 1, 0]

    def test_recursion_free_calls(self):
        src = """
        int square(int x) { return x * x; }
        int sumsq(int a, int b) { return square(a) + square(b); }
        void main() { __out(sumsq(3, 4)); }
        """
        assert outputs(src) == [25]

    def test_float_params_and_return(self):
        src = """
        float mix(float a, float b, int w) {
          if (w > 0) { return a; }
          return b;
        }
        void main() {
          __out((int)(mix(10.5, 2.0, 1) * 2.0));
          __out((int)(mix(10.5, 2.0, 0) * 2.0));
        }
        """
        assert outputs(src) == [21, 4]

    def test_many_locals_spill_to_stack(self):
        decls = "\n".join(f"int v{i};" for i in range(12))
        sets = "\n".join(f"v{i} = {i};" for i in range(12))
        total = " + ".join(f"v{i}" for i in range(12))
        src = f"void main() {{ {decls} {sets} __out({total}); }}"
        assert outputs(src) == [sum(range(12))]

    def test_call_preserves_live_temporaries(self):
        src = """
        int five() { return 5; }
        void main() { __out(100 + five() * 2); }
        """
        assert outputs(src) == [110]

    def test_global_scalar_init(self):
        src = "int g = -9; float h = 0.5; void main() { __out(g); }"
        assert outputs(src) == [-9]

    def test_array_initializer_padding(self):
        src = """
        int t[6] = {5, 4};
        void main() { __out(t[0] + t[1] + t[2] + t[5]); }
        """
        assert outputs(src) == [9]


class TestSubtaskLowering:
    def test_subtask_markers_in_program(self):
        src = """
        int data[8];
        void main() {
          int i;
          __subtask(0);
          for (i = 0; i < 4; i = i + 1) { data[i] = i; }
          __subtask(1);
          for (i = 4; i < 8; i = i + 1) { data[i] = 2 * i; }
          __taskend();
        }
        """
        program = compile_source(src)
        assert program.num_subtasks == 2
        machine, _ = run_main(src)
        base = program.address_of("data")
        assert machine.memory.read(base + 7 * 4) == 14
