// Tests for NadaScript: lexer, parser, language semantics, builtins, and
// the Pensieve reference state program. Programs run on the production
// engine (StateProgram -> bytecode VM); tests/dsl_vm_test.cpp pins that
// engine to the reference tree-walk.
#include <gtest/gtest.h>

#include <cmath>

#include "dsl/builtins.h"
#include "dsl/lexer.h"
#include "dsl/parser.h"
#include "dsl/state_program.h"
#include "env/abr_domain.h"
#include "util/rng.h"

namespace nada::dsl {
namespace {

/// A frame over an empty vocabulary: a program with no inputs.
const Bindings& no_inputs() {
  static const Vocabulary kEmpty({});
  static const Bindings kFrame(kEmpty);
  return kFrame;
}

/// A frame binding one vector input, `v`.
Bindings frame_with_v(std::vector<double> v) {
  static const Vocabulary kVocabulary({{"v", true}});
  Bindings frame(kVocabulary);
  frame[0] = Value(std::move(v));
  return frame;
}

Value eval_source_expr(const std::string& expr_text,
                       const Bindings& inputs = no_inputs()) {
  // Wrap the expression into a one-emit program, run it, and hand back
  // the emitted row as a value.
  const StateMatrix m =
      StateProgram::compile("emit \"x\" = " + expr_text + ";").run(inputs);
  const StateRow& row = m.rows.at(0);
  if (row.is_vector) return Value(row.values);
  return Value(row.values.at(0));
}

// The RuntimeError message `expr_text` fails with, or "" if it runs.
std::string error_of(const std::string& expr_text,
                     const Bindings& inputs = no_inputs()) {
  try {
    (void)eval_source_expr(expr_text, inputs);
  } catch (const RuntimeError& e) {
    return e.what();
  }
  return "";
}

double eval_scalar(const std::string& expr_text,
                   const Bindings& inputs = no_inputs()) {
  return eval_source_expr(expr_text, inputs).as_scalar();
}

std::vector<double> eval_vector(const std::string& expr_text,
                                const Bindings& inputs = no_inputs()) {
  return eval_source_expr(expr_text, inputs).as_vector();
}

// ---- lexer ------------------------------------------------------------------

TEST(Lexer, TokenizesStatement) {
  const auto tokens = tokenize("let x = 1.5; # comment\nemit \"row\" = x;");
  ASSERT_GE(tokens.size(), 10u);
  EXPECT_EQ(tokens[0].type, TokenType::kLet);
  EXPECT_EQ(tokens[1].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[1].text, "x");
  EXPECT_EQ(tokens[2].type, TokenType::kAssign);
  EXPECT_EQ(tokens[3].type, TokenType::kNumber);
  EXPECT_DOUBLE_EQ(tokens[3].number, 1.5);
  EXPECT_EQ(tokens.back().type, TokenType::kEof);
}

TEST(Lexer, ScientificNotation) {
  const auto tokens = tokenize("emit \"x\" = 1.5e6;");
  EXPECT_DOUBLE_EQ(tokens[3].number, 1.5e6);
  const auto tokens2 = tokenize("emit \"x\" = 2e-3;");
  EXPECT_DOUBLE_EQ(tokens2[3].number, 2e-3);
}

TEST(Lexer, CommentsIgnoredToEndOfLine) {
  const auto tokens = tokenize("# whole line\nlet a = 1; # trailing\n");
  EXPECT_EQ(tokens[0].type, TokenType::kLet);
}

TEST(Lexer, TracksLineNumbers) {
  const auto tokens = tokenize("let a = 1;\nlet b = 2;");
  EXPECT_EQ(tokens[0].line, 1u);
  EXPECT_EQ(tokens[5].line, 2u);
}

TEST(Lexer, TwoCharOperators) {
  const auto tokens = tokenize("a <= b >= c == d != e && f || g");
  EXPECT_EQ(tokens[1].type, TokenType::kLessEq);
  EXPECT_EQ(tokens[3].type, TokenType::kGreaterEq);
  EXPECT_EQ(tokens[5].type, TokenType::kEqEq);
  EXPECT_EQ(tokens[7].type, TokenType::kNotEq);
  EXPECT_EQ(tokens[9].type, TokenType::kAndAnd);
  EXPECT_EQ(tokens[11].type, TokenType::kOrOr);
}

TEST(Lexer, UnterminatedStringThrows) {
  EXPECT_THROW(tokenize("emit \"oops = 1;"), CompileError);
}

TEST(Lexer, StrayAmpersandThrows) {
  EXPECT_THROW(tokenize("a & b"), CompileError);
}

TEST(Lexer, UnknownCharacterThrows) {
  EXPECT_THROW(tokenize("let a = 1 @ 2;"), CompileError);
}

// ---- parser -----------------------------------------------------------------

TEST(Parser, EmptyProgramRejected) {
  EXPECT_THROW(parse(""), CompileError);
  EXPECT_THROW(parse("# only a comment"), CompileError);
}

TEST(Parser, ProgramWithoutEmitRejected) {
  EXPECT_THROW(parse("let a = 1;"), CompileError);
}

TEST(Parser, EmitRowNameRequired) {
  EXPECT_THROW(parse("emit \"\" = 1;"), CompileError);
}

struct SyntaxErrorCase {
  const char* name;
  const char* source;
};

class ParserErrorTest : public ::testing::TestWithParam<SyntaxErrorCase> {};

TEST_P(ParserErrorTest, Rejects) {
  EXPECT_THROW(parse(GetParam().source), CompileError);
}

INSTANTIATE_TEST_SUITE_P(
    SyntaxErrors, ParserErrorTest,
    ::testing::Values(
        SyntaxErrorCase{"missing_semicolon", "emit \"x\" = 1"},
        SyntaxErrorCase{"missing_assign", "emit \"x\" 1;"},
        SyntaxErrorCase{"unbalanced_paren", "emit \"x\" = (1 + 2;"},
        SyntaxErrorCase{"unbalanced_bracket", "emit \"x\" = [1, 2;"},
        SyntaxErrorCase{"stray_operator", "emit \"x\" = 1 / / 2;"},
        SyntaxErrorCase{"keyword_typo", "emti \"x\" = 1;"},
        SyntaxErrorCase{"let_without_name", "let = 4; emit \"x\" = 1;"},
        SyntaxErrorCase{"emit_number_name", "emit 42 = 1;"},
        SyntaxErrorCase{"trailing_garbage", "emit \"x\" = 1; 17"},
        SyntaxErrorCase{"ternary_missing_colon", "emit \"x\" = 1 ? 2;"},
        SyntaxErrorCase{"empty_index", "emit \"x\" = a[];"},
        SyntaxErrorCase{"double_comma", "emit \"x\" = min(1,, 2);"}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Parser, PrecedenceMulOverAdd) {
  EXPECT_DOUBLE_EQ(eval_scalar("2 + 3 * 4"), 14.0);
  EXPECT_DOUBLE_EQ(eval_scalar("(2 + 3) * 4"), 20.0);
}

TEST(Parser, UnaryMinusBinds) {
  EXPECT_DOUBLE_EQ(eval_scalar("-2 * 3"), -6.0);
  EXPECT_DOUBLE_EQ(eval_scalar("4 - -2"), 6.0);
}

TEST(Parser, ComparisonYieldsBoolean) {
  EXPECT_DOUBLE_EQ(eval_scalar("3 < 4"), 1.0);
  EXPECT_DOUBLE_EQ(eval_scalar("3 >= 4"), 0.0);
  EXPECT_DOUBLE_EQ(eval_scalar("2 == 2"), 1.0);
  EXPECT_DOUBLE_EQ(eval_scalar("2 != 2"), 0.0);
}

TEST(Parser, LogicalOperators) {
  EXPECT_DOUBLE_EQ(eval_scalar("1 && 0"), 0.0);
  EXPECT_DOUBLE_EQ(eval_scalar("1 || 0"), 1.0);
  EXPECT_DOUBLE_EQ(eval_scalar("!0"), 1.0);
  EXPECT_DOUBLE_EQ(eval_scalar("!3"), 0.0);
}

TEST(Parser, NestingDepthIsCapped) {
  // Hostile source is a compile error, not a stack overflow in the parser
  // or in a later pass over the AST.
  const auto repeat = [](std::size_t n, const std::string& unit) {
    std::string out;
    for (std::size_t i = 0; i < n; ++i) out += unit;
    return out;
  };
  const auto parens = [](std::size_t depth) {
    return std::string(depth, '(') + "1" + std::string(depth, ')');
  };
  EXPECT_THROW(StateProgram::compile("emit \"x\" = " + parens(10000) + ";"),
               CompileError);
  EXPECT_THROW(
      StateProgram::compile("emit \"x\" = 1" + repeat(99999, "+1") + ";"),
      CompileError);
  EXPECT_THROW(parse("emit \"x\" = " + parens(20000) + ";"), CompileError);
  EXPECT_THROW(parse("emit \"x\" = " + std::string(20000, '-') + "1;"),
               CompileError);
  // Well inside the cap, deep nesting still compiles and runs.
  EXPECT_DOUBLE_EQ(eval_scalar(parens(200)), 1.0);
  EXPECT_DOUBLE_EQ(eval_scalar("1" + repeat(199, "+1")), 200.0);
  EXPECT_DOUBLE_EQ(eval_scalar(std::string(200, '-') + "1"), 1.0);
}

TEST(Parser, TernarySelectsBranch) {
  EXPECT_DOUBLE_EQ(eval_scalar("1 ? 10 : 20"), 10.0);
  EXPECT_DOUBLE_EQ(eval_scalar("0 ? 10 : 20"), 20.0);
  EXPECT_DOUBLE_EQ(eval_scalar("2 < 1 ? 10 : 20"), 20.0);
}

// ---- language semantics -------------------------------------------------------

TEST(Interp, LetBindingAndReuse) {
  const StateMatrix m =
      StateProgram::compile("let a = 3; let b = a * 2; emit \"x\" = a + b;")
          .run(no_inputs());
  ASSERT_EQ(m.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(m.rows[0].values[0], 9.0);
}

TEST(Interp, LetShadowing) {
  const StateMatrix m =
      StateProgram::compile("let a = 1; let a = a + 1; emit \"x\" = a;")
          .run(no_inputs());
  EXPECT_DOUBLE_EQ(m.rows[0].values[0], 2.0);
}

TEST(Interp, UndefinedVariableThrows) {
  const StateProgram p = StateProgram::compile("emit \"x\" = nope;");
  EXPECT_THROW((void)p.run(no_inputs()), RuntimeError);
}

TEST(Interp, VectorScalarBroadcast) {
  const auto v = eval_vector("[1, 2, 3] * 2 + 1");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 3.0);
  EXPECT_DOUBLE_EQ(v[2], 7.0);
}

TEST(Interp, VectorVectorElementwise) {
  const auto v = eval_vector("[1, 2] + [10, 20]");
  EXPECT_DOUBLE_EQ(v[0], 11.0);
  EXPECT_DOUBLE_EQ(v[1], 22.0);
}

TEST(Interp, VectorLengthMismatchThrows) {
  EXPECT_THROW(eval_vector("[1, 2] + [1, 2, 3]"), RuntimeError);
}

TEST(Interp, DivisionByZeroThrows) {
  EXPECT_THROW(eval_scalar("1 / 0"), RuntimeError);
  EXPECT_THROW(eval_vector("[1, 2] / 0"), RuntimeError);
}

TEST(Interp, ModuloSemantics) {
  EXPECT_DOUBLE_EQ(eval_scalar("7 % 3"), 1.0);
  EXPECT_THROW(eval_scalar("7 % 0"), RuntimeError);
}

TEST(Interp, IndexingWithNegativeWrap) {
  const Bindings inputs = frame_with_v({10, 20, 30});
  EXPECT_DOUBLE_EQ(eval_scalar("v[0]", inputs), 10.0);
  EXPECT_DOUBLE_EQ(eval_scalar("v[2]", inputs), 30.0);
  EXPECT_DOUBLE_EQ(eval_scalar("v[-1]", inputs), 30.0);
  EXPECT_DOUBLE_EQ(eval_scalar("v[-3]", inputs), 10.0);
}

TEST(Interp, IndexErrors) {
  const Bindings inputs = frame_with_v({10, 20, 30});
  EXPECT_THROW(eval_scalar("v[3]", inputs), RuntimeError);
  EXPECT_THROW(eval_scalar("v[-4]", inputs), RuntimeError);
  EXPECT_THROW(eval_scalar("v[0.5]", inputs), RuntimeError);
  EXPECT_THROW(eval_scalar("3[0]", inputs), RuntimeError);
}

TEST(Interp, TernaryConditionMustBeScalar) {
  EXPECT_THROW(eval_scalar("[1, 0] ? 1 : 2"), RuntimeError);
}

TEST(Interp, EmitLimits) {
  // More than 24 rows rejected.
  std::string many;
  for (int i = 0; i < 25; ++i) {
    many += "emit \"r" + std::to_string(i) + "\" = 1;";
  }
  EXPECT_THROW((void)StateProgram::compile(many).run(no_inputs()),
               RuntimeError);
}

TEST(Interp, RowLongerThan64Rejected) {
  EXPECT_THROW(eval_source_expr("vec(65, 1.0)"), RuntimeError);
}

// ---- builtins (parameterized sweep) -------------------------------------------

struct BuiltinCase {
  const char* name;
  const char* expr;
  double expected;
};

class BuiltinScalarTest : public ::testing::TestWithParam<BuiltinCase> {};

TEST_P(BuiltinScalarTest, Evaluates) {
  EXPECT_NEAR(eval_scalar(GetParam().expr), GetParam().expected, 1e-9)
      << GetParam().expr;
}

INSTANTIATE_TEST_SUITE_P(
    Builtins, BuiltinScalarTest,
    ::testing::Values(
        BuiltinCase{"abs_neg", "abs(0.0 - 4.5)", 4.5},
        BuiltinCase{"sqrt", "sqrt(16)", 4.0},
        BuiltinCase{"log_e", "log(exp(1))", 1.0},
        BuiltinCase{"log1p_zero", "log1p(0)", 0.0},
        BuiltinCase{"exp_zero", "exp(0)", 1.0},
        BuiltinCase{"floor", "floor(2.7)", 2.0},
        BuiltinCase{"ceil", "ceil(2.1)", 3.0},
        BuiltinCase{"sign_neg", "sign(0 - 3)", -1.0},
        BuiltinCase{"sign_zero", "sign(0)", 0.0},
        BuiltinCase{"tanh_zero", "tanh(0)", 0.0},
        BuiltinCase{"sigmoid_zero", "sigmoid(0)", 0.5},
        BuiltinCase{"relu_neg", "relu(0 - 2)", 0.0},
        BuiltinCase{"relu_pos", "relu(2)", 2.0},
        BuiltinCase{"pow", "pow(2, 10)", 1024.0},
        BuiltinCase{"min", "min(3, 7)", 3.0},
        BuiltinCase{"max", "max(3, 7)", 7.0},
        BuiltinCase{"clip_low", "clip(0 - 5, 0, 1)", 0.0},
        BuiltinCase{"clip_high", "clip(5, 0, 1)", 1.0},
        BuiltinCase{"clip_mid", "clip(0.5, 0, 1)", 0.5},
        BuiltinCase{"mean", "mean([1, 2, 3, 4])", 2.5},
        BuiltinCase{"sum", "sum([1, 2, 3])", 6.0},
        BuiltinCase{"var", "var([2, 4, 4, 4, 5, 5, 7, 9])", 32.0 / 7.0},
        BuiltinCase{"std_const", "std([5, 5, 5])", 0.0},
        BuiltinCase{"median_even", "median([1, 2, 3, 4])", 2.5},
        BuiltinCase{"percentile50", "percentile([10, 20, 30], 50)", 20.0},
        BuiltinCase{"vmin", "vmin([4, 1, 9])", 1.0},
        BuiltinCase{"vmax", "vmax([4, 1, 9])", 9.0},
        BuiltinCase{"first", "first([7, 8])", 7.0},
        BuiltinCase{"last", "last([7, 8])", 8.0},
        BuiltinCase{"len", "len([7, 8, 9])", 3.0},
        BuiltinCase{"len_scalar", "len(5)", 1.0},
        BuiltinCase{"trend_line", "trend([0, 2, 4, 6])", 2.0},
        BuiltinCase{"linreg_line", "linreg_predict([1, 2, 3, 4])", 5.0},
        BuiltinCase{"ema_last_const", "ema_last([3, 3, 3], 0.5)", 3.0},
        BuiltinCase{"where_true", "where(1, 5, 9)", 5.0},
        BuiltinCase{"where_false", "where(0, 5, 9)", 9.0}),
    [](const auto& info) { return std::string(info.param.name); });

struct BuiltinErrorCase {
  const char* name;
  const char* expr;
};

class BuiltinErrorTest : public ::testing::TestWithParam<BuiltinErrorCase> {};

TEST_P(BuiltinErrorTest, Throws) {
  EXPECT_THROW(eval_source_expr(GetParam().expr), RuntimeError)
      << GetParam().expr;
}

INSTANTIATE_TEST_SUITE_P(
    BuiltinErrors, BuiltinErrorTest,
    ::testing::Values(
        BuiltinErrorCase{"sqrt_negative", "sqrt(0 - 1)"},
        BuiltinErrorCase{"log_zero", "log(0)"},
        BuiltinErrorCase{"log_negative", "log(0 - 3)"},
        BuiltinErrorCase{"log1p_domain", "log1p(0 - 2)"},
        BuiltinErrorCase{"exp_overflow", "exp(1000)"},
        BuiltinErrorCase{"pow_overflow", "pow(10, 400)"},
        BuiltinErrorCase{"pow_fractional_negative", "pow(0 - 8, 0.5)"},
        BuiltinErrorCase{"unknown_function", "frobnicate(1)"},
        BuiltinErrorCase{"bad_arity_low", "ema([1, 2])"},
        BuiltinErrorCase{"bad_arity_high", "mean([1], 2)"},
        BuiltinErrorCase{"ema_bad_alpha", "ema([1, 2], 2.0)"},
        BuiltinErrorCase{"percentile_domain", "percentile([1], 200)"},
        BuiltinErrorCase{"diff_scalar", "diff(5)"},
        BuiltinErrorCase{"tail_too_long", "tail([1, 2], 5)"},
        BuiltinErrorCase{"tail_zero", "tail([1, 2], 0)"},
        BuiltinErrorCase{"slice_inverted", "slice([1, 2, 3], 2, 1)"},
        BuiltinErrorCase{"slice_overrun", "slice([1, 2, 3], 0, 9)"},
        BuiltinErrorCase{"vec_too_long", "vec(100, 1)"},
        BuiltinErrorCase{"vec_zero", "vec(0, 1)"},
        BuiltinErrorCase{"smooth_zero_window", "smooth([1, 2], 0)"},
        BuiltinErrorCase{"minmax_constant", "normalize_minmax([2, 2, 2])"},
        BuiltinErrorCase{"zscore_constant", "zscore([1, 1, 1])"},
        BuiltinErrorCase{"rescale_bad_range", "rescale([1, 2], 1, 1)"},
        BuiltinErrorCase{"clip_inverted", "clip(1, 2, 0)"},
        BuiltinErrorCase{"empty_vector_literal", "[]"}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Builtins, VectorTransforms) {
  EXPECT_EQ(eval_vector("diff([1, 4, 9])"),
            (std::vector<double>{3.0, 5.0}));
  EXPECT_EQ(eval_vector("cumsum([1, 2, 3])"),
            (std::vector<double>{1.0, 3.0, 6.0}));
  EXPECT_EQ(eval_vector("reverse([1, 2, 3])"),
            (std::vector<double>{3.0, 2.0, 1.0}));
  EXPECT_EQ(eval_vector("tail([1, 2, 3, 4], 2)"),
            (std::vector<double>{3.0, 4.0}));
  EXPECT_EQ(eval_vector("slice([1, 2, 3, 4], 1, 3)"),
            (std::vector<double>{2.0, 3.0}));
  EXPECT_EQ(eval_vector("concat([1], [2, 3])"),
            (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(eval_vector("vec(3, 7)"),
            (std::vector<double>{7.0, 7.0, 7.0}));
}

TEST(Builtins, IndexArgumentsFrom2Pow53AreOutOfRange) {
  // Windows and bounds from 2^53 up are rejected: the size_t cast they
  // used to take is undefined past 2^64 and journaled misleading reasons.
  const Bindings obs = env::abr_catalog().canned();
  EXPECT_EQ(error_of("smooth(throughput_mbps, 1e30)", obs),
            "smooth window out of range");
  EXPECT_EQ(error_of("slice(throughput_mbps, 1e30, 1e30)", obs),
            "slice start out of range");
  EXPECT_EQ(error_of("smooth(throughput_mbps, 9007199254740992)", obs),
            "smooth window out of range");
  EXPECT_EQ(error_of("smooth(throughput_mbps, 9007199254740991)", obs), "");
  // Smaller values keep their messages.
  EXPECT_EQ(error_of("smooth(throughput_mbps, 0)", obs),
            "smooth window is zero");
  EXPECT_EQ(error_of("slice(throughput_mbps, 0, 9)", obs),
            "slice bounds [0, 9) invalid for length 8");
}

TEST(Builtins, SmoothMovingAverage) {
  const auto v = eval_vector("smooth([2, 4, 6, 8], 2)");
  ASSERT_EQ(v.size(), 4u);
  EXPECT_DOUBLE_EQ(v[0], 2.0);
  EXPECT_DOUBLE_EQ(v[1], 3.0);
  EXPECT_DOUBLE_EQ(v[2], 5.0);
  EXPECT_DOUBLE_EQ(v[3], 7.0);
}

TEST(Builtins, NormalizeMinmaxRange) {
  const auto v = eval_vector("normalize_minmax([2, 4, 6])");
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[1], 0.5);
  EXPECT_DOUBLE_EQ(v[2], 1.0);
}

TEST(Builtins, RescaleRange) {
  const auto v = eval_vector("rescale([0, 5, 10], 0 - 1, 1)");
  EXPECT_DOUBLE_EQ(v[0], -1.0);
  EXPECT_DOUBLE_EQ(v[1], 0.0);
  EXPECT_DOUBLE_EQ(v[2], 1.0);
}

TEST(Builtins, ZscoreProperties) {
  const auto v = eval_vector("zscore([1, 2, 3, 4, 5])");
  double mean = 0.0;
  for (double x : v) mean += x;
  EXPECT_NEAR(mean, 0.0, 1e-9);
}

TEST(Builtins, EmaSeriesMatchesUtil) {
  const auto v = eval_vector("ema([1, 2, 3], 0.5)");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[1], 1.5);
  EXPECT_DOUBLE_EQ(v[2], 2.25);
}

TEST(Builtins, WhereElementwise) {
  const Bindings inputs = frame_with_v({1, 5, 2});
  const auto out = eval_vector("where(v > 2, v, vec(3, 0))", inputs);
  EXPECT_EQ(out, (std::vector<double>{0.0, 5.0, 0.0}));
}

TEST(Builtins, RegistryExposesSignatures) {
  const auto& reg = builtins();
  EXPECT_GT(reg.size(), 30u);
  ASSERT_TRUE(reg.contains("ema"));
  EXPECT_EQ(reg.at("ema").min_args, 2u);
  EXPECT_FALSE(reg.at("ema").signature.empty());
}

// ---- StateProgram / Pensieve reference ---------------------------------------

TEST(StateProgram, PensieveCompilesAndMatchesHandComputation) {
  const StateProgram p = StateProgram::compile(pensieve_state_source());
  const env::Observation obs = env::canned_observation();
  const StateMatrix m = p.run(env::bindings_from_observation(obs));
  ASSERT_EQ(m.rows.size(), 6u);

  EXPECT_EQ(m.rows[0].name, "last_quality");
  EXPECT_NEAR(m.rows[0].values[0], 1200.0 / 4300.0, 1e-12);

  EXPECT_EQ(m.rows[1].name, "buffer_s");
  EXPECT_NEAR(m.rows[1].values[0], 14.8 / 10.0, 1e-12);

  EXPECT_EQ(m.rows[2].name, "throughput");
  ASSERT_EQ(m.rows[2].values.size(), 8u);
  EXPECT_NEAR(m.rows[2].values[0], 2.1 / 8.0, 1e-12);

  EXPECT_EQ(m.rows[3].name, "download_time");
  EXPECT_NEAR(m.rows[3].values[7], 1.6 / 10.0, 1e-12);

  EXPECT_EQ(m.rows[4].name, "next_sizes_mb");
  ASSERT_EQ(m.rows[4].values.size(), 6u);
  EXPECT_NEAR(m.rows[4].values[5], 2.15, 1e-12);

  EXPECT_EQ(m.rows[5].name, "chunks_left");
  EXPECT_NEAR(m.rows[5].values[0], 30.0 / 48.0, 1e-12);
}

TEST(StateProgram, PensieveSignatureShape) {
  const StateProgram p = StateProgram::compile(pensieve_state_source());
  const StateMatrix m = p.run(env::abr_catalog().canned());
  EXPECT_EQ(m.row_lengths(), (std::vector<std::size_t>{1, 1, 8, 8, 6, 1}));
}

TEST(StateProgram, CompileErrorPropagates) {
  EXPECT_THROW(StateProgram::compile("emit \"x\" = ;"), CompileError);
}

TEST(StateProgram, SourcePreserved) {
  const std::string src = "emit \"x\" = buffer_size_s / 10.0;\n";
  const StateProgram p = StateProgram::compile(src);
  EXPECT_EQ(p.source(), src);
}

TEST(StateProgram, AllInputVariablesBindable) {
  // A program touching every documented input variable must run.
  std::string src;
  for (const auto& var : env::input_variables()) {
    src += "emit \"" + var.name + "\" = " + var.name +
           (var.is_vector ? " * 0.001;\n" : " * 0.001;\n");
  }
  const StateProgram p = StateProgram::compile(src);
  const StateMatrix m = p.run(env::abr_catalog().canned());
  EXPECT_EQ(m.rows.size(), env::input_variables().size());
}

TEST(StateProgram, FuzzObservationWithinDocumentedRanges) {
  util::Rng rng(55);
  for (int i = 0; i < 50; ++i) {
    const env::Observation obs = env::fuzz_observation(rng);
    ASSERT_EQ(obs.throughput_mbps.size(), env::kHistoryLen);
    for (double t : obs.throughput_mbps) {
      EXPECT_GT(t, 0.0);
      EXPECT_LE(t, 400.0);
    }
    EXPECT_GE(obs.buffer_s, 0.0);
    EXPECT_LE(obs.buffer_s, 60.0);
    EXPECT_EQ(obs.next_chunk_bytes.size(), obs.ladder_kbps.size());
  }
}

TEST(StateProgram, MaxAbsComputesLargestMagnitude) {
  const StateProgram p = StateProgram::compile(
      "emit \"a\" = [1, 0 - 9, 3];\nemit \"b\" = 2;\n");
  const StateMatrix m = p.run(env::abr_catalog().canned());
  EXPECT_DOUBLE_EQ(m.max_abs(), 9.0);
  EXPECT_TRUE(m.all_finite());
}

}  // namespace
}  // namespace nada::dsl
