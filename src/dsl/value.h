// Runtime values for NadaScript: a dynamically-typed scalar/vector algebra.
//
// State functions in the paper are small Python functions over numpy-like
// values; NadaScript mirrors that: every expression evaluates to either a
// scalar or a 1-D vector, with elementwise broadcasting between them.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace nada::dsl {

/// Thrown by program execution for type errors, bad arity, division by zero,
/// domain errors, and other Python-exception-like conditions. A candidate
/// whose trial run throws RuntimeError fails NADA's compilation check.
class RuntimeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by the lexer/parser for malformed programs.
class CompileError : public std::runtime_error {
 public:
  CompileError(const std::string& message, std::size_t line)
      : std::runtime_error("line " + std::to_string(line) + ": " + message),
        line_(line) {}

  [[nodiscard]] std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

class Value {
 public:
  Value() : is_vector_(false), scalar_(0.0) {}
  /*implicit*/ Value(double s) : is_vector_(false), scalar_(s) {}
  /*implicit*/ Value(std::vector<double> v)
      : is_vector_(true), scalar_(0.0), vector_(std::move(v)) {}

  [[nodiscard]] bool is_vector() const { return is_vector_; }
  [[nodiscard]] bool is_scalar() const { return !is_vector_; }

  /// Scalar access; throws RuntimeError if this is a vector.
  [[nodiscard]] double as_scalar() const;

  /// Vector view; throws RuntimeError if this is a scalar.
  [[nodiscard]] const std::vector<double>& as_vector() const;

  /// Number of elements (1 for scalars).
  [[nodiscard]] std::size_t size() const {
    return is_vector_ ? vector_.size() : 1;
  }

  /// Element i with scalar broadcast (scalars repeat).
  [[nodiscard]] double element(std::size_t i) const;

  [[nodiscard]] std::string type_name() const {
    return is_vector_ ? "vector" : "scalar";
  }

  /// In-place scalar write for the bytecode VM's register file: no
  /// allocation, and the register's vector capacity (if any) is kept for
  /// later vector results.
  void set_scalar(double s) {
    is_vector_ = false;
    scalar_ = s;
  }

  /// In-place vector write for the VM: marks this value as a vector and
  /// returns the element buffer so the caller can resize() + fill it,
  /// reusing whatever capacity the register already holds.
  [[nodiscard]] std::vector<double>& mutable_vector() {
    is_vector_ = true;
    return vector_;
  }

 private:
  bool is_vector_;
  double scalar_;
  std::vector<double> vector_;
};

/// Applies a binary op elementwise with numpy-style broadcasting: scalars
/// broadcast against vectors; two vectors must have equal length.
template <typename Op>
Value broadcast_binary(const Value& a, const Value& b, Op op,
                       const char* op_name) {
  if (a.is_scalar() && b.is_scalar()) {
    return Value(op(a.as_scalar(), b.as_scalar()));
  }
  const std::size_t n = a.is_vector() ? a.size() : b.size();
  if (a.is_vector() && b.is_vector() && a.size() != b.size()) {
    throw RuntimeError(std::string("operator ") + op_name +
                       ": vector length mismatch (" + std::to_string(a.size()) +
                       " vs " + std::to_string(b.size()) + ")");
  }
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = op(a.element(i), b.element(i));
  }
  return Value(std::move(out));
}

/// One emitted state row.
struct StateRow {
  std::string name;
  std::vector<double> values;  ///< single element for scalar rows
  bool is_vector = false;
};

/// The state matrix produced by one program run.
struct StateMatrix {
  std::vector<StateRow> rows;

  /// Row lengths (1 for scalar rows) — the network input signature.
  [[nodiscard]] std::vector<std::size_t> row_lengths() const;

  /// Largest absolute feature value (the normalization-check statistic).
  [[nodiscard]] double max_abs() const;

  /// True if every value is finite.
  [[nodiscard]] bool all_finite() const;
};

}  // namespace nada::dsl
