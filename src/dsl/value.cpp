#include "dsl/value.h"

#include <algorithm>
#include <cmath>

namespace nada::dsl {

double Value::as_scalar() const {
  if (is_vector_) {
    throw RuntimeError("expected scalar, got vector of length " +
                       std::to_string(vector_.size()));
  }
  return scalar_;
}

const std::vector<double>& Value::as_vector() const {
  if (!is_vector_) throw RuntimeError("expected vector, got scalar");
  return vector_;
}

double Value::element(std::size_t i) const {
  if (!is_vector_) return scalar_;
  if (i >= vector_.size()) {
    throw RuntimeError("index " + std::to_string(i) +
                       " out of range for vector of length " +
                       std::to_string(vector_.size()));
  }
  return vector_[i];
}

std::vector<std::size_t> StateMatrix::row_lengths() const {
  std::vector<std::size_t> lengths;
  lengths.reserve(rows.size());
  for (const auto& row : rows) lengths.push_back(row.values.size());
  return lengths;
}

double StateMatrix::max_abs() const {
  double m = 0.0;
  for (const auto& row : rows) {
    for (double v : row.values) m = std::max(m, std::abs(v));
  }
  return m;
}

bool StateMatrix::all_finite() const {
  for (const auto& row : rows) {
    for (double v : row.values) {
      if (!std::isfinite(v)) return false;
    }
  }
  return true;
}

std::vector<std::vector<double>> StateMatrix::to_network_rows() const {
  std::vector<std::vector<double>> out;
  out.reserve(rows.size());
  for (const auto& row : rows) out.push_back(row.values);
  return out;
}

}  // namespace nada::dsl
