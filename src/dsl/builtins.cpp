#include "dsl/builtins.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "util/stats.h"

namespace nada::dsl {
namespace {

// ---- helpers ---------------------------------------------------------------

double require_scalar(const Value& v, const char* what) {
  if (!v.is_scalar()) {
    throw RuntimeError(std::string(what) + " must be a scalar");
  }
  return v.as_scalar();
}

std::vector<double> as_series(const Value& v) {
  if (v.is_vector()) return v.as_vector();
  return {v.as_scalar()};
}

std::size_t require_index(const Value& v, const char* what) {
  const double d = require_scalar(v, what);
  if (d < 0.0 || std::floor(d) != d) {
    throw RuntimeError(std::string(what) + " must be a non-negative integer");
  }
  // Capped at 2^53, below which every integer is a double: past 2^64 (or
  // at infinity) the cast would be undefined.
  if (d >= 9007199254740992.0) {
    throw RuntimeError(std::string(what) + " out of range");
  }
  return static_cast<std::size_t>(d);
}

Value map_unary(const Value& v, const std::function<double(double)>& fn) {
  if (v.is_scalar()) return Value(fn(v.as_scalar()));
  std::vector<double> out(v.as_vector().size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = fn(v.as_vector()[i]);
  }
  return Value(std::move(out));
}

double checked_log(double x) {
  if (x <= 0.0) throw RuntimeError("log of non-positive value");
  return std::log(x);
}

double checked_sqrt(double x) {
  if (x < 0.0) throw RuntimeError("sqrt of negative value");
  return std::sqrt(x);
}

double checked_exp(double x) {
  if (x > 700.0) throw RuntimeError("exp overflow");
  return std::exp(x);
}

// ---- builtin registry -------------------------------------------------------

std::map<std::string, Builtin> make_builtins() {
  std::map<std::string, Builtin> reg;

  auto add = [&reg](const std::string& name, std::size_t min_args,
                    std::size_t max_args, const std::string& sig,
                    std::function<Value(const std::vector<Value>&)> fn) {
    reg[name] = Builtin{min_args, max_args, sig, std::move(fn)};
  };

  // -- elementwise unary math
  add("abs", 1, 1, "abs(x)", [](const auto& a) {
    return map_unary(a[0], [](double x) { return std::abs(x); });
  });
  add("sqrt", 1, 1, "sqrt(x)", [](const auto& a) {
    return map_unary(a[0], checked_sqrt);
  });
  add("log", 1, 1, "log(x)", [](const auto& a) {
    return map_unary(a[0], checked_log);
  });
  add("log1p", 1, 1, "log1p(x)", [](const auto& a) {
    return map_unary(a[0], [](double x) {
      if (x <= -1.0) throw RuntimeError("log1p of value <= -1");
      return std::log1p(x);
    });
  });
  add("exp", 1, 1, "exp(x)", [](const auto& a) {
    return map_unary(a[0], checked_exp);
  });
  add("floor", 1, 1, "floor(x)", [](const auto& a) {
    return map_unary(a[0], [](double x) { return std::floor(x); });
  });
  add("ceil", 1, 1, "ceil(x)", [](const auto& a) {
    return map_unary(a[0], [](double x) { return std::ceil(x); });
  });
  add("sign", 1, 1, "sign(x)", [](const auto& a) {
    return map_unary(a[0], [](double x) {
      return x > 0.0 ? 1.0 : (x < 0.0 ? -1.0 : 0.0);
    });
  });
  add("tanh", 1, 1, "tanh(x)", [](const auto& a) {
    return map_unary(a[0], [](double x) { return std::tanh(x); });
  });
  add("sigmoid", 1, 1, "sigmoid(x)", [](const auto& a) {
    return map_unary(a[0], [](double x) { return 1.0 / (1.0 + std::exp(-x)); });
  });
  add("relu", 1, 1, "relu(x)", [](const auto& a) {
    return map_unary(a[0], [](double x) { return x > 0.0 ? x : 0.0; });
  });

  // -- binary / clamping
  add("pow", 2, 2, "pow(x, y)", [](const auto& a) {
    return broadcast_binary(a[0], a[1], [](double x, double y) {
      if (x < 0.0 && std::floor(y) != y) {
        throw RuntimeError("pow of negative base with fractional exponent");
      }
      const double r = std::pow(x, y);
      if (!std::isfinite(r)) throw RuntimeError("pow overflow");
      return r;
    }, "pow");
  });
  add("min", 2, 2, "min(a, b)", [](const auto& a) {
    return broadcast_binary(
        a[0], a[1], [](double x, double y) { return std::min(x, y); }, "min");
  });
  add("max", 2, 2, "max(a, b)", [](const auto& a) {
    return broadcast_binary(
        a[0], a[1], [](double x, double y) { return std::max(x, y); }, "max");
  });
  add("clip", 3, 3, "clip(x, lo, hi)", [](const auto& a) {
    const double lo = require_scalar(a[1], "clip lower bound");
    const double hi = require_scalar(a[2], "clip upper bound");
    if (lo > hi) throw RuntimeError("clip: lower bound above upper bound");
    return map_unary(a[0], [lo, hi](double x) {
      return std::clamp(x, lo, hi);
    });
  });
  add("where", 3, 3, "where(cond, a, b)", [](const auto& a) {
    const Value& cond = a[0];
    if (cond.is_scalar()) {
      return cond.as_scalar() != 0.0 ? a[1] : a[2];
    }
    const std::size_t n = cond.size();
    std::vector<double> out(n);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = cond.element(i) != 0.0 ? a[1].element(i < a[1].size() ? i : 0)
                                      : a[2].element(i < a[2].size() ? i : 0);
    }
    return Value(std::move(out));
  });

  // -- reductions
  add("mean", 1, 1, "mean(v)", [](const auto& a) {
    return Value(util::mean(as_series(a[0])));
  });
  add("sum", 1, 1, "sum(v)", [](const auto& a) {
    double s = 0.0;
    for (double x : as_series(a[0])) s += x;
    return Value(s);
  });
  add("var", 1, 1, "var(v)", [](const auto& a) {
    return Value(util::variance(as_series(a[0])));
  });
  add("std", 1, 1, "std(v)", [](const auto& a) {
    return Value(util::stddev(as_series(a[0])));
  });
  add("median", 1, 1, "median(v)", [](const auto& a) {
    return Value(util::median(as_series(a[0])));
  });
  add("percentile", 2, 2, "percentile(v, p)", [](const auto& a) {
    const double p = require_scalar(a[1], "percentile p");
    if (p < 0.0 || p > 100.0) {
      throw RuntimeError("percentile p outside [0, 100]");
    }
    return Value(util::percentile(as_series(a[0]), p));
  });
  add("vmin", 1, 1, "vmin(v)", [](const auto& a) {
    const auto s = as_series(a[0]);
    if (s.empty()) throw RuntimeError("vmin of empty vector");
    return Value(*std::min_element(s.begin(), s.end()));
  });
  add("vmax", 1, 1, "vmax(v)", [](const auto& a) {
    const auto s = as_series(a[0]);
    if (s.empty()) throw RuntimeError("vmax of empty vector");
    return Value(*std::max_element(s.begin(), s.end()));
  });
  add("first", 1, 1, "first(v)", [](const auto& a) {
    const auto s = as_series(a[0]);
    if (s.empty()) throw RuntimeError("first of empty vector");
    return Value(s.front());
  });
  add("last", 1, 1, "last(v)", [](const auto& a) {
    const auto s = as_series(a[0]);
    if (s.empty()) throw RuntimeError("last of empty vector");
    return Value(s.back());
  });
  add("len", 1, 1, "len(v)", [](const auto& a) {
    return Value(static_cast<double>(a[0].size()));
  });

  // -- trend analysis (the features §4 highlights)
  add("trend", 1, 1, "trend(v)", [](const auto& a) {
    return Value(util::linear_trend(as_series(a[0])));
  });
  add("linreg_predict", 1, 1, "linreg_predict(v)", [](const auto& a) {
    return Value(util::linreg_predict_next(as_series(a[0])));
  });
  add("ema", 2, 2, "ema(v, alpha)", [](const auto& a) {
    const double alpha = require_scalar(a[1], "ema alpha");
    if (alpha <= 0.0 || alpha > 1.0) {
      throw RuntimeError("ema alpha outside (0, 1]");
    }
    return Value(util::ema_series(as_series(a[0]), alpha));
  });
  add("ema_last", 2, 2, "ema_last(v, alpha)", [](const auto& a) {
    const double alpha = require_scalar(a[1], "ema alpha");
    if (alpha <= 0.0 || alpha > 1.0) {
      throw RuntimeError("ema alpha outside (0, 1]");
    }
    return Value(util::ema(as_series(a[0]), alpha));
  });
  add("savgol", 1, 1, "savgol(v)", [](const auto& a) {
    return Value(util::savgol5(as_series(a[0])));
  });

  // -- vector transforms
  add("diff", 1, 1, "diff(v)", [](const auto& a) {
    const auto s = as_series(a[0]);
    if (s.size() < 2) throw RuntimeError("diff needs at least two elements");
    std::vector<double> out(s.size() - 1);
    for (std::size_t i = 0; i + 1 < s.size(); ++i) out[i] = s[i + 1] - s[i];
    return Value(std::move(out));
  });
  add("cumsum", 1, 1, "cumsum(v)", [](const auto& a) {
    auto s = as_series(a[0]);
    for (std::size_t i = 1; i < s.size(); ++i) s[i] += s[i - 1];
    return Value(std::move(s));
  });
  add("reverse", 1, 1, "reverse(v)", [](const auto& a) {
    auto s = as_series(a[0]);
    std::reverse(s.begin(), s.end());
    return Value(std::move(s));
  });
  add("smooth", 2, 2, "smooth(v, window)", [](const auto& a) {
    const std::size_t w = require_index(a[1], "smooth window");
    if (w == 0) throw RuntimeError("smooth window is zero");
    const auto s = as_series(a[0]);
    std::vector<double> out(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
      const std::size_t begin = i + 1 >= w ? i + 1 - w : 0;
      double acc = 0.0;
      for (std::size_t j = begin; j <= i; ++j) acc += s[j];
      out[i] = acc / static_cast<double>(i - begin + 1);
    }
    return Value(std::move(out));
  });
  add("tail", 2, 2, "tail(v, k)", [](const auto& a) {
    const std::size_t k = require_index(a[1], "tail k");
    const auto s = as_series(a[0]);
    if (k == 0 || k > s.size()) {
      throw RuntimeError("tail k outside [1, len]");
    }
    return Value(std::vector<double>(s.end() - static_cast<std::ptrdiff_t>(k),
                                     s.end()));
  });
  add("slice", 3, 3, "slice(v, start, end)", [](const auto& a) {
    const auto s = as_series(a[0]);
    const std::size_t start = require_index(a[1], "slice start");
    const std::size_t end = require_index(a[2], "slice end");
    if (start >= end || end > s.size()) {
      throw RuntimeError("slice bounds [" + std::to_string(start) + ", " +
                         std::to_string(end) + ") invalid for length " +
                         std::to_string(s.size()));
    }
    return Value(std::vector<double>(
        s.begin() + static_cast<std::ptrdiff_t>(start),
        s.begin() + static_cast<std::ptrdiff_t>(end)));
  });
  add("vec", 2, 2, "vec(n, fill)", [](const auto& a) {
    const std::size_t n = require_index(a[0], "vec length");
    if (n == 0 || n > 64) throw RuntimeError("vec length outside [1, 64]");
    return Value(std::vector<double>(n, require_scalar(a[1], "vec fill")));
  });
  add("concat", 2, 2, "concat(a, b)", [](const auto& a) {
    auto left = as_series(a[0]);
    const auto right = as_series(a[1]);
    left.insert(left.end(), right.begin(), right.end());
    return Value(std::move(left));
  });

  // -- normalization helpers
  add("normalize_minmax", 1, 1, "normalize_minmax(v)", [](const auto& a) {
    const auto s = as_series(a[0]);
    if (s.size() < 2) throw RuntimeError("normalize_minmax needs a vector");
    const double lo = *std::min_element(s.begin(), s.end());
    const double hi = *std::max_element(s.begin(), s.end());
    if (hi - lo < 1e-12) {
      throw RuntimeError("normalize_minmax of constant vector");
    }
    std::vector<double> out(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) out[i] = (s[i] - lo) / (hi - lo);
    return Value(std::move(out));
  });
  add("zscore", 1, 1, "zscore(v)", [](const auto& a) {
    const auto s = as_series(a[0]);
    const double sd = util::stddev(s);
    if (sd < 1e-12) throw RuntimeError("zscore of constant vector");
    const double m = util::mean(s);
    std::vector<double> out(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) out[i] = (s[i] - m) / sd;
    return Value(std::move(out));
  });
  add("rescale", 3, 3, "rescale(v, lo, hi)", [](const auto& a) {
    const double lo = require_scalar(a[1], "rescale lo");
    const double hi = require_scalar(a[2], "rescale hi");
    if (lo >= hi) throw RuntimeError("rescale: lo >= hi");
    const auto s = as_series(a[0]);
    if (s.size() < 2) throw RuntimeError("rescale needs a vector");
    const double smin = *std::min_element(s.begin(), s.end());
    const double smax = *std::max_element(s.begin(), s.end());
    if (smax - smin < 1e-12) throw RuntimeError("rescale of constant vector");
    std::vector<double> out(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
      out[i] = lo + (s[i] - smin) / (smax - smin) * (hi - lo);
    }
    return Value(std::move(out));
  });

  return reg;
}

}  // namespace

const std::map<std::string, Builtin>& builtins() {
  static const std::map<std::string, Builtin> kRegistry = make_builtins();
  return kRegistry;
}

const std::vector<IndexedBuiltin>& builtin_table() {
  static const std::vector<IndexedBuiltin> kTable = [] {
    std::vector<IndexedBuiltin> table;
    table.reserve(builtins().size());
    for (const auto& [name, builtin] : builtins()) {
      table.push_back(IndexedBuiltin{&name, &builtin});
    }
    return table;
  }();
  return kTable;
}

int builtin_index(const std::string& name) {
  const auto& reg = builtins();
  const auto it = reg.find(name);
  if (it == reg.end()) return -1;
  return static_cast<int>(std::distance(reg.begin(), it));
}

}  // namespace nada::dsl
