#include "dsl/canonical.h"

#include <charconv>

namespace nada::dsl {
namespace {

// The one canonical serializer. `Sink` is called with consecutive pieces
// of the canonical text.
template <typename Sink>
class CanonicalWriter {
 public:
  CanonicalWriter(const Program& program, Sink& sink)
      : program_(program), sink_(sink) {}

  void write() {
    const auto& statements = program_.statements();
    for (std::size_t i = 0; i < statements.size(); ++i) {
      const Statement& statement = statements[i];
      statement_ = i;
      if (statement.kind == StatementKind::kLet) {
        // The value resolves names under the bindings in scope *before*
        // this one shadows its own, exactly matching evaluation order:
        // Program::binding looks only at earlier statements.
        put("let ");
        binding(statement.ordinal);
        put(" = ");
      } else {
        put("emit \"");
        put(program_.text(statement.name));
        put("\" = ");
      }
      expr(program_.expr(statement.expr));
      put(";\n");
    }
  }

 private:
  void put(std::string_view piece) { sink_(piece); }
  void put(char c) { sink_(std::string_view(&c, 1)); }

  void binding(std::uint32_t ordinal) {
    char digits[16];
    const auto [end, ec] = std::to_chars(digits, digits + sizeof(digits),
                                         ordinal);
    put('v');
    put(std::string_view(digits, static_cast<std::size_t>(end - digits)));
  }

  void list(const Expr& e) {
    bool first = true;
    for (const ExprId id : program_.children(e)) {
      if (!first) put(", ");
      first = false;
      expr(program_.expr(id));
    }
  }

  void expr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kNumber: {
        char buf[util::kShortestDoubleChars];
        put(util::shortest_double(e.number, buf));
        break;
      }
      case ExprKind::kVariable: {
        // Free (observation) variables live in a sigiled namespace so a
        // program that literally references "v0" can never collide with a
        // renamed binding — capture would fingerprint semantically
        // different programs identically.
        const std::string_view name = program_.text(e.name);
        if (const Statement* let = program_.binding(statement_, name)) {
          binding(let->ordinal);
        } else {
          put('@');
          put(name);
        }
        break;
      }
      case ExprKind::kUnary:
        put('(');
        put(e.unary_op == UnaryOp::kNeg ? '-' : '!');
        expr(program_.child(e, 0));
        put(')');
        break;
      case ExprKind::kBinary:
        put('(');
        expr(program_.child(e, 0));
        put(' ');
        put(binary_op_name(e.binary_op));
        put(' ');
        expr(program_.child(e, 1));
        put(')');
        break;
      case ExprKind::kTernary:
        put('(');
        expr(program_.child(e, 0));
        put(" ? ");
        expr(program_.child(e, 1));
        put(" : ");
        expr(program_.child(e, 2));
        put(')');
        break;
      case ExprKind::kCall:
        put(program_.text(e.name));
        put('(');
        list(e);
        put(')');
        break;
      case ExprKind::kIndex:
        expr(program_.child(e, 0));
        put('[');
        expr(program_.child(e, 1));
        put(']');
        break;
      case ExprKind::kVectorLiteral:
        put('[');
        list(e);
        put(']');
        break;
    }
  }

  const Program& program_;
  Sink& sink_;
  std::size_t statement_ = 0;  ///< the statement being written
};

}  // namespace

std::string canonical_source(const Program& program) {
  std::string out;
  out.reserve(program.source().size());
  auto append = [&out](std::string_view piece) { out.append(piece); };
  CanonicalWriter(program, append).write();
  return out;
}

void hash_canonical(const Program& program, util::Fnv1a64Pair& hasher) {
  CanonicalWriter(program, hasher).write();
}

}  // namespace nada::dsl
