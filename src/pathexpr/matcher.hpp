// Per-process call-order matcher — the *real-time* phase of the paper's
// two-phase detection strategy (Section 3.3): "real-time checking of calling
// orders of monitor procedures, which is applied only to
// Resource-access-right-allocator type monitors".
//
// A CallOrderSpec compiles the monitor's declared path expression once; each
// user process then owns a Matcher cursor.  advance() is O(1) per call.
// Procedure names outside the expression's alphabet are unconstrained and do
// not move the cursor.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "pathexpr/automaton.hpp"

namespace robmon::pathexpr {

enum class MatchResult {
  kOk,            ///< Call permitted; cursor advanced.
  kUnconstrained, ///< Name not in the alphabet; cursor unchanged.
  kViolation,     ///< Call violates the declared partial order.
};

class CallOrderSpec;

/// Cursor over the compiled DFA for one user process.
class Matcher {
 public:
  Matcher() = default;
  explicit Matcher(const CallOrderSpec* spec);

  /// Feed one completed procedure call.  On kViolation the cursor freezes
  /// (subsequent calls keep reporting violations) until reset().
  MatchResult advance(const std::string& procedure);
  /// advance() for a procedure already resolved to its index in the DFA
  /// alphabet (Dfa::symbol_index; negative = outside the alphabet), so a
  /// caller that caches the index skips the name lookup.
  MatchResult advance_index(std::int32_t symbol);

  /// True if the calls so far form a complete word of the path expression
  /// (e.g. every Acquire has been Released).
  bool at_accepting() const;

  /// True if some continuation could still reach acceptance.
  bool viable() const { return state_ != kDeadState; }

  void reset();

 private:
  const CallOrderSpec* spec_ = nullptr;
  StateId state_ = kDeadState;
};

/// Immutable compiled specification shared by all matchers of a monitor.
class CallOrderSpec {
 public:
  /// Compile from path-expression text.  Throws ParseError on bad syntax.
  explicit CallOrderSpec(const std::string& expression);

  const Dfa& dfa() const { return dfa_; }
  const std::string& expression() const { return expression_; }

  Matcher matcher() const { return Matcher(this); }

 private:
  std::string expression_;
  Dfa dfa_;
};

}  // namespace robmon::pathexpr
