#include "pathexpr/matcher.hpp"

namespace robmon::pathexpr {

Matcher::Matcher(const CallOrderSpec* spec)
    : spec_(spec), state_(spec ? spec->dfa().start : kDeadState) {}

MatchResult Matcher::advance(const std::string& procedure) {
  if (spec_ == nullptr) return MatchResult::kUnconstrained;
  return advance_index(spec_->dfa().symbol_index(procedure));
}

MatchResult Matcher::advance_index(std::int32_t symbol) {
  if (spec_ == nullptr || symbol < 0) return MatchResult::kUnconstrained;
  if (state_ == kDeadState) return MatchResult::kViolation;
  const StateId next = spec_->dfa().next(state_, symbol);
  if (next == kDeadState) {
    state_ = kDeadState;
    return MatchResult::kViolation;
  }
  state_ = next;
  return MatchResult::kOk;
}

bool Matcher::at_accepting() const {
  if (spec_ == nullptr || state_ == kDeadState) return false;
  return spec_->dfa().accepting[static_cast<std::size_t>(state_)];
}

void Matcher::reset() {
  state_ = spec_ ? spec_->dfa().start : kDeadState;
}

CallOrderSpec::CallOrderSpec(const std::string& expression)
    : expression_(expression), dfa_(compile(expression)) {}

}  // namespace robmon::pathexpr
