// Tiny --key=value command-line parser for the examples and benches, and
// the ROBMON_* environment-variable parser shared by the interposition shim
// and the examples.  Both support string / int64 / double / bool values
// with defaults; EnvFlags adds range validation and a single "bad config"
// error path (collected errors, one formatted report).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace robmon::util {

class Flags {
 public:
  /// Declare a flag before parse().  `help` is shown by --help.
  void define(const std::string& name, const std::string& default_value,
              const std::string& help);

  /// Parse argv; returns false (and prints usage) on unknown flag or --help.
  bool parse(int argc, char** argv);

  std::string str(const std::string& name) const;
  std::int64_t i64(const std::string& name) const;
  double f64(const std::string& name) const;
  bool boolean(const std::string& name) const;
  /// Comma-separated list of positive integers ("1,8,64").  nullopt when
  /// the list is empty, or when any token is empty, holds anything but
  /// ASCII digits (a sign, a space), is zero, or overflows std::size_t.
  std::optional<std::vector<std::size_t>> positive_list(
      const std::string& name) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  std::string usage(const std::string& program) const;

 private:
  struct Entry {
    std::string value;
    std::string default_value;
    std::string help;
  };
  std::map<std::string, Entry> entries_;
  std::vector<std::string> positional_;
};

/// Typed, validating reader for `ROBMON_*` environment variables — the one
/// configuration surface of the interposition shim (which has no argv) and
/// the env-overridable defaults of the examples.
///
/// Every getter reads `prefix + name` (default prefix "ROBMON_"), returns
/// the fallback when the variable is unset, and *collects* a description of
/// the problem — instead of throwing — when the value is malformed or out
/// of range, returning the fallback.  After the last getter, callers hit
/// the single bad-config error path: `ok()` says whether every variable
/// parsed, `error_text()` formats all collected errors in one report.  The
/// shim prints it and runs with defaults (never aborts the host program);
/// the examples print it and exit non-zero.  Getters also record each
/// variable they touched, so error_text() can append a reference of
/// recognized names.
class EnvFlags {
 public:
  explicit EnvFlags(std::string prefix = "ROBMON_");

  /// Raw lookup: value of `prefix + name`, or nullopt when unset.
  std::optional<std::string> raw(const std::string& name) const;

  std::string str(const std::string& name, const std::string& fallback);
  /// Integer in [min, max]; the bounds are inclusive.
  std::int64_t i64(const std::string& name, std::int64_t fallback,
                   std::int64_t min = INT64_MIN, std::int64_t max = INT64_MAX);
  /// Double in [min, max]; the bounds are inclusive.
  double f64(const std::string& name, double fallback, double min,
             double max);
  /// true/1/yes/on and false/0/no/off (case-sensitive, like Flags).
  bool boolean(const std::string& name, bool fallback);

  bool ok() const { return errors_.empty(); }
  const std::vector<std::string>& errors() const { return errors_; }
  /// The single bad-config report: one line per collected error plus the
  /// recognized-variable reference.  Empty string when ok().
  std::string error_text() const;

 private:
  void record_error(const std::string& name, const std::string& value,
                    const std::string& what);

  std::string prefix_;
  std::vector<std::string> seen_;  ///< Variables consulted, define order.
  std::vector<std::string> errors_;
};

}  // namespace robmon::util
