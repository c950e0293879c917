#include "util/flags.hpp"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace robmon::util {

void Flags::define(const std::string& name, const std::string& default_value,
                   const std::string& help) {
  entries_[name] = Entry{default_value, default_value, help};
}

bool Flags::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage(argv[0]).c_str(), stderr);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    std::string key;
    std::string value;
    const auto eq = body.find('=');
    if (eq == std::string::npos) {
      key = body;
      value = "true";  // bare --flag means boolean true
    } else {
      key = body.substr(0, eq);
      value = body.substr(eq + 1);
    }
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      std::fprintf(stderr, "unknown flag --%s\n%s", key.c_str(),
                   usage(argv[0]).c_str());
      return false;
    }
    it->second.value = value;
  }
  return true;
}

std::string Flags::str(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) throw std::out_of_range("undefined flag " + name);
  return it->second.value;
}

std::int64_t Flags::i64(const std::string& name) const {
  return std::strtoll(str(name).c_str(), nullptr, 10);
}

double Flags::f64(const std::string& name) const {
  return std::strtod(str(name).c_str(), nullptr);
}

bool Flags::boolean(const std::string& name) const {
  const std::string v = str(name);
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

std::optional<std::vector<std::size_t>> Flags::positive_list(
    const std::string& name) const {
  const std::string csv = str(name);
  std::vector<std::size_t> values;
  std::size_t begin = 0;
  while (begin <= csv.size()) {
    std::size_t end = csv.find(',', begin);
    if (end == std::string::npos) end = csv.size();
    const char* last = csv.data() + end;
    // For an unsigned type std::from_chars takes digits only: no sign, no
    // whitespace, no empty token, and an overflow is an error, not a wrap.
    std::size_t value = 0;
    const auto [ptr, ec] = std::from_chars(csv.data() + begin, last, value);
    if (ec != std::errc() || ptr != last || value == 0) return std::nullopt;
    values.push_back(value);
    begin = end + 1;
  }
  return values;
}

std::string Flags::usage(const std::string& program) const {
  std::ostringstream out;
  out << "usage: " << program << " [--flag=value]...\n";
  for (const auto& [name, entry] : entries_) {
    out << "  --" << name << " (default: " << entry.default_value << ")  "
        << entry.help << "\n";
  }
  return out.str();
}

EnvFlags::EnvFlags(std::string prefix) : prefix_(std::move(prefix)) {}

std::optional<std::string> EnvFlags::raw(const std::string& name) const {
  const char* value = std::getenv((prefix_ + name).c_str());
  if (value == nullptr) return std::nullopt;
  return std::string(value);
}

std::string EnvFlags::str(const std::string& name,
                          const std::string& fallback) {
  seen_.push_back(prefix_ + name);
  return raw(name).value_or(fallback);
}

std::int64_t EnvFlags::i64(const std::string& name, std::int64_t fallback,
                           std::int64_t min, std::int64_t max) {
  seen_.push_back(prefix_ + name);
  const std::optional<std::string> value = raw(name);
  if (!value) return fallback;
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(value->c_str(), &end, 10);
  if (value->empty() || end == nullptr || *end != '\0' || errno == ERANGE) {
    record_error(name, *value, "not an integer");
    return fallback;
  }
  if (parsed < min || parsed > max) {
    std::ostringstream what;
    what << "out of range [" << min << ", " << max << "]";
    record_error(name, *value, what.str());
    return fallback;
  }
  return parsed;
}

double EnvFlags::f64(const std::string& name, double fallback, double min,
                     double max) {
  seen_.push_back(prefix_ + name);
  const std::optional<std::string> value = raw(name);
  if (!value) return fallback;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value->c_str(), &end);
  if (value->empty() || end == nullptr || *end != '\0' || errno == ERANGE) {
    record_error(name, *value, "not a number");
    return fallback;
  }
  if (!(parsed >= min && parsed <= max)) {  // rejects NaN too
    std::ostringstream what;
    what << "out of range [" << min << ", " << max << "]";
    record_error(name, *value, what.str());
    return fallback;
  }
  return parsed;
}

bool EnvFlags::boolean(const std::string& name, bool fallback) {
  seen_.push_back(prefix_ + name);
  const std::optional<std::string> value = raw(name);
  if (!value) return fallback;
  if (*value == "true" || *value == "1" || *value == "yes" || *value == "on") {
    return true;
  }
  if (*value == "false" || *value == "0" || *value == "no" ||
      *value == "off") {
    return false;
  }
  record_error(name, *value, "not a boolean (true/1/yes/on or false/0/no/off)");
  return fallback;
}

std::string EnvFlags::error_text() const {
  if (errors_.empty()) return "";
  std::ostringstream out;
  out << "robmon: bad configuration:\n";
  for (const std::string& error : errors_) out << "  " << error << "\n";
  out << "recognized variables:";
  for (const std::string& name : seen_) out << " " << name;
  out << "\n";
  return out.str();
}

void EnvFlags::record_error(const std::string& name, const std::string& value,
                            const std::string& what) {
  errors_.push_back(prefix_ + name + "=" + value + ": " + what);
}

}  // namespace robmon::util
