// The benchmark's own arithmetic: percentiles that know how many samples
// lie beyond them, a decimating latency sampler, the metric-name grammar,
// open-loop lateness, and a small JSON object writer.  Header-only and free
// of robmon includes, so the pthread-only shim program can use it too.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace rmb {

/// Nearest-rank index of the q-th percentile (0 < q <= 100) in n sorted
/// samples: the smallest rank whose share of samples at or below it is >= q.
inline std::size_t rank_index(std::size_t n, double q) {
  if (n == 0) throw std::invalid_argument("rank_index: no samples");
  if (!(q > 0.0 && q <= 100.0)) {
    throw std::invalid_argument("rank_index: q must be in (0, 100]");
  }
  const double rank = std::ceil(q / 100.0 * static_cast<double>(n));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return std::min(index, n - 1);
}

/// Samples strictly above the q-th percentile's rank.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n - 1 - rank_index(n, q);
}

/// A percentile read from a sample set, with the evidence behind it.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  ///< Sample count it was read from.
  std::size_t beyond = 0;   ///< Samples ranked above it.
};

/// The q-th percentile of `samples` (order irrelevant).  Throws when fewer
/// than `min_beyond` samples would lie beyond it: a tail percentile read
/// from a handful of samples is noise, not a measurement.
inline Percentile percentile(std::vector<double> samples, double q,
                             std::size_t min_beyond) {
  const std::size_t n = samples.size();
  const std::size_t index = rank_index(n, q);
  const std::size_t beyond = n - 1 - index;
  if (beyond < min_beyond) {
    throw std::runtime_error("percentile p" + std::to_string(q) + " of " +
                             std::to_string(n) + " samples has only " +
                             std::to_string(beyond) + " beyond it (need " +
                             std::to_string(min_beyond) + ")");
  }
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return {samples[index], n, beyond};
}

/// Median as Python's statistics.median defines it (mean of the middle two
/// for an even count).
inline double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median: no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Uniform sample of an unbounded stream in bounded memory: keeps every
/// stride-th value; when full, drops every other kept value and doubles the
/// stride.  Deterministic, so two runs of one seed sample alike.  Its
/// storage is allocated and touched up front, so the benchmark's own
/// resident memory does not grow with the throughput it measures.
class Sampler {
 public:
  explicit Sampler(std::size_t capacity = std::size_t{1} << 12)
      : kept_(std::max<std::size_t>(capacity, 2), 0.0) {}

  void add(double value) {
    if (seen_++ % stride_ != 0) return;
    kept_[size_++] = value;
    if (size_ < kept_.size()) return;
    std::size_t out = 0;
    for (std::size_t i = 0; i < size_; i += 2) kept_[out++] = kept_[i];
    size_ = out;
    stride_ *= 2;
  }

  std::span<const double> kept() const { return {kept_.data(), size_}; }
  std::uint64_t seen() const { return seen_; }
  std::uint64_t stride() const { return stride_; }

 private:
  std::vector<double> kept_;
  std::size_t size_ = 0;
  std::uint64_t stride_ = 1;
  std::uint64_t seen_ = 0;
};

/// Merges samplers of different streams into one equally weighted sample
/// set: each sampler's kept values are thinned to the largest stride among
/// them, so every merged value stands for the same number of ops.
inline std::vector<double> merge_samplers(
    const std::vector<const Sampler*>& samplers) {
  std::uint64_t stride = 1;
  for (const Sampler* s : samplers) stride = std::max(stride, s->stride());
  std::vector<double> out;
  for (const Sampler* s : samplers) {
    const std::uint64_t step = stride / s->stride();
    for (std::size_t i = 0; i < s->kept().size(); i += step) {
      out.push_back(s->kept()[i]);
    }
  }
  return out;
}

/// Peak resident memory of this process image in MB: VmHWM of
/// /proc/self/status.  Not getrusage's ru_maxrss, which Linux carries
/// across exec, so a workload spawned by a larger parent would report the
/// parent's peak.
inline double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(status);
  if (kb < 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return static_cast<double>(kb) / 1024.0;
}

/// Metric names: 1–64 characters of [A-Za-z0-9_.-], starting with a letter
/// or a digit.
inline bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

/// Open-loop arrival schedule: batches of ops fall due at seeded Poisson
/// arrival times (exponential gaps of mean `mean_gap_ns`), so a run samples
/// every phase of the checker's periodic work instead of one fixed phase.
/// An op is timed from when its batch was due, so a stall charges its wait
/// to every op queued behind it.
class ArrivalSchedule {
 public:
  ArrivalSchedule(std::uint64_t seed, double mean_gap_ns, std::int64_t start_ns)
      : rng_(seed), gap_(1.0 / mean_gap_ns), due_(start_ns) {}

  /// Due time of the next batch.
  std::int64_t next_due() {
    const std::int64_t due = due_;
    due_ += static_cast<std::int64_t>(gap_(rng_));
    return due;
  }

 private:
  std::mt19937_64 rng_;
  std::exponential_distribution<double> gap_;
  std::int64_t due_;
};

/// How late an op started relative to when it was due (never negative: an
/// early start is on time).
inline std::int64_t lateness_ns(std::int64_t due_ns, std::int64_t start_ns) {
  return std::max<std::int64_t>(0, start_ns - due_ns);
}

/// Flat JSON object writer for the raw results a run hands to run.py.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value) {
    char buf[64];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof buf, "%.17g", value);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    return raw(key, buf);
  }
  JsonObject& integer(const std::string& key, std::int64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& boolean(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  JsonObject& str(const std::string& key, const std::string& value) {
    return raw(key, quote(value));
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    if (!valid_metric_name(key)) {
      throw std::invalid_argument("bad result key: " + key);
    }
    if (!body_.empty()) body_ += ',';
    body_ += quote(key);
    body_ += ':';
    body_ += json;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

  static std::string quote(const std::string& value) {
    std::string out = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

/// Measurement windows per phase: about one second each, at most 20.
constexpr int kMaxWindowsPerPhase = 20;
inline int windows_per_phase(double phase_seconds) {
  return std::clamp(static_cast<int>(phase_seconds), 1, kMaxWindowsPerPhase);
}

/// One measurement window: the latency samplers of every op stream, the
/// ops completed, and the window's wall and CPU time.
struct Window {
  std::vector<const Sampler*> samplers;
  std::uint64_t ops = 0;
  double seconds = 0.0;
  double cpu_ns = 0.0;      ///< Process CPU time.
  double app_cpu_ns = 0.0;  ///< CPU time of the workload's own threads.
};

/// Writes a phase's end-to-end figures under `prefix`: each one the median
/// over the windows, so a burst of host noise moves one window and not the
/// figure; every window must have 10 samples beyond its p99.  Returns CPU
/// ns per op over the whole phase.
inline double put_windows(JsonObject& out, const std::string& prefix,
                          const std::vector<Window>& windows) {
  std::vector<double> ops_per_s, cpu_per_op, p50, p90, p99;
  std::uint64_t total_ops = 0;
  std::size_t samples = 0, min_beyond = SIZE_MAX;
  double total_cpu = 0.0;
  for (const Window& w : windows) {
    const std::vector<double> values = merge_samplers(w.samplers);
    ops_per_s.push_back(static_cast<double>(w.ops) / w.seconds);
    cpu_per_op.push_back(w.cpu_ns / static_cast<double>(w.ops));
    p50.push_back(percentile(values, 50, 10).value);
    p90.push_back(percentile(values, 90, 10).value);
    const Percentile tail = percentile(values, 99, 10);
    p99.push_back(tail.value);
    samples += tail.samples;
    min_beyond = std::min(min_beyond, tail.beyond);
    total_ops += w.ops;
    total_cpu += w.cpu_ns;
  }
  out.integer(prefix + "ops", static_cast<std::int64_t>(total_ops));
  out.integer(prefix + "windows", static_cast<std::int64_t>(windows.size()));
  out.num(prefix + "ops_per_s", median(ops_per_s));
  out.num(prefix + "cpu_ns_per_op", median(cpu_per_op));
  out.num(prefix + "op_p50_us", median(p50) / 1e3);
  out.num(prefix + "op_p90_us", median(p90) / 1e3);
  out.num(prefix + "op_p99_us", median(p99) / 1e3);
  out.integer(prefix + "op_latency.samples", static_cast<std::int64_t>(samples));
  out.integer(prefix + "op_p99_us.window_beyond_min",
              static_cast<std::int64_t>(min_beyond));
  return total_cpu / static_cast<double>(std::max<std::uint64_t>(total_ops, 1));
}

/// Untraced runs alternate short windows between the program under test
/// and a plain reference that does the same ops without it, in pairs AB,
/// BA, AB, ...  Both halves of a pair run at the same host speed (clock
/// frequency, what the neighbours on a shared host are doing), so their
/// ratio cancels what the host adds to both; the absolute figures of either
/// side do not.
constexpr double kPairedWindowSeconds = 0.1;

/// Windows of an untraced run of `seconds`: an even count, three pairs at
/// least (the first pair is warm-up).
inline int paired_windows(double seconds) {
  const auto pairs =
      static_cast<int>(std::lround(seconds / (2 * kPairedWindowSeconds)));
  return 2 * std::max(3, pairs);
}

/// Whether window `w` of an untraced run times the reference.
inline bool is_reference_window(int w) { return ((w ^ (w >> 1)) & 1) != 0; }

/// Median over the pairs after the first (warm-up) of a per-window figure's
/// program / reference ratio.
inline double median_pair_ratio(const std::vector<double>& per_window) {
  std::vector<double> ratios;
  for (std::size_t w = 2; w + 1 < per_window.size(); w += 2) {
    const bool ref_first = is_reference_window(static_cast<int>(w));
    ratios.push_back(per_window[ref_first ? w + 1 : w] /
                     per_window[ref_first ? w : w + 1]);
  }
  return median(ratios);
}

/// Writes an untraced run's end-to-end figures from its paired windows:
/// op_p50_ratio (p50 op latency) and cpu_ratio (CPU per op: the whole
/// process's under the program, the workload threads' own under the
/// reference, so work the program does on threads of its own counts only
/// against it), each the median over pairs of program / reference; and the
/// absolute figures of both sides, each the median over its windows (tail
/// percentiles over all the program's windows at once).
inline void put_paired(JsonObject& out, const std::vector<Window>& windows) {
  if (windows.size() < 6 || windows.size() % 2 != 0) {
    throw std::invalid_argument(
        "put_paired: needs an even count of windows, 6 or more");
  }
  std::vector<double> p50(windows.size()), cpu(windows.size());
  std::vector<double> rates[2], p50s[2], cpus[2];
  std::vector<const Sampler*> program_samplers;
  std::uint64_t ops[2] = {0, 0};
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const Window& window = windows[w];
    if (window.ops == 0) throw std::runtime_error("a window completed no ops");
    const int ref = is_reference_window(static_cast<int>(w)) ? 1 : 0;
    p50[w] = percentile(merge_samplers(window.samplers), 50, 10).value;
    cpu[w] = (ref ? window.app_cpu_ns : window.cpu_ns) /
             static_cast<double>(window.ops);
    rates[ref].push_back(static_cast<double>(window.ops) / window.seconds);
    p50s[ref].push_back(p50[w]);
    cpus[ref].push_back(cpu[w]);
    ops[ref] += window.ops;
    if (!ref) {
      program_samplers.insert(program_samplers.end(), window.samplers.begin(),
                              window.samplers.end());
    }
  }
  const std::vector<double> tail = merge_samplers(program_samplers);
  const Percentile p99 = percentile(tail, 99, 10);
  out.num("op_p50_ratio", median_pair_ratio(p50));
  out.num("cpu_ratio", median_pair_ratio(cpu));
  out.integer("pairs", static_cast<std::int64_t>(windows.size() / 2 - 1));
  out.integer("ops", static_cast<std::int64_t>(ops[0]));
  out.integer("ref_ops", static_cast<std::int64_t>(ops[1]));
  out.num("ops_per_s", median(rates[0]));
  out.num("cpu_ns_per_op", median(cpus[0]));
  out.num("op_p50_us", median(p50s[0]) / 1e3);
  out.num("op_p90_us", percentile(tail, 90, 10).value / 1e3);
  out.num("op_p99_us", p99.value / 1e3);
  out.integer("op_latency.samples", static_cast<std::int64_t>(p99.samples));
  out.integer("op_p99_us.beyond", static_cast<std::int64_t>(p99.beyond));
  out.num("ref_ops_per_s", median(rates[1]));
  out.num("ref_cpu_ns_per_op", median(cpus[1]));
  out.num("ref_op_p50_us", median(p50s[1]) / 1e3);
}

}  // namespace rmb
