// Tests of the benchmark's own arithmetic: percentiles and the samples
// beyond them, self time from nested spans, the metric-name grammar,
// open-loop lateness, and the paired program/reference windows.  Exits
// non-zero on the first failed expectation; robmonbench/run.py runs it
// after every build.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(1001 - i);  // 1000..1, unsorted
  const rmb::Percentile p50 = rmb::percentile(v, 50, 10);
  expect(near(p50.value, 500), "p50 of 1..1000 is 500");
  const rmb::Percentile p99 = rmb::percentile(v, 99, 10);
  expect(near(p99.value, 990), "p99 of 1..1000 is 990 (nearest rank)");
  expect(p99.beyond == 10, "p99 of 1000 samples has exactly 10 beyond");
  expect(p99.samples == 1000, "percentile reports its sample count");
  bool threw = false;
  try {
    v.pop_back();  // 999 samples: only 9 beyond p99
    rmb::percentile(v, 99, 10);
  } catch (const std::runtime_error&) {
    threw = true;
  }
  expect(threw, "p99 of 999 samples is refused (fewer than 10 beyond)");
  expect(rmb::samples_beyond(200, 95) == 10, "p95 of 200 samples has 10 beyond");
  expect(rmb::samples_beyond(199, 95) == 9, "p95 of 199 samples has 9 beyond");
  expect(near(rmb::percentile({7.0}, 50, 0).value, 7.0), "p50 of one sample");
  expect(near(rmb::median({3, 1, 2}), 2), "median of an odd count");
  expect(near(rmb::median({4, 1, 3, 2}), 2.5), "median of an even count");

  rmb::Sampler sampler(8);
  for (int i = 0; i < 100; ++i) sampler.add(i);
  expect(sampler.seen() == 100, "sampler counts every value it sees");
  expect(sampler.kept().size() < 8, "sampler stays within its capacity");
  bool strided = true;
  for (std::size_t i = 0; i < sampler.kept().size(); ++i) {
    strided = strided && near(sampler.kept()[i],
                              static_cast<double>(i * sampler.stride()));
  }
  expect(strided, "sampler keeps a uniform stride");

  // A busy stream (stride 4 after decimation) and a quiet one (stride 1):
  // the merge thins the quiet one so each value stands for 4 ops.
  rmb::Sampler busy(8), quiet(8);
  for (int i = 0; i < 20; ++i) busy.add(100);
  for (int i = 0; i < 4; ++i) quiet.add(1);
  const auto merged = rmb::merge_samplers({&busy, &quiet});
  std::size_t quiet_kept = 0;
  for (double v : merged) quiet_kept += v == 1;
  expect(busy.stride() == 4 && quiet_kept == 1,
         "merge weights every value by the same op count");
}

rmb::Span span(std::uint64_t id, std::uint64_t parent, std::int64_t start,
               std::int64_t end, std::uint32_t name) {
  rmb::Span s;
  s.id = id;
  s.parent = parent;
  s.op = 1;
  s.start_ns = start;
  s.end_ns = end;
  s.name = name;
  return s;
}

void test_self_time() {
  // op [0,100) with children A [10,30) and B [20,50) (overlapping: union
  // 40) and C [90,120) clipped to [90,100); A has a child D [12,18).
  const std::vector<rmb::Span> spans = {
      span(1, 0, 0, 100, 0), span(2, 1, 10, 30, 1), span(3, 1, 20, 50, 2),
      span(4, 1, 90, 120, 3), span(5, 2, 12, 18, 4)};
  const auto t = rmb::self_times(spans);
  expect(near(t.at(0).self_ns, 50), "root self = 100 - union(40 + 10)");
  expect(near(t.at(0).total_ns, 100), "root total = its duration");
  expect(near(t.at(1).self_ns, 14), "child self = 20 - grandchild 6");
  expect(near(t.at(2).self_ns, 30), "leaf self = its duration");
  expect(near(t.at(4).self_ns, 6), "grandchild self = its duration");
  expect(t.at(1).spans == 1 && near(t.at(1).count, 1), "one span per name");

  // A span sampled 1 in 8 stands for 8 calls: weighted totals, same mean.
  rmb::Span sparse = span(6, 0, 0, 10, 5);
  sparse.weight = 8;
  const auto w = rmb::self_times({sparse, span(7, 0, 0, 30, 5)});
  expect(w.at(5).spans == 2 && near(w.at(5).count, 9), "weights add calls");
  expect(near(w.at(5).self_ns / w.at(5).count, (8 * 10 + 30) / 9.0),
         "weighted mean self time");
}

void test_names() {
  for (const char* ok : {"setup_s", "runtime.enter_ns", "p-99", "9lives",
                         "pool.checks_per_dispatch"}) {
    expect(rmb::valid_metric_name(ok), std::string("accepts ") + ok);
  }
  for (const char* bad : {"", ".hidden", "_x", "a b", "ns/op", "op\"s",
                          "ü"}) {
    expect(!rmb::valid_metric_name(bad), std::string("rejects '") + bad + "'");
  }
  expect(rmb::valid_metric_name(std::string(64, 'a')), "accepts 64 chars");
  expect(!rmb::valid_metric_name(std::string(65, 'a')), "rejects 65 chars");
  bool threw = false;
  try {
    rmb::JsonObject().num("bad key", 1);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "the result writer refuses a bad key");
}

void test_open_loop() {
  rmb::ArrivalSchedule a(42, 1000.0, 5000), b(42, 1000.0, 5000);
  expect(a.next_due() == 5000, "first batch due at the start");
  b.next_due();
  std::int64_t last = 0;
  bool same = true, ordered = true;
  for (int i = 0; i < 20000; ++i) {
    const std::int64_t due = a.next_due();
    same = same && due == b.next_due();
    ordered = ordered && due >= last;
    last = due;
  }
  expect(same, "one seed gives one arrival sequence");
  expect(ordered, "arrivals never go back in time");
  const double mean_gap = static_cast<double>(last - 5000) / 20000.0;
  expect(std::fabs(mean_gap - 1000.0) < 50.0, "arrivals keep the mean gap");
  expect(rmb::lateness_ns(1100, 1175) == 75, "late start counts its delay");
  expect(rmb::lateness_ns(1100, 1050) == 0, "early start is on time");
}

void test_paired_windows() {
  const bool expected[] = {false, true, true, false, false, true, true, false};
  bool pattern = true;
  for (int w = 0; w < 8; ++w) {
    pattern = pattern && rmb::is_reference_window(w) == expected[w];
  }
  expect(pattern, "windows pair up as AB, BA, AB, BA");
  expect(rmb::paired_windows(2.0) == 20, "2 s gives ten pairs of 0.1 s");
  expect(rmb::paired_windows(0.1) == 6, "a short run still gets three pairs");

  // Program windows cost 3x the reference, except the warm-up pair, whose
  // ratio (100) must not count, and one noisy pair (5) that the median
  // rides over.
  const std::vector<double> per_window = {100, 1, 1, 3, 3, 1, 2, 10, 3, 1};
  expect(near(rmb::median_pair_ratio(per_window), 3),
         "pair ratio: median over pairs after the first");

  // Windows of 400 ops (enough for a p99 over the program's three):
  // program latencies 300, reference 100; process CPU
  // counts against the program, the workload threads' CPU against the
  // reference.
  std::vector<rmb::Sampler> samplers(6);
  std::vector<rmb::Window> windows(6);
  for (int w = 0; w < 6; ++w) {
    const bool ref = rmb::is_reference_window(w);
    for (int i = 0; i < 400; ++i) samplers[w].add(ref ? 100 : 300);
    windows[w].samplers = {&samplers[w]};
    windows[w].ops = 400;
    windows[w].seconds = 0.1;
    windows[w].cpu_ns = ref ? 99999 : 400 * 600;
    windows[w].app_cpu_ns = ref ? 400 * 200 : 1;
  }
  rmb::JsonObject out;
  bool threw = false;
  try {
    rmb::put_paired(out, windows);
  } catch (const std::exception&) {
    threw = true;
  }
  expect(!threw, "put_paired accepts three pairs of 400 ops");
  const std::string text = out.text();
  expect(text.find("\"op_p50_ratio\":3,") != std::string::npos,
         "op_p50_ratio = 300 / 100");
  expect(text.find("\"cpu_ratio\":3,") != std::string::npos,
         "cpu_ratio = process CPU 600 / workload CPU 200 per op");
  expect(text.find("\"pairs\":2,") != std::string::npos,
         "the warm-up pair is not counted");
}

}  // namespace

int main() {
  test_percentiles();
  test_self_time();
  test_names();
  test_open_loop();
  test_paired_windows();
  if (failures != 0) {
    std::fprintf(stderr, "%d arithmetic test(s) failed\n", failures);
    return 1;
  }
  std::fprintf(stderr, "arithmetic tests passed\n");
  return 0;
}
