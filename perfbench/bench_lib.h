// Helpers of the physnet benchmark: sample sets and percentile ranks, the
// design corpus, output checks, in-memory spans, and the host-speed probe.
//
// Everything here sits outside the library: the benchmark times its own
// calls into public functions and reads only what those functions return.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/report.h"
#include "core/pipeline.h"

namespace perfbench {

// ---- clock ----------------------------------------------------------------

using steady = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(steady::time_point a,
                                       steady::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- sample sets and percentile ranks -------------------------------------

// Nearest-rank percentile: the 1-based rank of the sample that reports
// percentile `pct` (1..100) of `n` samples, ceil(pct * n / 100).
[[nodiscard]] std::size_t percentile_rank(std::size_t n, int pct);

// Samples strictly above that rank: n - percentile_rank(n, pct).
[[nodiscard]] std::size_t samples_beyond(std::size_t n, int pct);

// Percentile `pct` of `samples` by nearest rank (samples need not be
// sorted). Requires a non-empty set.
[[nodiscard]] double percentile(std::vector<double> samples, int pct);

[[nodiscard]] double median(std::vector<double> samples);

// A tail percentile is reported only when at least this many samples lie
// beyond its rank.
inline constexpr std::size_t min_samples_beyond = 10;

// Self-check of a reported median and tail percentile `tail_pct`, both
// read from one set of `samples` samples: p50 <= tail, and at least
// min_samples_beyond samples beyond the tail's rank. Returns an empty
// string when both hold, else what failed.
[[nodiscard]] std::string check_percentiles(std::size_t samples, double p50,
                                            double tail, int tail_pct);

// ---- the design corpus ----------------------------------------------------

struct design_spec {
  std::string family;
  int size = 0;
};

// All ten registry families at two sizes each (smaller size first).
// vl2 stops at 20: build_family("vl2", n) fails a PN_CHECK for several
// larger sizes (22, 24, 32: an aggregation switch needs one more port than
// its radix), a known library defect.
[[nodiscard]] const std::vector<design_spec>& corpus();

// The smaller corpus size of every family, in corpus order.
[[nodiscard]] std::vector<design_spec> small_designs();

[[nodiscard]] std::string design_name(const design_spec& d);

// ---- output checks --------------------------------------------------------

// Collects check violations; any violation fails the run.
class check_log {
 public:
  void fail(std::string what);
  [[nodiscard]] bool ok() const { return violations_.empty(); }
  [[nodiscard]] std::size_t count() const { return count_; }
  // The first few violations (the rest are only counted).
  [[nodiscard]] const std::vector<std::string>& violations() const {
    return violations_;
  }

 private:
  std::vector<std::string> violations_;
  std::size_t count_ = 0;
};

// Every report field rendered exactly (the sweep checkpoint line, %.17g
// doubles), with eval_total_ms — wall time — left out.
[[nodiscard]] std::string report_fingerprint(const pn::deployability_report& r);

// Each of `got` equals the report at the same index of `expected`, on
// every field except eval_total_ms, and the lengths agree.
void check_same_reports(const std::vector<pn::deployability_report>& expected,
                        const std::vector<pn::deployability_report>& got,
                        const std::string& what, check_log& log);

// A served report equals the local evaluation of the same request on
// every field except eval_total_ms.
void check_served_report(const pn::deployability_report& served,
                         const pn::deployability_report& local,
                         const std::string& what, check_log& log);

// The server's cache hit count equals the hot requests sent after the
// hot set was filled.
void check_cache_hits(std::uint64_t server_hits, std::uint64_t hot_sent,
                      check_log& log);

// ---- spans ----------------------------------------------------------------

// One traced interval. Times are milliseconds from the log's origin.
struct span {
  int name = 0;          // index into span_log::names()
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;       // index of the parent span, -1 for a root
  std::uint64_t op = 0;  // operation id shared by a call and its children
};

// Spans kept in memory and written out when the run ends.
class span_log {
 public:
  span_log();

  // Interns a span name once, so recording stays a plain push_back.
  [[nodiscard]] int name_id(const std::string& name);
  [[nodiscard]] const std::vector<std::string>& names() const {
    return names_;
  }

  [[nodiscard]] double ms_since_origin(steady::time_point t) const {
    return ms_between(origin_, t);
  }

  // Records a span and returns its index.
  int add(int name, double start_ms, double end_ms, int parent,
          std::uint64_t op);

  // One span per stage that ran, rebuilt from a stage_trace under
  // `parent`. The trace gives durations only, so the stages are laid end
  // to end from the parent's start, in execution order.
  void add_stages(const pn::stage_trace& trace, int parent);

  [[nodiscard]] const std::vector<span>& spans() const { return spans_; }

  // Tab-separated: id, name, start_ms, end_ms, parent, op.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  steady::time_point origin_;
  std::vector<std::string> names_;
  std::vector<int> stage_names_;
  std::vector<span> spans_;
};

// Each span's duration minus the part of it its child spans cover.
[[nodiscard]] std::vector<double> self_times(const std::vector<span>& spans);

// ---- host-speed probe -----------------------------------------------------

// Milliseconds for a fixed integer loop that does not touch the library.
// Its only use is to make host speed drift visible next to a result.
[[nodiscard]] double host_probe_ms();

}  // namespace perfbench
