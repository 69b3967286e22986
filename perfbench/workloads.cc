// perfbench_workloads: runs one workload of the physnet benchmark in this
// process, checks its outputs, and prints its metrics.
//
//   perfbench_workloads --workload eval_corpus|campaign_replay|serve_mixed
//                    --seed N --seconds S --trace 0|1
//                    [--repo DIR] [--workdir DIR]
//
// --trace 0 prints the end-to-end metrics (throughput_per_s,
// latency_p50_ms, latency_p99_ms, setup_s, peak_rss_mb). --trace 1 traces
// every other slice of the timed window and prints the workload's per-layer
// metrics and the tracing overhead. Human-readable lines come first; the
// last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 when every output check passed, 1 otherwise.
//
// The benchmark measures from outside the library: it times its own calls
// into public functions and reads only what they return (stage_trace and
// its counters, the server's stats reply).
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_lib.h"
#include "campaign/campaign.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/evaluator.h"
#include "core/sweep.h"
#include "deploy/plan_builder.h"
#include "deploy/repair_sim.h"
#include "deploy/tech_sim.h"
#include "physical/cabling.h"
#include "physical/placement.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "topology/distance_cache.h"
#include "topology/generators/families.h"
#include "topology/metrics.h"
#include "topology/routing.h"
#include "topology/traffic.h"
#include "twin/design_codec.h"
#include "twin/serialize.h"

namespace perfbench {
namespace {

// Every run sets its workload up once per segment of the timed window plus
// once, spread over the run: before the timed window (the state it
// measures) and after each segment. The later set-ups are timed, checked
// against the first and thrown away. setup_s is the median of them all, so
// it samples the host all through the run, not at one moment. A set-up
// sees the host only while it runs; a corpus set-up takes about 0.1 s, a
// third of a serve set-up and a tenth of a campaign one, so the corpus
// window has the most segments and the campaign window the fewest. Every
// campaign set-up replays the whole campaign, and a campaign segment should
// hold at least one replay.
constexpr int corpus_segments = 30;
constexpr int campaign_segments = 4;
constexpr int serve_segments = 10;

struct args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string repo = ".";
  std::string workdir = ".";
};

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

// Everything one workload run reports.
struct run_result {
  std::vector<metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  check_log checks;
  std::vector<std::string> notes;

  void put(std::string name, double value, std::string unit,
           std::size_t samples) {
    metrics.push_back(
        metric{std::move(name), value, std::move(unit), samples});
  }
};

// The timed window of a workload: its latency sample set (one sample per
// operation), what it attempted, and how many seconds it ran. The window is
// made of slices: a corpus pass, a replay, or a quarter second of served
// requests. In the traced run the slices alternate between untraced and
// traced, and each slice's rate goes to the list of its kind, so the
// tracing overhead compares slices that ran side by side.
struct window {
  std::vector<double> latency_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double seconds = 0.0;
  std::uint64_t slices = 0;
  std::vector<double> plain_per_s;
  std::vector<double> traced_per_s;
  double peak_rss_mb = 0.0;
  bool peak_rss_reset = true;  // every reset_peak_rss() succeeded

  // Operations completed per second of the timed window.
  [[nodiscard]] double throughput() const {
    return static_cast<double>(latency_ms.size()) / seconds;
  }

  // Whether the next slice is traced: every other one of a traced run.
  [[nodiscard]] bool next_traced(bool trace) const {
    return trace && slices % 2 == 1;
  }

  void add_slice(bool traced, double per_s) {
    (traced ? traced_per_s : plain_per_s).push_back(per_s);
    ++slices;
  }
};

// Peak resident memory of this process in MB: VmHWM, the high-water mark
// since the process started or since the last reset_peak_rss().
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// Restarts the high-water mark at the current resident size. Returns false
// where the kernel does not allow it.
bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5" << std::flush;
  return static_cast<bool>(out);
}

// Runs the timed window as `segments` segments of equal length with the
// set-up repeated after each. segment(until_s) adds slices to the
// window until its seconds reach until_s, so a slice that overruns one
// segment shortens the next and the window as a whole keeps its length.
//
// The window's peak memory leaves the repeated set-ups out: each one's
// freed memory goes back to the system (malloc_trim) and the high-water
// mark restarts after it. So w.peak_rss_mb covers the first set-up and
// every segment, and not a thrown-away server or corpus living next to the
// measured one.
template <class Segment, class SetUp>
void run_segments(double seconds, int segments, window& w, Segment segment,
                  SetUp set_up_again) {
  for (int s = 1; s <= segments; ++s) {
    segment(seconds * s / segments);
    w.peak_rss_mb = std::max(w.peak_rss_mb, peak_rss_mb());
    set_up_again(s);
    ::malloc_trim(0);
    w.peak_rss_reset = reset_peak_rss() && w.peak_rss_reset;
  }
}

double now_ms_since(steady::time_point t0) {
  return ms_between(t0, steady::now());
}

// The clock of one segment of the timed window. The output checks run off
// the clock, right after the operations they check, so the window holds
// only the workload's own work and the benchmark keeps no more than one
// slice's outputs. Keeping a whole segment's outputs would let peak memory
// follow how many slices fit in a segment, which is the host's speed.
class segment_clock {
 public:
  explicit segment_clock(double begin_s) : begin_s_(begin_s) {}

  // The window's seconds so far.
  [[nodiscard]] double seconds() const {
    return begin_s_ + (now_ms_since(start_) - off_clock_ms_) / 1000.0;
  }

  // Runs fn off the window's clock.
  template <class Fn>
  void off_clock(Fn fn) {
    const auto t0 = steady::now();
    fn();
    off_clock_ms_ += now_ms_since(t0);
  }

 private:
  double begin_s_;
  steady::time_point start_ = steady::now();
  double off_clock_ms_ = 0.0;
};

// The end-to-end metrics every workload reports, from one window.
void put_end_to_end(const window& w, const std::vector<double>& setup_ms,
                    run_result& out) {
  const std::size_t n = w.latency_ms.size();
  if (n == 0 || w.seconds <= 0.0) {
    out.checks.fail("no operation completed");
    return;
  }
  const double p50 = percentile(w.latency_ms, 50);
  const double p99 = percentile(w.latency_ms, 99);
  const std::string bad = check_percentiles(n, p50, p99, 99);
  if (!bad.empty()) out.checks.fail("latency percentiles: " + bad);
  out.put("throughput_per_s", w.throughput(), "1/s", n);
  out.put("latency_p50_ms", p50, "ms", n);
  out.put("latency_p99_ms", p99, "ms", n);
  out.put("setup_s", median(setup_ms) / 1000.0, "s", setup_ms.size());
  out.put("peak_rss_mb", w.peak_rss_mb, "MB", 1);
  if (!w.peak_rss_reset) {
    out.notes.push_back("peak_rss_mb includes the repeated set-ups: the "
                        "high-water mark could not be reset");
  }
  std::string each;
  for (const double ms : setup_ms) each += pn::str_format(" %.3f", ms / 1000.0);
  out.notes.push_back("set-ups (s):" + each);
}

// Self time per (span name, operation), from a span log.
using self_table = std::map<int, std::map<std::uint64_t, double>>;

self_table self_by_name_and_op(const span_log& log) {
  const std::vector<double> self = self_times(log.spans());
  self_table out;
  for (std::size_t i = 0; i < log.spans().size(); ++i) {
    const span& s = log.spans()[i];
    out[s.name][s.op] += self[i];
  }
  return out;
}

std::vector<double> per_op_values(const self_table& t, int name) {
  std::vector<double> v;
  const auto it = t.find(name);
  if (it == t.end()) return v;
  for (const auto& [op, ms] : it->second) v.push_back(ms);
  return v;
}

double sum_of(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

// Per-stage self time (median per operation) and share (of all operation
// time), plus the residual the stages do not cover, for operations whose
// span is named `op_name` and whose children are stage spans.
void put_stage_metrics(span_log& log, const self_table& t,
                       const std::string& op_name, const std::string& prefix,
                       run_result& out) {
  const int op_id = log.name_id(op_name);
  std::vector<double> op_total;
  for (const span& s : log.spans()) {
    if (s.name == op_id) op_total.push_back(s.end_ms - s.start_ms);
  }
  const double total = sum_of(op_total);
  if (op_total.empty() || total <= 0.0) return;
  for (const pn::eval_stage st : pn::all_eval_stages()) {
    const std::string stage = pn::eval_stage_name(st);
    const std::vector<double> v =
        per_op_values(t, log.name_id("stage." + stage));
    const double self_ms = v.empty() ? 0.0 : median(v);
    out.put(prefix + stage + ".self_ms", self_ms, "ms", v.size());
    out.put(prefix + stage + ".share", sum_of(v) / total, "ratio", v.size());
  }
  const std::vector<double> residual = per_op_values(t, op_id);
  out.put(prefix + "residual_ms", median(residual), "ms", residual.size());
  out.put(prefix + "residual_share", sum_of(residual) / total, "ratio",
          residual.size());
}

// Untraced over traced slice rate, medians of the interleaved slices.
void put_overhead(const std::string& workload, const window& w,
                  run_result& out) {
  if (w.plain_per_s.empty() || w.traced_per_s.empty()) {
    out.checks.fail("traced run: no traced or no untraced slice");
    return;
  }
  const double pct =
      (median(w.plain_per_s) / median(w.traced_per_s) - 1.0) * 100.0;
  out.put("trace.overhead." + workload, pct, "%", w.traced_per_s.size());
}

// ===========================================================================
// eval_corpus: serial, cold evaluate_design_staged calls over the corpus.
// ===========================================================================

pn::evaluation_options corpus_options(std::uint64_t seed) {
  pn::evaluation_options opt;
  opt.seed = seed;
  opt.run_repair_sim = true;
  opt.strategy = pn::placement_strategy::block;
  return opt;
}

struct corpus_state {
  std::vector<pn::network_graph> graphs;
  std::vector<std::string> names;
  std::vector<pn::deployability_report> reference;  // the warm-up pass
  double build_ms = 0.0;
};

corpus_state corpus_setup(std::uint64_t seed,
                          const pn::evaluation_options& opt,
                          run_result& out) {
  corpus_state st;
  for (const design_spec& d : corpus()) {
    const auto t0 = steady::now();
    auto g = pn::build_family(d.family, d.size, seed);
    st.build_ms += now_ms_since(t0);
    if (!g.is_ok()) {
      throw std::runtime_error("cannot build " + design_name(d) + ": " +
                               g.error().to_string());
    }
    st.graphs.push_back(std::move(g).value());
    st.names.push_back(design_name(d));
  }
  // Untimed warm-up pass; its reports are the reference for every pass.
  for (std::size_t i = 0; i < st.graphs.size(); ++i) {
    pn::evaluation ev = pn::evaluate_design_staged(st.graphs[i], st.names[i],
                                                   opt);
    if (!ev.trace.ok()) {
      out.checks.fail("warm-up evaluation of " + st.names[i] + " failed: " +
                      ev.trace.first_error().to_string());
    }
    st.reference.push_back(std::move(ev.report));
  }
  return st;
}

// Whole corpus passes until the window's seconds reach `until_s`. With
// `spans`, every other pass is traced.
void corpus_segment(const corpus_state& st, const pn::evaluation_options& opt,
                    double until_s, span_log* spans, window& w,
                    run_result& out) {
  std::vector<pn::deployability_report> got;
  const int eval_name =
      spans ? spans->name_id("core.evaluate_design_staged") : 0;
  segment_clock clock(w.seconds);
  while (clock.seconds() < until_s) {
    const bool traced = w.next_traced(spans != nullptr);
    const auto pass_start = steady::now();
    const std::size_t done_before = w.latency_ms.size();
    got.clear();
    for (std::size_t i = 0; i < st.graphs.size(); ++i) {
      const auto t0 = steady::now();
      pn::evaluation ev =
          pn::evaluate_design_staged(st.graphs[i], st.names[i], opt);
      const auto t1 = steady::now();
      ++w.attempted;
      if (!ev.trace.ok()) {
        ++w.failed;
        continue;
      }
      w.latency_ms.push_back(ms_between(t0, t1));
      if (traced) {
        const int id = spans->add(eval_name, spans->ms_since_origin(t0),
                                  spans->ms_since_origin(t1), -1,
                                  w.latency_ms.size());
        spans->add_stages(ev.trace, id);
      }
      got.push_back(std::move(ev.report));
    }
    w.add_slice(traced,
                static_cast<double>(w.latency_ms.size() - done_before) /
                    (now_ms_since(pass_start) / 1000.0));
    // Every whole pass must reproduce the warm-up pass exactly; a failed
    // evaluation is already counted.
    if (got.size() == st.graphs.size()) {
      clock.off_clock([&] {
        check_same_reports(st.reference, got, "eval_corpus pass", out.checks);
      });
    }
  }
  w.seconds = clock.seconds();
}

// Times the kernels under the evaluator's stages, one span per public call,
// over whole corpus passes. Each pass is one operation.
void corpus_kernels(const corpus_state& st, const pn::evaluation_options& opt,
                    double seconds, span_log& spans, run_result& out) {
  const int n_pass = spans.name_id("kernels.corpus_pass");
  const int n_bfs = spans.name_id("topology.bfs_warm_ms");
  const int n_paths = spans.name_id("topology.path_stats_ms");
  const int n_ecmp = spans.name_id("topology.ecmp_ms");
  const int n_bis = spans.name_id("topology.bisection_ms");
  const int n_cab = spans.name_id("physical.cabling_ms");
  const int n_tech = spans.name_id("deploy.tech_sim_ms");
  const int n_rep = spans.name_id("deploy.repair_sim_ms");
  const std::uint64_t op_base = 1'000'000;
  const auto start = steady::now();
  std::uint64_t pass = 0;
  while (pass < 3 || now_ms_since(start) < seconds * 1000.0) {
    const std::uint64_t op = op_base + pass;
    const double pass_start = spans.ms_since_origin(steady::now());
    std::vector<span> calls;
    auto timed = [&](int name, const auto& fn) {
      const auto t0 = steady::now();
      fn();
      calls.push_back(span{name, spans.ms_since_origin(t0),
                           spans.ms_since_origin(steady::now()), -1, op});
    };
    for (const pn::network_graph& g : st.graphs) {
      pn::distance_cache dc(g);
      const std::vector<pn::node_id> hf = g.host_facing_nodes();
      timed(n_bfs, [&] { dc.warm_all(hf, 1); });
      timed(n_paths, [&] { (void)pn::compute_path_length_stats(g, dc); });
      timed(n_ecmp, [&] {
        (void)pn::ecmp_throughput(g, pn::uniform_traffic(g, opt.traffic_per_host),
                                  dc);
      });
      timed(n_bis, [&] { (void)pn::estimate_bisection(g, opt.seed, 32, dc); });

      pn::floorplan fp(pn::auto_size_floor(g, opt.floor, opt.floor_headroom));
      auto pl = pn::block_placement(g, fp);
      if (!pl.is_ok()) {
        out.checks.fail("kernel pass: block_placement failed");
        return;
      }
      pn::result<pn::cabling_plan> plan = pn::unavailable_error("not run");
      timed(n_cab, [&] {
        plan = pn::plan_cabling(g, pl.value(), fp, opt.cat, opt.cabling);
      });
      if (!plan.is_ok()) {
        out.checks.fail("kernel pass: plan_cabling failed");
        return;
      }
      timed(n_tech, [&] {
        const pn::work_order wo = pn::build_deployment_order(
            g, pl.value(), fp, plan.value(), opt.deployment);
        pn::tech_sim_params tsp = opt.technicians;
        tsp.seed = opt.seed;
        if (!pn::simulate_deployment(wo, tsp).is_ok()) {
          out.checks.fail("kernel pass: simulate_deployment failed");
        }
      });
      timed(n_rep, [&] {
        pn::repair_params rp = opt.repair;
        rp.seed = opt.seed + 17;
        (void)pn::simulate_repairs(g, pl.value(), fp, plan.value(), opt.cat,
                                   rp, dc);
      });
    }
    const int root = spans.add(n_pass, pass_start,
                               spans.ms_since_origin(steady::now()), -1, op);
    for (span c : calls) {
      c.parent = root;
      spans.add(c.name, c.start_ms, c.end_ms, c.parent, c.op);
    }
    ++pass;
  }
}

// run_sweep over the corpus at 1 and 4 jobs: designs per second, and the
// parallel reports must equal the serial ones.
void corpus_sweeps(const corpus_state& st, const pn::evaluation_options& opt,
                   span_log& spans, run_result& out) {
  std::vector<pn::sweep_point> grid;
  for (std::size_t i = 0; i < st.graphs.size(); ++i) {
    pn::sweep_point pt;
    pt.label = st.names[i];
    pt.build = [&g = st.graphs[i]] { return g; };
    grid.push_back(std::move(pt));
  }
  double per_s[2] = {0.0, 0.0};
  std::vector<pn::deployability_report> serial;
  const int jobs[2] = {1, 4};
  for (int k = 0; k < 2; ++k) {
    const int name = spans.name_id("core.run_sweep.jobs" +
                                   std::to_string(jobs[k]));
    std::vector<double> secs;
    for (int rep = 0; rep < 3; ++rep) {
      pn::sweep_options so;
      so.jobs = jobs[k];
      const auto t0 = steady::now();
      pn::sweep_results r = pn::run_sweep(grid, opt, so);
      const auto t1 = steady::now();
      spans.add(name, spans.ms_since_origin(t0), spans.ms_since_origin(t1),
                -1, 2'000'000 + static_cast<std::uint64_t>(k * 10 + rep));
      secs.push_back(ms_between(t0, t1) / 1000.0);
      if (!r.failures.empty()) out.checks.fail("run_sweep: a point failed");
      if (k == 0 && rep == 0) {
        serial = r.reports;
      } else {
        check_same_reports(serial, r.reports, "run_sweep jobs", out.checks);
      }
    }
    per_s[k] = static_cast<double>(grid.size()) / median(secs);
  }
  out.put("core.sweep.jobs1_per_s", per_s[0], "1/s", 3);
  out.put("core.sweep.jobs4_per_s", per_s[1], "1/s", 3);
  out.put("core.sweep.speedup", per_s[1] / per_s[0], "x", 3);
}

void run_eval_corpus(const args& a, run_result& out, span_log& spans) {
  const pn::evaluation_options opt = corpus_options(a.seed);
  std::vector<double> setup_ms;
  std::vector<double> build_ms;
  auto set_up = [&] {
    const auto t0 = steady::now();
    corpus_state st = corpus_setup(a.seed, opt, out);
    setup_ms.push_back(now_ms_since(t0));
    build_ms.push_back(st.build_ms);
    return st;
  };
  const corpus_state st = set_up();
  window w;
  run_segments(
      a.seconds, corpus_segments, w,
      [&](double until_s) {
        corpus_segment(st, opt, until_s, a.trace ? &spans : nullptr, w, out);
      },
      [&](int) {
        check_same_reports(st.reference, set_up().reference,
                           "eval_corpus warm-up pass", out.checks);
      });
  out.attempted += w.attempted;
  out.failed += w.failed;
  if (!a.trace) {
    put_end_to_end(w, setup_ms, out);
    return;
  }
  put_overhead("eval_corpus", w, out);
  out.put("topology.build_ms", median(build_ms), "ms", build_ms.size());
  corpus_kernels(st, opt, std::min(a.seconds / 2.0, 5.0), spans, out);
  corpus_sweeps(st, opt, spans, out);

  const self_table t = self_by_name_and_op(spans);
  put_stage_metrics(spans, t, "core.evaluate_design_staged", "core.stage.",
                    out);
  for (const char* k :
       {"topology.bfs_warm_ms", "topology.path_stats_ms", "topology.ecmp_ms",
        "topology.bisection_ms", "physical.cabling_ms", "deploy.tech_sim_ms",
        "deploy.repair_sim_ms"}) {
    const std::vector<double> v = per_op_values(t, spans.name_id(k));
    out.put(k, median(v), "ms", v.size());
  }
  out.notes.push_back("core.stage.* from the traced passes; kernel metrics "
                      "are ms per corpus pass");
}

// ===========================================================================
// campaign_replay: the committed three-year jellyfish campaign, delta on.
// ===========================================================================

struct campaign_state {
  pn::campaign_plan plan;
  pn::evaluation_options opt;
  std::vector<pn::sweep_point> points;  // scenario points, step-stamped
  std::vector<steady::time_point> step_start;
  std::vector<pn::deployability_report> reference;  // run_campaign output
  double compile_ms = 0.0;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The same evaluation options run_campaign derives from the spec.
pn::evaluation_options campaign_options(const pn::campaign_spec& spec) {
  pn::evaluation_options opt;
  opt.seed = spec.seed;
  opt.run_repair_sim = spec.repair;
  opt.strategy = *pn::placement_strategy_from_name(spec.strategy);
  return opt;
}

std::unique_ptr<campaign_state> campaign_setup(const args& a,
                                               run_result& out) {
  auto st = std::make_unique<campaign_state>();
  const std::string text =
      read_file(a.repo + "/examples/campaigns/jellyfish_3y.campaign");
  const auto t0 = steady::now();
  auto spec = pn::parse_campaign(text);
  if (!spec.is_ok()) throw std::runtime_error(spec.error().to_string());
  spec.value().seed = a.seed;
  auto plan = pn::compile_campaign(spec.value());
  if (!plan.is_ok()) throw std::runtime_error(plan.error().to_string());
  st->compile_ms = now_ms_since(t0);
  st->plan = std::move(plan).value();
  st->opt = campaign_options(st->plan.spec);

  // The timed replays drive run_sweep's scenario mode exactly as
  // run_campaign does, with each step's evolve stamped so the benchmark's
  // own clock sees where every step starts.
  st->points = pn::scenario_sweep_points(st->plan.scenario);
  st->step_start.resize(st->points.size());
  for (std::size_t i = 0; i < st->points.size(); ++i) {
    st->points[i].evolve = [inner = std::move(st->points[i].evolve),
                            at = &st->step_start[i]](pn::network_graph& g) {
      *at = steady::now();
      inner(g);
    };
  }

  // Untimed warm-up: one run_campaign replay, the reference trajectory.
  pn::campaign_run_options ro;
  ro.delta = true;
  pn::sweep_results warm = pn::run_campaign(st->plan, ro);
  if (!warm.failures.empty()) {
    out.checks.fail("warm-up run_campaign: " + warm.failures[0].to_string());
  }
  if (warm.reports.size() != st->points.size()) {
    out.checks.fail("warm-up run_campaign: " +
                    std::to_string(warm.reports.size()) + " of " +
                    std::to_string(st->points.size()) + " steps completed");
  }
  st->reference = std::move(warm.reports);
  return st;
}

struct replay_trace {
  double wall_ms = 0.0;
  double stage_ms = 0.0;
  double rows_kept = 0.0;
  double rows_dropped = 0.0;
};

double counter(const pn::stage_record& rec, const std::string& name) {
  for (const pn::stage_counter& c : rec.counters) {
    if (c.name == name) return c.value;
  }
  return 0.0;
}

// Whole replays until the window's seconds reach `until_s`; each step is
// one operation. With `spans`, every other replay is traced.
void campaign_segment(campaign_state& st, double until_s, span_log* spans,
                      std::vector<replay_trace>& replays, window& w,
                      run_result& out) {
  const int n_replay = spans ? spans->name_id("campaign.replay") : 0;
  const int n_step = spans ? spans->name_id("campaign.step") : 0;
  segment_clock clock(w.seconds);
  while (clock.seconds() < until_s) {
    const bool traced = w.next_traced(spans != nullptr);
    pn::network_graph g = st.plan.base;
    pn::sweep_options so;
    so.scenario_graph = &g;
    so.delta_eval = true;
    const auto t0 = steady::now();
    pn::sweep_results r = pn::run_sweep(st.points, st.opt, so);
    const auto t1 = steady::now();
    const std::size_t n = st.points.size();
    w.attempted += n;
    w.failed += r.failures.size() + r.cancelled_points.size();
    const bool complete = r.failures.empty() && r.reports.size() == n;
    if (complete) {
      for (std::size_t i = 0; i < n; ++i) {
        const auto end = i + 1 < n ? st.step_start[i + 1] : t1;
        w.latency_ms.push_back(ms_between(st.step_start[i], end));
      }
    }
    w.add_slice(traced, complete ? static_cast<double>(n) /
                                       (ms_between(t0, t1) / 1000.0)
                                 : 0.0);
    if (traced && complete) {
      const std::uint64_t op = w.slices;
      const int root = spans->add(n_replay, spans->ms_since_origin(t0),
                                  spans->ms_since_origin(t1), -1, op);
      replay_trace rt;
      rt.wall_ms = ms_between(t0, t1);
      for (std::size_t i = 0; i < n; ++i) {
        const auto end = i + 1 < n ? st.step_start[i + 1] : t1;
        const int id = spans->add(n_step,
                                  spans->ms_since_origin(st.step_start[i]),
                                  spans->ms_since_origin(end), root,
                                  op * 100'000 + i);
        spans->add_stages(r.traces[i], id);
        rt.stage_ms += r.traces[i].total_ms();
      }
      // The delta counters are cumulative over the replay's cache.
      const pn::stage_record& last =
          r.traces.back().at(pn::eval_stage::topology_metrics);
      rt.rows_kept = counter(last, "rows_kept");
      rt.rows_dropped = counter(last, "rows_dropped");
      replays.push_back(rt);
    }
    // Every replay must reproduce run_campaign's trajectory; it is dropped
    // once checked.
    clock.off_clock([&] {
      check_same_reports(st.reference, r.reports,
                         "campaign_replay trajectory", out.checks);
      r = pn::sweep_results{};
    });
  }
  w.seconds = clock.seconds();
}

void run_campaign_replay(const args& a, run_result& out, span_log& spans) {
  std::vector<double> setup_ms;
  std::vector<double> compile_ms;
  auto set_up = [&] {
    const auto t0 = steady::now();
    std::unique_ptr<campaign_state> st = campaign_setup(a, out);
    setup_ms.push_back(now_ms_since(t0));
    compile_ms.push_back(st->compile_ms);
    return st;
  };
  const std::unique_ptr<campaign_state> st = set_up();
  std::vector<replay_trace> replays;
  window w;
  run_segments(
      a.seconds, campaign_segments, w,
      [&](double until_s) {
        campaign_segment(*st, until_s, a.trace ? &spans : nullptr, replays, w,
                         out);
      },
      [&](int) {
        check_same_reports(st->reference, set_up()->reference,
                           "campaign_replay warm-up replay", out.checks);
      });
  out.attempted += w.attempted;
  out.failed += w.failed;

  if (!a.trace) {
    put_end_to_end(w, setup_ms, out);
  } else {
    put_overhead("campaign_replay", w, out);
    out.put("campaign.compile_ms", median(compile_ms), "ms",
            compile_ms.size());
    const self_table t = self_by_name_and_op(spans);
    put_stage_metrics(spans, t, "campaign.step", "campaign.stage.", out);
    std::vector<double> overhead;
    std::vector<double> kept;
    std::vector<double> dropped;
    for (const replay_trace& r : replays) {
      overhead.push_back(r.wall_ms - r.stage_ms);
      kept.push_back(r.rows_kept);
      dropped.push_back(r.rows_dropped);
    }
    if (!replays.empty()) {
      out.put("core.sweep.overhead_ms", median(overhead), "ms",
              replays.size());
      const double k = median(kept);
      const double d = median(dropped);
      out.put("topology.delta.rows_kept", k, "count", replays.size());
      out.put("topology.delta.rows_dropped", d, "count", replays.size());
      out.put("topology.delta.keep_ratio", k + d > 0.0 ? k / (k + d) : 0.0,
              "ratio", replays.size());
    }
  }

  // One untimed cold replay must reproduce the delta trajectory.
  pn::campaign_run_options ro;
  ro.delta = false;
  const pn::sweep_results cold = pn::run_campaign(st->plan, ro);
  out.attempted += st->points.size();
  out.failed += cold.failures.size();
  check_same_reports(st->reference, cold.reports,
                     "campaign_replay delta=false replay", out.checks);
}

// ===========================================================================
// serve_mixed: an in-process eval_server driven by three closed-loop
// clients, 90% requests from a 64-request hot set, 10% never-repeated.
// ===========================================================================

constexpr int hot_requests = 64;
constexpr int client_count = 3;
constexpr std::uint64_t hot_per_ten = 9;  // hits per ten requests
constexpr double serve_slice_s = 0.25;
// Latency samples reserved up front: room for over a minute of requests at
// the fastest rate measured, about 4 000 a second.
constexpr std::size_t serve_latency_reserve = std::size_t{1} << 18;

// A running server with its accept loop on a one-thread pool.
class serve_rig {
 public:
  explicit serve_rig(const std::string& socket_path) {
    spec_ = "unix:" + socket_path;
    pn::server_config cfg;
    cfg.listen = spec_;
    cfg.eval_threads = 2;
    server_ = std::make_unique<pn::eval_server>(std::move(cfg));
    const pn::status bound = server_->bind();
    if (!bound.is_ok()) {
      throw std::runtime_error("bind " + spec_ + ": " + bound.to_string());
    }
    loop_ = std::make_unique<pn::thread_pool>(1);
    loop_->submit([this] { serve_status_ = server_->serve(cancel_); });
  }
  ~serve_rig() { (void)stop(); }
  serve_rig(const serve_rig&) = delete;
  serve_rig& operator=(const serve_rig&) = delete;

  // Cancels the accept loop and waits for the drain; returns what serve()
  // returned, ok on a clean shutdown.
  pn::status stop() {
    if (loop_) {
      cancel_.request_cancel();
      loop_->wait_idle();
      loop_.reset();
    }
    return serve_status_;
  }

  [[nodiscard]] const std::string& spec() const { return spec_; }

 private:
  std::string spec_;
  std::unique_ptr<pn::eval_server> server_;
  pn::cancel_token cancel_;
  std::unique_ptr<pn::thread_pool> loop_;
  pn::status serve_status_;
};

void check_drain(serve_rig& rig, run_result& out) {
  const pn::status s = rig.stop();
  if (!s.is_ok()) out.checks.fail("server shutdown: " + s.to_string());
}

struct serve_state {
  std::vector<pn::network_graph> graphs;  // small designs
  std::vector<std::string> twins;         // their serialized twins
  std::vector<pn::eval_request> hot;
  std::unique_ptr<serve_rig> rig;
  std::vector<pn::eval_client> clients;
  double twin_encode_ms = 0.0;
  std::uint64_t miss_base = 0;
  std::atomic<std::uint64_t> misses_sent{0};
  std::uint64_t hot_sent = 0;
};

pn::eval_request make_request(const serve_state& st, std::size_t design,
                              std::uint64_t seed) {
  pn::eval_request req;
  req.name = design_name(small_designs()[design]);
  req.options.seed = seed;
  req.design_twin = st.twins[design];
  return req;
}

std::unique_ptr<serve_state> serve_setup(const args& a, int rep,
                                         run_result& out) {
  auto st = std::make_unique<serve_state>();
  const std::vector<design_spec> designs = small_designs();
  for (const design_spec& d : designs) {
    auto g = pn::build_family(d.family, d.size, a.seed);
    if (!g.is_ok()) throw std::runtime_error("cannot build " + design_name(d));
    const auto t0 = steady::now();
    st->twins.push_back(pn::serialize_twin(pn::design_to_twin(g.value())));
    st->twin_encode_ms += now_ms_since(t0);
    st->graphs.push_back(std::move(g).value());
  }
  // Hot request j: design j mod 10 under its own seed. Misses draw seeds
  // from a disjoint range, one fresh seed per request.
  const std::uint64_t hot_base = a.seed * 1'000'000'000ull;
  for (int j = 0; j < hot_requests; ++j) {
    const auto ju = static_cast<std::uint64_t>(j);
    st->hot.push_back(make_request(*st, ju % designs.size(), hot_base + ju));
  }
  st->miss_base = hot_base + 1'000'000ull;

  const std::string sock = a.workdir + "/serve-" + std::to_string(::getpid()) +
                           "-" + std::to_string(rep) + ".sock";
  st->rig = std::make_unique<serve_rig>(sock);
  for (int c = 0; c < client_count; ++c) {
    auto cl = pn::eval_client::connect(st->rig->spec());
    if (!cl.is_ok()) {
      throw std::runtime_error("connect: " + cl.error().to_string());
    }
    st->clients.push_back(std::move(cl).value());
  }
  // Warm-up: fill the hot set into the server's cache.
  for (const pn::eval_request& req : st->hot) {
    if (!st->clients[0].evaluate(req).is_ok()) {
      out.checks.fail("hot-set fill: " + req.name + " failed");
    }
  }
  return st;
}

// A served report kept for the after-window comparison with a local
// evaluation of the same request (design index and seed).
struct served_sample {
  std::size_t design = 0;
  std::uint64_t seed = 0;
  pn::deployability_report report;
};

struct request_record {
  bool hit = false;
  steady::time_point t0;
  steady::time_point t1;
};

// The serve window, the latencies of its traced requests by class, and
// the reports kept for checking.
struct serve_window {
  window all;
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  std::vector<served_sample> samples;
};

// The three closed-loop clients until the window's seconds reach
// `until_s`. The segment is cut into slices of serve_slice_s; with `spans`,
// the requests that start in every other slice of the window are traced,
// each client recording their spans as it goes. The alternation runs on
// across segments, so short segments still trace half the window. `salt`
// varies the request mix between segments. The clients run on
// `client_threads`, one thread each, the same threads in every segment.
void serve_segment(serve_state& st, std::uint64_t seed, double until_s,
                   std::uint64_t salt, span_log* spans,
                   pn::thread_pool& client_threads, serve_window& sw) {
  window& w = sw.all;
  if (w.seconds >= until_s) return;
  struct client_out {
    std::vector<request_record> recs;
    std::vector<span> spans;
    std::vector<served_sample> samples;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t hot = 0;
  };
  std::vector<client_out> outs(client_count);
  const int n_hit = spans ? spans->name_id("service.hit") : 0;
  const int n_miss = spans ? spans->name_id("service.miss") : 0;
  const auto start = steady::now();
  const auto deadline =
      start + std::chrono::duration_cast<steady::duration>(
                  std::chrono::duration<double>(until_s - w.seconds));
  auto slice_of = [&](steady::time_point t) {
    return static_cast<std::size_t>(ms_between(start, t) /
                                    (serve_slice_s * 1000.0));
  };
  const std::uint64_t slices_before = w.slices;
  auto traced_slice = [&](std::size_t k) {
    return spans != nullptr && (slices_before + k) % 2 == 1;
  };
  for (int c = 0; c < client_count; ++c) {
    client_threads.submit([&, c] {
      client_out& o = outs[static_cast<std::size_t>(c)];
      pn::eval_client& cl = st.clients[static_cast<std::size_t>(c)];
      pn::rng r(seed * 7919 + salt * 131 + static_cast<std::uint64_t>(c));
      std::uint64_t sent_hits = 0;
      std::uint64_t sent_misses = 0;
      while (steady::now() < deadline) {
        const bool hit = r.next_below(10) < hot_per_ten;
        pn::eval_request miss_req;
        std::size_t design = 0;
        if (hit) {
          design = r.next_index(st.hot.size());
        } else {
          const std::uint64_t m = st.misses_sent.fetch_add(1);
          design = static_cast<std::size_t>(m % st.twins.size());
          miss_req = make_request(st, design, st.miss_base + m);
        }
        const pn::eval_request& req = hit ? st.hot[design] : miss_req;
        if (hit) design %= st.twins.size();
        const auto t0 = steady::now();
        auto res = cl.evaluate(req);
        const auto t1 = steady::now();
        ++o.attempted;
        if (hit) ++o.hot;
        if (!res.is_ok()) {
          ++o.failed;
          continue;
        }
        o.recs.push_back(request_record{hit, t0, t1});
        if (traced_slice(slice_of(t0))) {
          o.spans.push_back(span{hit ? n_hit : n_miss,
                                 spans->ms_since_origin(t0),
                                 spans->ms_since_origin(t1), -1, 0});
        }
        // Sample every 16th hit and every 8th miss for verification.
        const bool keep = hit ? (sent_hits++ % 16 == 0)
                              : (sent_misses++ % 8 == 0);
        if (keep) {
          o.samples.push_back(
              served_sample{design, req.options.seed, res.value()});
        }
      }
    });
  }
  client_threads.wait_idle();
  const double elapsed_ms = now_ms_since(start);
  w.seconds += elapsed_ms / 1000.0;
  // Completions per whole slice; the last, partial slice is left out.
  std::vector<std::size_t> done(
      static_cast<std::size_t>(elapsed_ms / (serve_slice_s * 1000.0)), 0);
  for (client_out& o : outs) {
    w.attempted += o.attempted;
    w.failed += o.failed;
    st.hot_sent += o.hot;
    for (const request_record& rec : o.recs) {
      w.latency_ms.push_back(ms_between(rec.t0, rec.t1));
      const std::size_t k = slice_of(rec.t1);
      if (k < done.size()) ++done[k];
    }
    for (const span& x : o.spans) {
      (x.name == n_hit ? sw.hit_ms : sw.miss_ms).push_back(x.end_ms -
                                                           x.start_ms);
      // Each request is an operation of its own; its span's index names it.
      spans->add(x.name, x.start_ms, x.end_ms, -1, spans->spans().size());
    }
    for (served_sample& x : o.samples) sw.samples.push_back(std::move(x));
  }
  for (std::size_t k = 0; k < done.size(); ++k) {
    w.add_slice(traced_slice(k),
                static_cast<double>(done[k]) / serve_slice_s);
  }
}

// Served reports must equal a local evaluate_design of the same request.
// `local` keeps the local reports of hot requests from call to call; a
// miss's seed never comes back, so its report is not kept.
using local_reports = std::map<std::string, pn::deployability_report>;

void check_samples(const serve_state& st, const std::vector<served_sample>& s,
                   local_reports& local, run_result& out) {
  const pn::evaluation_options base;  // the server's default template
  for (const served_sample& x : s) {
    const pn::eval_request req = make_request(st, x.design, x.seed);
    const std::string key = req.name + "#" + std::to_string(x.seed);
    auto it = local.find(key);
    if (it != local.end()) {
      check_served_report(x.report, it->second, "serve_mixed " + key,
                          out.checks);
      continue;
    }
    auto opt = req.options.apply_to(base);
    auto ev = pn::evaluate_design(st.graphs[x.design], req.name, opt.value());
    if (!ev.is_ok()) {
      out.checks.fail("local evaluate_design of " + key + " failed");
      continue;
    }
    check_served_report(x.report, ev.value().report, "serve_mixed " + key,
                        out.checks);
    if (x.seed < st.miss_base) local.emplace(key, ev.value().report);
  }
}

double stat_value(const pn::stats_list& stats, const std::string& key) {
  const std::string* v = pn::stats_get(stats, key);
  return v == nullptr ? 0.0 : std::stod(*v);
}

pn::stats_list server_stats(serve_state& st, run_result& out) {
  auto stats = st.clients[0].stats();
  if (!stats.is_ok()) {
    out.checks.fail("stats request failed: " + stats.error().to_string());
    return {};
  }
  return stats.value();
}

// Mean of a server latency series over the window between two stats
// replies, from their counts and means.
double window_mean(const pn::stats_list& before, const pn::stats_list& after,
                   const std::string& series) {
  const double n0 = stat_value(before, series + ".count");
  const double n1 = stat_value(after, series + ".count");
  if (n1 <= n0) return 0.0;
  return (stat_value(after, series + ".mean") * n1 -
          stat_value(before, series + ".mean") * n0) /
         (n1 - n0);
}

void put_class_latency(const std::string& prefix,
                       const std::vector<double>& v, run_result& out) {
  if (v.empty()) return;
  out.put(prefix + ".latency_p50_ms", percentile(v, 50), "ms", v.size());
  out.put(prefix + ".latency_p99_ms", percentile(v, 99), "ms", v.size());
  if (samples_beyond(v.size(), 99) < min_samples_beyond) {
    out.notes.push_back(prefix + ".latency_p99_ms rests on only " +
                        std::to_string(samples_beyond(v.size(), 99)) +
                        " samples beyond its rank");
  }
}

// Median microseconds per call of fn over a fixed number of calls.
double median_call_us(const std::function<void()>& fn) {
  std::vector<double> us;
  for (int i = 0; i < 2000; ++i) {
    const auto t0 = steady::now();
    fn();
    us.push_back(ms_between(t0, steady::now()) * 1000.0);
  }
  return median(us);
}

void run_serve_mixed(const args& a, run_result& out, span_log& spans) {
  std::vector<double> setup_ms;
  std::vector<double> encode_ms;
  auto set_up = [&](int rep) {
    const auto t0 = steady::now();
    std::unique_ptr<serve_state> st = serve_setup(a, rep, out);
    setup_ms.push_back(now_ms_since(t0));
    encode_ms.push_back(st->twin_encode_ms);
    return st;
  };
  const std::unique_ptr<serve_state> st = set_up(0);
  const pn::stats_list before = server_stats(*st, out);
  serve_window sw;
  // Room for every latency sample up front, and each segment's kept
  // reports checked and dropped after it: data the benchmark piles up over
  // the window, and the buffers a growing vector leaves behind, would move
  // peak_rss_mb with the number of requests served.
  sw.all.latency_ms.reserve(serve_latency_reserve);
  local_reports local;
  pn::thread_pool client_threads(client_count);
  std::uint64_t segment = 0;
  run_segments(
      a.seconds, serve_segments, sw.all,
      [&](double until_s) {
        serve_segment(*st, a.seed, until_s, segment++,
                      a.trace ? &spans : nullptr, client_threads, sw);
      },
      [&](int rep) {
        check_samples(*st, sw.samples, local, out);
        std::vector<served_sample>().swap(sw.samples);
        // A repeated set-up starts, fills and stops a server of its own.
        check_drain(*set_up(rep)->rig, out);
      });
  const pn::stats_list after = server_stats(*st, out);
  out.attempted += sw.all.attempted;
  out.failed += sw.all.failed;

  if (!a.trace) {
    put_end_to_end(sw.all, setup_ms, out);
  } else {
    put_overhead("serve_mixed", sw.all, out);
    put_class_latency("service.hit", sw.hit_ms, out);
    put_class_latency("service.miss", sw.miss_ms, out);

    out.put("service.queue_wait_ms.p50",
            stat_value(after, "latency.queue_wait_ms.p50"), "ms", 1);
    out.put("service.queue_wait_ms.p99",
            stat_value(after, "latency.queue_wait_ms.p99"), "ms", 1);
    out.put("service.queue_wait_ms.mean",
            window_mean(before, after, "latency.queue_wait_ms"), "ms", 1);
    out.put("service.eval_ms.p50", stat_value(after, "latency.eval_ms.p50"),
            "ms", 1);
    out.put("service.eval_ms.p99", stat_value(after, "latency.eval_ms.p99"),
            "ms", 1);
    out.put("service.eval_ms.mean",
            window_mean(before, after, "latency.eval_ms"), "ms", 1);
    out.put("service.batch_size.mean",
            window_mean(before, after, "batch.size"), "count", 1);
    const double hits =
        stat_value(after, "cache.hits") - stat_value(before, "cache.hits");
    const double misses =
        stat_value(after, "cache.misses") - stat_value(before, "cache.misses");
    out.put("service.cache.hits", hits, "count", 1);
    out.put("service.cache.misses", misses, "count", 1);
    out.put("service.cache.hit_ratio",
            hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "ratio", 1);
    out.put("service.coalesced", stat_value(after, "eval.coalesced"), "count",
            1);
    out.put("service.overloaded",
            stat_value(after, "requests.rejected_overloaded"), "count", 1);

    out.put("twin.encode_ms", median(encode_ms), "ms", encode_ms.size());
    const pn::eval_request& req = st->hot[0];
    out.put("service.encode_us", median_call_us([&] {
              (void)pn::encode_eval_request_wire(req);
            }),
            "us", 2000);
    const std::string resp =
        pn::encode_eval_response(local.empty() ? pn::deployability_report{}
                                               : local.begin()->second,
                                 req.options.seed);
    out.put("service.parse_response_us", median_call_us([&] {
              (void)pn::parse_response(resp);
            }),
            "us", 2000);
  }

  const pn::stats_list final_stats = server_stats(*st, out);
  check_cache_hits(
      static_cast<std::uint64_t>(stat_value(final_stats, "cache.hits")),
      st->hot_sent, out.checks);
  check_drain(*st->rig, out);
}

// ===========================================================================

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

void print_result(const args& a, const run_result& r,
                  const std::vector<double>& probes) {
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);
  for (const metric& m : r.metrics) {
    std::printf("  %-36s %14.6f %-6s samples=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("  ops attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  std::printf("  host.probe_ms before=%.3f after=%.3f (not applied to any "
              "metric)\n",
              probes.front(), probes.back());
  for (const std::string& n : r.notes) std::printf("  note: %s\n", n.c_str());
  for (const std::string& v : r.checks.violations()) {
    std::printf("  CHECK FAILED: %s\n", v.c_str());
  }
  if (r.checks.count() > r.checks.violations().size()) {
    std::printf("  ... %zu check violations in all\n", r.checks.count());
  }

  // The detail object: every metric with its unit and sample count, and
  // the host probe next to them.
  std::string detail = "{\"workload\": " + json_string(a.workload) +
                       ", \"host_probe_ms\": [" + json_number(probes.front()) +
                       ", " + json_number(probes.back()) +
                       "], \"metrics\": {";
  std::string metrics = "{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const metric& m = r.metrics[i];
    const std::string sep = i == 0 ? "" : ", ";
    detail += sep + json_string(m.name) + ": {\"value\": " +
              json_number(m.value) + ", \"unit\": " + json_string(m.unit) +
              ", \"samples\": " + std::to_string(m.samples) + "}";
    metrics += sep + json_string(m.name) + ": {\"value\": " +
               json_number(m.value) + ", \"unit\": " + json_string(m.unit) +
               "}";
  }
  detail += "}}";
  metrics += "}";
  std::printf("detail %s\n", detail.c_str());
  const bool correct = r.checks.ok() && r.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(
                  r.attempted, 1)),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_workloads --workload "
               "eval_corpus|campaign_replay|serve_mixed --seed N "
               "--seconds S --trace 0|1 [--repo DIR] [--workdir DIR]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  args a;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string k = argv[i];
      const std::string v = argv[i + 1];
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = v == "1";
      else if (k == "--repo") a.repo = v;
      else if (k == "--workdir") a.workdir = v;
      else return usage();
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (argc % 2 != 1 || a.seconds <= 0.0) return usage();
  const std::map<std::string,
                 std::function<void(const args&, run_result&, span_log&)>>
      workloads = {{"eval_corpus", run_eval_corpus},
                   {"campaign_replay", run_campaign_replay},
                   {"serve_mixed", run_serve_mixed}};
  const auto w = workloads.find(a.workload);
  if (w == workloads.end()) return usage();

  run_result r;
  span_log spans;
  std::vector<double> probes = {host_probe_ms()};
  try {
    w->second(a, r, spans);
  } catch (const std::exception& e) {
    r.checks.fail(std::string("aborted: ") + e.what());
  }
  probes.push_back(host_probe_ms());
  if (a.trace) {
    r.put("host.probe_ms", median(probes), "ms", probes.size());
    const std::string path = a.workdir + "/" + a.workload + ".spans.tsv";
    if (spans.write(path)) r.notes.push_back("spans written to " + path);
  }
  print_result(a, r, probes);
  return r.checks.ok() && r.failed == 0 ? 0 : 1;
}
