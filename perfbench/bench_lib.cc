#include "bench_lib.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#include "core/checkpoint.h"

namespace perfbench {

// ---- sample sets and percentile ranks -------------------------------------

std::size_t percentile_rank(std::size_t n, int pct) {
  const auto p = static_cast<std::size_t>(std::clamp(pct, 1, 100));
  const std::size_t rank = (p * n + 99) / 100;
  return std::clamp<std::size_t>(rank, 1, std::max<std::size_t>(n, 1));
}

std::size_t samples_beyond(std::size_t n, int pct) {
  return n == 0 ? 0 : n - percentile_rank(n, pct);
}

double percentile(std::vector<double> samples, int pct) {
  const std::size_t k = percentile_rank(samples.size(), pct) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50);
}

std::string check_percentiles(std::size_t samples, double p50, double tail,
                              int tail_pct) {
  if (samples == 0) return "no samples";
  const std::string p = "p" + std::to_string(tail_pct);
  const std::size_t beyond = samples_beyond(samples, tail_pct);
  if (beyond < min_samples_beyond) {
    return p + " of " + std::to_string(samples) + " samples has only " +
           std::to_string(beyond) + " beyond its rank (need " +
           std::to_string(min_samples_beyond) + ")";
  }
  if (!(p50 <= tail)) {
    return "p50 " + std::to_string(p50) + " is above " + p + " " +
           std::to_string(tail);
  }
  return "";
}

// ---- the design corpus ----------------------------------------------------

const std::vector<design_spec>& corpus() {
  static const std::vector<design_spec> designs = {
      {"fat_tree", 8},           {"fat_tree", 16},
      {"leaf_spine", 16},        {"leaf_spine", 48},
      {"jellyfish", 64},         {"jellyfish", 256},
      {"xpander", 64},           {"xpander", 256},
      {"flattened_butterfly", 4}, {"flattened_butterfly", 8},
      {"slim_fly", 5},           {"slim_fly", 13},
      {"vl2", 16},               {"vl2", 20},
      {"dragonfly", 5},          {"dragonfly", 9},
      {"jupiter_fat_tree", 8},   {"jupiter_fat_tree", 32},
      {"jupiter_direct", 8},     {"jupiter_direct", 32},
  };
  return designs;
}

std::vector<design_spec> small_designs() {
  std::vector<design_spec> out;
  for (std::size_t i = 0; i < corpus().size(); i += 2) {
    out.push_back(corpus()[i]);
  }
  return out;
}

std::string design_name(const design_spec& d) {
  return d.family + "/" + std::to_string(d.size);
}

// ---- output checks --------------------------------------------------------

void check_log::fail(std::string what) {
  ++count_;
  if (violations_.size() < 8) violations_.push_back(std::move(what));
}

std::string report_fingerprint(const pn::deployability_report& r) {
  pn::sweep_checkpoint_entry e;
  e.ok = true;
  e.report = r;
  e.report.eval_total_ms = 0.0;
  return pn::sweep_checkpoint_line(e);
}

void check_same_reports(const std::vector<pn::deployability_report>& expected,
                        const std::vector<pn::deployability_report>& got,
                        const std::string& what, check_log& log) {
  if (expected.size() != got.size()) {
    log.fail(what + ": " + std::to_string(got.size()) + " reports, expected " +
             std::to_string(expected.size()));
    return;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (report_fingerprint(got[i]) != report_fingerprint(expected[i])) {
      log.fail(what + ": report " + std::to_string(i) + " (" + got[i].name +
               ") differs from the reference");
      return;
    }
  }
}

void check_served_report(const pn::deployability_report& served,
                         const pn::deployability_report& local,
                         const std::string& what, check_log& log) {
  if (report_fingerprint(served) != report_fingerprint(local)) {
    log.fail(what + ": served report differs from local evaluate_design");
  }
}

void check_cache_hits(std::uint64_t server_hits, std::uint64_t hot_sent,
                      check_log& log) {
  if (server_hits != hot_sent) {
    log.fail("server cache.hits " + std::to_string(server_hits) +
             " != hot requests sent after warm-up " +
             std::to_string(hot_sent));
  }
}

// ---- spans ----------------------------------------------------------------

span_log::span_log() : origin_(steady::now()) {
  for (const pn::eval_stage s : pn::all_eval_stages()) {
    stage_names_.push_back(
        name_id(std::string("stage.") + pn::eval_stage_name(s)));
  }
}

int span_log::name_id(const std::string& name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) return static_cast<int>(it - names_.begin());
  names_.push_back(name);
  return static_cast<int>(names_.size() - 1);
}

int span_log::add(int name, double start_ms, double end_ms, int parent,
                  std::uint64_t op) {
  spans_.push_back(span{name, start_ms, end_ms, parent, op});
  return static_cast<int>(spans_.size() - 1);
}

void span_log::add_stages(const pn::stage_trace& trace, int parent) {
  const span p = spans_[static_cast<std::size_t>(parent)];
  double t = p.start_ms;
  for (std::size_t i = 0; i < trace.stages.size(); ++i) {
    const pn::stage_record& rec = trace.stages[i];
    if (rec.outcome != pn::stage_outcome::ok &&
        rec.outcome != pn::stage_outcome::failed) {
      continue;
    }
    add(stage_names_[i], t, t + rec.wall_ms, parent, p.op);
    t += rec.wall_ms;
  }
}

bool span_log::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "id\tname\tstart_ms\tend_ms\tparent\top\n";
  char buf[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    out << i << '\t' << names_[static_cast<std::size_t>(s.name)];
    std::snprintf(buf, sizeof buf, "\t%.6f\t%.6f\t", s.start_ms, s.end_ms);
    out << buf << s.parent << '\t' << s.op << '\n';
  }
  return static_cast<bool>(out);
}

std::vector<double> self_times(const std::vector<span>& spans) {
  // Children of each span, as intervals clipped to the parent.
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const span& s : spans) {
    if (s.parent < 0) continue;
    const span& p = spans[static_cast<std::size_t>(s.parent)];
    const double a = std::max(s.start_ms, p.start_ms);
    const double b = std::min(s.end_ms, p.end_ms);
    if (b > a) kids[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    if (!iv.empty()) {
      auto [cur_a, cur_b] = iv.front();
      for (std::size_t k = 1; k < iv.size(); ++k) {
        if (iv[k].first > cur_b) {
          covered += cur_b - cur_a;
          cur_a = iv[k].first;
          cur_b = iv[k].second;
        } else {
          cur_b = std::max(cur_b, iv[k].second);
        }
      }
      covered += cur_b - cur_a;
    }
    out[i] = (spans[i].end_ms - spans[i].start_ms) - covered;
  }
  return out;
}

// ---- host-speed probe -----------------------------------------------------

double host_probe_ms() {
  // A dependent xorshift chain whose values scatter increments over a
  // 16 MiB table: integer ALU plus cache and DRAM traffic, the resources a
  // neighbour on a shared host competes for. No library code.
  static std::vector<std::uint32_t> table(1u << 22);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto t0 = steady::now();
  for (int i = 0; i < (1 << 23); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    ++table[static_cast<std::size_t>(x & (table.size() - 1))];
  }
  const auto t1 = steady::now();
  // Keep the loop observable.
  if (table[static_cast<std::size_t>(x & (table.size() - 1))] == 0xffffffffu) {
    std::fputs("", stderr);
  }
  return ms_between(t0, t1);
}

}  // namespace perfbench
