// Tests of the benchmark's own helpers: percentile ranks and their
// self-check, the corpus, the output checks (each must fire on a
// deliberately corrupted input), and span self times.
#include "bench_lib.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

#include "campaign/campaign.h"
#include "core/evaluator.h"
#include "topology/generators/families.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(percentile, nearest_rank) {
  EXPECT_EQ(percentile_rank(100, 50), 50u);
  EXPECT_EQ(percentile_rank(100, 99), 99u);
  EXPECT_EQ(percentile_rank(101, 50), 51u);
  EXPECT_EQ(percentile_rank(2000, 99), 1980u);
  EXPECT_EQ(percentile_rank(1, 99), 1u);
  EXPECT_EQ(percentile_rank(7, 100), 7u);
  EXPECT_EQ(percentile(one_to(100), 50), 50.0);
  EXPECT_EQ(percentile(one_to(100), 99), 99.0);
  EXPECT_EQ(percentile(one_to(3), 50), 2.0);
  EXPECT_EQ(median(one_to(5)), 3.0);
}

TEST(percentile, samples_beyond_the_rank) {
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(999, 99), 9u);
  EXPECT_EQ(samples_beyond(2000, 99), 20u);
  EXPECT_EQ(samples_beyond(0, 99), 0u);
}

TEST(percentile, self_check_accepts_a_supported_rank) {
  const std::vector<double> v = one_to(1000);
  EXPECT_EQ(check_percentiles(v.size(), percentile(v, 50), percentile(v, 99),
                              99),
            "");
}

TEST(percentile, self_check_fires_on_too_few_samples) {
  const std::vector<double> v = one_to(999);
  EXPECT_NE(check_percentiles(v.size(), percentile(v, 50), percentile(v, 99),
                              99),
            "");
  EXPECT_NE(check_percentiles(0, 0.0, 0.0, 99), "");
}

TEST(percentile, self_check_fires_on_a_p50_above_the_p99) {
  // A replay median reported next to a per-step tail.
  EXPECT_NE(check_percentiles(5000, 1739.0, 2.4, 99), "");
}

TEST(corpus, ten_families_at_two_sizes) {
  ASSERT_EQ(corpus().size(), 20u);
  std::set<std::string> families;
  for (std::size_t i = 0; i < corpus().size(); i += 2) {
    EXPECT_EQ(corpus()[i].family, corpus()[i + 1].family);
    EXPECT_LT(corpus()[i].size, corpus()[i + 1].size);
    families.insert(corpus()[i].family);
  }
  EXPECT_EQ(families.size(), 10u);
  EXPECT_EQ(families, std::set<std::string>(pn::family_names().begin(),
                                            pn::family_names().end()));
  ASSERT_EQ(small_designs().size(), 10u);
  EXPECT_EQ(design_name(small_designs()[1]), "leaf_spine/16");
}

TEST(corpus, every_design_builds) {
  for (const std::uint64_t seed : {1u, 2u, 7u}) {
    for (const design_spec& d : corpus()) {
      auto g = pn::build_family(d.family, d.size, seed);
      ASSERT_TRUE(g.is_ok()) << design_name(d) << ": "
                             << g.error().to_string();
      EXPECT_GT(g.value().node_count(), 0u) << design_name(d);
    }
  }
}

TEST(corpus, the_campaign_compiles_under_any_seed) {
  std::ifstream in(std::string(PERFBENCH_REPO_ROOT) +
                   "/examples/campaigns/jellyfish_3y.campaign");
  ASSERT_TRUE(in);
  std::ostringstream text;
  text << in.rdbuf();
  auto spec = pn::parse_campaign(text.str());
  ASSERT_TRUE(spec.is_ok()) << spec.error().to_string();
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    spec.value().seed = seed;
    auto plan = pn::compile_campaign(spec.value());
    ASSERT_TRUE(plan.is_ok()) << "seed " << seed << ": "
                              << plan.error().to_string();
    // The upgrade event's step count follows the seed's live link count.
    EXPECT_GT(plan.value().scenario.steps.size(), 900u) << "seed " << seed;
  }
}

pn::deployability_report evaluated(const std::string& family, int size) {
  const pn::network_graph g = pn::build_family(family, size, 1).value();
  pn::evaluation_options opt;
  return pn::evaluate_design(g, family, opt).value().report;
}

TEST(checks, identical_reports_pass_and_wall_time_is_ignored) {
  const std::vector<pn::deployability_report> ref = {evaluated("fat_tree", 4)};
  std::vector<pn::deployability_report> got = ref;
  got[0].eval_total_ms += 12.5;
  check_log log;
  check_same_reports(ref, got, "pass", log);
  check_served_report(got[0], ref[0], "served", log);
  EXPECT_TRUE(log.ok());
}

TEST(checks, corrupted_report_fires) {
  const std::vector<pn::deployability_report> ref = {
      evaluated("fat_tree", 4), evaluated("leaf_spine", 8)};
  std::vector<pn::deployability_report> got = ref;
  got[1].first_pass_yield = std::nextafter(got[1].first_pass_yield, 0.0);
  check_log log;
  check_same_reports(ref, got, "pass", log);
  EXPECT_FALSE(log.ok());
  EXPECT_EQ(log.count(), 1u);
}

TEST(checks, missing_report_fires) {
  const std::vector<pn::deployability_report> ref = {
      evaluated("fat_tree", 4), evaluated("leaf_spine", 8)};
  check_log log;
  check_same_reports(ref, {ref[0]}, "trajectory", log);
  EXPECT_FALSE(log.ok());
}

TEST(checks, corrupted_served_report_fires) {
  const pn::deployability_report local = evaluated("fat_tree", 4);
  pn::deployability_report served = local;
  served.eval_total_ms = 0.0;  // the wire zeroes wall time
  served.diameter += 1;
  check_log log;
  check_served_report(served, local, "served", log);
  EXPECT_FALSE(log.ok());
}

TEST(checks, cache_hit_count_mismatch_fires) {
  check_log ok_log;
  check_cache_hits(900, 900, ok_log);
  EXPECT_TRUE(ok_log.ok());
  check_log log;
  check_cache_hits(899, 900, log);
  EXPECT_FALSE(log.ok());
}

TEST(spans, self_time_subtracts_the_union_of_children) {
  span_log log;
  const int p = log.add(log.name_id("op"), 0.0, 10.0, -1, 1);
  log.add(log.name_id("a"), 1.0, 3.0, p, 1);
  log.add(log.name_id("b"), 2.0, 5.0, p, 1);   // overlaps a
  log.add(log.name_id("c"), 9.0, 12.0, p, 1);  // clipped to the parent
  const std::vector<double> self = self_times(log.spans());
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[3], 3.0);
}

TEST(spans, stages_rebuilt_end_to_end_from_a_trace) {
  pn::stage_trace t;
  t.at(pn::eval_stage::topology_metrics) = {pn::eval_stage::topology_metrics,
                                            pn::stage_outcome::ok, {}, 2.0, {}};
  t.at(pn::eval_stage::cabling) = {pn::eval_stage::cabling,
                                   pn::stage_outcome::ok, {}, 3.0, {}};
  t.at(pn::eval_stage::repair_sim) = {pn::eval_stage::repair_sim,
                                      pn::stage_outcome::skipped, {}, 0.0, {}};
  span_log log;
  const int p = log.add(log.name_id("op"), 100.0, 106.0, -1, 4);
  log.add_stages(t, p);
  ASSERT_EQ(log.spans().size(), 3u);
  EXPECT_EQ(log.names()[static_cast<std::size_t>(log.spans()[1].name)],
            "stage.topology_metrics");
  EXPECT_DOUBLE_EQ(log.spans()[2].start_ms, 102.0);
  EXPECT_DOUBLE_EQ(log.spans()[2].end_ms, 105.0);
  EXPECT_EQ(log.spans()[2].op, 4u);
  EXPECT_DOUBLE_EQ(self_times(log.spans())[0], 1.0);  // the residual
}

}  // namespace
}  // namespace perfbench
