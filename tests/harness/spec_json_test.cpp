// JSON spec codec tests.
//
// Four pins, in increasing strength:
//  1. every committed specs/*.json is in canonical form — byte-equal to
//     spec_to_json(load_spec_file(path)).dump(2) — and a non-canonical
//     document is rejected by the same check (`hpv_run --validate`);
//  2. a spec loaded from JSON runs bit-identical (event counts) to the
//     same experiment hand-built through the Experiment builder API;
//  3. randomized phase programs survive to_json → dump → parse →
//     from_json unchanged, and the reloaded copy replays bit-identical;
//  4. schema violations throw CheckError naming the offending key path
//     (a typo must fail the run, not silently fall back to a default).
#include <fstream>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "hyparview/common/assert.hpp"
#include "hyparview/common/json.hpp"
#include "hyparview/harness/spec_json.hpp"

namespace hyparview::harness {
namespace {

TEST(SpecJsonTest, CommittedFilesAreCanonical) {
  const std::vector<std::string> names = spec_names();
  ASSERT_FALSE(names.empty()) << "no spec files under " << spec_dir();
  for (const std::string& name : names) {
    const std::string path = spec_path(name);
    SCOPED_TRACE(path);
    EXPECT_NO_THROW(check_canonical_spec_file(path));
    EXPECT_EQ(load_spec_file(path).name, name);
  }
}

TEST(SpecJsonTest, CanonicalCheckRejectsNonCanonicalDocument) {
  // Same spec as the committed fig2.json, written compactly: it loads to
  // the identical RunSpec, but the file is not in canonical form.
  const RunSpec committed = load_spec_file(spec_path("fig2"));
  const std::string path = ::testing::TempDir() + "/noncanonical_fig2.json";
  {
    std::ofstream out(path, std::ios::binary);
    out << spec_to_json(committed).dump();
  }
  EXPECT_EQ(canonical_spec_text(path), spec_to_json(committed).dump(2));
  try {
    check_canonical_spec_file(path);
    FAIL() << "expected CheckError for a non-canonical spec file";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("hpv_run --emit="), std::string::npos) << what;
  }
}

constexpr const char* kSmallSpec = R"({
  "name": "small",
  "network": {"protocol": "HyParView", "nodes": 200, "seed": 7},
  "phases": [
    {"kind": "stabilize", "cycles": 10},
    {"kind": "crash", "fraction": 0.3},
    {"kind": "broadcast", "count": 5, "label": "measure"}
  ]
})";

TEST(SpecJsonTest, LoadedSpecRunsBitIdenticalToHandBuilt) {
  const RunSpec spec = spec_from_json(json::Value::parse(kSmallSpec));
  auto loaded = Cluster::sim(spec.net);
  const auto loaded_result = loaded.run(spec.experiment);

  auto built = Cluster::sim(
      NetworkConfig::defaults_for(ProtocolKind::kHyParView, 200, 7));
  const auto built_result = built.run(Experiment("small")
                                          .stabilize(10)
                                          .crash(0.3)
                                          .broadcast(5, "measure"));

  EXPECT_EQ(loaded->events_processed(), built->events_processed());
  EXPECT_EQ(loaded_result.events, built_result.events);
  EXPECT_EQ(loaded_result.phase("measure").avg_reliability(),
            built_result.phase("measure").avg_reliability());
}

/// A random but runnable phase program: small cycle/broadcast counts, crash
/// fractions bounded away from total collapse.
Experiment random_experiment(std::mt19937& rng, int index) {
  Experiment spec("prop" + std::to_string(index));
  std::uniform_int_distribution<int> kind_dist(0, 6);
  std::uniform_int_distribution<std::size_t> small(1, 6);
  std::uniform_real_distribution<double> frac(0.0, 1.0);
  const int phases = 1 + static_cast<int>(rng() % 5);
  for (int i = 0; i < phases; ++i) {
    // Built with += rather than `"p" + std::to_string(i)`: the rvalue
    // string operator+ trips GCC 12's spurious -Wrestrict (PR 105651)
    // under -Werror once inlining decisions shift.
    std::string label = "p";
    label += std::to_string(i);
    switch (kind_dist(rng)) {
      case 0:
        spec.stabilize(small(rng), label);
        break;
      case 1:
        spec.set_fanout(small(rng), label);
        break;
      case 2:
        spec.crash(0.5 * frac(rng), label);
        break;
      case 3:
        spec.leave(small(rng), frac(rng), label);
        break;
      case 4:
        spec.broadcast(small(rng), label);
        break;
      case 5: {
        ChurnConfig churn;
        churn.cycles = small(rng);
        churn.joins_per_cycle = small(rng);
        churn.leaves_per_cycle = small(rng);
        churn.graceful_fraction = frac(rng);
        churn.probes_per_cycle = 1;
        spec.churn(churn, label);
        break;
      }
      case 6: {
        HeavyChurnConfig heavy;
        heavy.cycles = small(rng);
        heavy.joins_per_cycle = small(rng);
        heavy.dist = (rng() % 2 == 0) ? HeavyChurnConfig::Dist::kPareto
                                      : HeavyChurnConfig::Dist::kLognormal;
        heavy.pareto_alpha = 1.0 + frac(rng);
        heavy.lognormal_mu = frac(rng);
        heavy.graceful_fraction = frac(rng);
        heavy.probes_per_cycle = 1;
        spec.heavy_churn(heavy, label);
        break;
      }
      default:
        break;
    }
  }
  return spec;
}

TEST(SpecJsonTest, RandomizedRoundTripIsByteStable) {
  std::mt19937 rng(42);
  for (int i = 0; i < 50; ++i) {
    const Experiment spec = random_experiment(rng, i);
    const std::string dumped = spec.to_json().dump(2);
    SCOPED_TRACE(dumped);
    const Experiment reloaded =
        Experiment::from_json(json::Value::parse(dumped));
    EXPECT_EQ(dumped, reloaded.to_json().dump(2));
    // Compact form parses back to the same document too.
    EXPECT_EQ(dumped, Experiment::from_json(
                          json::Value::parse(spec.to_json().dump()))
                          .to_json()
                          .dump(2));
  }
}

TEST(SpecJsonTest, RandomizedRoundTripReplaysBitIdentical) {
  std::mt19937 rng(7);
  for (int i = 0; i < 3; ++i) {
    const Experiment spec = random_experiment(rng, i);
    SCOPED_TRACE(spec.to_json().dump(2));
    const Experiment reloaded =
        Experiment::from_json(json::Value::parse(spec.to_json().dump()));
    const auto cfg =
        NetworkConfig::defaults_for(ProtocolKind::kHyParView, 150, 11);
    auto original = Cluster::sim(cfg);
    auto replay = Cluster::sim(cfg);
    const auto original_result = original.run(spec);
    const auto replay_result = replay.run(reloaded);
    EXPECT_EQ(original->events_processed(), replay->events_processed());
    EXPECT_EQ(original_result.events, replay_result.events);
  }
}

/// Expects `text` to be rejected with a CheckError whose message contains
/// `needle` (the offending key path).
void expect_rejected(const std::string& text, const std::string& needle) {
  SCOPED_TRACE(text);
  try {
    (void)spec_from_json(json::Value::parse(text));
    FAIL() << "expected CheckError mentioning \"" << needle << "\"";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "error was: " << e.what();
  }
}

TEST(SpecJsonTest, RejectsUnknownKeysNamingFullPath) {
  expect_rejected(
      R"({"name":"x","phases":[{"kind":"cycles","cycles":1,"batch":1}]})",
      "phases[0].batch");
  expect_rejected(R"({"name":"x","network":{"nodez":10},"phases":[]})",
                  "network.nodez");
  expect_rejected(R"({"name":"x","phases":[],"phasez":[]})", "spec.phasez");
  expect_rejected(
      R"({"name":"x","phases":[{"kind":"crash","fraction":0.5,"frac":1}]})",
      "frac");
}

TEST(SpecJsonTest, RejectsWrongTypes) {
  expect_rejected(R"({"name":"x","network":{"nodes":"ten"},"phases":[]})",
                  "network.nodes");
  expect_rejected(R"({"name":"x","phases":{}})", "phases");
}

TEST(SpecJsonTest, RejectsOutOfRangeValues) {
  expect_rejected(R"({"name":"x","phases":[{"kind":"crash","fraction":1.5}]})",
                  "fraction");
  expect_rejected(R"({"name":"x","tcp":{"stats_port":70000},"phases":[]})",
                  "stats_port");
  // Values that, if loaded, abort the process at the first use.
  expect_rejected(
      R"({"name":"x","network":{"gossip":{"graft_timeout_ms":-1}},)"
      R"("phases":[]})",
      "network.gossip.graft_timeout_ms");
  expect_rejected(
      R"({"name":"x","network":{"gossip":{"dedup_window":0}},"phases":[]})",
      "network.gossip.dedup_window");
  expect_rejected(
      R"({"name":"x","network":{"gossip":{"cache_window":0}},"phases":[]})",
      "network.gossip.cache_window");
  // INT64_MAX / 1000 + 1: milliseconds() would overflow.
  expect_rejected(
      R"({"name":"x","network":{"gossip":)"
      R"({"graft_timeout_ms":9223372036854776}},"phases":[]})",
      "network.gossip.graft_timeout_ms");
  for (const char* key :
       {"join_settle_ms", "cycle_settle_ms", "leave_settle_ms",
        "settle_window_ms", "broadcast_timeout_ms",
        "broadcast_quiet_window_ms"}) {
    const std::string k = key;
    expect_rejected(R"({"name":"x","tcp":{")" + k + R"(":-5},"phases":[]})",
                    "tcp." + k);
    expect_rejected(R"({"name":"x","tcp":{")" + k +
                        R"(":9223372036854775807},"phases":[]})",
                    "tcp." + k);
  }
}

TEST(SpecJsonTest, AcceptsMillisecondBounds) {
  const RunSpec spec = spec_from_json(json::Value::parse(
      R"({"name":"x","network":{"gossip":{"graft_timeout_ms":0}},)"
      R"("tcp":{"broadcast_timeout_ms":9223372036854775},"phases":[]})"));
  EXPECT_EQ(spec.net.gossip.graft_timeout, 0);
  EXPECT_EQ(spec.tcp.broadcast_timeout, milliseconds(9223372036854775));
}

TEST(SpecJsonTest, RejectsUnknownPhaseKind) {
  expect_rejected(R"({"name":"x","phases":[{"kind":"warp"}]})", "kind");
}

}  // namespace
}  // namespace hyparview::harness
