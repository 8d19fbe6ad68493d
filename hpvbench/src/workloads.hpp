// The benchmark's three workloads, as generated JSON specs.
//
// Each workload is a spec document in the schema of
// harness/spec_json.hpp, built here from the workload seed and then fed
// through harness::spec_from_json exactly like a committed specs/*.json
// file. The first phase of every program is the 50-round stabilization
// (set-up); every later phase is measured.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hyparview/common/json.hpp"

namespace hpvbench {

struct Workload {
  std::string name;
  /// "sim" or "tcp".
  std::string backend;
  /// Why the workload exists and which layer it loads (echoed into the
  /// result record).
  std::string why;
};

/// Every workload, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<Workload>& workloads();

/// The workload called `name`; throws std::invalid_argument when unknown.
[[nodiscard]] const Workload& workload(const std::string& name);

/// The workload's spec document at `seed`. Protocol and payload-plane
/// parameters are the paper's (§5.1) and those of
/// specs/pubsub_plumtree.json; only the seed varies.
[[nodiscard]] hyparview::json::Value make_spec(const Workload& w,
                                               std::uint64_t seed);

}  // namespace hpvbench
