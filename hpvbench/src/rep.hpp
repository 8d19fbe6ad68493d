// One repetition of a workload: a fresh cluster, set-up, the measured
// phases, and every count the benchmark derives its metrics from.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "tracer.hpp"
#include "wire_replay.hpp"
#include "workloads.hpp"

namespace hpvbench {

struct RepResult {
  // --- Wall and CPU time -----------------------------------------------------
  double build_s = 0.0;      ///< backend construction + build()
  double stabilize_s = 0.0;  ///< the 50 stabilization rounds
  double measured_s = 0.0;   ///< every phase after stabilization
  /// The measured phases cut at every step of the program
  /// (timed_backend.hpp), seconds.
  std::vector<double> segments_s;
  double user_s = 0.0;       ///< process CPU during the measured phases
  double sys_s = 0.0;

  // --- Broadcasts of the measured phases -------------------------------------
  std::uint64_t messages = 0;
  std::uint64_t attempted = 0;  ///< Σ alive nodes at send time
  std::uint64_t delivered = 0;  ///< Σ first deliveries
  /// Publish-to-last-delivery time per message, µs (simulated on sim).
  std::vector<std::int64_t> latency_us;
  /// Pub/sub workloads: every message of the `steady` phase reached every
  /// alive node.
  bool steady_complete = true;
  /// sim-churn: heal_until outcome.
  bool heal_recovered = true;
  std::uint64_t heal_cycles = 0;

  // --- Counters (measured-phase deltas) --------------------------------------
  std::uint64_t engine_bytes = 0;  ///< payload + control bytes of engines
  std::uint64_t node_rounds = 0;   ///< HyParView shuffle rounds
  std::uint64_t control_msgs = 0;  ///< membership frames sent
  std::uint64_t duplicates = 0;
  std::uint64_t grafts = 0;
  std::uint64_t prunes = 0;
  std::uint64_t promotions = 0;
  std::uint64_t failures_detected = 0;
  // sim only:
  std::uint64_t sim_events = 0;
  std::uint64_t sim_delivered = 0;
  std::uint64_t sim_sends_failed = 0;
  std::vector<std::uint64_t> sent_by_type;
  // tcp only:
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t gossip_frames_sent = 0;

  // --- End-of-run view invariants --------------------------------------------
  std::uint64_t nodes_checked = 0;
  std::string invariant_error;  ///< first violation, empty when none

  // --- Traced repetitions only -----------------------------------------------
  std::optional<LayerTotals> trace;
  std::optional<ReplayResult> codec;  ///< TCP only

  /// Every count above that is a pure function of the seed on the sim
  /// backend, by name (two sim repetitions must agree on all of them).
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  deterministic_counts() const;
};

/// Runs `w` once at `seed`; with `traced` the tracer wraps every node for
/// the measured phases.
[[nodiscard]] RepResult run_rep(const Workload& w, std::uint64_t seed,
                                bool traced);

}  // namespace hpvbench
