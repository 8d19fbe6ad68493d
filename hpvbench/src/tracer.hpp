// Outside-in layer tracer: times every node upcall from the benchmark's
// side of the membership::Endpoint boundary.
//
// Each node's Endpoint (its gossip::NodeRuntime) is wrapped in a
// TracingEndpoint, installed through Simulator::set_handler on the sim and
// TcpTransport::set_endpoint on TCP. Every deliver / send_failed /
// link_closed is timed with steady_clock and charged by wire::type_tag:
// payload-plane frames to `gossip`, everything else (and link closes) to
// `core`. An upcall's time includes the sends it makes; a nested upcall
// (a synchronous send failure inside a delivery on TCP) is counted but its
// time stays with the outer one, so no interval is charged twice.
//
// Nodes created after attach() (churn joiners) are not wrapped; coverage()
// is the share of all upcalls the tracer saw.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "hyparview/harness/backend.hpp"
#include "hyparview/membership/endpoint.hpp"
#include "hyparview/membership/wire.hpp"

namespace hpvbench {

/// Number of wire::Message alternatives (type tags are 0..kTags-1).
inline constexpr std::size_t kTags =
    std::variant_size_v<hyparview::wire::Message>;

/// Per-layer upcall totals of one traced window.
struct LayerTotals {
  std::uint64_t core_ns = 0;
  std::uint64_t core_calls = 0;
  std::uint64_t gossip_ns = 0;
  std::uint64_t gossip_calls = 0;
  /// deliver upcalls (the numerator of trace coverage).
  std::uint64_t delivers = 0;
};

class Tracer {
 public:
  /// Keeps up to this many delivered frames of each type for the wire-codec
  /// replay (0 disables capture).
  explicit Tracer(std::size_t capture_per_type);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Wraps every node `backend` has now (sim or TCP backend).
  void attach(hyparview::harness::Backend& backend);

  /// Zeroes the totals (start of the measured window).
  void reset() { totals_ = LayerTotals{}; }

  [[nodiscard]] const LayerTotals& totals() const { return totals_; }
  /// Captured frames, by type tag.
  [[nodiscard]] const std::array<std::vector<hyparview::wire::Message>,
                                 kTags>&
  captured() const {
    return captured_;
  }

 private:
  class Wrapper;
  friend class Wrapper;

  /// Wire type tags of the payload plane (charged to `gossip`).
  [[nodiscard]] static bool is_gossip_tag(std::uint8_t tag);

  void charge(bool gossip, std::uint64_t ns);
  void capture(const hyparview::wire::Message& msg);

  std::size_t capture_per_type_;
  LayerTotals totals_;
  std::array<std::vector<hyparview::wire::Message>, kTags> captured_;
  std::vector<std::unique_ptr<Wrapper>> wrappers_;
  int depth_ = 0;
};

}  // namespace hpvbench
