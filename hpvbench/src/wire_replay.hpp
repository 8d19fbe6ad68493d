// Wire-codec replay: times wire::encode / wire::decode on the frames a TCP
// run actually sent, and checks that each one round-trips byte for byte.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "tracer.hpp"

namespace hpvbench {

struct CodecTiming {
  double encode_ns = 0.0;    ///< ns per frame, encoded_size + encode
  double decode_ns = 0.0;    ///< ns per frame, decode
};

struct ReplayResult {
  std::vector<CodecTiming> by_type;  ///< in wire::Message alternative order
  /// First round-trip mismatch, empty when every frame round-tripped.
  std::string error;
};

/// Replays `frames` (by type tag). Types without frames are reported with
/// zero timings.
[[nodiscard]] ReplayResult replay_codec(
    const std::array<std::vector<hyparview::wire::Message>, kTags>& frames);

}  // namespace hpvbench
