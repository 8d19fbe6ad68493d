#include "wire_replay.hpp"

#include <algorithm>
#include <chrono>

#include "hyparview/common/binary.hpp"

namespace hpvbench {

namespace wire = hyparview::wire;

namespace {

constexpr std::chrono::milliseconds kMinTimed{5};

/// Runs `pass` (one sweep over `frames` frames) until kMinTimed has
/// elapsed; returns ns per frame. The clock is read once per ~1024 frames,
/// so its own cost stays out of the figure for small samples.
template <typename F>
double ns_per_frame(std::size_t frames, F&& pass) {
  using Clock = std::chrono::steady_clock;
  const std::size_t batch = std::max<std::size_t>(1, 1024 / frames);
  std::size_t passes = 0;
  const Clock::time_point start = Clock::now();
  Clock::time_point now = start;
  do {
    for (std::size_t i = 0; i < batch; ++i) pass();
    passes += batch;
    now = Clock::now();
  } while (now - start < kMinTimed);
  const auto ns = std::chrono::duration<double, std::nano>(now - start);
  return ns.count() / static_cast<double>(passes * frames);
}

std::vector<std::uint8_t> encode_frame(const wire::Message& msg) {
  // The transport's framing path: exact size first, one allocation.
  hyparview::BinaryWriter w;
  w.reserve(wire::encoded_size(msg));
  wire::encode(msg, w);
  return w.take();
}

}  // namespace

ReplayResult replay_codec(
    const std::array<std::vector<wire::Message>, kTags>& frames) {
  ReplayResult out;
  for (std::size_t tag = 0; tag < kTags; ++tag) {
    const std::vector<wire::Message>& msgs = frames[tag];
    CodecTiming timing;
    if (msgs.empty()) {
      out.by_type.push_back(timing);
      continue;
    }

    std::vector<std::vector<std::uint8_t>> encoded;
    encoded.reserve(msgs.size());
    for (const wire::Message& m : msgs) {
      encoded.push_back(encode_frame(m));
      const wire::Message back = wire::decode_bytes(encoded.back());
      if (out.error.empty() &&
          (!(back == m) || encode_frame(back) != encoded.back())) {
        out.error = std::string("a ") + wire::type_name(m) +
                    " frame does not round-trip";
      }
    }

    std::size_t sink = 0;
    timing.encode_ns = ns_per_frame(msgs.size(), [&] {
      for (const wire::Message& m : msgs) sink += encode_frame(m).size();
    });
    timing.decode_ns = ns_per_frame(msgs.size(), [&] {
      for (const auto& bytes : encoded) {
        sink += wire::decode_bytes(bytes).index();
      }
    });
    // Keeps both loops observable.
    if (sink == 0) out.error = "codec replay produced no bytes";
    out.by_type.push_back(timing);
  }
  return out;
}

}  // namespace hpvbench
