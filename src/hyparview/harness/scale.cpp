#include "hyparview/harness/scale.hpp"

#include <algorithm>
#include <string>

#include "hyparview/common/assert.hpp"
#include "hyparview/common/options.hpp"

namespace hyparview::harness {

namespace {

/// env_int that rejects negative values: a negative count or seed cast to
/// an unsigned type would wrap to ~1.8e19 and slip past every floor.
/// Malformed values still fall back (the env_int contract).
std::uint64_t env_non_negative(const char* name, std::uint64_t fallback) {
  const std::int64_t v = env_int(name, static_cast<std::int64_t>(fallback));
  HPV_CHECK_THROW(v >= 0, std::string(name) + " must be non-negative, got " +
                              std::to_string(v));
  return static_cast<std::uint64_t>(v);
}

}  // namespace

BenchScale BenchScale::from_env(std::size_t default_messages) {
  BenchScale s;
  s.messages = default_messages;
  s.quick = env_flag("HPV_QUICK", false);
  if (s.quick) {
    s.nodes = 1'000;
    s.messages = std::min<std::size_t>(default_messages, 100);
  }
  s.nodes = env_non_negative("HPV_NODES", s.nodes);
  s.messages = env_non_negative("HPV_MSGS", s.messages);
  s.runs = env_non_negative("HPV_RUNS", 1);
  s.seed = env_non_negative("HPV_SEED", 42);
  s.nodes = std::max<std::size_t>(s.nodes, 16);
  s.runs = std::max<std::size_t>(s.runs, 1);
  return s;
}

}  // namespace hyparview::harness
