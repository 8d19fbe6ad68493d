// The wire frame types the benchmark reports by name.
#pragma once

#include <cstdint>
#include <vector>

#include "hyparview/membership/wire.hpp"

namespace hpvbench {

struct NamedType {
  const char* name;  ///< metric-name spelling
  std::uint8_t tag;  ///< wire::type_tag
};

template <typename T>
std::uint8_t tag_of() {
  return hyparview::wire::type_tag(hyparview::wire::Message{T{}});
}

template <typename T>
NamedType named(const char* name) {
  return {name, tag_of<T>()};
}

/// HyParView's own frames (§4): the `core` layer's traffic.
inline const std::vector<NamedType>& core_types() {
  namespace w = hyparview::wire;
  static const std::vector<NamedType> types = {
      named<w::Join>("Join"),
      named<w::ForwardJoin>("ForwardJoin"),
      named<w::ForwardJoinAccept>("ForwardJoinAccept"),
      named<w::Neighbor>("Neighbor"),
      named<w::NeighborReply>("NeighborReply"),
      named<w::Disconnect>("Disconnect"),
      named<w::Shuffle>("Shuffle"),
      named<w::ShuffleReply>("ShuffleReply"),
  };
  return types;
}

/// Payload-plane frames of the eager and Plumtree engines.
inline const std::vector<NamedType>& gossip_types() {
  namespace w = hyparview::wire;
  static const std::vector<NamedType> types = {
      named<w::Gossip>("Gossip"),   named<w::TreeGossip>("TreeGossip"),
      named<w::IHave>("IHave"),     named<w::Graft>("Graft"),
      named<w::Prune>("Prune"),
  };
  return types;
}

/// Every frame type a HyParView + eager cluster puts on a TCP socket: the
/// core frames, the payload frame and the transport's HELLO handshake.
inline const std::vector<NamedType>& tcp_types() {
  static const std::vector<NamedType> types = [] {
    std::vector<NamedType> t = core_types();
    t.push_back(named<hyparview::wire::Gossip>("Gossip"));
    t.push_back(named<hyparview::wire::Hello>("Hello"));
    return t;
  }();
  return types;
}

}  // namespace hpvbench
