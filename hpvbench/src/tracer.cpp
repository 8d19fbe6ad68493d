#include "tracer.hpp"

#include <chrono>
#include <stdexcept>

#include "hyparview/harness/sim_backend.hpp"
#include "hyparview/harness/tcp_backend.hpp"

namespace hpvbench {

namespace wire = hyparview::wire;
namespace harness = hyparview::harness;
using hyparview::NodeId;

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

class Tracer::Wrapper final : public hyparview::membership::Endpoint {
 public:
  Wrapper(Tracer& tracer, hyparview::membership::Endpoint& inner)
      : tracer_(tracer), inner_(inner) {}

  void deliver(const NodeId& from, const wire::Message& msg) override {
    ++tracer_.totals_.delivers;
    tracer_.capture(msg);
    timed(is_gossip_tag(wire::type_tag(msg)),
          [&] { inner_.deliver(from, msg); });
  }

  void send_failed(const NodeId& to, const wire::Message& msg) override {
    timed(is_gossip_tag(wire::type_tag(msg)),
          [&] { inner_.send_failed(to, msg); });
  }

  void link_closed(const NodeId& peer) override {
    timed(false, [&] { inner_.link_closed(peer); });
  }

 private:
  template <typename F>
  void timed(bool gossip, F&& upcall) {
    if (tracer_.depth_ > 0) {
      // Nested inside another upcall: its time is already on the clock.
      ++(gossip ? tracer_.totals_.gossip_calls : tracer_.totals_.core_calls);
      upcall();
      return;
    }
    ++tracer_.depth_;
    const std::uint64_t start = now_ns();
    upcall();
    tracer_.charge(gossip, now_ns() - start);
    --tracer_.depth_;
  }

  Tracer& tracer_;
  hyparview::membership::Endpoint& inner_;
};

Tracer::Tracer(std::size_t capture_per_type)
    : capture_per_type_(capture_per_type) {}

Tracer::~Tracer() = default;

bool Tracer::is_gossip_tag(std::uint8_t tag) {
  static const std::array<bool, kTags> gossip_tags = [] {
    std::array<bool, kTags> t{};
    for (const wire::Message& m :
         {wire::Message{wire::Gossip{}}, wire::Message{wire::GossipAck{}},
          wire::Message{wire::TreeGossip{}}, wire::Message{wire::IHave{}},
          wire::Message{wire::Graft{}}, wire::Message{wire::Prune{}}}) {
      t[wire::type_tag(m)] = true;
    }
    return t;
  }();
  return gossip_tags[tag];
}

void Tracer::attach(harness::Backend& backend) {
  auto* sim = dynamic_cast<harness::SimBackend*>(&backend);
  auto* tcp = dynamic_cast<harness::TcpBackend*>(&backend);
  if (sim == nullptr && tcp == nullptr) {
    throw std::invalid_argument("tracer: unknown backend");
  }
  for (std::size_t i = 0; i < backend.node_count(); ++i) {
    if (sim != nullptr) {
      wrappers_.push_back(std::make_unique<Wrapper>(*this, sim->runtime(i)));
      sim->simulator().set_handler(sim->id_of(i), wrappers_.back().get());
    } else {
      wrappers_.push_back(std::make_unique<Wrapper>(*this, tcp->runtime(i)));
      tcp->transport(i).set_endpoint(wrappers_.back().get());
    }
  }
}

void Tracer::charge(bool gossip, std::uint64_t ns) {
  if (gossip) {
    totals_.gossip_ns += ns;
    ++totals_.gossip_calls;
  } else {
    totals_.core_ns += ns;
    ++totals_.core_calls;
  }
}

void Tracer::capture(const wire::Message& msg) {
  auto& kept = captured_[wire::type_tag(msg)];
  if (kept.size() < capture_per_type_) kept.push_back(msg);
}

}  // namespace hpvbench
