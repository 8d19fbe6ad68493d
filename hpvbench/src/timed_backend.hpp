// A Backend that drives the cluster's own backend and stamps the time at
// the end of every step of an experiment program.
//
// run_experiment() is given a TimedBackend in place of the cluster's
// backend. Every call is forwarded. The shared workload loops
// (Backend::run_pubsub, run_churn) run on the TimedBackend itself, so their
// steps come back through it too. A step is a call that drives the overlay:
// run_cycles, settle, settle_broadcasts, broadcast_from and
// fail_random_fraction. The time between two stamps is one segment. Every
// repetition of a program runs the same steps in the same order, so segment
// k of one repetition does the same work as segment k of the next.
#pragma once

#include <chrono>
#include <span>
#include <utility>
#include <vector>

#include "hyparview/harness/backend.hpp"

namespace hpvbench {

class TimedBackend final : public hyparview::harness::Backend {
 public:
  explicit TimedBackend(hyparview::harness::Backend& inner) : inner_(inner) {
    stamp();
  }

  /// Duration of each segment since construction, seconds. The last one
  /// ends at this call.
  [[nodiscard]] std::vector<double> segments() {
    stamp();
    std::vector<double> out;
    out.reserve(stamps_.size() - 1);
    for (std::size_t k = 1; k < stamps_.size(); ++k) {
      out.push_back(std::chrono::duration<double>(stamps_[k] - stamps_[k - 1])
                        .count());
    }
    stamps_.pop_back();
    return out;
  }

  [[nodiscard]] const char* backend_name() const override {
    return inner_.backend_name();
  }
  void build() override { inner_.build(); }
  [[nodiscard]] bool built() const override { return inner_.built(); }
  std::size_t add_node() override { return inner_.add_node(); }
  void kill_node(std::size_t i) override { inner_.kill_node(i); }
  void leave_node(std::size_t i, bool graceful) override {
    inner_.leave_node(i, graceful);
  }
  void fail_random_fraction(double fraction) override {
    inner_.fail_random_fraction(fraction);
    stamp();
  }
  using Backend::run_cycles;
  void run_cycles(std::size_t n,
                  const hyparview::harness::CycleOptions& options) override {
    inner_.run_cycles(n, options);
    stamp();
  }
  void settle() override {
    inner_.settle();
    stamp();
  }
  hyparview::analysis::MessageResult broadcast_from(
      std::size_t source) override {
    hyparview::analysis::MessageResult r = inner_.broadcast_from(source);
    stamp();
    return r;
  }
  std::uint64_t inject_broadcast(std::size_t source) override {
    return inner_.inject_broadcast(source);
  }
  void settle_broadcasts(std::span<const std::uint64_t> ids) override {
    inner_.settle_broadcasts(ids);
    stamp();
  }
  void set_fanout(std::size_t fanout) override { inner_.set_fanout(fanout); }
  [[nodiscard]] std::size_t peer_slot(
      const hyparview::NodeId& peer) const override {
    return inner_.peer_slot(peer);
  }
  [[nodiscard]] std::size_t node_count() const override {
    return inner_.node_count();
  }
  [[nodiscard]] std::size_t alive_count() const override {
    return inner_.alive_count();
  }
  [[nodiscard]] bool alive(std::size_t i) const override {
    return inner_.alive(i);
  }
  [[nodiscard]] hyparview::NodeId id_of(std::size_t i) const override {
    return inner_.id_of(i);
  }
  [[nodiscard]] hyparview::membership::Protocol& protocol(
      std::size_t i) override {
    return inner_.protocol(i);
  }
  [[nodiscard]] const hyparview::membership::Protocol& protocol(
      std::size_t i) const override {
    return std::as_const(inner_).protocol(i);
  }
  [[nodiscard]] hyparview::gossip::BroadcastEngine& engine(
      std::size_t i) override {
    return inner_.engine(i);
  }
  [[nodiscard]] hyparview::analysis::BroadcastRecorder& recorder() override {
    return inner_.recorder();
  }
  [[nodiscard]] const hyparview::harness::Adversary* adversary()
      const override {
    return inner_.adversary();
  }
  [[nodiscard]] hyparview::Rng& rng() override { return inner_.rng(); }
  [[nodiscard]] std::uint64_t events_processed() const override {
    return inner_.events_processed();
  }

 private:
  void stamp() { stamps_.push_back(std::chrono::steady_clock::now()); }

  hyparview::harness::Backend& inner_;
  std::vector<std::chrono::steady_clock::time_point> stamps_;
};

}  // namespace hpvbench
