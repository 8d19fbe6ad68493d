#include "rep.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>

#include "hyparview/core/hyparview.hpp"
#include "hyparview/harness/experiment.hpp"
#include "hyparview/harness/spec_json.hpp"
#include "hyparview/harness/tcp_backend.hpp"
#include "timed_backend.hpp"
#include "wire_types.hpp"

namespace hpvbench {

namespace harness = hyparview::harness;
namespace core = hyparview::core;
namespace wire = hyparview::wire;
using hyparview::NodeId;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct CpuTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
};

CpuTimes cpu_times() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime)};
}

const core::HyParView* hyparview_of(const harness::Backend& b, std::size_t i) {
  return dynamic_cast<const core::HyParView*>(&b.protocol(i));
}

/// Cumulative counters summed over every node the backend has ever had
/// (dead nodes keep theirs), plus the substrate's own counters.
struct Snapshot {
  std::uint64_t payload_bytes = 0;
  std::uint64_t control_bytes = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t grafts = 0;
  std::uint64_t prunes = 0;
  std::uint64_t shuffles = 0;
  std::uint64_t promotions = 0;
  std::uint64_t failures = 0;
  std::uint64_t events = 0;
  std::uint64_t sim_delivered = 0;
  std::uint64_t sim_sends_failed = 0;
  std::vector<std::uint64_t> sent_by_type;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_sent = 0;
};

Snapshot snapshot(harness::Backend& b) {
  Snapshot s;
  for (std::size_t i = 0; i < b.node_count(); ++i) {
    const hyparview::gossip::BroadcastEngine& e = b.engine(i);
    s.payload_bytes += e.payload_bytes_sent();
    s.control_bytes += e.control_bytes_sent();
    s.duplicates += e.duplicates_received();
    s.grafts += e.grafts_sent();
    s.prunes += e.prunes_sent();
    if (const core::HyParView* hv = hyparview_of(b, i)) {
      s.shuffles += hv->stats().shuffles_initiated;
      s.promotions += hv->stats().promotions;
      s.failures += hv->stats().failures_detected;
    }
  }
  s.events = b.events_processed();
  if (auto* sim = dynamic_cast<harness::SimBackend*>(&b)) {
    const hyparview::sim::Simulator& simulator = sim->simulator();
    s.sim_delivered = simulator.messages_delivered();
    s.sim_sends_failed = simulator.sends_failed();
    s.sent_by_type = simulator.sent_by_type();
  } else if (auto* tcp = dynamic_cast<harness::TcpBackend*>(&b)) {
    for (std::size_t i = 0; i < tcp->node_count(); ++i) {
      const hyparview::net::TransportStats& t = tcp->transport(i).stats();
      s.frames_sent += t.frames_sent;
      s.frames_received += t.frames_received;
      s.bytes_sent += t.bytes_sent;
    }
  }
  s.sent_by_type.resize(kTags, 0);
  return s;
}

std::uint64_t sum_tags(const std::vector<std::uint64_t>& by_type,
                       const std::vector<NamedType>& types) {
  std::uint64_t total = 0;
  for (const NamedType& t : types) total += by_type[t.tag];
  return total;
}

/// The view invariants of §4 for every alive node: bounded views, no self
/// entry, and disjoint active and passive views. Returns the first
/// violation (empty when none) and counts the nodes checked.
std::string check_views(const harness::Backend& b, std::uint64_t& checked) {
  checked = 0;
  for (std::size_t i = 0; i < b.node_count(); ++i) {
    if (!b.alive(i)) continue;
    const core::HyParView* hv = hyparview_of(b, i);
    if (hv == nullptr) return "node is not running HyParView";
    ++checked;
    const std::vector<NodeId>& active = hv->active_view();
    const std::vector<NodeId>& passive = hv->passive_view();
    const NodeId self = b.id_of(i);
    const std::string at = " at node " + std::to_string(i);
    if (active.size() > hv->config().active_capacity) {
      return "active view over capacity" + at;
    }
    if (passive.size() > hv->config().passive_capacity) {
      return "passive view over capacity" + at;
    }
    if (std::find(active.begin(), active.end(), self) != active.end() ||
        std::find(passive.begin(), passive.end(), self) != passive.end()) {
      return "node holds itself in a view" + at;
    }
    for (const NodeId& a : active) {
      if (std::find(passive.begin(), passive.end(), a) != passive.end()) {
        return "a peer is in both the active and passive view" + at;
      }
    }
  }
  return {};
}

}  // namespace

std::vector<std::pair<std::string, std::uint64_t>>
RepResult::deterministic_counts() const {
  std::vector<std::pair<std::string, std::uint64_t>> out = {
      {"messages", messages},
      {"attempted", attempted},
      {"delivered", delivered},
      {"engine_bytes", engine_bytes},
      {"node_rounds", node_rounds},
      {"control_msgs", control_msgs},
      {"duplicates", duplicates},
      {"grafts", grafts},
      {"prunes", prunes},
      {"promotions", promotions},
      {"failures_detected", failures_detected},
      {"sim_events", sim_events},
      {"sim_delivered", sim_delivered},
      {"sim_sends_failed", sim_sends_failed},
      {"heal_cycles", heal_cycles},
      {"steady_complete", steady_complete ? 1 : 0},
  };
  for (std::size_t tag = 0; tag < sent_by_type.size(); ++tag) {
    out.emplace_back("sent_by_type." + std::to_string(tag), sent_by_type[tag]);
  }
  for (std::size_t m = 0; m < latency_us.size(); ++m) {
    out.emplace_back("latency_us." + std::to_string(m),
                     static_cast<std::uint64_t>(latency_us[m]));
  }
  return out;
}

RepResult run_rep(const Workload& w, std::uint64_t seed, bool traced) {
  const harness::RunSpec spec = harness::spec_from_json(make_spec(w, seed));
  const auto& program = spec.experiment.phases();
  harness::Experiment setup(spec.name);
  setup.mutable_phases().assign(program.begin(), program.begin() + 1);
  harness::Experiment measured(spec.name);
  measured.mutable_phases().assign(program.begin() + 1, program.end());

  // Declared before the cluster so the wrappers outlive every upcall.
  Tracer tracer(w.backend == "tcp" ? 64 : 0);
  RepResult r;

  const double t0 = now_s();
  harness::Cluster cluster = w.backend == "sim"
                                 ? harness::Cluster::sim(spec.net)
                                 : harness::Cluster::tcp(spec.tcp);
  cluster->build();
  const double t1 = now_s();
  cluster.run(setup);
  const double t2 = now_s();
  r.build_s = t1 - t0;
  r.stabilize_s = t2 - t1;

  harness::Backend& backend = cluster.backend();
  if (traced) {
    tracer.attach(backend);
    tracer.reset();
  }
  const std::size_t first_msg = backend.recorder().results().size();
  const Snapshot before = snapshot(backend);
  const CpuTimes cpu0 = cpu_times();
  const double t3 = now_s();
  TimedBackend timed(backend);
  const harness::ExperimentResult result =
      harness::run_experiment(timed, measured);
  r.segments_s = timed.segments();
  const double t4 = now_s();
  const CpuTimes cpu1 = cpu_times();
  const Snapshot after = snapshot(backend);
  r.measured_s = t4 - t3;
  r.user_s = cpu1.user_s - cpu0.user_s;
  r.sys_s = cpu1.sys_s - cpu0.sys_s;

  const auto& results = backend.recorder().results();
  for (std::size_t m = first_msg; m < results.size(); ++m) {
    const hyparview::analysis::MessageResult& msg = results[m];
    ++r.messages;
    r.attempted += msg.alive_nodes;
    r.delivered += msg.delivered;
    r.latency_us.push_back(msg.latency_to_last());
  }
  if (result.has_phase("steady")) {
    r.steady_complete = result.phase("steady").pubsub.min_reliability >= 1.0;
  }
  if (result.has_phase("heal")) {
    r.heal_recovered = result.phase("heal").recovered;
    r.heal_cycles = result.phase("heal").cycles_to_heal;
  }

  r.engine_bytes = (after.payload_bytes - before.payload_bytes) +
                   (after.control_bytes - before.control_bytes);
  r.node_rounds = after.shuffles - before.shuffles;
  r.duplicates = after.duplicates - before.duplicates;
  r.grafts = after.grafts - before.grafts;
  r.prunes = after.prunes - before.prunes;
  r.promotions = after.promotions - before.promotions;
  r.failures_detected = after.failures - before.failures;
  if (w.backend == "sim") {
    r.sim_events = after.events - before.events;
    r.sim_delivered = after.sim_delivered - before.sim_delivered;
    r.sim_sends_failed = after.sim_sends_failed - before.sim_sends_failed;
    r.sent_by_type.resize(kTags);
    for (std::size_t tag = 0; tag < kTags; ++tag) {
      r.sent_by_type[tag] = after.sent_by_type[tag] - before.sent_by_type[tag];
    }
    r.control_msgs = sum_tags(r.sent_by_type, core_types());
  } else {
    r.frames_sent = after.frames_sent - before.frames_sent;
    r.frames_received = after.frames_received - before.frames_received;
    r.bytes_sent = after.bytes_sent - before.bytes_sent;
    // Every eager payload frame costs the same, so the engines' payload
    // bytes count them exactly; every other frame is control traffic
    // (HELLO handshakes included).
    const std::uint64_t frame_cost = wire::wire_cost(
        wire::Gossip{0, 0, spec.tcp.gossip.payload_size});
    r.gossip_frames_sent =
        (after.payload_bytes - before.payload_bytes) / frame_cost;
    r.control_msgs = r.frames_sent - r.gossip_frames_sent;
  }

  r.invariant_error = check_views(backend, r.nodes_checked);

  if (traced) {
    r.trace = tracer.totals();
    if (w.backend == "tcp") {
      // The join frames travel only while build() bootstraps the overlay
      // and HELLO only on each new dial, mostly before the tracer is
      // attached: replay one of each, shaped as sent then.
      auto frames = tracer.captured();
      const auto add_if_unseen = [&](const wire::Message& msg) {
        auto& kept = frames[wire::type_tag(msg)];
        if (kept.empty()) kept.push_back(msg);
      };
      add_if_unseen(wire::Join{});
      add_if_unseen(wire::ForwardJoin{backend.id_of(1),
                                      spec.tcp.hyparview.arwl});
      add_if_unseen(wire::ForwardJoinAccept{});
      add_if_unseen(wire::Hello{backend.id_of(0)});
      r.codec = replay_codec(frames);
    }
  }
  return r;
}

}  // namespace hpvbench
