#include "workloads.hpp"

#include <stdexcept>

namespace hpvbench {

namespace json = hyparview::json;

namespace {

constexpr std::int64_t kStabilizeRounds = 50;

json::Value phase(const char* kind, const char* label) {
  json::Value p = json::Value::object();
  p.set("kind", kind);
  p.set("label", label);
  return p;
}

/// §5.1 HyParView parameters over `nodes` nodes, with the given payload
/// engine. Pub/sub windows are sized like specs/pubsub_plumtree.json: 16
/// messages in flight per tick need far more than the flood's 128 ids.
json::Value network(std::int64_t nodes, std::uint64_t seed,
                    const char* engine, bool pubsub_windows) {
  json::Value hv = json::Value::object();
  hv.set("active_capacity", 5);
  hv.set("passive_capacity", 30);
  hv.set("arwl", 6);
  hv.set("prwl", 3);
  hv.set("shuffle_ka", 3);
  hv.set("shuffle_kp", 4);
  hv.set("shuffle_ttl", 6);

  json::Value go = json::Value::object();
  go.set("engine", engine);
  go.set("payload_size", 128);
  if (pubsub_windows) {
    go.set("dedup_window", 4096);
    go.set("cache_window", 4096);
    go.set("graft_timeout_ms", 100);
  }

  json::Value net = json::Value::object();
  net.set("protocol", "HyParView");
  net.set("nodes", nodes);
  net.set("seed", seed);
  net.set("fanout", 4);
  net.set("hyparview", std::move(hv));
  net.set("gossip", std::move(go));
  return net;
}

json::Value stabilize() {
  json::Value p = phase("stabilize", "stabilize");
  p.set("cycles", kStabilizeRounds);
  return p;
}

/// The program of specs/pubsub_plumtree.json: 8 sources x 2 messages per
/// tick, one membership round per tick, 25 steady ticks, then 10 ticks
/// with a 25% crash at the midpoint.
json::Value pubsub_phases() {
  json::Value phases = json::Value::array();
  phases.push_back(stabilize());
  const auto pubsub = [](const char* label, std::int64_t ticks,
                         double churn_fraction) {
    json::Value p = phase("pubsub", label);
    p.set("sources", 8);
    p.set("ticks", ticks);
    p.set("rate", 2);
    p.set("churn_fraction", churn_fraction);
    p.set("cycles_per_tick", 1);
    return p;
  };
  phases.push_back(pubsub("steady", 25, 0.0));
  phases.push_back(pubsub("churn", 10, 0.25));
  return phases;
}

/// Paper-scale churn and healing (§5, Figure 4): baseline probes, 30
/// cycles of 50 joins + 50 leaves, a 50% crash, heal back to the baseline,
/// then 10 quiet rounds.
json::Value churn_phases() {
  json::Value phases = json::Value::array();
  phases.push_back(stabilize());

  json::Value baseline = phase("broadcast", "baseline");
  baseline.set("count", 20);
  phases.push_back(std::move(baseline));

  json::Value churn = phase("churn", "churn");
  churn.set("cycles", 30);
  churn.set("joins_per_cycle", 50);
  churn.set("leaves_per_cycle", 50);
  churn.set("graceful_fraction", 0.5);
  churn.set("probes_per_cycle", 2);
  phases.push_back(std::move(churn));

  json::Value crash = phase("crash", "crash");
  crash.set("fraction", 0.5);
  phases.push_back(std::move(crash));

  json::Value heal = phase("heal_until", "heal");
  heal.set("baseline", "baseline");
  heal.set("max_cycles", 30);
  heal.set("probes_per_cycle", 10);
  phases.push_back(std::move(heal));

  json::Value after = phase("cycles", "after");
  after.set("cycles", 10);
  phases.push_back(std::move(after));
  return phases;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"sim-pubsub", "sim",
       "2,000-node sim, HyParView + Plumtree, 16 messages in flight per "
       "tick: loads the payload plane (tree engine, dedup and cache "
       "windows, graft timers)"},
      {"sim-churn", "sim",
       "10,000-node sim (paper scale), HyParView + eager flood under churn, "
       "a 50% crash and healing: loads the membership layer and the "
       "scheduler"},
      {"tcp-pubsub", "tcp",
       "32 nodes on loopback TCP, HyParView + eager flood, the pub/sub "
       "program: the only workload that runs the wire codec, sockets and "
       "the epoll loop"},
  };
  return all;
}

const Workload& workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

json::Value make_spec(const Workload& w, std::uint64_t seed) {
  json::Value doc = json::Value::object();
  doc.set("name", w.name);
  doc.set("backend", w.backend);
  if (w.name == "sim-pubsub") {
    doc.set("network", network(2000, seed, "plumtree", true));
    doc.set("phases", pubsub_phases());
  } else if (w.name == "sim-churn") {
    doc.set("network", network(10000, seed, "eager", false));
    doc.set("phases", churn_phases());
  } else {
    doc.set("network", network(32, seed, "eager", true));
    doc.set("phases", pubsub_phases());
  }
  return doc;
}

}  // namespace hpvbench
