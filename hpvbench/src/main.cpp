// hpvbench — the repo benchmark. Runs one workload (workloads.hpp) for a
// time budget, checks its outputs, and prints the result.
//
//   hpvbench --workload sim-pubsub --seed 42 --seconds 40 --trace 0
//            [--commit <id>] [--source-digest <hash>]
//
// A run repeats the workload — fresh cluster, set-up, measured phases —
// until the budget is spent (at least kMinReps times, unless that would
// overrun kRepDeadlineS). The time metrics take each step of the program
// at its fastest repetition (fastest_steps_s), and on sim they are put at
// reference host speed (host_probe.hpp); the count metrics are medians
// over the repetitions. With --trace 1 one more, traced, repetition
// follows and the per-layer metrics come from it.
//
// stdout carries one result record ({"record": ...}: machine fingerprint,
// every repetition, every check) and, as its last line, the summary
// {"correct", "attempted", "failed", "metrics"}. Progress goes to stderr.
// Exit status: 0 when every check passed, 1 when one failed, 2 on a usage
// or runtime error (no summary printed).
#include <unistd.h>

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "host_probe.hpp"
#include "hyparview/common/json.hpp"
#include "rep.hpp"
#include "wire_types.hpp"

namespace {

using hpvbench::RepResult;
namespace json = hyparview::json;
namespace wire = hyparview::wire;

constexpr std::size_t kMinReps = 3;
/// Host probes after each untraced repetition.
constexpr int kProbesPerRep = 2;
constexpr std::size_t kMaxReps = 40;
/// On a machine slow enough that the minimum number of repetitions would
/// not fit, stop after two (the determinism check needs a pair) rather
/// than overrun the caller's time limit.
constexpr double kRepDeadlineS = 110.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      const long long s = std::stoll(value);
      if (s < 0) throw std::invalid_argument("--seed must be >= 0");
      a.seed = static_cast<std::uint64_t>(s);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
      if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds > 0");
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.trace = value == "1";
    } else if (key == "--commit") {
      a.commit = value;
    } else if (key == "--source-digest") {
      a.source_digest = value;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload required");
  return a;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile (q in [0,1]) of integer samples.
double percentile(std::vector<std::int64_t> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1.0 - frac) +
         static_cast<double>(v[hi]) * frac;
}

/// Mean of the slowest `share` of samples (at least one): the tail metric.
/// Pub/sub latencies cluster at multiples of the 100 ms graft timeout, so
/// a single percentile such as p95 jumps between clusters from seed to
/// seed, while the tail mean moves with the share of slow messages.
double tail_mean(std::vector<std::int64_t> v, double share) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end(), std::greater<>());
  const auto k = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(share * static_cast<double>(v.size()))));
  double sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) sum += static_cast<double>(v[i]);
  return sum / static_cast<double>(k);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The seed of untraced repetition `k`. Sim repetitions all use the run's
/// seed, so that they must agree exactly. TCP runs are not deterministic
/// anyway, and how much membership traffic a 32-node overlay needs differs
/// by up to a third between overlays, so each TCP repetition builds its
/// own overlay and a run stands for several of them.
std::uint64_t rep_seed(std::uint64_t seed, std::size_t k, bool sim) {
  constexpr std::uint64_t kStride = 1'000'003;
  return sim ? seed : seed + kStride * k;
}

double as_d(std::uint64_t v) { return static_cast<double>(v); }

/// Peak resident set of the process so far.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

json::Value fingerprint(const Args& a) {
  json::Value f = json::Value::object();
  f.set("cpu_model", cpu_model());
  f.set("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  f.set("compiler", HPVBENCH_COMPILER);
  f.set("build_type", HPVBENCH_BUILD_TYPE);
  f.set("commit", a.commit);
  f.set("source_digest", a.source_digest);
  return f;
}

/// Metrics by name: (value, unit).
using Metrics =
    std::vector<std::pair<std::string, std::pair<double, const char*>>>;

/// The measured phases with every step at its fastest repetition: for each
/// step k of the program (a segment, timed_backend.hpp), the least time any
/// repetition took for it, summed over the steps. Other tenants of a shared
/// host slow the program down in spells of a fraction of a second to a few
/// seconds. Such a spell lengthens some steps of one repetition, and the
/// same steps of another repetition usually run clear of it.
double fastest_steps_s(const std::vector<RepResult>& reps) {
  const std::size_t steps = reps.front().segments_s.size();
  for (const RepResult& r : reps) {
    if (r.segments_s.size() != steps) {
      throw std::runtime_error("repetitions ran different numbers of steps");
    }
  }
  double total = 0.0;
  for (std::size_t k = 0; k < steps; ++k) {
    double fastest = reps.front().segments_s[k];
    for (const RepResult& r : reps) {
      fastest = std::min(fastest, r.segments_s[k]);
    }
    total += fastest;
  }
  return total;
}

/// Median over the repetitions of f(repetition).
template <typename F>
double median_of(const std::vector<RepResult>& reps, F f) {
  std::vector<double> v;
  v.reserve(reps.size());
  for (const RepResult& r : reps) v.push_back(f(r));
  return median(v);
}

/// Process CPU per first delivery. Not a bounded metric: on TCP, how much
/// of the loopback socket work the kernel charges to the process varies by
/// ±15% between repetitions of one seed.
double cpu_us_per_delivery(const RepResult& r) {
  return ratio((r.user_s + r.sys_s) * 1e6, as_d(r.delivered));
}

double wire_bytes_per_delivery(const RepResult& r) {
  return ratio(as_d(r.engine_bytes), as_d(r.delivered));
}

double control_msgs_per_node_round(const RepResult& r) {
  return ratio(as_d(r.control_msgs), as_d(r.node_rounds));
}

/// The end-to-end metrics of a run's untraced repetitions. Set-up is the
/// median over the repetitions. Every time is multiplied by `time_scale`.
Metrics end_to_end(const std::vector<RepResult>& reps, double time_scale,
                   double peak_rss) {
  const double setup_s = median_of(
      reps, [](const RepResult& r) { return r.build_s + r.stabilize_s; });
  const double measured_s = fastest_steps_s(reps) * time_scale;
  const double delivered =
      median_of(reps, [](const RepResult& r) { return as_d(r.delivered); });
  const double node_rounds =
      median_of(reps, [](const RepResult& r) { return as_d(r.node_rounds); });
  return {
      {"setup_s", {setup_s * time_scale, "s"}},
      {"deliveries_per_s", {ratio(delivered, measured_s), "1/s"}},
      {"node_rounds_per_s", {ratio(node_rounds, measured_s), "1/s"}},
      {"wire_bytes_per_delivery",
       {median_of(reps, wire_bytes_per_delivery), "B"}},
      {"control_msgs_per_node_round",
       {median_of(reps, control_msgs_per_node_round), "count"}},
      {"peak_rss_mb", {peak_rss, "MB"}},
  };
}

/// The per-layer metrics of the traced repetition `t`; `untraced_s` is the
/// median measured wall of the untraced repetitions.
Metrics per_layer(const RepResult& t, double untraced_s, double probe_s,
                  bool sim) {
  const hpvbench::LayerTotals& tr = *t.trace;
  const double core_s = as_d(tr.core_ns) * 1e-9;
  const double gossip_s = as_d(tr.gossip_ns) * 1e-9;
  const double cpu_s = t.user_s + t.sys_s;
  Metrics m = {
      {"harness.build_s", {t.build_s, "s"}},
      {"harness.stabilize_s", {t.stabilize_s, "s"}},
      {"harness.wait_s", {std::max(0.0, t.measured_s - cpu_s), "s"}},
      {"harness.probe_s", {probe_s, "s"}},
  };
  const double sim_self_s = sim ? t.measured_s - core_s - gossip_s : 0.0;
  m.push_back({"sim.events", {as_d(t.sim_events), "count"}});
  m.push_back({"sim.self_s", {sim_self_s, "s"}});
  m.push_back({"sim.ns_per_event",
               {ratio(sim_self_s * 1e9, as_d(t.sim_events)), "ns"}});
  m.push_back({"sim.msgs_delivered", {as_d(t.sim_delivered), "count"}});
  m.push_back({"sim.sends_failed", {as_d(t.sim_sends_failed), "count"}});

  const auto sent = [&](std::uint8_t tag) {
    return tag < t.sent_by_type.size() ? as_d(t.sent_by_type[tag]) : 0.0;
  };
  m.push_back({"core.self_s", {core_s, "s"}});
  m.push_back({"core.calls", {as_d(tr.core_calls), "count"}});
  m.push_back({"core.ns_per_call",
               {ratio(as_d(tr.core_ns), as_d(tr.core_calls)), "ns"}});
  for (const hpvbench::NamedType& type : hpvbench::core_types()) {
    m.push_back({std::string("core.sent.") + type.name,
                 {sent(type.tag), "count"}});
  }
  m.push_back({"core.promotions", {as_d(t.promotions), "count"}});
  m.push_back(
      {"core.failures_detected", {as_d(t.failures_detected), "count"}});

  m.push_back({"gossip.self_s", {gossip_s, "s"}});
  m.push_back({"gossip.calls", {as_d(tr.gossip_calls), "count"}});
  m.push_back({"gossip.ns_per_call",
               {ratio(as_d(tr.gossip_ns), as_d(tr.gossip_calls)), "ns"}});
  // The TCP transport does not meter sends by type; its payload frames
  // come from the engines' byte counters (see rep.cpp).
  const std::uint8_t gossip_tag = hpvbench::tag_of<wire::Gossip>();
  const double payload_frames =
      sim ? sent(gossip_tag) + sent(hpvbench::tag_of<wire::TreeGossip>())
          : as_d(t.gossip_frames_sent);
  for (const hpvbench::NamedType& type : hpvbench::gossip_types()) {
    const bool tcp_gossip = !sim && type.tag == gossip_tag;
    m.push_back({std::string("gossip.sent.") + type.name,
                 {tcp_gossip ? payload_frames : sent(type.tag), "count"}});
  }
  m.push_back({"gossip.duplicates", {as_d(t.duplicates), "count"}});
  m.push_back({"gossip.grafts", {as_d(t.grafts), "count"}});
  m.push_back({"gossip.prunes", {as_d(t.prunes), "count"}});
  m.push_back({"gossip.useful_ratio",
               {ratio(as_d(t.delivered - t.messages), payload_frames),
                "ratio"}});

  for (const hpvbench::NamedType& type : hpvbench::tcp_types()) {
    double enc = 0.0;
    double dec = 0.0;
    if (t.codec && type.tag < t.codec->by_type.size()) {
      enc = t.codec->by_type[type.tag].encode_ns;
      dec = t.codec->by_type[type.tag].decode_ns;
    }
    m.push_back({std::string("wire.encode_ns.") + type.name, {enc, "ns"}});
    m.push_back({std::string("wire.decode_ns.") + type.name, {dec, "ns"}});
  }

  const double upcall_s = sim ? 0.0 : core_s + gossip_s;
  m.push_back({"net.frames_sent", {as_d(t.frames_sent), "count"}});
  m.push_back({"net.frames_received", {as_d(t.frames_received), "count"}});
  m.push_back({"net.bytes_sent", {as_d(t.bytes_sent), "B"}});
  m.push_back({"net.frames_per_delivery",
               {ratio(as_d(t.frames_sent), as_d(t.delivered)), "count"}});
  m.push_back({"net.user_s", {sim ? 0.0 : t.user_s, "s"}});
  m.push_back({"net.sys_s", {sim ? 0.0 : t.sys_s, "s"}});
  m.push_back({"net.upcall_s", {upcall_s, "s"}});
  // Upcall time includes the syscalls of the sends an upcall makes, so the
  // loop's own share is all CPU outside upcalls: epoll waits and wakeups,
  // reads, decode and dispatch.
  m.push_back({"net.loop_self_s", {sim ? 0.0 : cpu_s - upcall_s, "s"}});

  const double upcalls_seen =
      sim ? as_d(t.sim_delivered) : as_d(t.frames_received);
  m.push_back({"trace.overhead_ratio", {ratio(t.measured_s, untraced_s),
                                        "ratio"}});
  m.push_back({"trace.coverage", {ratio(as_d(tr.delivers), upcalls_seen),
                                  "ratio"}});
  return m;
}

json::Value metrics_json(const Metrics& metrics) {
  json::Value out = json::Value::object();
  for (const auto& [name, value] : metrics) {
    json::Value v = json::Value::object();
    v.set("value", value.first);
    v.set("unit", value.second);
    out.set(name, std::move(v));
  }
  return out;
}

/// One repetition as measured.
json::Value rep_json(const RepResult& r) {
  json::Value o = json::Value::object();
  o.set("build_s", r.build_s);
  o.set("stabilize_s", r.stabilize_s);
  o.set("measured_s", r.measured_s);
  o.set("user_s", r.user_s);
  o.set("sys_s", r.sys_s);
  o.set("delivered", r.delivered);
  o.set("node_rounds", r.node_rounds);
  o.set("latency_p50_ms", percentile(r.latency_us, 0.50) / 1000.0);
  o.set("cpu_us_per_delivery", cpu_us_per_delivery(r));
  o.set("wire_bytes_per_delivery", wire_bytes_per_delivery(r));
  o.set("control_msgs_per_node_round", control_msgs_per_node_round(r));
  o.set("steps", static_cast<std::uint64_t>(r.segments_s.size()));
  o.set("traced", r.trace.has_value());
  return o;
}

/// First deterministic count on which `b` differs from `a`, or empty.
std::string first_difference(const RepResult& a, const RepResult& b) {
  const auto ca = a.deterministic_counts();
  const auto cb = b.deterministic_counts();
  if (ca.size() != cb.size()) return "count lists differ in length";
  for (std::size_t i = 0; i < ca.size(); ++i) {
    if (ca[i] != cb[i]) {
      return ca[i].first + ": " + std::to_string(ca[i].second) + " vs " +
             std::to_string(cb[i].second);
    }
  }
  return {};
}

int run(const Args& args) {
  const hpvbench::Workload& w = hpvbench::workload(args.workload);
  const bool sim = w.backend == "sim";

  std::vector<RepResult> reps;
  std::vector<double> probes;
  // Taken after the first repetition, before the first probe: the probe's
  // memory must not count. Every repetition builds a cluster of one size.
  double peak_rss = 0.0;
  const double start = now_s();
  while (reps.size() < kMaxReps &&
         (reps.size() < kMinReps || now_s() - start < args.seconds)) {
    const double elapsed = now_s() - start;
    if (reps.size() >= 2 &&
        elapsed * static_cast<double>(reps.size() + 1) /
                static_cast<double>(reps.size()) >
            kRepDeadlineS) {
      break;
    }
    reps.push_back(hpvbench::run_rep(w, rep_seed(args.seed, reps.size(), sim),
                                     false));
    if (reps.size() == 1) peak_rss = peak_rss_mb();
    for (int k = 0; k < kProbesPerRep; ++k) {
      probes.push_back(hpvbench::host_probe_s());
    }
    std::fprintf(stderr, "[hpvbench] %s rep %zu: setup %.3fs measured %.3fs\n",
                 w.name.c_str(), reps.size(),
                 reps.back().build_s + reps.back().stabilize_s,
                 reps.back().measured_s);
  }
  std::optional<RepResult> traced;
  if (args.trace) {
    traced = hpvbench::run_rep(w, args.seed, true);
    std::fprintf(stderr, "[hpvbench] %s traced rep: measured %.3fs\n",
                 w.name.c_str(), traced->measured_s);
  }

  // --- Checks ---------------------------------------------------------------
  json::Value checks = json::Value::object();
  bool correct = true;
  const auto check = [&](const std::string& name, bool ok,
                         const std::string& detail) {
    json::Value c = json::Value::object();
    c.set("ok", ok);
    if (!ok) c.set("detail", detail);
    checks.set(name, std::move(c));
    if (!ok) {
      correct = false;
      std::fprintf(stderr, "[hpvbench] CHECK FAILED %s: %s\n", name.c_str(),
                   detail.c_str());
    }
  };
  std::vector<const RepResult*> all;
  for (const RepResult& r : reps) all.push_back(&r);
  if (traced) all.push_back(&*traced);

  std::string view_error;
  for (const RepResult* r : all) {
    if (view_error.empty()) view_error = r->invariant_error;
  }
  check("view_invariants", view_error.empty(), view_error);
  if (w.name == "sim-pubsub") {
    bool steady = true;
    for (const RepResult* r : all) steady = steady && r->steady_complete;
    check("steady_missed_delivery_zero", steady,
          "a steady-phase message missed an alive node");
  }
  if (w.name == "sim-churn") {
    bool healed = true;
    for (const RepResult* r : all) healed = healed && r->heal_recovered;
    check("heal_until_recovered", healed,
          "reliability did not regain the baseline within 30 cycles");
  }
  if (sim) {
    std::string diff;
    for (const RepResult* r : all) {
      if (diff.empty()) diff = first_difference(reps.front(), *r);
    }
    check("deterministic_counts_agree", diff.empty(), diff);
  }
  if (traced && traced->codec) {
    check("wire_round_trip", traced->codec->error.empty(),
          traced->codec->error);
  }

  // --- Metrics --------------------------------------------------------------
  // Sim is CPU-bound, so its times are put at reference host speed. A TCP
  // run's wall time is set by its settle windows: they absorb a slower CPU
  // (1.78–1.83 s measured per repetition whether the host was idle or its
  // CPU ran 1.7× slower), so TCP times stay as measured.
  const double probe_s = median(probes);
  const double time_scale = sim ? ratio(hpvbench::kProbeRefS, probe_s) : 1.0;
  const Metrics e2e = end_to_end(reps, time_scale, peak_rss);
  // The latency tail in the record pools every message of every
  // repetition.
  std::vector<std::int64_t> pooled_latency_us;
  for (const RepResult& r : reps) {
    pooled_latency_us.insert(pooled_latency_us.end(), r.latency_us.begin(),
                             r.latency_us.end());
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const RepResult* r : all) {
    attempted += r->attempted;
    failed += r->attempted - std::min(r->attempted, r->delivered);
  }
  std::vector<double> untraced_s;
  for (const RepResult& r : reps) untraced_s.push_back(r.measured_s);
  const Metrics layers =
      traced ? per_layer(*traced, median(untraced_s), probe_s, sim)
             : Metrics{};

  json::Value record = json::Value::object();
  record.set("workload", w.name);
  record.set("why", w.why);
  record.set("backend", w.backend);
  record.set("seed", args.seed);
  record.set("seconds", args.seconds);
  record.set("fingerprint", fingerprint(args));
  record.set("checks", checks);
  json::Value rep_list = json::Value::array();
  for (const RepResult* r : all) rep_list.push_back(rep_json(*r));
  record.set("reps", std::move(rep_list));
  record.set("fastest_steps_s", fastest_steps_s(reps));
  record.set("probes", static_cast<std::uint64_t>(probes.size()));
  record.set("probe_median_s", probe_s);
  record.set("time_scale", time_scale);
  record.set("end_to_end", metrics_json(e2e));
  if (traced) record.set("per_layer", metrics_json(layers));
  const RepResult& first = reps.front();
  record.set("messages", first.messages);
  record.set("latency_samples", static_cast<std::uint64_t>(
                                    first.latency_us.size()));
  // The latency tail. It is not a bounded metric: on TCP the slowest 5% of
  // messages are the one or two slowest ticks of 35, which move with every
  // burst of interference from other load on the machine.
  record.set("latency_tail_mean_ms",
             tail_mean(pooled_latency_us, 0.05) / 1000.0);
  record.set("latency_p50_ms", percentile(pooled_latency_us, 0.50) / 1000.0);
  record.set("latency_p95_ms", percentile(pooled_latency_us, 0.95) / 1000.0);
  record.set("latency_p99_ms", percentile(pooled_latency_us, 0.99) / 1000.0);
  record.set("cpu_us_per_delivery", median_of(reps, cpu_us_per_delivery));
  record.set("missed_delivery_ratio",
             ratio(as_d(failed), as_d(attempted)));
  record.set("heal_cycles", first.heal_cycles);
  record.set("nodes_checked", first.nodes_checked);
  json::Value wrapper = json::Value::object();
  wrapper.set("record", std::move(record));
  std::printf("%s\n", wrapper.dump().c_str());

  json::Value summary = json::Value::object();
  summary.set("correct", correct);
  summary.set("attempted", attempted);
  summary.set("failed", failed);
  summary.set("metrics", metrics_json(args.trace ? layers : e2e));
  std::printf("%s\n", summary.dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hpvbench: %s\n", e.what());
    return 2;
  }
}
