#include "host_probe.hpp"

#include <algorithm>
#include <cstdint>
#include <ctime>
#include <functional>
#include <utility>
#include <vector>

namespace hpvbench {

namespace {

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::size_t kNodes = std::size_t{1} << 20;  // x 32 B = 32 MiB
constexpr std::size_t kInFlight = std::size_t{1} << 16;
constexpr int kEvents = 400'000;

struct Node {
  std::uint64_t seen = 0;
  std::uint64_t last = 0;
  std::uint64_t sum = 0;
  std::uint64_t peer = 0;
};

}  // namespace

double host_probe_s() {
  // Allocated and faulted in before the clock starts, and freed on return,
  // so the repetitions that follow find the heap as it was.
  std::vector<Node> nodes(kNodes);
  using Event = std::pair<std::uint64_t, std::uint32_t>;  // (time, node)
  std::vector<Event> heap;
  heap.reserve(kInFlight + 1);

  const double start = process_cpu_s();
  std::uint64_t rng = 42;
  for (std::size_t i = 0; i < kInFlight; ++i) {
    heap.emplace_back(splitmix(rng) % 1000,
                      static_cast<std::uint32_t>(splitmix(rng) % kNodes));
  }
  std::make_heap(heap.begin(), heap.end(), std::greater<>());
  for (int e = 0; e < kEvents; ++e) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const auto [at, target] = heap.back();
    heap.pop_back();
    Node& node = nodes[target];
    ++node.seen;
    node.sum += at - node.last;
    node.last = at;
    const std::uint64_t r = splitmix(rng);
    node.peer = r % kNodes;
    heap.emplace_back(at + 1 + (r >> 40) % 200,
                      static_cast<std::uint32_t>(
                          (node.peer + nodes[node.peer].seen) % kNodes));
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  const double took = process_cpu_s() - start;
  // Keep the loop's result observable.
  if (nodes[heap.front().second].sum == ~std::uint64_t{0}) heap.clear();
  return took;
}

}  // namespace hpvbench
