// Host-speed probe: a fixed piece of work, timed between repetitions, that
// tells how fast this machine runs the sim right now.
//
// Other tenants of a shared host slow a CPU-bound program down by up to
// ~1.8×, in spells that can outlast a whole run, without stealing any of
// its CPU time: every instruction just takes longer. The probe slows down
// with it. The sim workloads therefore report their times at reference
// speed: measured time × kProbeRefS ÷ (the run's median probe time). The
// probe is the benchmark's own code, so a change to the library moves the
// metrics and never the probe.
#pragma once

namespace hpvbench {

/// The probe's CPU time on the reference machine (4-vCPU Intel Xeon VM,
/// gcc 12.2, Release, idle host), seconds.
inline constexpr double kProbeRefS = 0.0905;

/// A small discrete-event loop like the simulator's: a binary heap of
/// 65,536 timed events over 32 MiB of node state, touched at random,
/// 400,000 events. Returns the process CPU seconds it took.
double host_probe_s();

}  // namespace hpvbench
