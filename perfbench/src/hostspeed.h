// Copyright 2026 the pdblb authors. MIT license.
//
// The host-speed reference.  The benchmark runs on VMs of a shared machine,
// where the neighbours' load slows the simulator by up to 2x for minutes at
// a time while nothing else runs in the VM; the process's CPU time grows
// with its wall time, so it is not preemption that could be subtracted.  A
// median over one run follows those phases, and so do ten runs' medians.
//
// So the benchmark runs, interleaved with the measured work, fixed slices
// of work shaped like the simulator's hot loop: a binary-heap event
// calendar whose events read and write a 4 MiB state table.  Each measured interval is scaled by
// kReferenceSliceSeconds / (median time of the slices that ended within
// kWindowSeconds of it), which reads as host seconds at the reference
// speed.  The slices are the benchmark's own code: no change to the
// library moves them, and a change that makes the simulator faster moves
// the scaled time as much as the raw one.

#ifndef PDBLB_PERFBENCH_HOSTSPEED_H_
#define PDBLB_PERFBENCH_HOSTSPEED_H_

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

class HostSpeed {
 public:
  /// A slice's time on the 4-vCPU Xeon VM the baseline was taken on, when
  /// its neighbours were quiet.
  static constexpr double kReferenceSliceSeconds = 0.004;
  /// How far from an interval the slices that scale it may lie.
  static constexpr double kWindowSeconds = 2.0;

  HostSpeed();

  /// Host seconds since construction: the time base of Slice and Scale.
  double Now() const;

  /// Runs one slice (the same work every time), logs its end time and
  /// duration, and returns the duration.
  double Slice();

  /// kReferenceSliceSeconds / the median duration of the slices that ended
  /// in [from - kWindowSeconds, to + kWindowSeconds] (of all slices when
  /// none did; 1.0 when there are none at all).
  double Scale(double from, double to) const;

  /// Memory the slices hold (state table, calendar, log), which the
  /// benchmark's peak-RSS figure leaves out.
  double ResidentMb() const;

  /// Every slice's duration, in the order they ran.
  std::vector<double> Durations() const;

  struct Event {
    uint64_t time;
    uint32_t entity;
  };

 private:
  struct Logged {
    double end;
    double seconds;
  };
  std::chrono::steady_clock::time_point start_;
  std::vector<uint64_t> state_;
  std::vector<Event> calendar_;
  std::vector<Logged> log_;
  uint64_t sink_ = 0;
};

}  // namespace perfbench

#endif  // PDBLB_PERFBENCH_HOSTSPEED_H_
