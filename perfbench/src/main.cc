// Copyright 2026 the pdblb authors. MIT license.
//
// pdblb_perfbench: the measuring half of the repository benchmark (run.py
// is the other half: it builds this binary, checks the results digest and
// prints the result line).  Modes:
//
//   measure  untraced: repeated whole-grid sweeps with set-up passes
//            between them, peak RSS, then a sweep at another --jobs value
//            to check the results CSV does not depend on it.  Reports the
//            end-to-end metrics.
//   layers   one untraced sweep, one traced pass that constructs and runs
//            every point's Cluster itself (layer counters via
//            Cluster::pe(i) and Cluster::net()), then the layer probes.
//            Reports the per-layer metrics and writes the spans file.
//   probes   the layer probes alone (with --sabotage NAME, one probe is
//            steered off its path so its path check must fail).
//
//   pdblb_perfbench MODE --workload W --seed S --seconds T --out RESULT.json
//                   [--csv RESULTS.csv] [--spans SPANS.json] [--sabotage M]

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/cluster.h"
#include "hostspeed.h"
#include "json.h"
#include "probes.h"
#include "runner/sweep.h"
#include "simkern/task.h"
#include "simkern/trace_ring.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using pdblb::Cluster;
using pdblb::MetricsReport;
using pdblb::SystemConfig;
using pdblb::runner::PointSeed;
using pdblb::runner::SweepOptions;
using pdblb::runner::SweepPoint;
using pdblb::runner::SweepResult;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

struct Options {
  std::string mode;
  std::string workload;
  uint64_t seed = 42;
  double seconds = 20.0;
  std::string out_path;
  std::string csv_path;
  std::string spans_path;
  std::string sabotage;
};

// --- metrics --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  const char* tag;  ///< "host": what the simulator costs; "sim": the model
};

/// A point fails when it throws, or — the workloads being fault-free — when
/// any query failed, was shed, timed out or was retried, or when it
/// completed no join in its measurement window.
std::string PointFailure(const MetricsReport& r) {
  if (r.queries_failed > 0) return "queries failed";
  if (r.queries_shed > 0) return "queries shed";
  if (r.queries_timed_out > 0) return "queries timed out";
  if (r.queries_retried > 0) return "queries retried";
  if (r.joins_completed == 0) return "no join completed in the window";
  return "";
}

// --- layer counters -------------------------------------------------------

struct LayerCounts {
  int64_t logical_reads = 0, physical_reads = 0, physical_writes = 0,
          disk_cache_hits = 0;
  int64_t buffer_hits = 0, buffer_misses = 0, evictions = 0, writebacks = 0,
          pages_stolen = 0;
  int64_t messages = 0, packets = 0, bytes = 0;
  int64_t lock_waits = 0, deadlock_aborts = 0;

  void Add(const LayerCounts& o) {
    logical_reads += o.logical_reads;
    physical_reads += o.physical_reads;
    physical_writes += o.physical_writes;
    disk_cache_hits += o.disk_cache_hits;
    buffer_hits += o.buffer_hits;
    buffer_misses += o.buffer_misses;
    evictions += o.evictions;
    writebacks += o.writebacks;
    pages_stolen += o.pages_stolen;
    messages += o.messages;
    packets += o.packets;
    bytes += o.bytes;
    lock_waits += o.lock_waits;
    deadlock_aborts += o.deadlock_aborts;
  }
};

/// Reads the layers' public counters after Run() (they cover the
/// measurement window: the warm-up reset clears them).
LayerCounts CountLayers(Cluster& c) {
  LayerCounts n;
  for (int i = 0; i < c.num_pes(); ++i) {
    pdblb::ProcessingElement& pe = c.pe(i);
    n.logical_reads += pe.disks().logical_reads();
    n.physical_reads += pe.disks().physical_reads();
    n.physical_writes += pe.disks().physical_writes();
    n.disk_cache_hits += pe.disks().cache_hits();
    n.buffer_hits += pe.buffer().buffer_hits();
    n.buffer_misses += pe.buffer().buffer_misses();
    n.evictions += pe.buffer().evictions();
    n.writebacks += pe.buffer().dirty_writebacks();
    n.pages_stolen += pe.buffer().pages_stolen();
    n.lock_waits += pe.locks().lock_waits();
    n.deadlock_aborts += pe.locks().deadlock_aborts();
  }
  n.messages = c.net().messages_sent();
  n.packets = c.net().packets_sent();
  n.bytes = c.net().bytes_sent();
  return n;
}

// --- sweeps ---------------------------------------------------------------

struct SweepRun {
  std::vector<SweepResult> results;   ///< grid order
  std::vector<std::string> failures;  ///< per point; empty = passed
  double wall_s = 0.0;
};

/// Constructs and runs every point's Cluster itself, on `jobs` workers
/// pulling grid points in order (as the runner does), with spans around
/// construction and Run().  Each point has its own try/catch, so a point
/// that throws loses only itself.  With `trace` the kernel tracer is on;
/// with `counts` the layers' counters are read after each Run().
SweepRun RunPoints(const Workload& w, uint64_t seed, int jobs, bool trace,
                   SpanRecorder* spans, int parent,
                   std::vector<LayerCounts>* counts) {
  const std::vector<SweepPoint>& points = w.sweep.points();
  SweepRun run;
  run.results.resize(points.size());
  run.failures.resize(points.size());
  if (counts != nullptr) counts->assign(points.size(), LayerCounts{});
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next.fetch_add(1); i < points.size();
         i = next.fetch_add(1)) {
      const SweepPoint& p = points[i];
      SystemConfig cfg = p.config;
      cfg.seed = PointSeed(seed, p.declared_index);
      if (trace) {
        cfg.trace.enabled = true;
        cfg.trace.capacity = 1024;  // the attribution fold is exact anyway
      }
      SweepResult& slot = run.results[i];
      slot.grid_index = i;
      slot.point = p;
      slot.point.config = cfg;
      ScopedSpan point_span(spans, "point " + p.name, parent);
      try {
        std::unique_ptr<Cluster> cluster;
        {
          ScopedSpan s(spans, "Cluster construct", point_span.id());
          cluster = std::make_unique<Cluster>(cfg);
        }
        {
          ScopedSpan s(spans, "Cluster::Run", point_span.id());
          slot.report = cluster->Run();
        }
        if (counts != nullptr) (*counts)[i] = CountLayers(*cluster);
        run.failures[i] = PointFailure(slot.report);
      } catch (const std::exception& e) {
        run.failures[i] = std::string("threw: ") + e.what();
      } catch (...) {
        run.failures[i] = "threw a non-standard exception";
      }
      pdblb::sim::TrimFrameArenaThreadCache();
    }
  };
  Clock::time_point t0 = Clock::now();
  const size_t workers =
      std::min(points.size(), static_cast<size_t>(std::max(1, jobs)));
  if (workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    for (size_t t = 0; t < workers; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  run.wall_s = Seconds(t0);
  return run;
}

/// Runs the grid through runner::Sweep, calling `between_points` (when set)
/// after each point.  Sweep::Run stops at the first point that throws, so in
/// that case the grid is run again point by point (same per-point seeds) and
/// only the throwing points are lost.
SweepRun RunSweep(const Workload& w, uint64_t seed, int jobs,
                  std::function<void(const SweepPoint&)> between_points =
                      nullptr) {
  SweepOptions opts;
  opts.jobs = jobs;
  opts.root_seed = seed;
  if (between_points) {
    opts.on_point_done = [&](const SweepPoint& p, const MetricsReport&, size_t,
                             size_t) { between_points(p); };
  }
  SweepRun run;
  Clock::time_point t0 = Clock::now();
  try {
    run.results = w.sweep.Run(opts);
  } catch (...) {
    return RunPoints(w, seed, jobs, /*trace=*/false, nullptr, -1, nullptr);
  }
  run.wall_s = Seconds(t0);
  for (const SweepResult& r : run.results) {
    run.failures.push_back(PointFailure(r.report));
  }
  return run;
}

// --- set-up and memory ---------------------------------------------------

/// One set-up pass: constructs (without running) every point's Cluster and
/// returns the host seconds spent in the constructors.  A point whose
/// constructor throws is left out; the rounds count it as failed.
double SetupPass(const Workload& w, uint64_t seed) {
  double total = 0.0;
  for (const SweepPoint& p : w.sweep.points()) {
    SystemConfig cfg = p.config;
    cfg.seed = PointSeed(seed, p.declared_index);
    Clock::time_point t0 = Clock::now();
    try {
      auto cluster = std::make_unique<Cluster>(cfg);
    } catch (...) {
      continue;
    }
    total += Seconds(t0);
  }
  return total;
}

/// Host CPU seconds of the whole process.  Recorded next to each round's
/// wall time: equal values say a slow round ran slower, not preempted.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Returns freed heap to the system and restarts the kernel's peak-RSS
/// count (VmHWM) from the current RSS.  False when the kernel does not
/// allow the reset; PeakRssMb() then reports the lifetime peak.
bool ResetPeakRss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// Peak resident memory since the last ResetPeakRss (VmHWM).
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  long kib = -1;
  if (f != nullptr) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
  }
  if (kib < 0) {
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    kib = usage.ru_maxrss;  // KiB on Linux
  }
  return static_cast<double>(kib) / 1024.0;
}

// --- output ---------------------------------------------------------------

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  size_t written = std::fwrite(text.data(), 1, text.size(), f);
  return std::fclose(f) == 0 && written == text.size();
}

struct Failure {
  std::string point;
  uint64_t seed;
  std::string reason;
};

void AddFailures(const std::vector<SweepResult>& results,
                 const std::vector<std::string>& reasons, uint64_t seed,
                 std::vector<Failure>* out) {
  for (size_t i = 0; i < reasons.size(); ++i) {
    if (!reasons[i].empty()) {
      out->push_back({results[i].point.name, seed, reasons[i]});
    }
  }
}

void WriteFailures(JsonWriter& w, const std::vector<Failure>& failures) {
  w.Key("failed_points").BeginArray();
  for (const Failure& f : failures) {
    w.BeginObject()
        .Key("name").String(f.point)
        .Key("seed").Int(static_cast<int64_t>(f.seed))
        .Key("reason").String(f.reason)
        .EndObject();
  }
  w.EndArray();
}

void WriteMetrics(JsonWriter& w, const std::vector<Metric>& metrics) {
  w.Key("metrics").BeginArray();
  for (const Metric& m : metrics) {
    w.BeginObject()
        .Key("name").String(m.name)
        .Key("value").Number(m.value)
        .Key("unit").String(m.unit)
        .Key("tag").String(m.tag)
        .EndObject();
  }
  w.EndArray();
}

void WriteSamples(JsonWriter& w, const char* key,
                  const std::vector<double>& samples) {
  w.Key(key).BeginArray();
  for (double s : samples) w.Number(s);
  w.EndArray();
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- modes ----------------------------------------------------------------

/// Set-up passes of a measure run, spread over its rounds.
constexpr int kSetupPasses = 120;

/// Root seed of round `k` of a measure run: round 0 runs the given seed (so
/// its results can be checked against the reference digest), later rounds
/// seeds derived from it.
uint64_t RoundSeed(uint64_t seed, int k) {
  return k == 0 ? seed : PointSeed(seed, static_cast<size_t>(k));
}

/// Host-speed slices (hostspeed.h) run after a point, on the worker that
/// ran it, once this much host time has passed since the last slice, and in
/// a batch after each round, so that every measured interval has slices
/// close to it, taken under the same load.
constexpr double kSliceEverySeconds = 0.08;
constexpr int kSlicesAfterRound = 8;

/// An interval of host time, in HostSpeed::Now() seconds.
struct Interval {
  double from = 0.0, to = 0.0;
  double seconds() const { return to - from; }
};

/// One whole-grid sweep of a measure run.
struct Round {
  Interval sweep;
  /// Host time the slices run inside the sweep took from it: all of it
  /// with one worker, its share of the workers' time with several.
  double sliced_s = 0.0;
  /// With one worker, one segment per point, from the completion of the
  /// point before it (or the sweep's start, or the slice after that
  /// point) to its own completion; from == to where a point did not
  /// complete.  Empty with several workers.
  std::vector<Interval> segment;
};

int Measure(const Options& opt, const Workload& w, JsonWriter& out) {
  // Rounds: one whole-grid sweep each, on its own root seed, so a run's
  // medians average over inputs as well as over time.  The count depends
  // only on --seconds, never on how fast this host is.
  const int n_rounds = std::max(
      3, static_cast<int>(std::lround(opt.seconds / w.round_seconds)));
  // Set-up passes run in a batch after each round, so that they sample the
  // host over the whole run and find the heap in the state a sweep leaves
  // it in.
  const int passes_per_round = (kSetupPasses + n_rounds - 1) / n_rounds;
  HostSpeed host;
  for (int i = 0; i < kSlicesAfterRound; ++i) host.Slice();  // warm-up
  std::vector<Round> rounds;
  std::vector<Interval> passes;
  std::vector<double> cpus, rss;
  std::vector<Failure> failures;
  int64_t attempted = 0;
  std::string csv;
  bool rss_per_round = true;
  for (int k = 0; k < n_rounds; ++k) {
    const uint64_t seed = RoundSeed(opt.seed, k);
    Round round;
    double mark = 0.0;        // where the next segment starts
    double last_slice = 0.0;  // when the last slice ended
    if (w.jobs == 1) round.segment.assign(w.sweep.size(), Interval{});
    // Runs on the worker that completed p, one worker at a time.
    auto on_point = [&](const SweepPoint& p) {
      const double now = host.Now();
      if (p.declared_index < round.segment.size()) {
        round.segment[p.declared_index] = Interval{mark, now};
      }
      mark = now;
      if (now - last_slice < kSliceEverySeconds) return;
      round.sliced_s += host.Slice();
      last_slice = mark = host.Now();
    };
    rss_per_round = ResetPeakRss() && rss_per_round;
    const double cpu0 = ProcessCpuSeconds();
    round.sweep.from = mark = last_slice = host.Now();
    SweepRun run = RunSweep(w, seed, w.jobs, on_point);
    round.sweep.to = host.Now();
    cpus.push_back(ProcessCpuSeconds() - cpu0 - round.sliced_s);
    // With several workers a slice holds up only the worker that runs it.
    round.sliced_s /= w.jobs;
    rss.push_back(PeakRssMb() - host.ResidentMb());
    rounds.push_back(std::move(round));
    attempted += static_cast<int64_t>(run.results.size());
    AddFailures(run.results, run.failures, seed, &failures);
    if (k == 0) csv = pdblb::runner::ResultsCsv(run.results);
    for (int i = 0; i < kSlicesAfterRound; ++i) host.Slice();
    for (int i = 0; i < passes_per_round; ++i) {
      Interval pass;
      pass.from = host.Now();
      const double constructing = SetupPass(w, seed);
      pass.to = pass.from + constructing;
      passes.push_back(pass);
    }
  }

  // The grid again at another worker count: the results must not depend
  // on it.
  SweepRun other = RunSweep(w, opt.seed, w.check_jobs);
  const bool jobs_identical = pdblb::runner::ResultsCsv(other.results) == csv;
  if (!opt.csv_path.empty() && !WriteFile(opt.csv_path, csv)) {
    std::fprintf(stderr, "cannot write %s\n", opt.csv_path.c_str());
    return 1;
  }

  // Every host time is scaled to the reference host speed by the slices
  // that ran around it (hostspeed.h).
  auto scaled = [&](const Interval& i, double seconds) {
    return seconds * host.Scale(i.from, i.to);
  };
  std::vector<double> walls, raw_walls, rest;
  for (const Round& r : rounds) {
    raw_walls.push_back(r.sweep.seconds() - r.sliced_s);
    walls.push_back(scaled(r.sweep, raw_walls.back()));
    double outside = raw_walls.back();
    for (const Interval& i : r.segment) outside -= i.seconds();
    rest.push_back(scaled(r.sweep, outside));
  }
  double sweep_wall = Median(walls);
  if (w.jobs == 1) {
    // Point by point: the sum of each point's median scaled segment over
    // the rounds, plus the median of the rest of the rounds' wall time
    // (the runner's work before the first and after the last point).
    sweep_wall = Median(rest);
    for (size_t p = 0; p < w.sweep.size(); ++p) {
      std::vector<double> of_point;
      for (const Round& r : rounds) {
        const Interval& i = r.segment[p];
        if (i.seconds() > 0.0) of_point.push_back(scaled(i, i.seconds()));
      }
      sweep_wall += Median(of_point);
    }
  }
  std::vector<double> setup, raw_setup;
  for (const Interval& i : passes) {
    raw_setup.push_back(i.seconds());
    setup.push_back(scaled(i, i.seconds()));
  }

  std::vector<Metric> metrics = {
      {"sweep_wall_s", sweep_wall, "s", "host"},
      {"setup_s", Median(setup), "s", "host"},
      // A mean, not a median: per-round peaks are bimodal on join-scaleout
      // (whether an overloaded 80-PE point crosses an allocation step
      // depends on the seed), and a median flips between the two modes.
      {"peak_rss_mb", Mean(rss), "MB", "host"},
  };
  out.Key("rounds").Int(n_rounds);
  out.Key("rss_per_round").Bool(rss_per_round);
  out.Key("attempted").Int(attempted);
  WriteFailures(out, failures);
  out.Key("checks").BeginObject()
      .Key("jobs_csv_identical").Bool(jobs_identical)
      .EndObject();
  out.Key("samples").BeginObject();
  WriteSamples(out, "sweep_wall_s", walls);
  WriteSamples(out, "raw_sweep_wall_s", raw_walls);
  WriteSamples(out, "raw_sweep_cpu_s", cpus);
  WriteSamples(out, "peak_rss_mb", rss);
  WriteSamples(out, "setup_s", setup);
  WriteSamples(out, "raw_setup_s", raw_setup);
  WriteSamples(out, "host_speed_slice_s", host.Durations());
  out.EndObject();
  WriteMetrics(out, metrics);
  return 0;
}

ProbeInputs MakeProbeInputs(const Workload& w, uint64_t seed) {
  return ProbeInputs{ProbeConfig(w), GridStrategies(w), seed};
}

void WriteProbes(JsonWriter& out, const std::vector<ProbeResult>& probes) {
  out.Key("probes").BeginArray();
  for (const ProbeResult& p : probes) {
    out.BeginObject()
        .Key("metric").String(p.metric)
        .Key("ns_per_call").Number(p.ns_per_call)
        .Key("calls").Int(p.calls)
        .Key("path_ok").Bool(p.path_ok)
        .Key("detail").String(p.detail)
        .EndObject();
  }
  out.EndArray();
}

int Layers(const Options& opt, const Workload& w, JsonWriter& out) {
  SweepRun untraced = RunSweep(w, opt.seed, w.jobs);

  SpanRecorder spans;
  SweepRun traced;
  std::vector<LayerCounts> point_counts;
  {
    ScopedSpan root(&spans, "traced pass " + w.name);
    traced = RunPoints(w, opt.seed, w.jobs, /*trace=*/true, &spans,
                       root.id(), &point_counts);
  }
  std::vector<ProbeResult> probes;
  {
    ScopedSpan root(&spans, "probes " + w.name);
    probes = RunProbes(MakeProbeInputs(w, opt.seed), "", &spans, root.id());
  }
  if (!opt.spans_path.empty() && !WriteFile(opt.spans_path, spans.ToJson())) {
    std::fprintf(stderr, "cannot write %s\n", opt.spans_path.c_str());
    return 1;
  }

  const std::string csv = pdblb::runner::ResultsCsv(untraced.results);
  const bool traced_identical =
      pdblb::runner::ResultsCsv(traced.results) == csv;
  if (!opt.csv_path.empty() && !WriteFile(opt.csv_path, csv)) {
    std::fprintf(stderr, "cannot write %s\n", opt.csv_path.c_str());
    return 1;
  }

  // Sums over the grid.
  LayerCounts counts;
  for (const LayerCounts& c : point_counts) counts.Add(c);
  double events = 0, handoffs = 0, point_wall = 0, joins = 0, oltp = 0,
         failed_queries = 0, degree_sum = 0, temp_written = 0,
         temp_read = 0, mem_wait = 0;
  std::vector<double> point_walls;
  for (const SweepResult& res : untraced.results) {
    const MetricsReport& r = res.report;
    const double j = static_cast<double>(r.joins_completed);
    events += static_cast<double>(r.kernel_events);
    handoffs += static_cast<double>(r.kernel_handoffs);
    point_wall += r.wall_seconds;
    point_walls.push_back(r.wall_seconds);
    joins += j;
    oltp += static_cast<double>(r.oltp_completed);
    failed_queries += static_cast<double>(r.queries_failed);
    degree_sum += r.avg_degree * j;
    temp_written += r.temp_pages_written_per_join * j;
    temp_read += r.temp_pages_read_per_join * j;
    mem_wait += r.avg_memory_queue_wait_ms * j;
  }
  std::array<double, pdblb::sim::kNumTraceSubsystems> trace_events{};
  std::array<double, pdblb::sim::kNumTraceSubsystems> trace_time{};
  double trace_time_total = 0.0;
  for (const SweepResult& res : traced.results) {
    for (size_t s = 0; s < pdblb::sim::kNumTraceSubsystems; ++s) {
      trace_events[s] +=
          static_cast<double>(res.report.trace_subsystem_events[s]);
      trace_time[s] += res.report.trace_subsystem_time_ms[s];
      trace_time_total += res.report.trace_subsystem_time_ms[s];
    }
  }
  auto probe_ns = [&](const std::string& name) {
    for (const ProbeResult& p : probes) {
      if (p.metric == name) return p.ns_per_call;
    }
    return 0.0;
  };
  const double fetches =
      static_cast<double>(counts.buffer_hits + counts.buffer_misses);
  const double events_per_s = Ratio(events, point_wall);

  std::vector<Metric> m = {
      {"simkern.events", events, "count", "sim"},
      {"simkern.handoffs", handoffs, "count", "sim"},
      {"simkern.events_per_s", events_per_s, "1/s", "host"},
      {"simkern.ns_per_event", Ratio(1e9, events_per_s), "ns", "host"},
      {"simkern.trace_overhead", Ratio(traced.wall_s, untraced.wall_s),
       "ratio", "host"},
  };
  for (const char* sub : {"kernel", "cpu", "disk", "network", "lock",
                          "channel", "group", "admission"}) {
    for (size_t s = 0; s < pdblb::sim::kNumTraceSubsystems; ++s) {
      if (std::string(pdblb::sim::TraceSubsystemName(s)) != sub) continue;
      m.push_back({std::string("simkern.trace.") + sub + ".events",
                   trace_events[s], "count", "sim"});
      m.push_back({std::string("simkern.trace.") + sub + ".sim_share",
                   Ratio(trace_time[s], trace_time_total), "ratio", "sim"});
    }
  }
  const std::vector<Metric> rest = {
      {"iosim.logical_reads", static_cast<double>(counts.logical_reads),
       "count", "sim"},
      {"iosim.physical_reads", static_cast<double>(counts.physical_reads),
       "count", "sim"},
      {"iosim.physical_writes", static_cast<double>(counts.physical_writes),
       "count", "sim"},
      {"iosim.cache_hit_ratio",
       Ratio(static_cast<double>(counts.disk_cache_hits),
             static_cast<double>(counts.logical_reads)),
       "ratio", "sim"},
      {"iosim.scan_page_ns", probe_ns("iosim.scan_page_ns"), "ns", "host"},
      {"iosim.random_read_ns", probe_ns("iosim.random_read_ns"), "ns",
       "host"},
      {"iosim.write_ns", probe_ns("iosim.write_ns"), "ns", "host"},
      {"bufmgr.fetches", fetches, "count", "sim"},
      {"bufmgr.hit_ratio",
       Ratio(static_cast<double>(counts.buffer_hits), fetches), "ratio",
       "sim"},
      {"bufmgr.evictions", static_cast<double>(counts.evictions), "count",
       "sim"},
      {"bufmgr.writebacks", static_cast<double>(counts.writebacks), "count",
       "sim"},
      {"bufmgr.pages_stolen", static_cast<double>(counts.pages_stolen),
       "count", "sim"},
      {"bufmgr.mem_queue_wait_ms", Ratio(mem_wait, joins), "ms", "sim"},
      {"bufmgr.fetch_hit_ns", probe_ns("bufmgr.fetch_hit_ns"), "ns", "host"},
      {"bufmgr.fetch_miss_ns", probe_ns("bufmgr.fetch_miss_ns"), "ns",
       "host"},
      {"bufmgr.reserve_release_ns", probe_ns("bufmgr.reserve_release_ns"),
       "ns", "host"},
      {"netsim.messages", static_cast<double>(counts.messages), "count",
       "sim"},
      {"netsim.packets", static_cast<double>(counts.packets), "count",
       "sim"},
      {"netsim.bytes", static_cast<double>(counts.bytes), "B", "sim"},
      {"netsim.transfer_ns", probe_ns("netsim.transfer_ns"), "ns", "host"},
      {"lockmgr.lock_waits", static_cast<double>(counts.lock_waits),
       "count", "sim"},
      {"lockmgr.deadlock_aborts",
       static_cast<double>(counts.deadlock_aborts), "count", "sim"},
      {"lockmgr.lock_release_ns", probe_ns("lockmgr.lock_release_ns"), "ns",
       "host"},
      {"join.temp_pages_written_per_join", Ratio(temp_written, joins),
       "pages", "sim"},
      {"join.temp_pages_read_per_join", Ratio(temp_read, joins), "pages",
       "sim"},
      {"join.pphj_batch_ns", probe_ns("join.pphj_batch_ns"), "ns", "host"},
      {"core.avg_degree", Ratio(degree_sum, joins), "PE", "sim"},
      {"core.plan_ns", probe_ns("core.plan_ns"), "ns", "host"},
      {"core.report_ns", probe_ns("core.report_ns"), "ns", "host"},
      {"engine.joins_completed", joins, "count", "sim"},
      {"engine.oltp_completed", oltp, "count", "sim"},
      {"engine.queries_failed", failed_queries, "count", "sim"},
      {"runner.point_wall_p50_s", Median(point_walls), "s", "host"},
      {"runner.point_wall_max_s",
       point_walls.empty()
           ? 0.0
           : *std::max_element(point_walls.begin(), point_walls.end()),
       "s", "host"},
      {"runner.worker_busy_share",
       Ratio(point_wall, std::min<double>(w.jobs, w.sweep.size()) *
                             untraced.wall_s),
       "ratio", "host"},
  };
  m.insert(m.end(), rest.begin(), rest.end());

  // A point runs twice here (untraced, traced) but is one operation: it
  // fails once, with the reasons of both passes.
  std::vector<std::string> reasons = untraced.failures;
  for (size_t i = 0; i < reasons.size(); ++i) {
    if (traced.failures[i].empty()) continue;
    if (!reasons[i].empty()) reasons[i] += "; ";
    reasons[i] += "traced pass: " + traced.failures[i];
  }
  std::vector<Failure> failures;
  AddFailures(untraced.results, reasons, opt.seed, &failures);
  bool probes_ok = true;
  for (const ProbeResult& p : probes) probes_ok = probes_ok && p.path_ok;

  out.Key("attempted").Int(static_cast<int64_t>(untraced.results.size()));
  WriteFailures(out, failures);
  out.Key("checks").BeginObject()
      .Key("traced_csv_identical").Bool(traced_identical)
      .Key("probe_paths_ok").Bool(probes_ok)
      .EndObject();
  WriteProbes(out, probes);
  WriteMetrics(out, m);
  return 0;
}

int Probes(const Options& opt, const Workload& w, JsonWriter& out) {
  std::vector<ProbeResult> probes =
      RunProbes(MakeProbeInputs(w, opt.seed), opt.sabotage, nullptr, -1);
  WriteProbes(out, probes);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: pdblb_perfbench measure|layers|probes --workload W "
               "[--seed S] [--seconds T] --out FILE [--csv FILE] "
               "[--spans FILE] [--sabotage METRIC]\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2 || argc % 2 != 0) return Usage();  // MODE, then flag pairs
  Options opt;
  opt.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return Usage();
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || opt.seconds < 0) return Usage();
    } else if (flag == "--out") {
      opt.out_path = value;
    } else if (flag == "--csv") {
      opt.csv_path = value;
    } else if (flag == "--spans") {
      opt.spans_path = value;
    } else if (flag == "--sabotage") {
      opt.sabotage = value;
    } else {
      return Usage();
    }
  }
  Workload w;
  if (opt.out_path.empty() || !MakeWorkload(opt.workload, &w)) {
    return Usage();
  }

  JsonWriter out;
  out.BeginObject()
      .Key("mode").String(opt.mode)
      .Key("workload").String(w.name)
      .Key("seed").Int(static_cast<int64_t>(opt.seed))
      .Key("jobs").Int(w.jobs)
      .Key("check_jobs").Int(w.check_jobs)
      .Key("points").Int(static_cast<int64_t>(w.sweep.size()));
  int rc;
  if (opt.mode == "measure") {
    rc = Measure(opt, w, out);
  } else if (opt.mode == "layers") {
    rc = Layers(opt, w, out);
  } else if (opt.mode == "probes") {
    rc = Probes(opt, w, out);
  } else {
    return Usage();
  }
  if (rc != 0) return rc;
  out.EndObject();
  if (!WriteFile(opt.out_path, out.str() + "\n")) {
    std::fprintf(stderr, "cannot write %s\n", opt.out_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pdblb_perfbench: %s\n", e.what());
    return 1;
  }
}
