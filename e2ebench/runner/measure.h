// Measurement helpers of the end-to-end benchmark: order statistics,
// process and host counters, the peak-RSS reset, output digests and
// run metadata. Everything here reads the process's own /proc entries
// or the checkout; nothing touches the library under test.
#ifndef E2EBENCH_RUNNER_MEASURE_H_
#define E2EBENCH_RUNNER_MEASURE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace e2ebench {

/// Seconds on the steady clock since an arbitrary epoch.
double NowS();

/// Median of `values` (mean of the two middle values for even counts).
/// 0 for an empty input.
double Median(std::vector<double> values);

/// Nearest-rank percentile q in (0, 1) of `values`, reported only when
/// at least `min_beyond` samples lie strictly above its rank — e.g. a
/// p99 needs at least 1000 samples for 10 beyond it. Otherwise nullopt.
std::optional<double> TailPercentile(std::vector<double> values, double q,
                                     size_t min_beyond = 10);

/// Process CPU time, involuntary context switches and host steal time,
/// sampled together; subtract two samples to cover an interval.
struct ProcSample {
  double cpu_s = 0.0;
  double invol_ctx_switches = 0.0;
  double steal_s = 0.0;

  static ProcSample Now();
  ProcSample operator-(const ProcSample& earlier) const;
};

/// Milliseconds of a fixed reference probe that never calls the library:
/// the geometric mean of four kernels of a few milliseconds each — a
/// cache-resident dense multiply, a dependent random walk and a
/// read-modify-write pass over 4 MiB buffers (beyond a core's L2), and
/// printf-formatting of doubles — each the median of three interleaved
/// rounds (about 30 ms in all). On a shared host the probe slows down
/// with the program when neighbours take the core, the caches or the
/// memory bus, so it measures the host's speed at that moment. Its
/// buffers (8 MiB) are allocated on the first call and kept.
double HostProbeMs();

/// Bytes of the probe's buffers, resident from the first HostProbeMs
/// call on.
size_t HostProbeBytes();

/// Probe time the host would take at reference speed; a step's seconds
/// are reported at this speed (see StepTimer).
constexpr double kReferenceProbeMs = 2.5;

/// Seconds either side of a step within which the host probes describe
/// the host's speed during it.
constexpr double kProbeWindowS = 5.0;

/// Share of the probe's change in speed that a step is taken to share:
/// scales are (kReferenceProbeMs / probe)^kHostSensitivity. The probe's
/// kernels are extremes (a throughput-bound multiply, a latency-bound
/// walk), and the workloads moved about half as much as the probe when
/// the host's speed changed; 0.5 gave the smallest spreads over the
/// tuning runs (e2ebench/README.md).
constexpr double kHostSensitivity = 0.5;

/// A host probe this process ran: when (steady clock, NowS) and how long.
struct ProbeRecord {
  double at_s = 0.0;
  double ms = 0.0;
};

/// Every host probe this process has run, in order (HostProbeMs appends).
const std::vector<ProbeRecord>& HostProbeLog();

/// (kReferenceProbeMs / the median of the probes run from `start_s` -
/// kProbeWindowS to `end_s` + kProbeWindowS)^kHostSensitivity; 1 when
/// no probe ran then.
double HostSpeedScale(double start_s, double end_s);

/// Times one step of a run. The host probe runs right before the clock
/// starts and right after it stops, so every step has probes at both
/// ends; probes run by timers nested inside the step are not counted in
/// its wall time. The step's time at the reference host speed is its
/// wall time times HostSpeedScale over the step: the median probe
/// within kProbeWindowS of it, its own two and its neighbours', so one
/// burst during one probe does not set the step's scale.
class StepTimer {
 public:
  StepTimer();
  /// Stops the clock; later calls do nothing.
  void Stop();
  /// Wall seconds, less the probes nested inside the step.
  double wall_s() const { return wall_s_; }
  /// Seconds at the reference host speed. Read it at the end of the
  /// run, once the probes after the step have run.
  double scaled_s() const {
    return wall_s_ * HostSpeedScale(start_s_, end_s_);
  }

  /// Seconds spent in host probes so far.
  static double ProbeSeconds();

 private:
  double start_s_ = 0.0;
  double end_s_ = -1.0;
  double probe_s_at_start_ = 0.0;
  double wall_s_ = 0.0;
};

/// Resets the process's peak-RSS high-water mark (VmHWM) to its current
/// RSS by writing 5 to /proc/self/clear_refs. Returns false when the
/// kernel refuses, in which case PeakRssMb still includes earlier peaks.
bool ResetPeakRss();

/// VmHWM of this process in MiB (0 when /proc is unavailable).
double PeakRssMb();

/// Streaming FNV-1a 64 digest of output bytes.
class Digest {
 public:
  void Update(const std::string& bytes);
  void UpdateU64(uint64_t v);
  uint64_t value() const { return h_; }
  std::string Hex() const;

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

/// JSON string literal of `s` (quotes and backslashes escaped).
std::string JsonString(const std::string& s);

/// JSON number with all 17 significant digits; non-finite values,
/// which JSON cannot carry, print as 0.
std::string JsonNumber(double v);

/// Name of the filesystem holding `path` ("tmpfs", "ext4", "overlay",
/// ... or the hex magic when unknown).
std::string FilesystemName(const std::string& path);

/// CPUs this process may run on.
size_t Nproc();

/// Commit SHA read from `root`/.git (no git process is started), or
/// "unavailable" when the tree is not a git checkout.
std::string GitHead(const std::string& root);

/// FNV-1a digest over the sorted relative paths and bytes of every
/// regular file under `root`/src: identifies the code measured even
/// where no commit SHA is available.
std::string SourceDigest(const std::string& root);

}  // namespace e2ebench

#endif  // E2EBENCH_RUNNER_MEASURE_H_
