#include "runner/measure.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace e2ebench {

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::optional<double> TailPercentile(std::vector<double> values, double q,
                                     size_t min_beyond) {
  const size_t n = values.size();
  if (n == 0) return std::nullopt;
  // Nearest rank: the smallest value with at least q*n samples at or
  // below it. The epsilon keeps 0.99 * 1000 from rounding up to 991.
  size_t rank = static_cast<size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

ProcSample ProcSample::Now() {
  ProcSample s;
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    s.cpu_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6 +
              ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
    s.invol_ctx_switches = static_cast<double>(ru.ru_nivcsw);
  }
  // Aggregate "cpu" line of /proc/stat: the 8th value is steal time in
  // USER_HZ ticks, summed over all CPUs of the host.
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double v[8] = {};
  if (stat >> cpu && cpu == "cpu") {
    for (double& x : v) stat >> x;
    const long hz = sysconf(_SC_CLK_TCK);
    if (hz > 0) s.steal_s = v[7] / static_cast<double>(hz);
  }
  return s;
}

ProcSample ProcSample::operator-(const ProcSample& earlier) const {
  ProcSample d;
  d.cpu_s = cpu_s - earlier.cpu_s;
  d.invol_ctx_switches = invol_ctx_switches - earlier.invol_ctx_switches;
  d.steal_s = steal_s - earlier.steal_s;
  return d;
}

namespace {

// The host probes run on the runner's main thread only.
double probe_seconds = 0.0;
std::vector<ProbeRecord> probe_log;

struct ProbeBuffers {
  static constexpr size_t kBytes = 4u << 20;
  std::vector<uint32_t> next;  // one random cycle through all slots
  std::vector<uint64_t> stream;
  std::vector<double> a, b, c;  // 48 x 48 matrices

  ProbeBuffers()
      : next(kBytes / sizeof(uint32_t)),
        stream(kBytes / sizeof(uint64_t), 1),
        a(48 * 48, 1.0001),
        b(48 * 48, 0.9999),
        c(48 * 48, 0.0) {
    // Sattolo's shuffle from a fixed LCG: a single cycle, so the walk
    // visits every slot in an order the prefetcher cannot follow.
    for (size_t i = 0; i < next.size(); ++i) next[i] = static_cast<uint32_t>(i);
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (size_t i = next.size() - 1; i > 0; --i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      std::swap(next[i], next[(x >> 33) % i]);
    }
  }
};

ProbeBuffers& Buffers() {
  static ProbeBuffers buf;
  return buf;
}

}  // namespace

size_t HostProbeBytes() {
  const ProbeBuffers& buf = Buffers();
  return (buf.next.size() * sizeof(uint32_t)) +
         buf.stream.size() * sizeof(uint64_t) +
         (buf.a.size() + buf.b.size() + buf.c.size()) * sizeof(double);
}

double HostProbeMs() {
  ProbeBuffers& buf = Buffers();
  const double t_begin = NowS();
  volatile uint64_t sink = 0;
  // Each kernel runs kRounds times, interleaved with the others; its
  // median time rejects a burst that hit one round.
  constexpr int kRounds = 3;
  std::vector<double> ms[4];
  auto timed = [&](int k, auto&& kernel) {
    const double t = NowS();
    kernel();
    ms[k].push_back((NowS() - t) * 1e3);
  };
  for (int round = 0; round < kRounds; ++round) {
    timed(0, [&] {
      constexpr size_t n = 48;
      std::fill(buf.c.begin(), buf.c.end(), 0.0);
      for (int rep = 0; rep < 30; ++rep)
        for (size_t i = 0; i < n; ++i)
          for (size_t k = 0; k < n; ++k) {
            const double aik = buf.a[i * n + k];
            for (size_t j = 0; j < n; ++j)
              buf.c[i * n + j] += aik * buf.b[k * n + j];
          }
      sink = sink + static_cast<uint64_t>(buf.c[n + 1]);
    });
    timed(1, [&] {
      uint32_t p = 0;
      for (size_t i = 0; i < 35000; ++i) p = buf.next[p];
      sink = sink + p;
    });
    timed(2, [&] {
      uint64_t acc = 0;
      for (int rep = 0; rep < 4; ++rep)
        for (uint64_t& v : buf.stream) {
          acc += v;
          v = acc;
        }
      sink = sink + acc;
    });
    timed(3, [&] {
      char text[32];
      double v = 0.123456789;
      uint64_t len = 0;
      for (int i = 0; i < 6000; ++i) {
        v = v * 1.000123 + 0.37;
        len += std::snprintf(text, sizeof(text), "%.6g,", v);
      }
      sink = sink + len;
    });
  }
  double log_sum = 0.0;
  for (std::vector<double>& t : ms) log_sum += std::log(Median(t));
  const double t_end = NowS();
  probe_seconds += t_end - t_begin;
  const double probe_ms = std::exp(log_sum / 4.0);
  probe_log.push_back({0.5 * (t_begin + t_end), probe_ms});
  return probe_ms;
}

const std::vector<ProbeRecord>& HostProbeLog() { return probe_log; }

double HostSpeedScale(double start_s, double end_s) {
  std::vector<double> ms;
  for (const ProbeRecord& p : probe_log)
    if (p.at_s >= start_s - kProbeWindowS && p.at_s <= end_s + kProbeWindowS)
      ms.push_back(p.ms);
  return ms.empty() ? 1.0
                    : std::pow(kReferenceProbeMs / Median(ms), kHostSensitivity);
}

StepTimer::StepTimer() {
  HostProbeMs();
  probe_s_at_start_ = probe_seconds;
  start_s_ = NowS();
}

void StepTimer::Stop() {
  if (end_s_ >= 0.0) return;
  end_s_ = NowS();
  wall_s_ = end_s_ - start_s_ - (probe_seconds - probe_s_at_start_);
  HostProbeMs();
}

double StepTimer::ProbeSeconds() { return probe_seconds; }

bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0.0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

void Digest::Update(const std::string& bytes) {
  for (unsigned char c : bytes) {
    h_ ^= c;
    h_ *= 1099511628211ULL;
  }
}

void Digest::UpdateU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 1099511628211ULL;
  }
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string FilesystemName(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x794C7630UL: return "overlay";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x6969UL: return "nfs";
    case 0x65735546UL: return "fuse";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx",
                static_cast<unsigned long>(fs.f_type));
  return buf;
}

size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return static_cast<size_t>(CPU_COUNT(&set));
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<size_t>(n) : 1;
}

namespace {

std::string FirstLine(const std::filesystem::path& p) {
  std::ifstream in(p);
  std::string line;
  std::getline(in, line);
  return line;
}

}  // namespace

std::string GitHead(const std::string& root) {
  namespace fs = std::filesystem;
  const fs::path git = fs::path(root) / ".git";
  std::error_code ec;
  if (!fs::is_directory(git, ec)) return "unavailable";
  const std::string head = FirstLine(git / "HEAD");
  if (head.rfind("ref: ", 0) != 0) return head.empty() ? "unavailable" : head;
  const std::string ref = head.substr(5);
  const std::string sha = FirstLine(git / ref);
  if (!sha.empty()) return sha;
  std::ifstream packed(git / "packed-refs");
  std::string line;
  while (std::getline(packed, line)) {
    const size_t sp = line.find(' ');
    if (sp != std::string::npos && line.substr(sp + 1) == ref)
      return line.substr(0, sp);
  }
  return "unavailable";
}

std::string SourceDigest(const std::string& root) {
  namespace fs = std::filesystem;
  const fs::path src = fs::path(root) / "src";
  std::error_code ec;
  if (!fs::is_directory(src, ec)) return "unavailable";
  std::vector<fs::path> files;
  for (const auto& e : fs::recursive_directory_iterator(src, ec))
    if (e.is_regular_file()) files.push_back(e.path());
  std::sort(files.begin(), files.end());
  Digest d;
  for (const fs::path& f : files) {
    d.Update(fs::relative(f, root).generic_string());
    std::ifstream in(f, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    d.Update(bytes.str());
  }
  return d.Hex();
}

}  // namespace e2ebench
