#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <thread>

#include "parallel/thread_env.hpp"

#ifndef MPXBENCH_COMPILER
#define MPXBENCH_COMPILER "unknown"
#endif
#ifndef MPXBENCH_BUILD_TYPE
#define MPXBENCH_BUILD_TYPE "unknown"
#endif

namespace mpxbench {

double now_s() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

// --- Samples ----------------------------------------------------------------

double Samples::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::mean() const {
  return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size());
}

double Samples::max() const {
  return values_.empty() ? 0.0
                         : *std::max_element(values_.begin(), values_.end());
}

double Samples::median() const {
  if (values_.empty()) return 0.0;
  std::vector<double> v = values_;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double upper = v[mid];
  if (v.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lower + upper);
}

std::optional<double> Samples::percentile(double q) const {
  const std::size_t n = values_.size();
  if (n == 0) return std::nullopt;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  std::vector<double> v = values_;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

// --- Tally ------------------------------------------------------------------

void Tally::fail(const std::string& why) {
  ++attempted_;
  ++failed_;
  if (failed_ <= 5) std::fprintf(stderr, "mpxbench: FAILED: %s\n", why.c_str());
}

// --- fingerprints -----------------------------------------------------------

std::uint64_t fingerprint(std::span<const std::uint32_t> words,
                          std::uint64_t seed) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ seed ^ words.size();
  for (const std::uint32_t w : words) {
    h = (h ^ w) * 0xff51afd7ed558ccdull;
    h ^= h >> 29;
  }
  return h;
}

std::uint64_t fingerprint_result(std::span<const std::uint32_t> owner,
                                 std::span<const std::uint32_t> settle) {
  return fingerprint(settle, fingerprint(owner));
}

// --- spans ------------------------------------------------------------------

std::uint64_t SpanRecorder::open(const char* name, std::uint64_t request) {
  if (!enabled_) return 0;
  Span s;
  s.name = name;
  s.id = next_id_++;
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  s.request = request;
  s.start_s = now_s();
  open_.push_back(spans_.size());
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanRecorder::close(std::uint64_t id) {
  if (!enabled_ || open_.empty()) return;
  Span& s = spans_[open_.back()];
  if (s.id != id) return;  // spans close innermost-first
  s.end_s = now_s();
  open_.pop_back();
}

void SpanRecorder::add(const char* name, std::uint64_t parent,
                       std::uint64_t request, double start_s, double end_s) {
  if (!enabled_) return;
  spans_.push_back(Span{name, next_id_++, parent, request, start_s, end_s});
}

bool SpanRecorder::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                 "\"parent\": %llu, \"request\": %llu}}%s\n",
                 s.name, s.start_s * 1e6, (s.end_s - s.start_s) * 1e6,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// --- process probes ---------------------------------------------------------

bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

int default_omp_team() {
  int team = 0;
  std::thread probe([&team] { team = mpx::max_threads(); });
  probe.join();
  return team;
}

namespace {

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Escape a string for a JSON literal (the record holds free text).
std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

MachineRecord machine_record(const std::string& workload, std::uint64_t seed,
                             bool trace) {
  MachineRecord m;
  m.hardware_threads = static_cast<int>(std::thread::hardware_concurrency());
  m.omp_team = default_omp_team();
  m.cpu_model = cpu_model();
  m.compiler = MPXBENCH_COMPILER;
  m.build_type = MPXBENCH_BUILD_TYPE;
  m.git_sha = env_or("MPXBENCH_GIT_SHA", "unknown");
  m.src_digest = env_or("MPXBENCH_SRC_DIGEST", "unknown");
  m.workload = workload;
  m.seed = seed;
  m.trace = trace;
  return m;
}

// --- output -----------------------------------------------------------------

void report_latency(std::vector<Metric>& out, const std::string& prefix,
                    const std::string& unit, const Samples& s, double scale) {
  out.push_back({prefix + "_p50_" + unit, s.median() * scale, unit, s.count()});
  for (const double q : {0.99, 0.9}) {
    if (const std::optional<double> p = s.percentile(q)) {
      out.push_back({prefix + (q == 0.99 ? "_p99_" : "_p90_") + unit,
                     *p * scale, unit, s.count()});
      return;
    }
  }
}

void print_outcome(const MachineRecord& m, const Outcome& outcome) {
  std::printf(
      "machine {\"hardware_threads\": %d, \"omp_team\": %d, \"cpu\": %s, "
      "\"compiler\": %s, \"build_type\": %s, \"git_sha\": %s, "
      "\"src_digest\": %s, \"workload\": %s, \"seed\": %llu, "
      "\"trace\": %s}\n",
      m.hardware_threads, m.omp_team, json_string(m.cpu_model).c_str(),
      json_string(m.compiler).c_str(), json_string(m.build_type).c_str(),
      json_string(m.git_sha).c_str(), json_string(m.src_digest).c_str(),
      json_string(m.workload).c_str(), static_cast<unsigned long long>(m.seed),
      m.trace ? "true" : "false");
  for (const Metric& r : outcome.report) {
    if (r.samples > 0) {
      std::printf("report %-34s %16.6f %-10s n=%zu\n", r.name.c_str(), r.value,
                  r.unit.c_str(), r.samples);
    } else {
      std::printf("report %-34s %16.6f %s\n", r.name.c_str(), r.value,
                  r.unit.c_str());
    }
  }
  const Tally& t = outcome.tally;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              t.failed() == 0 && t.attempted() > 0 ? "true" : "false",
              static_cast<unsigned long long>(t.attempted()),
              static_cast<unsigned long long>(t.failed()));
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& r = outcome.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", r.name.c_str(), r.value, r.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace mpxbench
