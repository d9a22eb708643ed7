// Campaign benchmark: whole fixed-seed Peach* campaigns through the public
// fuzz::Fuzzer API on one named workload, reported as one JSON line.
//
//   campaign_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--budget <steps>]
//
// --trace 0 (end-to-end): repeats set-up + a fixed-budget campaign until
// --seconds have passed and reports the step rate (from the best time of
// each slice of the campaign in process, the median campaign otherwise; see
// kSlices), the median set-up time and the peak RSS plus the deterministic
// coverage reached at the budget
// (paths, edges, unique crashes). Then it checks the outputs: every
// repetition reached identical coverage, an out-of-process workload matches
// an in-process campaign of the same seed and budget, every unique crash
// re-verifies through distill::replay_crash on a fresh in-process target,
// and no fork server, TCP server or shared-memory segment outlives the
// workload.
//
// --trace 1 (per layer): runs the same campaign once untraced and once
// traced, then times the public entry points of every layer from this file
// — nothing inside src/ is instrumented. The traced campaign times each
// step_fast() call, counts allocations, and runs the target behind a
// timing/recording ProtocolTarget decorator; the recorded executions are
// then replayed through each layer on its own (Executor, OutOfProcessExecutor,
// GenerationalDedup, FileCracker, ModelInstantiator, SemanticGenerator,
// SessionSequencer). perfbench/README.md maps every metric to its layer and
// to the end-to-end metric it should move.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "distill/replay.hpp"
#include "exec_oop/oop_executor.hpp"
#include "fuzzer/cracker.hpp"
#include "fuzzer/dedup.hpp"
#include "fuzzer/executor.hpp"
#include "fuzzer/fuzzer.hpp"
#include "fuzzer/instantiator.hpp"
#include "fuzzer/semantic_gen.hpp"
#include "pits/pits.hpp"
#include "protocols/target_registry.hpp"
#include "session/framing.hpp"
#include "session/sequencer.hpp"
#include "telemetry/telemetry.hpp"

// -- Allocation counting. ---------------------------------------------------
//
// Replaces the global allocator for the whole binary; the counter only
// moves while g_counting is set, so untraced runs pay one relaxed load.

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_malloc(size); }
void* operator new[](std::size_t size) { return counted_malloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace icsfuzz;
using Clock = std::chrono::steady_clock;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Allocations made by `fn` (counting switched on only around it).
template <typename Fn>
std::uint64_t count_allocations(Fn&& fn) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  fn();
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocations.load(std::memory_order_relaxed) - before;
}

// -- Workloads. --------------------------------------------------------------

// Wall deadline per out-of-process execution. Generous, so that a scheduler
// stall on a shared machine never turns a healthy execution into a hang and
// changes the trajectory; real hangs are still caught by the deterministic
// event budget.
constexpr int kExecTimeoutMs = 20000;

struct Workload {
  const char* name;
  const char* project;
  fuzz::BackendKind backend;
  bool session;
  std::uint64_t budget;  // steps per campaign
};

const Workload kWorkloads[] = {
    {"modbus_peachstar", "libmodbus", fuzz::BackendKind::kInProcess, false,
     400000},
    {"modbus_persistent", "libmodbus", fuzz::BackendKind::kPersistent, false,
     40000},
    {"iec104_tcp_session", "lib60870", fuzz::BackendKind::kTcp, true, 4000},
};

std::vector<std::string> shim_cmd(const Workload& w, bool tcp) {
  std::vector<std::string> cmd = {ICSFUZZ_SHIM_PATH, "--project", w.project};
  if (tcp) cmd.push_back("--tcp");
  return cmd;
}

/// Executor configuration for `kind`, with the workload's session framing.
fuzz::ExecutorConfig executor_config(const Workload& w, fuzz::BackendKind kind,
                                     bool session) {
  fuzz::ExecutorConfig config;
  config.backend.kind = kind;
  config.backend.exec_timeout_ms = kExecTimeoutMs;
  if (session) {
    config.backend.session.framing = session::framing_for_project(w.project);
  }
  if (kind != fuzz::BackendKind::kInProcess) {
    config.backend.target_cmd = shim_cmd(w, kind == fuzz::BackendKind::kTcp);
  }
  return config;
}

session::SequencerConfig sequencer_config(const Workload& w) {
  session::SequencerConfig config;
  config.enabled = true;
  config.framing = session::framing_for_project(w.project);
  config.project = w.project;
  return config;
}

/// The shipped default FuzzerConfig (Peach*, telemetry on) with the
/// workload's backend and, for session workloads, the sequencer.
fuzz::FuzzerConfig fuzzer_config(const Workload& w, std::uint64_t seed,
                                 fuzz::BackendKind kind) {
  fuzz::FuzzerConfig config;
  config.strategy = fuzz::Strategy::PeachStar;
  config.rng_seed = seed;
  config.executor = executor_config(w, kind, w.session);
  if (w.session) config.session = sequencer_config(w);
  return config;
}

// -- Timing/recording ProtocolTarget decorator. -----------------------------

class RecordingTarget final : public ProtocolTarget {
 public:
  explicit RecordingTarget(std::unique_ptr<ProtocolTarget> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  void reset() override { inner_->reset(); }
  Bytes process(ByteSpan packet) override {
    Bytes response;
    process_into(packet, response);
    return response;
  }
  void process_into(ByteSpan packet, Bytes& response) override {
    const std::uint64_t start = now_ns();
    inner_->process_into(packet, response);
    const std::uint64_t elapsed = now_ns() - start;
    if (!recording_) return;
    // The bookkeeping is the decorator's, not the step's: keep it out of
    // the allocation count.
    const bool counting = g_counting.exchange(false);
    process_ns_.push_back(static_cast<double>(elapsed));
    blob_.insert(blob_.end(), packet.begin(), packet.end());
    ends_.push_back(blob_.size());
    g_counting.store(counting);
  }

  void start_recording(std::size_t expected) {
    recording_ = true;
    process_ns_.reserve(expected);
    ends_.reserve(expected);
  }
  [[nodiscard]] const std::vector<double>& process_ns() const {
    return process_ns_;
  }
  /// Every packet the target processed, in order.
  [[nodiscard]] std::vector<Bytes> packets() const {
    std::vector<Bytes> out;
    out.reserve(ends_.size());
    std::size_t begin = 0;
    for (const std::size_t end : ends_) {
      out.emplace_back(blob_.begin() + static_cast<std::ptrdiff_t>(begin),
                       blob_.begin() + static_cast<std::ptrdiff_t>(end));
      begin = end;
    }
    return out;
  }

 private:
  std::unique_ptr<ProtocolTarget> inner_;
  bool recording_ = false;
  std::vector<double> process_ns_;
  Bytes blob_;
  std::vector<std::size_t> ends_;
};

// -- Statistics. ---------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// p50, the tail percentile (p99, or the highest percentile that still has
/// ten samples beyond it), the sample count and the mean.
struct Dist {
  double p50 = 0.0;
  double tail = 0.0;
  double n = 0.0;
  double mean = 0.0;
};

Dist summarize(std::vector<double> values) {
  Dist d;
  if (values.empty()) return d;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  d.n = n;
  d.mean = mean(values);
  d.p50 = median(values);
  const double q = std::clamp(1.0 - 10.0 / n, 0.5, 0.99);
  const std::size_t index = std::min(
      values.size() - 1, static_cast<std::size_t>(std::ceil(q * n)) - 1);
  d.tail = values[index];
  return d;
}

// -- Hygiene: leaked children and shared-memory segments. --------------------

/// What a workload may leave running: live or unreaped children of this
/// process (fork servers, TCP servers) and the /dev/shm segments it created.
struct Residue {
  std::vector<long> children;
  std::vector<std::string> segments;

  /// Entries of this residue that `allowed` does not hold.
  [[nodiscard]] std::size_t beyond(const Residue& allowed) const {
    std::size_t extra = 0;
    for (const long pid : children) {
      extra += std::count(allowed.children.begin(), allowed.children.end(),
                          pid) == 0;
    }
    for (const std::string& name : segments) {
      extra += std::count(allowed.segments.begin(), allowed.segments.end(),
                          name) == 0;
    }
    return extra;
  }
};

Residue residue() {
  Residue out;
  const long self = static_cast<long>(::getpid());
  if (DIR* dir = ::opendir("/proc")) {
    while (const struct dirent* entry = ::readdir(dir)) {
      char* end = nullptr;
      const long pid = std::strtol(entry->d_name, &end, 10);
      if (pid <= 0 || *end != '\0') continue;
      std::ifstream stat("/proc/" + std::string(entry->d_name) + "/stat");
      std::string line;
      if (!std::getline(stat, line)) continue;
      const std::size_t close = line.rfind(')');
      if (close == std::string::npos) continue;
      std::istringstream rest(line.substr(close + 1));
      char state = 0;
      long ppid = 0;
      rest >> state >> ppid;
      if (ppid == self) out.children.push_back(pid);
    }
    ::closedir(dir);
  }
  const std::string prefix = "icsfuzz-" + std::to_string(self) + "-";
  if (DIR* dir = ::opendir("/dev/shm")) {
    while (const struct dirent* entry = ::readdir(dir)) {
      if (std::strncmp(entry->d_name, prefix.c_str(), prefix.size()) == 0) {
        out.segments.emplace_back(entry->d_name);
      }
    }
    ::closedir(dir);
  }
  return out;
}

// -- Checks. -----------------------------------------------------------------

struct Checks {
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    if (!ok) {
      failures.push_back(what);
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }

  /// No server child and no shm segment beyond `allowed` (those of a
  /// campaign still alive) may outlive a workload or probe.
  void expect_clean(const std::string& when, const Residue& allowed = {}) {
    // A torn-down server may take a moment to be reaped.
    Residue left;
    for (int attempt = 0; attempt < 50; ++attempt) {
      left = residue();
      if (left.beyond(allowed) == 0) return;
      ::usleep(20000);
    }
    expect(false, when + ": " + std::to_string(left.beyond(allowed)) +
                      " server process(es) or /dev/shm segment(s) left behind");
  }
};

// -- One campaign. -------------------------------------------------------------

/// The coverage a fixed-seed campaign reaches at its budget: identical on
/// every run of the same seed, traced or not, in or out of process.
struct Coverage {
  std::size_t paths = 0;
  std::size_t edges = 0;
  std::size_t unique_crashes = 0;
  std::size_t session_states = 0;

  bool operator==(const Coverage&) const = default;
  [[nodiscard]] std::string str() const {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "paths=%zu edges=%zu unique_crashes=%zu session_states=%zu",
                  paths, edges, unique_crashes, session_states);
    return buf;
  }
};

struct StepTrace {
  std::vector<double> step_ns;
  std::uint64_t allocations = 0;
};

/// Untraced campaigns split the steps after the first into this many equal
/// slices and time each. Repetitions of a fixed-seed campaign do identical
/// work in each slice. In process that work is pure computation, which a
/// shared host's interference only ever slows down, so the best time of
/// every slice over the repetitions is the campaign's cost without that
/// interference. Slow phases of the host last from a fraction of a second to
/// minutes; a median over whole campaigns follows them, the sum of the slice
/// bests needs only one unhindered pass per slice. Out of process the step
/// also waits for another process, and the host can shorten those waits as
/// well as lengthen them, so there the step rate stays the median campaign.
constexpr std::uint64_t kSlices = 64;

/// One campaign: set-up (pit, target, Fuzzer) then `budget` steps.
class Campaign {
 public:
  Campaign(const Workload& w, std::uint64_t seed, fuzz::BackendKind kind,
           bool record)
      : start_ns_(now_ns()),
        models_(pits::pit_for_project(w.project)),
        config_(fuzzer_config(w, seed, kind)) {
    std::unique_ptr<ProtocolTarget> target = proto::target_factory(w.project)();
    if (record) {
      auto recorder = std::make_unique<RecordingTarget>(std::move(target));
      recorder_ = recorder.get();
      target = std::move(recorder);
    }
    target_ = std::move(target);
    fuzzer_ = std::make_unique<fuzz::Fuzzer>(*target_, models_, config_);
    before_ = telem::Telemetry::global().snapshot();
  }

  /// Runs `budget` steps; the first one completes the set-up. With `trace`
  /// every step is timed and allocations are counted.
  void run(std::uint64_t budget, StepTrace* trace) {
    if (recorder_ != nullptr) recorder_->start_recording(budget);
    fuzzer_->step_fast();
    const std::uint64_t first = now_ns();
    setup_s_ = static_cast<double>(first - start_ns_) * 1e-9;
    if (trace == nullptr) {
      slice_ns_.clear();
      std::uint64_t done = 1;
      std::uint64_t mark = first;
      for (std::uint64_t slice = 1; slice <= kSlices; ++slice) {
        const std::uint64_t end = 1 + (budget - 1) * slice / kSlices;
        for (; done < end; ++done) fuzzer_->step_fast();
        const std::uint64_t now = now_ns();
        slice_ns_.push_back(now - mark);
        mark = now;
      }
    } else {
      trace->step_ns.reserve(budget);
      trace->allocations = count_allocations([&] {
        for (std::uint64_t i = 1; i < budget; ++i) {
          const std::uint64_t start = now_ns();
          fuzzer_->step_fast();
          trace->step_ns.push_back(static_cast<double>(now_ns() - start));
        }
      });
    }
    const std::uint64_t last = now_ns();
    steps_ = budget;
    execs_per_sec_ = static_cast<double>(budget - 1) /
                     (static_cast<double>(last - first) * 1e-9);
    fuzzer_->finish();
    after_ = telem::Telemetry::global().snapshot();
  }

  [[nodiscard]] Coverage coverage() const {
    return {fuzzer_->path_count(), fuzzer_->executor().edge_count(),
            fuzzer_->crashes().unique_count(),
            fuzzer_->executor().session_state_count()};
  }
  [[nodiscard]] std::uint64_t counter(telem::Counter c) const {
    return after_.counter(c) - before_.counter(c);
  }
  [[nodiscard]] telem::HistogramSnapshot histogram(telem::Histogram h) const {
    telem::HistogramSnapshot out;
    const auto& a = after_.histogram(h);
    const auto& b = before_.histogram(h);
    out.count = a.count - b.count;
    out.sum = a.sum - b.sum;
    return out;
  }
  /// Executions lost or retried because of the transport.
  [[nodiscard]] std::uint64_t transport_failures() const {
    return counter(telem::Counter::kOopServerLost) +
           counter(telem::Counter::kOopRetries) +
           counter(telem::Counter::kOopRestarts);
  }
  [[nodiscard]] std::uint64_t attempted() const {
    return steps_ + counter(telem::Counter::kOopRetries);
  }

  [[nodiscard]] const fuzz::Fuzzer& fuzzer() const { return *fuzzer_; }
  [[nodiscard]] const model::DataModelSet& models() const { return models_; }
  [[nodiscard]] const fuzz::FuzzerConfig& config() const { return config_; }
  [[nodiscard]] const RecordingTarget* recorder() const { return recorder_; }
  [[nodiscard]] double setup_s() const { return setup_s_; }
  [[nodiscard]] double execs_per_sec() const { return execs_per_sec_; }
  /// Wall time of each of the kSlices slices of an untraced run.
  [[nodiscard]] const std::vector<std::uint64_t>& slice_ns() const {
    return slice_ns_;
  }

 private:
  std::uint64_t start_ns_;
  model::DataModelSet models_;
  fuzz::FuzzerConfig config_;
  std::unique_ptr<ProtocolTarget> target_;
  RecordingTarget* recorder_ = nullptr;
  std::unique_ptr<fuzz::Fuzzer> fuzzer_;
  telem::Snapshot before_;
  telem::Snapshot after_;
  double setup_s_ = 0.0;
  double execs_per_sec_ = 0.0;
  std::uint64_t steps_ = 0;
  std::vector<std::uint64_t> slice_ns_;
};

/// Every unique crash must reproduce, with the same kind and site, on a
/// fresh in-process target.
void verify_crashes(const Workload& w, const fuzz::Fuzzer& fuzzer,
                    Checks& checks) {
  const fuzz::ExecutorConfig config =
      executor_config(w, fuzz::BackendKind::kInProcess, w.session);
  for (const fuzz::CrashRecord* crash : fuzzer.crashes().records()) {
    const std::unique_ptr<ProtocolTarget> target =
        proto::target_factory(w.project)();
    const distill::CrashReplay replay =
        distill::replay_crash(*target, crash->reproducer, config);
    bool same = false;
    for (const san::FaultReport& fault : replay.faults) {
      same = same || (fault.kind == crash->kind && fault.site == crash->site);
    }
    char what[128];
    std::snprintf(what, sizeof what, "crash %s at site %08x re-verifies",
                  san::to_string(crash->kind).c_str(), crash->site);
    checks.expect(replay.reproduced && same, what);
  }
}

double peak_rss_mb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// -- Output. -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void add_dist(std::vector<Metric>& out, const std::string& name,
              const Dist& d, const char* unit) {
  out.push_back({name + ".p50", d.p50, unit});
  out.push_back({name + ".p99", d.tail, unit});
  out.push_back({name + ".n", d.n, "count"});
}

// -- --trace 0: end-to-end. ---------------------------------------------------

int run_end_to_end(const Workload& w, std::uint64_t seed, double seconds,
                   std::uint64_t budget) {
  Checks checks;
  std::vector<double> rates;
  std::vector<double> setups;
  std::vector<std::uint64_t> best_slice_ns(
      kSlices, std::numeric_limits<std::uint64_t>::max());
  std::optional<Coverage> reached;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const std::uint64_t window_start = now_ns();
  std::unique_ptr<Campaign> last;
  // At least three repetitions, so the statistics have something to choose
  // from even when one campaign outlasts the window.
  for (int rep = 0;; ++rep) {
    const double elapsed = static_cast<double>(now_ns() - window_start) * 1e-9;
    if (rep >= 3 && elapsed >= seconds) break;
    last.reset();
    last = std::make_unique<Campaign>(w, seed, w.backend, false);
    last->run(budget, nullptr);
    rates.push_back(last->execs_per_sec());
    setups.push_back(last->setup_s());
    for (std::size_t i = 0; i < kSlices; ++i) {
      best_slice_ns[i] = std::min(best_slice_ns[i], last->slice_ns()[i]);
    }
    attempted += last->attempted();
    failed += last->transport_failures();
    const Coverage c = last->coverage();
    if (!reached) reached = c;
    checks.expect(c == *reached, "repetition " + std::to_string(rep) +
                                     " reached " + c.str() + ", first " +
                                     reached->str());
    std::fprintf(stderr, "[%s] rep %d: %.0f steps/s, setup %.4f s, %s\n",
                 w.name, rep, last->execs_per_sec(), last->setup_s(),
                 c.str().c_str());
  }
  const double rss = peak_rss_mb();
  double best_ns = 0.0;
  for (const std::uint64_t ns : best_slice_ns) {
    best_ns += static_cast<double>(ns);
  }
  const double slice_best_rate = static_cast<double>(budget - 1) /
                                 (best_ns * 1e-9);
  const double execs_per_sec = w.backend == fuzz::BackendKind::kInProcess
                                   ? slice_best_rate
                                   : median(rates);
  std::fprintf(stderr,
               "[%s] %zu repetitions: %.0f steps/s from the slice bests, "
               "median campaign %.0f steps/s\n",
               w.name, rates.size(), slice_best_rate, median(rates));

  checks.expect(reached->paths > 0 && reached->edges > 0,
                "campaign covers paths and edges");
  if (w.session) {
    checks.expect(reached->session_states > 0, "sessions reach states");
  }
  verify_crashes(w, last->fuzzer(), checks);
  last.reset();
  checks.expect_clean(w.name);

  if (w.backend != fuzz::BackendKind::kInProcess) {
    // The out-of-process trajectory is gated identical to the in-process
    // one of the same seed (the session backend for TCP sessions).
    Campaign reference(w, seed, fuzz::BackendKind::kInProcess, false);
    reference.run(budget, nullptr);
    checks.expect(reference.coverage() == *reached,
                  std::string("in-process reference reached ") +
                      reference.coverage().str() + ", workload " +
                      reached->str());
  }

  print_result(checks.failures.empty(), attempted, failed,
               {{"execs_per_sec", execs_per_sec, "1/s"},
                {"paths", static_cast<double>(reached->paths), "count"},
                {"edges", static_cast<double>(reached->edges), "count"},
                {"unique_crashes",
                 static_cast<double>(reached->unique_crashes), "count"},
                {"setup_s", median(setups), "s"},
                {"peak_rss_mb", rss, "MB"}});
  return checks.failures.empty() ? 0 : 1;
}

// -- --trace 1: per-layer probes. ----------------------------------------------

/// Folds the observables two equivalent executions must share.
std::uint64_t fold(std::uint64_t checksum, const fuzz::ExecResult& result) {
  checksum = checksum * 0x100000001B3ULL ^
             (result.trace_hash + result.trace_edges +
              (result.new_coverage ? 1 : 0) + result.faults.size());
  for (const std::uint32_t state : result.session_states) {
    checksum = checksum * 0x100000001B3ULL ^ state;
  }
  return checksum;
}

struct Replay {
  std::vector<double> ns;
  std::uint64_t checksum = 0;
  std::uint64_t messages = 0;
};

/// Times Executor::run_into over `packets`, appending to `out`.
void replay(fuzz::Executor& executor, ProtocolTarget& target,
            std::span<const Bytes> packets, Replay& out) {
  fuzz::ExecResult result;
  for (const Bytes& packet : packets) {
    const std::uint64_t start = now_ns();
    executor.run_into(target, packet, result);
    out.ns.push_back(static_cast<double>(now_ns() - start));
    out.checksum = fold(out.checksum, result);
    out.messages += result.session_messages;
  }
}

/// Evenly spaced subset of at most `limit` packets (keeps replays of the
/// slow transports short).
std::vector<Bytes> sample(const std::vector<Bytes>& packets,
                          std::size_t limit) {
  if (packets.size() <= limit) return packets;
  std::vector<Bytes> out;
  out.reserve(limit);
  for (std::size_t i = 0; i < limit; ++i) {
    out.push_back(packets[i * packets.size() / limit]);
  }
  return out;
}

int run_traced(const Workload& w, std::uint64_t seed, std::uint64_t budget) {
  Checks checks;
  std::vector<Metric> m;

  // Untraced and traced campaigns alternate, two of each, so that a slow
  // phase of the machine does not land on one side only; the last traced
  // campaign stays alive for the probes. The traced campaign runs on the
  // workload's own backend. In process, the decorator is the target itself;
  // out of process it is never called, so an in-process campaign of the
  // same seed (identical trajectory, gated below) records the executions
  // and times the engine's own share of the step, which the transport's
  // run-to-run noise would swamp otherwise.
  const bool in_process = w.backend == fuzz::BackendKind::kInProcess;
  std::vector<double> untraced_rates;
  std::vector<double> traced_rates;
  std::optional<Coverage> untraced_cov;
  std::unique_ptr<Campaign> traced;
  StepTrace steps;
  for (int pair = 0; pair < 2; ++pair) {
    {
      Campaign untraced(w, seed, w.backend, false);
      untraced.run(budget, nullptr);
      untraced_rates.push_back(untraced.execs_per_sec());
      if (!untraced_cov) untraced_cov = untraced.coverage();
    }
    traced.reset();
    steps = StepTrace{};
    traced = std::make_unique<Campaign>(w, seed, w.backend, in_process);
    traced->run(budget, &steps);
    traced_rates.push_back(traced->execs_per_sec());
    checks.expect(traced->coverage() == *untraced_cov,
                  "traced campaign reached " + traced->coverage().str() +
                      ", untraced " + untraced_cov->str());
  }
  std::unique_ptr<Campaign> recorded_owner;
  const Campaign* recorded = traced.get();
  StepTrace recorded_steps_owner;
  const StepTrace* recorded_steps = &steps;
  if (!in_process) {
    recorded_owner = std::make_unique<Campaign>(
        w, seed, fuzz::BackendKind::kInProcess, true);
    recorded_owner->run(budget, &recorded_steps_owner);
    recorded = recorded_owner.get();
    recorded_steps = &recorded_steps_owner;
    checks.expect(recorded->coverage() == *untraced_cov,
                  "in-process reference reached " +
                      recorded->coverage().str() + ", workload " +
                      untraced_cov->str());
  }
  // Probes below may start servers of their own; the traced campaign's
  // server is still alive until the end.
  const Residue campaign_servers = residue();
  const RecordingTarget& recorder = *recorded->recorder();
  const std::vector<Bytes> processed = recorder.packets();
  const fuzz::FuzzerConfig& config = traced->config();
  const model::DataModelSet& models = traced->models();
  const auto factory = proto::target_factory(w.project);

  // fuzzer layer: the step itself.
  const Dist step = summarize(steps.step_ns);
  const Dist inproc_step = summarize(recorded_steps->step_ns);
  const double allocs_per_exec = static_cast<double>(steps.allocations) /
                                 static_cast<double>(budget - 1);

  // model layer: generate_into per model (File Fixup included).
  std::vector<double> generate_ns;
  std::uint64_t generate_allocs = 0;
  {
    const fuzz::ModelInstantiator instantiator(config.mutators);
    Rng rng(seed ^ 0x6D6F64656CULL);
    Bytes out;
    constexpr int kPerModel = 2000;
    for (const model::DataModel& model : models.models()) {
      std::vector<double> per_model;
      generate_allocs += count_allocations([&] {
        for (int i = 0; i < kPerModel; ++i) {
          const std::uint64_t start = now_ns();
          instantiator.generate_into(model, rng, out);
          per_model.push_back(static_cast<double>(now_ns() - start));
        }
      });
      std::fprintf(stderr, "[%s] model %-24s generate_into p50 %.0f ns\n",
                   w.name, model.name().c_str(), median(per_model));
      generate_ns.insert(generate_ns.end(), per_model.begin(),
                         per_model.end());
    }
  }
  const Dist generate = summarize(generate_ns);

  // fuzzer layer: semantic generation and the post-crack batch against the
  // campaign's final corpus.
  std::vector<double> semantic_ns;
  std::vector<double> batch_ns;
  double batch_seeds = 0.0;
  {
    const fuzz::SemanticGenerator semantic(config.semantic, config.mutators);
    const fuzz::PuzzleCorpus& corpus = traced->fuzzer().corpus();
    Rng rng(seed ^ 0x73656DULL);
    Bytes out;
    for (const model::DataModel& model : models.models()) {
      for (int i = 0; i < 1000; ++i) {
        const std::uint64_t start = now_ns();
        semantic.generate_into(model, corpus, rng, out);
        semantic_ns.push_back(static_cast<double>(now_ns() - start));
      }
      for (int i = 0; i < 40; ++i) {
        const std::uint64_t start = now_ns();
        const std::vector<Bytes> batch =
            semantic.generate_batch(model, corpus, rng);
        batch_ns.push_back(static_cast<double>(now_ns() - start));
        batch_seeds += static_cast<double>(batch.size());
      }
    }
  }
  const Dist semantic = summarize(semantic_ns);
  const Dist batch = summarize(batch_ns);
  const double batch_size =
      batch_ns.empty() ? 0.0 : batch_seeds / static_cast<double>(batch_ns.size());

  // fuzzer layer: File Cracker over the retained valuable seeds.
  std::vector<double> crack_ns;
  double puzzles = 0.0;
  {
    const fuzz::FileCracker cracker;
    fuzz::PuzzleCorpus corpus(config.corpus);
    Rng rng(seed ^ 0x637261636BULL);
    for (const fuzz::RetainedSeed& retained : traced->fuzzer().retained_seeds()) {
      const std::uint64_t start = now_ns();
      const fuzz::CrackStats stats =
          cracker.crack(models, retained.bytes, corpus, rng);
      crack_ns.push_back(static_cast<double>(now_ns() - start));
      puzzles += static_cast<double>(stats.puzzles_added);
    }
  }
  const Dist crack = summarize(crack_ns);
  const double puzzles_per_seed =
      crack_ns.empty() ? 0.0 : puzzles / static_cast<double>(crack_ns.size());

  // session layer: sequencer streams replayed over TCP and in process.
  std::vector<double> session_generate_ns;
  std::vector<Bytes> streams;
  {
    const fuzz::ModelInstantiator instantiator(config.mutators);
    session::SessionSequencer sequencer(sequencer_config(w), models,
                                        instantiator);
    Rng rng(seed ^ 0x73657373ULL);
    Bytes out;
    constexpr int kStreams = 1500;
    for (int i = 0; i < kStreams; ++i) {
      std::uint64_t start = now_ns();
      sequencer.generate_into(rng, out);
      session_generate_ns.push_back(static_cast<double>(now_ns() - start));
      streams.push_back(out);
      if (i % 3 == 0) {
        start = now_ns();
        sequencer.mutate_stream_into(streams.back(), rng, out);
        session_generate_ns.push_back(static_cast<double>(now_ns() - start));
        streams.push_back(out);
      }
    }
  }
  Replay session_tcp;
  Replay session_inproc;
  std::size_t tcp_states = 0;
  std::size_t inproc_states = 0;
  {
    const std::unique_ptr<ProtocolTarget> placeholder = factory();
    fuzz::Executor executor(
        executor_config(w, fuzz::BackendKind::kTcp, true));
    replay(executor, *placeholder, streams, session_tcp);
    tcp_states = executor.session_state_count();
  }
  {
    const std::unique_ptr<ProtocolTarget> target = factory();
    fuzz::Executor executor(
        executor_config(w, fuzz::BackendKind::kInProcess, true));
    replay(executor, *target, streams, session_inproc);
    inproc_states = executor.session_state_count();
  }
  checks.expect(session_tcp.checksum == session_inproc.checksum &&
                    session_tcp.messages == session_inproc.messages &&
                    tcp_states == inproc_states,
                "TCP session replay matches the in-process session backend");
  checks.expect_clean("session replay", campaign_servers);

  // coverage layer: the workload's execution units on a fresh in-process
  // executor — the recorded packets, or session streams.
  Replay exec;
  {
    const std::unique_ptr<ProtocolTarget> target = factory();
    fuzz::Executor executor(
        executor_config(w, fuzz::BackendKind::kInProcess, w.session));
    replay(executor, *target, w.session ? streams : processed, exec);
  }
  const Dist exec_dist = summarize(exec.ns);
  const Dist process = summarize(recorder.process_ns());
  const double process_per_exec =
      static_cast<double>(recorder.process_ns().size()) /
      static_cast<double>(budget);

  // exec_oop layer: spawn, then the bare round trip and the persistent
  // Executor on the same packets (single messages for session workloads),
  // interleaved block by block so that a slow phase of the machine hits
  // both sides of exec_oop.adopt_ns alike.
  const std::vector<Bytes> oop_packets = sample(processed, 20000);
  std::vector<double> spawn_ms;
  Replay roundtrip;
  Replay persistent;
  Replay inproc_oop;
  double recycles_per_kexec = 0.0;
  double replay_restarts = 0.0;
  {
    oop::OopExecutorConfig oop_config;
    oop_config.target_cmd = shim_cmd(w, false);
    oop_config.exec_timeout_ms = kExecTimeoutMs;
    oop_config.persistent_budget =
        fuzz::ExecBackendConfig{}.persistent_budget;
    for (int i = 0; i < 5; ++i) {
      oop::OutOfProcessExecutor executor(oop_config);
      const std::uint64_t start = now_ns();
      checks.expect(executor.ensure_started(), "fork server starts");
      spawn_ms.push_back(static_cast<double>(now_ns() - start) * 1e-6);
    }
    oop::OutOfProcessExecutor bare(oop_config);
    const std::unique_ptr<ProtocolTarget> placeholder = factory();
    fuzz::Executor executor(
        executor_config(w, fuzz::BackendKind::kPersistent, false));
    constexpr std::size_t kBlock = 500;
    const std::span<const Bytes> all(oop_packets);
    for (std::size_t begin = 0; begin < all.size(); begin += kBlock) {
      const std::span<const Bytes> block =
          all.subspan(begin, std::min(kBlock, all.size() - begin));
      for (const Bytes& packet : block) {
        const std::uint64_t start = now_ns();
        const auto& outcome = bare.run(packet);
        roundtrip.ns.push_back(static_cast<double>(now_ns() - start));
        checks.expect(outcome.status != oop::ExecStatus::kServerLost,
                      "fork server stays reachable");
      }
      replay(executor, *placeholder, block, persistent);
    }
    const oop::OutOfProcessExecutor* transport = executor.oop_backend();
    recycles_per_kexec = 1000.0 *
                         static_cast<double>(transport->child_recycles()) /
                         static_cast<double>(oop_packets.size());
    replay_restarts = static_cast<double>(transport->server_restarts());
  }
  {
    const std::unique_ptr<ProtocolTarget> target = factory();
    fuzz::Executor executor(
        executor_config(w, fuzz::BackendKind::kInProcess, false));
    replay(executor, *target, oop_packets, inproc_oop);
  }
  checks.expect(persistent.checksum == inproc_oop.checksum,
                "persistent replay matches the in-process executor");
  checks.expect_clean("fork-server replay", campaign_servers);

  // fuzzer layer: the campaign's packet hashes through a dedup of the same
  // capacity.
  std::vector<double> dedup_ns;
  {
    fuzz::GenerationalDedup dedup(config.dedup_capacity);
    const std::vector<Bytes>& units = w.session ? streams : processed;
    dedup_ns.reserve(units.size());
    for (const Bytes& unit : units) {
      const std::uint64_t hash = content_hash(unit);
      const std::uint64_t start = now_ns();
      dedup.insert(hash);
      dedup_ns.push_back(static_cast<double>(now_ns() - start));
    }
  }
  const Dist dedup = summarize(dedup_ns);

  // Attribution of the mean in-process step (all means, in ns): one
  // execution, one generation and one dedup probe per step, and the crack
  // and batch costs at the campaign's own rates. What is left is reported,
  // not hidden: mostly extra generations of packets the dedup rejected,
  // plus telemetry and bookkeeping. Out of process, the engine's share is
  // the in-process one (same trajectory); the rest of the step is transport.
  const Dist session_exec = summarize(session_tcp.ns);
  const Dist session_inproc_exec = summarize(session_inproc.ns);
  const Dist persistent_exec = summarize(persistent.ns);
  const double generation_cost =
      w.session ? summarize(session_generate_ns).mean
                : (1.0 - config.steady_semantic_pct / 100.0) * generate.mean +
                      (config.steady_semantic_pct / 100.0) * semantic.mean;
  const double executions = static_cast<double>(budget);
  const double crack_share =
      crack.mean *
      static_cast<double>(recorded->counter(telem::Counter::kCrackRuns)) /
      executions;
  const double batch_share =
      batch_size > 0.0
          ? batch.mean *
                (static_cast<double>(
                     recorded->counter(telem::Counter::kBatchSeeds)) /
                 batch_size) /
                executions
          : 0.0;
  const double engine_self = inproc_step.mean - exec_dist.mean;
  const double unattributed =
      engine_self - generation_cost - dedup.mean - crack_share - batch_share;
  const double implied_generations =
      (engine_self - crack_share - batch_share) /
      (generation_cost + dedup.mean);
  std::fprintf(stderr,
               "[%s] in-process step %.0f ns = exec %.0f + generate %.0f + "
               "dedup %.0f + crack %.0f + batch %.0f + unattributed %.0f "
               "(implied generations per executed packet %.2f)\n",
               w.name, inproc_step.mean, exec_dist.mean, generation_cost,
               dedup.mean, crack_share, batch_share, unattributed,
               implied_generations);
  if (!in_process) {
    std::fprintf(stderr,
                 "[%s] workload step %.0f ns = engine %.0f + transport "
                 "execution %.0f\n",
                 w.name, step.mean, engine_self, step.mean - engine_self);
  }

  const telem::HistogramSnapshot latency =
      traced->histogram(telem::Histogram::kExecLatencyNs);
  const double failures = static_cast<double>(traced->transport_failures());

  add_dist(m, "fuzzer.step_ns", step, "ns");
  m.push_back({"fuzzer.step_ns.mean", step.mean, "ns"});
  m.push_back({"fuzzer.engine_self_ns", engine_self, "ns"});
  add_dist(m, "fuzzer.dedup_insert_ns", dedup, "ns");
  add_dist(m, "fuzzer.crack_ns", crack, "ns");
  m.push_back({"fuzzer.crack_puzzles_per_seed", puzzles_per_seed, "count"});
  add_dist(m, "fuzzer.semantic_generate_ns", semantic, "ns");
  add_dist(m, "fuzzer.batch_generate_ns", batch, "ns");
  m.push_back({"fuzzer.batch_size", batch_size, "count"});
  m.push_back({"fuzzer.allocs_per_exec", allocs_per_exec, "count"});
  m.push_back({"fuzzer.unattributed_ns", unattributed, "ns"});
  m.push_back(
      {"fuzzer.implied_generations_per_exec", implied_generations, "count"});
  add_dist(m, "model.generate_ns", generate, "ns");
  m.push_back({"model.allocs_per_generate",
               static_cast<double>(generate_allocs) /
                   static_cast<double>(generate_ns.size()),
               "count"});
  add_dist(m, "protocols.process_ns", process, "ns");
  add_dist(m, "coverage.exec_ns", exec_dist, "ns");
  m.push_back({"coverage.analysis_ns",
               exec_dist.mean - process.mean * process_per_exec, "ns"});
  add_dist(m, "exec_oop.spawn_ms", summarize(spawn_ms), "ms");
  const Dist roundtrip_dist = summarize(roundtrip.ns);
  add_dist(m, "exec_oop.roundtrip_ns", roundtrip_dist, "ns");
  m.push_back({"exec_oop.adopt_ns", persistent_exec.mean - roundtrip_dist.mean,
               "ns"});
  m.push_back(
      {"exec_oop.child_recycles_per_kexec", recycles_per_kexec, "count"});
  const oop::OutOfProcessExecutor* transport =
      traced->fuzzer().executor().oop_backend();
  m.push_back({"exec_oop.server_restarts",
               transport != nullptr
                   ? static_cast<double>(transport->server_restarts())
                   : replay_restarts,
               "count"});
  m.push_back({"exec_fail_ratio",
               failures / static_cast<double>(traced->attempted()), "ratio"});
  add_dist(m, "session.generate_ns", summarize(session_generate_ns), "ns");
  add_dist(m, "session.exec_ns", session_exec, "ns");
  add_dist(m, "session.inproc_exec_ns", session_inproc_exec, "ns");
  m.push_back({"session.transport_ns",
               session_exec.mean - session_inproc_exec.mean, "ns"});
  m.push_back({"session.messages_per_exec",
               static_cast<double>(session_tcp.messages) /
                   static_cast<double>(streams.size()),
               "count"});
  m.push_back({"session_states",
               static_cast<double>(traced->coverage().session_states),
               "count"});
  m.push_back({"telemetry.exec_latency_ns", latency.mean(), "ns"});
  m.push_back({"telemetry.exec_latency_ns.n",
               static_cast<double>(latency.count), "count"});
  m.push_back({"trace_overhead_pct",
               100.0 * (median(untraced_rates) - median(traced_rates)) /
                   median(untraced_rates),
               "%"});

  verify_crashes(w, traced->fuzzer(), checks);
  const std::uint64_t attempted = traced->attempted();
  const std::uint64_t failed = traced->transport_failures();
  traced.reset();
  recorded_owner.reset();
  checks.expect_clean(w.name);
  print_result(checks.failures.empty(), attempted, failed, m);
  return checks.failures.empty() ? 0 : 1;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--budget <steps>]\n  workloads:",
               argv0);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage(argv[0]);
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1 || !args.contains("workload") || !args.contains("seed")) {
    return usage(argv[0]);
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args["workload"] == w.name) workload = &w;
  }
  if (workload == nullptr) return usage(argv[0]);
  const std::uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const double seconds =
      args.contains("seconds") ? std::strtod(args["seconds"].c_str(), nullptr)
                               : 10.0;
  const bool trace = args.contains("trace") && args["trace"] == "1";
  const std::uint64_t budget =
      args.contains("budget")
          ? std::strtoull(args["budget"].c_str(), nullptr, 10)
          : workload->budget;
  if (budget < 2) return usage(argv[0]);
  return trace ? run_traced(*workload, seed, budget)
               : run_end_to_end(*workload, seed, seconds, budget);
}
