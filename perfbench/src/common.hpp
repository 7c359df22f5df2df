// Shared plumbing of the end-to-end benchmark: run options, the seeded
// input generator, host timers, in-memory trace spans, percentile helpers,
// the standalone gate-kernel probe and the per-run report.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/params.hpp"
#include "fitness/functions.hpp"
#include "gates/compiled.hpp"

namespace perfbench {

using namespace gaip;

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir;  ///< scratch directory inside the checkout (created by main)
};

// ---- seeded inputs ---------------------------------------------------------

/// splitmix64 stream; stream `id` of seed `s` is independent of every other.
class Rng {
public:
    Rng(std::uint64_t seed, std::uint64_t stream) : s_(seed * 0x9E3779B97F4A7C15ull ^ (stream + 1) * 0xD1B54A32D192ED03ull) {}
    std::uint64_t next() noexcept {
        std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
    /// Uniform integer in [lo, hi].
    std::uint64_t range(std::uint64_t lo, std::uint64_t hi) noexcept { return lo + next() % (hi - lo + 1); }
    /// Non-zero 16-bit GA seed.
    std::uint16_t seed16() noexcept { return static_cast<std::uint16_t>(range(1, 0xFFFF)); }

private:
    std::uint64_t s_;
};

// ---- host time --------------------------------------------------------------

using Clock = std::chrono::steady_clock;
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point a) { return seconds_between(a, Clock::now()); }

// ---- trace spans --------------------------------------------------------------
//
// A span brackets one of the benchmark's own calls into a layer's public
// API. Spans are aggregated in memory per site (count, total, self time =
// duration minus the time covered by child spans on the same thread) and
// written out once, when the run ends. Disabled spans cost one branch.

enum class SpanId : unsigned {
    kSetup,
    kMeasure,
    kGatesBuild,
    kGatesCompile,
    kBatchStep,
    kFaultSetup,
    kFaultRunGate,
    kSystemRun,
    kCoreBehavioral,
    kSupervisorRun,
    kServiceDaemonStart,
    kServiceSubmit,
    kCount
};
inline constexpr std::array<const char*, static_cast<unsigned>(SpanId::kCount)> kSpanNames = {
    "setup",          "measure",          "gates.build",          "gates.compile",
    "batch_runner.step", "fault.setup",   "fault.run_gate",       "system.run",
    "core.behavioral", "supervisor.run",  "service.daemon_start", "service.submit"};

struct SpanTotals {
    double total_s = 0;
    double self_s = 0;
};

/// Turn span recording on/off (off by default). Aggregates accumulate over
/// every interval in which recording was on.
void spans_enable(bool on);
SpanTotals span_totals(SpanId id);

class Span {
public:
    explicit Span(SpanId id);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    SpanId id_;
    bool on_;
    Span* parent_ = nullptr;
    Clock::time_point t0_{};
    std::int64_t child_ns_ = 0;
};

// ---- statistics ------------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty set.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// FNV-1a digest of a sequence of integers (simulated-statistics digests).
class Digest {
public:
    Digest& add(std::uint64_t v) noexcept {
        for (int i = 0; i < 8; ++i) h_ = (h_ ^ ((v >> (8 * i)) & 0xFF)) * 0x100000001B3ull;
        return *this;
    }
    std::string hex() const;

private:
    std::uint64_t h_ = 0xCBF29CE484222325ull;
};

/// Run f(i) for i in [0, n) on `threads` threads (checks outside the timed
/// section). The first exception thrown by any call is rethrown.
template <class F>
void parallel_for(std::size_t n, unsigned threads, F&& f) {
    std::atomic<std::size_t> next{0};
    std::exception_ptr err;
    std::mutex mu;
    auto body = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < n;) {
            try {
                f(i);
            } catch (...) {
                std::lock_guard<std::mutex> lk(mu);
                if (!err) err = std::current_exception();
            }
        }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < threads; ++t) pool.emplace_back(body);
    body();
    for (std::thread& t : pool) t.join();
    if (err) std::rethrow_exception(err);
}

/// Worker threads for the correctness checks (outside every timed section).
inline constexpr unsigned kCheckThreads = 4;

// ---- reference runs ---------------------------------------------------------------

struct RefResult {
    std::uint16_t best_fitness = 0;
    std::uint16_t best_candidate = 0;
    std::uint32_t generations = 0;
    std::uint64_t evaluations = 0;
    std::uint64_t ga_cycles = 0;  ///< RT level only
};
/// BehavioralEngine run of one job (the exact reference substrate).
RefResult behavioral_reference(fitness::FitnessId fn, const core::GaParameters& p);
/// RT-level GaSystem run of one job, with its GA-clock cycle count.
RefResult rtl_reference(fitness::FitnessId fn, const core::GaParameters& p);

// ---- gate kernel probe ---------------------------------------------------------

/// Standalone core + RNG compiled netlists at one width/backend, built
/// through the public gates API exactly as the lane runners build them.
struct KernelPair {
    gates::CompiledNetlist core;
    gates::CompiledNetlist rng;
    double build_s = 0;    ///< build_ga_core_netlist + build_rng_netlist
    double compile_s = 0;  ///< both CompiledNetlist constructions
    std::size_t instructions() const { return core.instruction_count() + rng.instruction_count(); }
};
KernelPair make_kernel_pair(unsigned words, gates::Backend backend);

/// Host seconds for `cycles` x (core eval + RNG eval + core clock + RNG
/// clock) — the kernel share of one lane-runner step. The kernel is
/// branch-free, so the time does not depend on the lane data.
double probe_kernel_s(KernelPair& k, std::uint64_t cycles);

/// Configure the JIT to use `dir` as its artifact cache (created if needed).
void use_jit_cache(const std::string& dir);

// ---- the per-run report -----------------------------------------------------------

struct Report {
    std::vector<std::pair<std::string, double>> e2e;
    std::vector<std::pair<std::string, double>> layer;
    std::vector<std::pair<std::string, std::string>> env;
    /// Samples behind each end-to-end metric (latency quantiles, runs, ...).
    std::vector<std::pair<std::string, std::uint64_t>> samples;
    /// Simulated statistics of each deterministic unit of work, in run
    /// order; two runs of one seed must agree on their common prefix.
    std::vector<std::string> units;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// Known program defects seen outside the benchmarked work: printed on
    /// every run, not counted as failed operations.
    std::vector<std::string> known_defects;

    void set_e2e(const std::string& k, double v) { e2e.emplace_back(k, v); }
    void set_layer(const std::string& k, double v) { layer.emplace_back(k, v); }
    void set_env(const std::string& k, std::string v) { env.emplace_back(k, std::move(v)); }
    void set_samples(const std::string& k, std::uint64_t n) { samples.emplace_back(k, n); }
    /// Count one failed check (message to stderr).
    void fail(const std::string& what);
    /// Record one known program defect (message to stderr).
    void known_defect(const std::string& what);
    /// Count one check; fails it when `ok` is false.
    void check(bool ok, const std::string& what) {
        ++attempted;
        if (!ok) fail(what);
    }
};

/// Shared environment entries: compiler, flags, build type, nproc and the
/// workload's thread count (scaling is marked unmeasured above nproc).
void add_common_env(Report& r, unsigned threads);
/// Environment entries of a gate-backed workload (kernel ISA, backend).
void add_gate_env(Report& r, unsigned words, gates::Backend backend);

/// Fill the span self times into the per-layer metrics (traced runs).
void add_span_metrics(Report& r);

// ---- workloads ---------------------------------------------------------------------

Report run_gate_lanes(const Options& o);
Report run_seu_campaign(const Options& o);
Report run_rtl_grid(const Options& o);
Report run_gaipd_mixed(const Options& o);

}  // namespace perfbench
