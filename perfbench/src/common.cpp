#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "core/behavioral.hpp"
#include "gates/compiled_kernels.hpp"
#include "gates/ga_core_gates.hpp"
#include "gates/rng_gates.hpp"
#include "gates/jit.hpp"
#include "system/ga_system.hpp"

namespace perfbench {

// ---- spans ----------------------------------------------------------------------

namespace {

struct SpanSite {
    std::atomic<std::int64_t> total_ns{0};
    std::atomic<std::int64_t> self_ns{0};
};

std::atomic<bool> g_spans_on{false};
std::array<SpanSite, static_cast<unsigned>(SpanId::kCount)> g_sites;
thread_local Span* t_top = nullptr;

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

}  // namespace

void spans_enable(bool on) { g_spans_on = on; }

SpanTotals span_totals(SpanId id) {
    const SpanSite& s = g_sites[static_cast<unsigned>(id)];
    return {static_cast<double>(s.total_ns.load()) * 1e-9,
            static_cast<double>(s.self_ns.load()) * 1e-9};
}

Span::Span(SpanId id) : id_(id), on_(g_spans_on.load(std::memory_order_relaxed)) {
    if (!on_) return;
    parent_ = t_top;
    t_top = this;
    t0_ = Clock::now();
}

Span::~Span() {
    if (!on_) return;
    const std::int64_t d = ns_between(t0_, Clock::now());
    t_top = parent_;
    if (parent_ != nullptr) parent_->child_ns_ += d;
    SpanSite& s = g_sites[static_cast<unsigned>(id_)];
    s.total_ns.fetch_add(d, std::memory_order_relaxed);
    s.self_ns.fetch_add(d - child_ns_, std::memory_order_relaxed);
}

void add_span_metrics(Report& r) {
    for (unsigned i = 0; i < kSpanNames.size(); ++i)
        r.set_layer(std::string("span.") + kSpanNames[i] + ".self_s",
                    span_totals(static_cast<SpanId>(i)).self_s);
}

// ---- statistics --------------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string Digest::hex() const {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
    return buf;
}

// ---- reference runs -------------------------------------------------------------------

RefResult behavioral_reference(fitness::FitnessId fn, const core::GaParameters& p) {
    core::BehavioralEngine eng(
        p, [fn](std::uint16_t c) { return fitness::fitness_u16(fn, c); },
        prng::RngKind::kCellularAutomaton, /*keep_populations=*/false);
    while (!eng.done()) eng.step_generation();
    return {eng.best_fitness(), eng.best_candidate(), eng.generation(), eng.evaluations(), 0};
}

RefResult rtl_reference(fitness::FitnessId fn, const core::GaParameters& p) {
    system::GaSystemConfig cfg;
    cfg.params = p;
    cfg.internal_fems = {fn};
    cfg.keep_populations = false;
    system::GaSystem sys(cfg);
    const core::RunResult rr = sys.run();
    return {rr.best_fitness, rr.best_candidate,
            rr.history.empty() ? 0u : static_cast<std::uint32_t>(rr.history.size() - 1),
            rr.evaluations, sys.ga_cycles()};
}

// ---- gate kernel probe -----------------------------------------------------------------

KernelPair make_kernel_pair(unsigned words, gates::Backend backend) {
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<gates::GaCoreNetlist> core_src;
    std::unique_ptr<gates::RngNetlist> rng_src;
    {
        Span s(SpanId::kGatesBuild);
        core_src = gates::build_ga_core_netlist();
        rng_src = gates::build_rng_netlist();
    }
    const double build_s = seconds_since(t0);
    t0 = Clock::now();
    Span s(SpanId::kGatesCompile);
    KernelPair k{gates::CompiledNetlist(core_src->nl,
                                        {.words = words,
                                         .cse = true,
                                         .prune = true,
                                         .keep = core_src->observable_port_nets(),
                                         .backend = backend}),
                 gates::CompiledNetlist(rng_src->nl,
                                        {.words = words,
                                         .cse = true,
                                         .prune = true,
                                         .keep = rng_src->observable_port_nets(),
                                         .backend = backend})};
    k.build_s = build_s;
    k.compile_s = seconds_since(t0);
    return k;
}

double probe_kernel_s(KernelPair& k, std::uint64_t cycles) {
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t c = 0; c < cycles; ++c) {
        k.core.eval();
        k.rng.eval();
        k.core.clock();
        k.rng.clock();
    }
    return seconds_since(t0);
}

void use_jit_cache(const std::string& dir) {
    std::filesystem::create_directories(dir);
    setenv("GAIP_JIT_CACHE", dir.c_str(), 1);
}

// ---- report -------------------------------------------------------------------------

void Report::fail(const std::string& what) {
    ++failed;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

void Report::known_defect(const std::string& what) {
    known_defects.push_back(what);
    std::fprintf(stderr, "perfbench: known program defect: %s\n", what.c_str());
}

namespace {
unsigned affinity_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return std::thread::hardware_concurrency();
    return static_cast<unsigned>(CPU_COUNT(&set));
}
}  // namespace

void add_common_env(Report& r, unsigned threads) {
#if defined(__clang__)
    r.set_env("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
    r.set_env("compiler", std::string("gcc ") + __VERSION__);
#else
    r.set_env("compiler", "unknown");
#endif
    r.set_env("cxx_flags", PERFBENCH_CXX_FLAGS);
    r.set_env("build_type", PERFBENCH_BUILD_TYPE);
    r.set_env("nproc", std::to_string(affinity_cpus()));
    r.set_env("hw_concurrency", std::to_string(std::thread::hardware_concurrency()));
    r.set_env("threads", std::to_string(threads));
    r.set_env("scaling", threads > affinity_cpus() ? "unmeasured (threads exceed nproc)"
                                                    : "measured");
}

void add_gate_env(Report& r, unsigned words, gates::Backend backend) {
    r.set_env("kernel_isa", gates::kernels::selected_name(words));
    r.set_env("gate_backend", gates::backend_name(gates::resolve_backend(backend)));
    r.set_env("lane_words", std::to_string(words));
    if (backend == gates::Backend::kJit || backend == gates::Backend::kJitForce)
        r.set_env("jit_cache", gates::jit::cache_dir());
}

}  // namespace perfbench
