// rtl_grid: the Table VII settings (mBF6_2, pop 32/64 x XR 10/12, mutation
// 1/16, 64 generations) with seed-drawn RNG seeds, closed-loop, setting
// after setting until the measured time is used up. Each setting runs on
// the RT-level GaSystem, on the BehavioralEngine reference and as a clean
// MissionSupervisor RTL run; the gate layers do no work here. A job is one
// Table VII row: the four settings of one RNG seed.
#include "common.hpp"
#include "supervisor/supervisor.hpp"
#include "system/ga_system.hpp"

namespace perfbench {
namespace {

constexpr fitness::FitnessId kFn = fitness::FitnessId::kMBf6_2;
constexpr std::uint8_t kCells[4][2] = {{32, 10}, {32, 12}, {64, 10}, {64, 12}};

core::GaParameters setting_params(std::uint64_t seed, unsigned i) {
    const auto& cell = kCells[i % 4];
    return {.pop_size = cell[0], .n_gens = 64, .xover_threshold = cell[1], .mut_threshold = 1,
            .seed = Rng(seed, 5000 + i / 4).seed16()};
}

system::GaSystemConfig system_config(const core::GaParameters& p) {
    system::GaSystemConfig cfg;
    cfg.params = p;
    cfg.internal_fems = {kFn};
    cfg.keep_populations = false;
    return cfg;
}

supervisor::SupervisorConfig supervisor_config(const core::GaParameters& p) {
    supervisor::SupervisorConfig cfg;
    cfg.fn = kFn;
    cfg.params = p;
    cfg.backend = supervisor::BackendKind::kRtl;
    return cfg;
}

struct Setting {
    core::GaParameters params;
    core::RunResult rtl;
    std::uint64_t ga_cycles = 0;
    rtl::KernelStats kernel;
    RefResult behavioral;
    supervisor::SupervisorReport supervised;
    double wall_ms = 0;
};

struct Phase {
    std::vector<Setting> settings;
    std::vector<double> row_ms;  ///< wall time of each row of four settings
    double wall_s = 0;
};

Phase run_settings(std::uint64_t seed, double seconds, std::size_t n_settings) {
    Phase ph;
    Span measure(SpanId::kMeasure);
    const Clock::time_point t0 = Clock::now();
    for (unsigned i = 0;
         n_settings != 0 ? i < n_settings : (i % 4 != 0 || seconds_since(t0) < seconds); ++i) {
        Setting s;
        s.params = setting_params(seed, i);
        const Clock::time_point ts = Clock::now();
        {
            Span sp(SpanId::kSystemRun);
            system::GaSystem sys(system_config(s.params));
            s.rtl = sys.run();
            s.ga_cycles = sys.ga_cycles();
            s.kernel = sys.kernel().stats();
        }
        {
            Span sp(SpanId::kCoreBehavioral);
            s.behavioral = behavioral_reference(kFn, s.params);
        }
        {
            Span sp(SpanId::kSupervisorRun);
            s.supervised = supervisor::MissionSupervisor(supervisor_config(s.params)).run();
        }
        s.wall_ms = seconds_since(ts) * 1e3;
        ph.settings.push_back(std::move(s));
        if (i % 4 == 3) {
            double row = 0;
            for (std::size_t k = ph.settings.size() - 4; k < ph.settings.size(); ++k)
                row += ph.settings[k].wall_ms;
            ph.row_ms.push_back(row);
        }
    }
    ph.wall_s = seconds_since(t0);
    return ph;
}

std::string setting_digest(const Setting& s) {
    Digest d;
    d.add(s.rtl.best_fitness).add(s.rtl.best_candidate).add(s.rtl.evaluations).add(s.ga_cycles)
        .add(s.kernel.module_evals).add(s.kernel.settle_passes).add(s.supervised.total_cycles)
        .add(s.supervised.attempts.size()).add(s.supervised.best_fitness);
    char buf[120];
    std::snprintf(buf, sizeof(buf), "setting pop=%u xr=%u seed=%04x cycles=%llu digest=",
                  s.params.pop_size, s.params.xover_threshold, s.params.seed,
                  static_cast<unsigned long long>(s.ga_cycles));
    return buf + d.hex();
}

void check_setting(const Setting& s, std::size_t i, Report& r) {
    const std::string tag = "rtl_grid: setting " + std::to_string(i) + ": ";
    const std::uint32_t rtl_gens =
        s.rtl.history.empty() ? 0u : static_cast<std::uint32_t>(s.rtl.history.size() - 1);
    r.check(s.rtl.best_fitness == s.behavioral.best_fitness &&
                s.rtl.best_candidate == s.behavioral.best_candidate &&
                s.rtl.evaluations == s.behavioral.evaluations &&
                rtl_gens == s.behavioral.generations,
            tag + "RT-level result differs from BehavioralEngine");
    const supervisor::SupervisorReport& sup = s.supervised;
    r.check(sup.status == supervisor::Status::kOk && sup.final_rung == supervisor::Rung::kPrimary &&
                sup.attempts.size() == 1 && sup.watchdog_trips == 0,
            tag + "clean supervised run needed recovery");
    r.check(sup.best_fitness == s.rtl.best_fitness && sup.best_candidate == s.rtl.best_candidate &&
                sup.generations == s.behavioral.generations,
            tag + "supervised result differs from the RT-level run");
}

}  // namespace

Report run_rtl_grid(const Options& o) {
    Report r;
    add_common_env(r, 1);

    spans_enable(o.trace);  // set-up spans, traced runs only
    // Set-up: what precedes the first simulated cycle of a setting — the
    // RT-level system build and the supervisor's construction (its
    // behavioral preset baseline), repeated; the median is reported.
    std::vector<double> setups;
    for (int rep = 0; rep < 101; ++rep) {
        Span s(SpanId::kSetup);
        const Clock::time_point t0 = Clock::now();
        const core::GaParameters p = setting_params(o.seed, 0);
        system::GaSystem sys(system_config(p));
        supervisor::MissionSupervisor sup(supervisor_config(p));
        setups.push_back(seconds_since(t0));
    }

    spans_enable(false);
    const Phase plain = run_settings(o.seed, o.seconds, 0);
    std::uint64_t cycles = 0;
    for (const Setting& s : plain.settings) cycles += s.ga_cycles + s.supervised.total_cycles;
    const std::vector<double>& latency = plain.row_ms;
    r.set_e2e("setup_s", median(setups));
    r.set_e2e("sim_cycles_per_s", static_cast<double>(cycles) / plain.wall_s);
    r.set_e2e("results_per_s", static_cast<double>(latency.size()) / plain.wall_s);
    r.set_e2e("job_latency_p50_ms", quantile(latency, 0.50));
    r.set_e2e("job_latency_p99_ms", quantile(latency, 0.99));
    r.set_samples("setup_s", setups.size());
    r.set_samples("job_latency_ms", latency.size());

    if (o.trace) {
        spans_enable(true);
        const Phase traced = run_settings(o.seed, 0, plain.settings.size());
        std::uint64_t ga_cycles = 0, evals = 0, passes = 0, attempts = 0;
        for (const Setting& s : traced.settings) {
            ga_cycles += s.ga_cycles;
            evals += s.kernel.module_evals;
            passes += s.kernel.settle_passes;
            attempts += s.supervised.attempts.size();
        }
        const double system_s = span_totals(SpanId::kSystemRun).total_s;
        const double supervisor_s = span_totals(SpanId::kSupervisorRun).total_s;
        r.set_layer("system.run_s", system_s);
        r.set_layer("rtl.module_evals_per_cycle", static_cast<double>(evals) / ga_cycles);
        r.set_layer("rtl.settle_passes_per_cycle", static_cast<double>(passes) / ga_cycles);
        r.set_layer("core.behavioral_s", span_totals(SpanId::kCoreBehavioral).total_s);
        r.set_layer("supervisor.run_s", supervisor_s);
        r.set_layer("supervisor.overhead_frac", supervisor_s / system_s - 1.0);
        r.set_layer("supervisor.attempts", static_cast<double>(attempts));
        r.set_layer("trace.overhead_frac", traced.wall_s / plain.wall_s - 1.0);
        add_span_metrics(r);
        spans_enable(false);
        for (std::size_t i = 0; i < traced.settings.size(); ++i)
            r.check(setting_digest(traced.settings[i]) == setting_digest(plain.settings[i]),
                    "rtl_grid: traced setting " + std::to_string(i) + " differs");
    }

    for (std::size_t i = 0; i < plain.settings.size(); ++i) {
        check_setting(plain.settings[i], i, r);
        r.units.push_back(setting_digest(plain.settings[i]));
    }
    r.set_e2e("peak_rss_mb", peak_rss_mb());
    return r;
}

}  // namespace perfbench
