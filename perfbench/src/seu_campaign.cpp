// seu_campaign: the exhaustive mBF6_2 SEU campaign (405 scan-chain bits x
// 25 cycle points = 10,125 injections), run as 512-lane batches on the JIT
// backend with 2 workers, closed-loop, campaign after campaign until the
// measured time is used up. Campaign k of seed s runs the default campaign
// configuration with its own GA seed (seed 0 starts with the repository's
// default GA seed 0x2961). Golden runs and the JIT load are set-up; only
// FaultCampaign::run_gate is timed.
#include <map>
#include <mutex>

#include "common.hpp"
#include "fault/campaign.hpp"
#include "gates/jit.hpp"

namespace perfbench {
namespace {

constexpr unsigned kWords = 8;
constexpr unsigned kLanes = kWords * gates::CompiledNetlist::kWordBits;
constexpr unsigned kThreads = 2;
constexpr gates::Backend kBackend = gates::Backend::kJit;
constexpr std::uint16_t kDefaultGaSeed = 0x2961;

fault::CampaignConfig campaign_config(std::uint16_t ga_seed) {
    fault::CampaignConfig c;
    c.params.seed = ga_seed;
    c.lane_words = kWords;
    c.threads = kThreads;
    c.backend = kBackend;
    return c;
}

std::uint16_t campaign_seed(std::uint64_t seed, unsigned k) {
    if (seed == 0 && k == 0) return kDefaultGaSeed;
    return Rng(seed, 3000 + k).seed16();
}

struct Campaign {
    std::uint16_t ga_seed = 0;
    fault::CampaignResult result;
    double run_s = 0;
    std::vector<double> completion_ms;  ///< progress callbacks, from run_gate entry
    std::vector<std::size_t> done;      ///< cumulative injections at each callback
    std::string error;                  ///< run_gate threw (golden-lane mismatch, ...)
};

struct Phase {
    std::vector<Campaign> campaigns;
    double run_s = 0;
};

Phase run_campaigns(std::uint64_t seed, double seconds, std::size_t n_campaigns) {
    Phase ph;
    for (unsigned k = 0; n_campaigns != 0 ? k < n_campaigns : ph.run_s < seconds; ++k) {
        Campaign c;
        c.ga_seed = campaign_seed(seed, k);
        std::unique_ptr<fault::FaultCampaign> camp;
        {
            Span s(SpanId::kFaultSetup);
            camp = std::make_unique<fault::FaultCampaign>(campaign_config(c.ga_seed));
        }
        const std::vector<fault::FaultSite> sites = camp->enumerate_sites();
        std::mutex mu;
        Span measure(SpanId::kMeasure);
        const Clock::time_point t0 = Clock::now();
        try {
            Span s(SpanId::kFaultRunGate);
            c.result = camp->run_gate(sites, [&](std::size_t done, std::size_t) {
                const double ms = seconds_since(t0) * 1e3;
                std::lock_guard<std::mutex> lk(mu);
                c.completion_ms.push_back(ms);
                c.done.push_back(done);
            });
        } catch (const std::exception& ex) {
            c.error = ex.what();
        }
        c.run_s = seconds_since(t0);
        ph.run_s += c.run_s;
        ph.campaigns.push_back(std::move(c));
    }
    return ph;
}

std::string campaign_digest(const Campaign& c) {
    const fault::CampaignResult& r = c.result;
    Digest d;
    for (const fault::FaultRecord& rec : r.records)
        d.add(static_cast<std::uint64_t>(rec.outcome)).add(rec.inject_cycle).add(rec.finished)
            .add(rec.best_fitness).add(rec.best_candidate).add(rec.ga_cycles).add(rec.final_state);
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "campaign seed=%04x masked=%llu wrong=%llu hang=%llu recovered=%llu "
                  "gate_cycles=%llu batches=%zu golden_cycles=%llu digest=",
                  c.ga_seed, static_cast<unsigned long long>(r.masked),
                  static_cast<unsigned long long>(r.wrong), static_cast<unsigned long long>(r.hang),
                  static_cast<unsigned long long>(r.recovered),
                  static_cast<unsigned long long>(r.gate_cycles), r.batches,
                  static_cast<unsigned long long>(r.golden.ga_cycles));
    return buf + d.hex();
}

void check_campaign(const Campaign& c, std::uint64_t seed, unsigned k, Report& r,
                    std::uint64_t& scan_disagreements) {
    const std::string tag = "seu_campaign: campaign " + std::to_string(k) + ": ";
    r.check(c.error.empty(), tag + "run_gate failed: " + c.error);
    if (!c.error.empty()) return;
    const fault::CampaignResult& res = c.result;
    const fault::CampaignConfig cfg = campaign_config(c.ga_seed);

    // The golden lane: every batch already compared lane 0 with the RT-level
    // golden run (run_gate throws otherwise); pin that run to the
    // behavioral reference too.
    const RefResult ref = behavioral_reference(cfg.fn, cfg.params);
    r.check(res.golden.best_fitness == ref.best_fitness &&
                res.golden.best_candidate == ref.best_candidate &&
                res.golden.generations == ref.generations,
            tag + "golden run differs from BehavioralEngine");
    r.check(res.records.size() == fault::FaultCampaign(cfg).enumerate_sites().size() &&
                res.masked + res.wrong + res.hang + res.recovered == res.records.size(),
            tag + "taxonomy does not cover every injection");
    if (c.ga_seed == kDefaultGaSeed)
        r.check(res.masked == 7915 && res.wrong == 1445 && res.hang == 759 && res.recovered == 6,
                tag + "default-seed taxonomy is not 7915/1445/759/6");

    // Replay a seeded sample — one record of each outcome class present plus
    // two at random — on the RT level through both injection backends. The
    // poke backend edits state between two edges exactly as the lane-mask
    // injection does, so it must reproduce the record in full: that is the
    // correctness check of the timed lane-mask records. The scan backend
    // freezes the core while the chain shifts; src/fault/ documents it as
    // equivalent, but on some state[0] sites it classifies differently (a
    // known defect of the scan backend, see perfbench/README.md). The scan
    // backend is not timed here, so its disagreements are reported on every
    // run as known defects, and fault.scan_replay_disagreements counts them,
    // but they do not fail the timed work.
    std::map<fault::FaultOutcome, std::size_t> first;
    for (std::size_t i = 0; i < res.records.size(); ++i) first.emplace(res.records[i].outcome, i);
    std::vector<std::size_t> picks;
    for (const auto& [outcome, i] : first) picks.push_back(i);
    Rng g(seed, 4000 + k);
    for (int i = 0; i < 2; ++i) picks.push_back(g.range(0, res.records.size() - 1));
    const fault::FaultCampaign camp(cfg);
    std::vector<char> poke_ok(picks.size(), 0), scan_ok(picks.size(), 0);
    parallel_for(picks.size() * 2, kCheckThreads, [&](std::size_t i) {
        const fault::FaultRecord& want = res.records[picks[i / 2]];
        if (i % 2 == 0) {
            const fault::FaultRecord got = camp.run_rtl(want.site, fault::InjectBackend::kPoke);
            poke_ok[i / 2] = got.outcome == want.outcome && got.inject_cycle == want.inject_cycle &&
                             got.finished == want.finished &&
                             got.best_fitness == want.best_fitness &&
                             got.best_candidate == want.best_candidate &&
                             got.ga_cycles == want.ga_cycles && got.final_state == want.final_state;
        } else {
            const fault::FaultRecord got = camp.run_rtl(want.site, fault::InjectBackend::kScan);
            scan_ok[i / 2] = got.outcome == want.outcome && got.best_fitness == want.best_fitness;
        }
    });
    for (std::size_t i = 0; i < picks.size(); ++i) {
        const fault::FaultRecord& want = res.records[picks[i]];
        r.check(poke_ok[i], tag + "record " + std::to_string(picks[i]) +
                                " replays differently on the poke backend");
        char site[160];
        std::snprintf(site, sizeof(site), "%s[%u] @ cycle %llu (GA seed 0x%04x)",
                      want.site.reg.c_str(), want.site.bit,
                      static_cast<unsigned long long>(want.site.cycle), c.ga_seed);
        scan_disagreements += !scan_ok[i];
        if (!scan_ok[i])
            r.known_defect(tag + "scan-backend replay of " + site +
                           " classifies differently from the lane-mask and poke records");
    }
}

/// Injection latency: each injection's result is available when its batch
/// completes, counted from run_gate entry.
std::vector<double> injection_latency_ms(const Phase& ph) {
    std::vector<double> v;
    for (const Campaign& c : ph.campaigns) {
        std::size_t prev = 0;
        for (std::size_t i = 0; i < c.done.size(); ++i) {
            v.insert(v.end(), c.done[i] - prev, c.completion_ms[i]);
            prev = c.done[i];
        }
    }
    return v;
}

}  // namespace

Report run_seu_campaign(const Options& o) {
    Report r;
    add_common_env(r, kThreads);
    add_gate_env(r, kWords, kBackend);

    spans_enable(o.trace);  // set-up spans, traced runs only
    // Prime the private JIT cache (compiles only when the cache is cold).
    {
        KernelPair prime = make_kernel_pair(kWords, kBackend);
        r.check(prime.core.jit_active() && prime.rng.jit_active(),
                "seu_campaign: the JIT backend fell back to the interpreter");
    }
    // Set-up, repeated with an empty module registry so each repetition
    // pays the warm-cache JIT load: the golden runs (FaultCampaign
    // construction) plus a one-injection run_gate that loads the artifacts.
    std::vector<double> setups, fault_setups;
    for (int rep = 0; rep < 7; ++rep) {
        gates::jit::clear_module_registry();
        Span s(SpanId::kSetup);
        const Clock::time_point t0 = Clock::now();
        std::unique_ptr<fault::FaultCampaign> camp;
        {
            Span fs(SpanId::kFaultSetup);
            camp = std::make_unique<fault::FaultCampaign>(campaign_config(campaign_seed(o.seed, 0)));
        }
        fault_setups.push_back(seconds_since(t0));
        std::vector<fault::FaultSite> sites = camp->enumerate_sites();
        sites.resize(1);
        (void)camp->run_gate(sites);
        setups.push_back(seconds_since(t0));
    }

    spans_enable(false);
    const std::uint64_t compiles0 = gates::jit::stats().compiles;
    const Phase plain = run_campaigns(o.seed, o.seconds, 0);
    std::uint64_t jit_compiles = gates::jit::stats().compiles - compiles0;

    std::uint64_t injections = 0, lane_cycles = 0;
    for (const Campaign& c : plain.campaigns) {
        injections += c.result.records.size();
        lane_cycles += c.result.gate_cycles * kLanes;
    }
    const std::vector<double> latency = injection_latency_ms(plain);
    r.set_e2e("setup_s", median(setups));
    r.set_e2e("sim_cycles_per_s", static_cast<double>(lane_cycles) / plain.run_s);
    r.set_e2e("results_per_s", static_cast<double>(injections) / plain.run_s);
    r.set_e2e("job_latency_p50_ms", quantile(latency, 0.50));
    r.set_e2e("job_latency_p99_ms", quantile(latency, 0.99));
    r.set_samples("setup_s", setups.size());
    r.set_samples("campaigns", plain.campaigns.size());
    r.set_samples("job_latency_ms", latency.size());

    if (o.trace) {
        spans_enable(true);
        const std::uint64_t c0 = gates::jit::stats().compiles;
        const Phase traced = run_campaigns(o.seed, 0, plain.campaigns.size());
        jit_compiles += gates::jit::stats().compiles - c0;

        // Cold compile into a fresh cache, then the warm-cache load the
        // set-up pays, each through the public gates API.
        const std::string warm_cache = gates::jit::cache_dir();
        use_jit_cache(o.workdir + "/cold-jit");
        gates::jit::clear_module_registry();
        const double cold_s = make_kernel_pair(kWords, gates::Backend::kJitForce).compile_s;
        use_jit_cache(warm_cache);
        gates::jit::clear_module_registry();
        KernelPair kp = make_kernel_pair(kWords, kBackend);

        std::uint64_t gate_cycles = 0;
        std::vector<double> batch_ms;
        for (const Campaign& c : traced.campaigns) {
            gate_cycles += c.result.gate_cycles;
            for (std::size_t i = 0; i < c.completion_ms.size(); ++i)
                batch_ms.push_back(c.completion_ms[i] - (i ? c.completion_ms[i - 1] : 0.0));
        }
        const double kernel_s = probe_kernel_s(kp, gate_cycles);
        const fault::CampaignResult& first = traced.campaigns.front().result;
        r.set_layer("gates.build_s", kp.build_s);
        r.set_layer("gates.compile_s", kp.compile_s);
        r.set_layer("gates.jit_cold_s", cold_s);
        r.set_layer("gates.instructions", static_cast<double>(kp.instructions()));
        r.set_layer("gates.kernel_s", kernel_s);
        r.set_layer("fault.setup_s", median(fault_setups));
        r.set_layer("fault.batch_ms_p50", quantile(batch_ms, 0.5));
        r.set_layer("fault.batch_ms_max", quantile(batch_ms, 1.0));
        r.set_layer("fault.batches", static_cast<double>(first.batches));
        r.set_layer("fault.gate_cycles", static_cast<double>(first.gate_cycles));
        r.set_layer("fault.lane_fill", static_cast<double>(first.records.size()) /
                                           (static_cast<double>(first.batches) * (kLanes - 1)));
        r.set_layer("fault.kernel_s", kernel_s);
        r.set_layer("fault.glue_frac", 1.0 - kernel_s / (traced.run_s * kThreads));
        r.set_layer("trace.overhead_frac", traced.run_s / plain.run_s - 1.0);
        add_span_metrics(r);
        spans_enable(false);
        for (std::size_t k = 0; k < traced.campaigns.size(); ++k)
            r.check(campaign_digest(traced.campaigns[k]) == campaign_digest(plain.campaigns[k]),
                    "seu_campaign: traced campaign " + std::to_string(k) + " differs");
    }
    r.set_layer("gates.jit_compiles", static_cast<double>(jit_compiles));
    r.check(jit_compiles == 0, "seu_campaign: JIT compiled inside the timed section");

    std::uint64_t scan_disagreements = 0;
    for (std::size_t k = 0; k < plain.campaigns.size(); ++k) {
        check_campaign(plain.campaigns[k], o.seed, static_cast<unsigned>(k), r, scan_disagreements);
        r.units.push_back(campaign_digest(plain.campaigns[k]));
    }
    r.set_layer("fault.scan_replay_disagreements", static_cast<double>(scan_disagreements));
    r.set_e2e("peak_rss_mb", peak_rss_mb());
    return r;
}

}  // namespace perfbench
