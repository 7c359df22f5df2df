#include "fault/campaign.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>

#include "gates/batch_runner.hpp"
#include "util/worker_pool.hpp"

namespace gaip::fault {

namespace {

using core::GaCore;

constexpr auto kStartState = static_cast<std::uint8_t>(GaCore::State::kStart);
constexpr auto kDoneState = static_cast<std::uint8_t>(GaCore::State::kDone);

/// One batch on a kSameCycle runner: lane 0 runs fault-free and must
/// reproduce the RT-level golden run bit- and cycle-exactly; lane i + 1
/// carries sites[i], flipped at the first scan-safe cycle >= its grid cycle
/// (cycle 0 = the edge that loads kStart). Pre-injection every lane is
/// bit-exact with lane 0, so lane 0's state decides scan safety for all.
/// Returns one record per site, in order.
std::vector<FaultRecord> run_batch(gates::BatchGateRunner& runner, const CampaignConfig& cfg,
                                   const GoldenRun& golden, std::span<const FaultSite> sites) {
    runner.reconfigure(cfg.fn, std::vector<core::GaParameters>(sites.size() + 1, cfg.params));
    struct Injection {
        std::uint64_t cycle;
        unsigned lane;
        gates::Net q;
    };
    std::vector<Injection> queue;
    queue.reserve(sites.size());
    for (std::size_t i = 0; i < sites.size(); ++i)
        queue.push_back({sites[i].cycle, static_cast<unsigned>(i + 1),
                         runner.register_net(sites[i].reg + std::to_string(sites[i].bit))});
    std::stable_sort(queue.begin(), queue.end(),
                     [](const Injection& a, const Injection& b) { return a.cycle < b.cycle; });
    std::vector<std::uint64_t> inject_cycle(sites.size() + 1, 0);
    runner.begin_run();

    const std::uint64_t watchdog = golden.ga_cycles * cfg.watchdog_factor + 64;
    std::optional<std::uint64_t> start;  // runner cycle of lane 0's kStart edge
    std::uint64_t prestart_guard = 4096;  // edges allowed before kStart (init handshake)
    std::size_t next = 0;
    while (true) {
        const std::size_t open = runner.step_cycle();
        const std::uint8_t gstate = runner.lane_state(0);
        if (!start) {
            if (gstate != kStartState) {
                if (--prestart_guard == 0)
                    throw std::runtime_error("FaultCampaign: optimizer never started");
                continue;
            }
            start = runner.cycles();
        }
        const std::uint64_t opt = runner.cycles() - *start;
        if (scan_safe_state(gstate)) {
            for (; next < queue.size() && queue[next].cycle <= opt; ++next) {
                runner.flip_lane_register(queue[next].lane, queue[next].q);
                inject_cycle[queue[next].lane] = opt;
            }
        } else if (gstate == kDoneState && next < queue.size()) {
            throw std::logic_error("FaultCampaign: golden run ended before injection (grid too late)");
        }
        if (open == 0 || opt >= watchdog) break;
    }

    const gates::BatchLaneResult& g = runner.lane_result(0);
    if (!g.finished || g.best_fitness != golden.best_fitness ||
        g.best_candidate != golden.best_candidate || g.ga_cycles != golden.ga_cycles)
        throw std::runtime_error(
            "FaultCampaign: golden lane diverged from the RT-level reference (finished=" +
            std::to_string(g.finished) + " fit=" + std::to_string(g.best_fitness) + "/" +
            std::to_string(golden.best_fitness) + " cand=" + std::to_string(g.best_candidate) +
            "/" + std::to_string(golden.best_candidate) + " cycles=" +
            std::to_string(g.ga_cycles) + "/" + std::to_string(golden.ga_cycles) + ")");
    if (next < queue.size())
        throw std::logic_error("FaultCampaign: site was never injected (grid too late)");

    std::vector<FaultRecord> out;
    out.reserve(sites.size());
    for (unsigned lane = 1; lane <= sites.size(); ++lane) {
        const gates::BatchLaneResult& r = runner.lane_result(lane);
        FaultRecord rec;
        rec.site = sites[lane - 1];
        rec.inject_cycle = inject_cycle[lane];
        rec.finished = r.finished;
        rec.final_state = r.finished ? kDoneState : runner.lane_state(lane);
        if (r.finished) {
            rec.best_fitness = r.best_fitness;
            rec.best_candidate = r.best_candidate;
            rec.ga_cycles = r.ga_cycles;
        }
        rec.outcome = classify(rec.finished, rec.best_fitness, rec.best_candidate,
                               rec.final_state, golden);
        out.push_back(rec);
    }
    return out;
}

}  // namespace

FaultCampaign::FaultCampaign(CampaignConfig cfg)
    : cfg_(cfg),
      injector_(InjectorConfig{.fn = cfg.fn, .params = cfg.params,
                               .watchdog_factor = cfg.watchdog_factor,
                               .fallback_preset = cfg.fallback_preset}) {
    if (cfg_.cycle_points == 0)
        throw std::invalid_argument("FaultCampaign: cycle_points must be > 0");
    if (!(cfg_.cycle_span > 0.0) || cfg_.cycle_span >= 1.0)
        throw std::invalid_argument("FaultCampaign: cycle_span must be in (0, 1)");
    if (cfg_.stride == 0) throw std::invalid_argument("FaultCampaign: stride must be > 0");
    if (cfg_.lane_words != 1 && cfg_.lane_words != 2 && cfg_.lane_words != 4 &&
        cfg_.lane_words != 8)
        throw std::invalid_argument("FaultCampaign: lane_words must be 1, 2, 4 or 8");
}

std::vector<FaultSite> FaultCampaign::enumerate_sites() const {
    const std::uint64_t span =
        static_cast<std::uint64_t>(cfg_.cycle_span * static_cast<double>(golden().ga_cycles));
    std::vector<FaultSite> sites;
    std::uint64_t idx = 0;
    for (const auto& [reg, width] : injector_.layout()) {
        for (unsigned bit = 0; bit < width; ++bit) {
            for (unsigned g = 0; g < cfg_.cycle_points; ++g) {
                if (idx++ % cfg_.stride == 0)
                    sites.push_back(FaultSite{reg, bit, span * g / cfg_.cycle_points});
                if (cfg_.max_sites != 0 && sites.size() >= cfg_.max_sites) return sites;
            }
        }
    }
    return sites;
}

CampaignResult FaultCampaign::run_gate(
    const std::vector<FaultSite>& sites,
    const std::function<void(std::size_t, std::size_t)>& progress) {
    CampaignResult res;
    res.golden = injector_.golden();
    res.preset_baseline = injector_.preset_baseline();
    res.records.reserve(sites.size());
    if (sites.empty()) return res;

    // Partition into fixed (lane_count - 1)-site batches and fan the
    // batches out across workers: each worker lazily builds ONE compiled
    // gate engine and reuses it for every batch it picks up. Results land
    // in batch-indexed slots, so record order, counts and gate_cycles are
    // identical at every thread count.
    const std::size_t per_batch =
        std::size_t{cfg_.lane_words} * gates::BatchGateRunner::kWordBits - 1;
    const std::size_t n_batches = (sites.size() + per_batch - 1) / per_batch;
    const unsigned threads = util::resolve_threads(cfg_.threads, n_batches);

    std::vector<std::unique_ptr<gates::BatchGateRunner>> runners(threads);
    std::vector<std::vector<FaultRecord>> batch_recs(n_batches);
    std::vector<std::uint64_t> batch_cycles(n_batches, 0);
    std::mutex progress_mu;
    std::size_t done = 0;

    util::parallel_for_workers(threads, n_batches, [&](unsigned worker, std::size_t b) {
        if (!runners[worker])
            runners[worker] = std::make_unique<gates::BatchGateRunner>(
                cfg_.fn, std::vector<core::GaParameters>{cfg_.params}, cfg_.lane_words,
                cfg_.backend, gates::FemTiming::kSameCycle);
        gates::BatchGateRunner& runner = *runners[worker];
        const std::size_t base = b * per_batch;
        const std::size_t n = std::min(per_batch, sites.size() - base);
        batch_recs[b] = run_batch(runner, cfg_, res.golden,
                                  std::span<const FaultSite>(sites).subspan(base, n));
        batch_cycles[b] = runner.cycles();
        if (progress) {
            const std::lock_guard<std::mutex> lock(progress_mu);
            done += n;
            progress(done, sites.size());
        }
    });

    for (std::size_t b = 0; b < n_batches; ++b) {
        res.gate_cycles += batch_cycles[b];
        for (FaultRecord& rec : batch_recs[b]) {
            res.count(rec);
            res.records.push_back(std::move(rec));
        }
    }
    res.batches = n_batches;
    return res;
}

}  // namespace gaip::fault
