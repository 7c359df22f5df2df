// gate_lanes: one 512-lane BatchGateRunner block (mBF6_2, interpreter
// backend) run closed-loop by a single caller, block after block, until the
// measured time is used up. Every lane draws its own population, generation
// count, crossover/mutation thresholds and seed, so lanes finish at
// different cycles and the finished ones idle until the block ends.
//
// The runner is driven only through its public members (reconfigure,
// begin_run, step_cycle, lane_result), one step_cycle() per GA cycle, so the
// caller sees when each lane's result becomes available.
#include <memory>

#include "bench/gate_batch_runner.hpp"
#include "common.hpp"
#include "gates/jit.hpp"

namespace perfbench {
namespace {

constexpr unsigned kWords = 8;
constexpr unsigned kLanes = kWords * gates::CompiledNetlist::kWordBits;
constexpr gates::Backend kBackend = gates::Backend::kInterp;
constexpr fitness::FitnessId kFn = fitness::FitnessId::kMBf6_2;

/// Lane sizes span the repository's documented runs: pop 16 x 12
/// generations is the fault campaign's and the service bench's spec, pop 32
/// x 32 generations the ROADMAP's batched-gate baseline; XR 10 and 12 and
/// mutation 1 are the Table VII settings.
std::vector<core::GaParameters> block_params(std::uint64_t seed, unsigned block) {
    Rng g(seed, 1000 + block);
    std::vector<core::GaParameters> p(kLanes);
    for (core::GaParameters& l : p) {
        l.pop_size = static_cast<std::uint8_t>(g.range(16, 32));
        l.n_gens = static_cast<std::uint32_t>(g.range(12, 32));
        l.xover_threshold = g.range(0, 1) ? 10 : 12;
        l.mut_threshold = 1;
        l.seed = g.seed16();
    }
    return p;
}

struct Block {
    std::vector<core::GaParameters> params;
    std::vector<bench::BatchLaneResult> results;
    std::uint64_t cycles = 0;         ///< GA cycles the block simulated
    std::uint64_t unfinished_sum = 0; ///< sum of step_cycle() returns
};

struct Phase {
    double wall_s = 0;
    std::vector<Block> blocks;
    std::vector<double> latency_ms;  ///< per lane: block start -> result available
};

/// Run blocks 0.. while the next block is expected to end less than half a
/// block past `seconds` (or exactly `n_blocks` when non-zero), so a run
/// measures close to `seconds` although a block takes several seconds. Only
/// the runner's calls are timed.
Phase run_blocks(bench::BatchGateRunner& runner, std::uint64_t seed, double seconds,
                 std::size_t n_blocks) {
    Phase ph;
    Span measure(SpanId::kMeasure);
    const Clock::time_point t0 = Clock::now();
    const auto more = [&](unsigned b) {
        if (n_blocks != 0) return b < n_blocks;
        const double elapsed = seconds_since(t0);
        return b == 0 || elapsed + 0.5 * elapsed / b < seconds;
    };
    for (unsigned b = 0; more(b); ++b) {
        Block blk;
        blk.params = block_params(seed, b);
        runner.reconfigure(kFn, blk.params);
        runner.begin_run();
        const std::uint64_t bound = runner.default_cycle_bound();
        const Clock::time_point tb = Clock::now();
        std::vector<char> seen(kLanes, 0);
        std::size_t unfinished = kLanes;
        while (unfinished > 0 && runner.cycles() < bound) {
            std::size_t u;
            {
                Span s(SpanId::kBatchStep);
                u = runner.step_cycle();
            }
            blk.unfinished_sum += u;
            if (u != unfinished) {
                const double ms = seconds_since(tb) * 1e3;
                for (unsigned k = 0; k < kLanes; ++k)
                    if (!seen[k] && runner.lane_result(k).finished) {
                        seen[k] = 1;
                        ph.latency_ms.push_back(ms);
                    }
            }
            unfinished = u;
        }
        blk.cycles = runner.cycles();
        for (unsigned k = 0; k < kLanes; ++k) blk.results.push_back(runner.lane_result(k));
        ph.blocks.push_back(std::move(blk));
    }
    ph.wall_s = seconds_since(t0);
    return ph;
}

std::uint64_t lane_cycles(const Phase& ph) {
    std::uint64_t n = 0;
    for (const Block& b : ph.blocks)
        for (const bench::BatchLaneResult& l : b.results) n += l.ga_cycles;
    return n;
}

void check_blocks(const Phase& ph, std::uint64_t seed, Report& r) {
    std::vector<std::pair<std::size_t, unsigned>> lanes;
    for (std::size_t b = 0; b < ph.blocks.size(); ++b)
        for (unsigned k = 0; k < kLanes; ++k) lanes.emplace_back(b, k);
    std::vector<char> ok(lanes.size(), 0);
    parallel_for(lanes.size(), kCheckThreads, [&](std::size_t i) {
        const Block& blk = ph.blocks[lanes[i].first];
        const bench::BatchLaneResult& got = blk.results[lanes[i].second];
        const RefResult ref = behavioral_reference(kFn, blk.params[lanes[i].second]);
        ok[i] = got.finished && got.best_fitness == ref.best_fitness &&
                got.best_candidate == ref.best_candidate &&
                got.generations == ref.generations && got.evaluations == ref.evaluations;
    });
    for (std::size_t i = 0; i < lanes.size(); ++i)
        r.check(ok[i], "gate_lanes: block " + std::to_string(lanes[i].first) + " lane " +
                           std::to_string(lanes[i].second) + " differs from BehavioralEngine");

    // A seeded sample of lanes against the RT-level GaSystem, cycles included.
    // The lane runner's software FEM answers each fitness request two GA
    // cycles later than the RT-level block-ROM FEM, so a lane's ga_cycles is
    // exactly the GaSystem count plus two cycles per evaluation.
    Rng g(seed, 2);
    std::vector<std::pair<std::size_t, unsigned>> sample;
    for (int i = 0; i < 8; ++i) sample.push_back(lanes[g.range(0, lanes.size() - 1)]);
    std::vector<char> rtl_ok(sample.size(), 0);
    parallel_for(sample.size(), kCheckThreads, [&](std::size_t i) {
        const Block& blk = ph.blocks[sample[i].first];
        const bench::BatchLaneResult& got = blk.results[sample[i].second];
        const RefResult ref = rtl_reference(kFn, blk.params[sample[i].second]);
        rtl_ok[i] = got.best_fitness == ref.best_fitness &&
                    got.best_candidate == ref.best_candidate &&
                    got.evaluations == ref.evaluations &&
                    got.ga_cycles == ref.ga_cycles + 2 * ref.evaluations;
    });
    for (std::size_t i = 0; i < sample.size(); ++i)
        r.check(rtl_ok[i], "gate_lanes: block " + std::to_string(sample[i].first) + " lane " +
                               std::to_string(sample[i].second) + " differs from GaSystem");
}

std::string block_digest(const Block& b) {
    Digest d;
    d.add(b.cycles).add(b.unfinished_sum);
    for (const bench::BatchLaneResult& l : b.results)
        d.add(l.best_fitness).add(l.best_candidate).add(l.generations).add(l.evaluations).add(
            l.ga_cycles);
    return "block cycles=" + std::to_string(b.cycles) + " digest=" + d.hex();
}

}  // namespace

Report run_gate_lanes(const Options& o) {
    Report r;
    add_common_env(r, 1);
    add_gate_env(r, kWords, kBackend);

    spans_enable(o.trace);  // set-up spans, traced runs only
    // Set-up: the runner construction a user pays (netlist build + compile),
    // repeated; the median is reported.
    std::vector<double> setups;
    std::unique_ptr<bench::BatchGateRunner> runner;
    for (int rep = 0; rep < 101; ++rep) {
        Span s(SpanId::kSetup);
        const Clock::time_point t0 = Clock::now();
        runner = std::make_unique<bench::BatchGateRunner>(kFn, block_params(o.seed, 0), kWords,
                                                          kBackend);
        setups.push_back(seconds_since(t0));
    }

    spans_enable(false);
    const std::uint64_t compiles0 = gates::jit::stats().compiles;
    const Phase plain = run_blocks(*runner, o.seed, o.seconds, 0);
    std::uint64_t jit_compiles = gates::jit::stats().compiles - compiles0;

    r.set_e2e("setup_s", median(setups));
    r.set_e2e("sim_cycles_per_s", static_cast<double>(lane_cycles(plain)) / plain.wall_s);
    r.set_e2e("results_per_s",
              static_cast<double>(plain.latency_ms.size()) / plain.wall_s);
    r.set_e2e("job_latency_p50_ms", quantile(plain.latency_ms, 0.50));
    r.set_e2e("job_latency_p99_ms", quantile(plain.latency_ms, 0.99));
    r.set_samples("setup_s", setups.size());
    r.set_samples("blocks", plain.blocks.size());
    r.set_samples("job_latency_ms", plain.latency_ms.size());

    if (o.trace) {
        // Same blocks again with spans on: the difference is the tracing
        // overhead, and the per-layer split comes from this phase.
        spans_enable(true);
        const std::uint64_t c0 = gates::jit::stats().compiles;
        const Phase traced = run_blocks(*runner, o.seed, 0, plain.blocks.size());
        jit_compiles += gates::jit::stats().compiles - c0;
        KernelPair kp = make_kernel_pair(kWords, kBackend);
        std::uint64_t cycles = 0, unfinished = 0;
        for (const Block& b : traced.blocks) {
            cycles += b.cycles;
            unfinished += b.unfinished_sum;
        }
        const double kernel_s = probe_kernel_s(kp, cycles);
        const double step_s = span_totals(SpanId::kBatchStep).total_s;
        r.set_layer("gates.build_s", kp.build_s);
        r.set_layer("gates.compile_s", kp.compile_s);
        r.set_layer("gates.instructions", static_cast<double>(kp.instructions()));
        r.set_layer("gates.kernel_s", kernel_s);
        r.set_layer("batch_runner.step_s", step_s);
        r.set_layer("batch_runner.glue_s", step_s - kernel_s);
        r.set_layer("batch_runner.glue_frac", (step_s - kernel_s) / step_s);
        r.set_layer("batch_runner.lane_occupancy",
                    static_cast<double>(unfinished) / (static_cast<double>(kLanes) * cycles));
        r.set_layer("trace.overhead_frac", traced.wall_s / plain.wall_s - 1.0);
        add_span_metrics(r);
        spans_enable(false);
        for (std::size_t b = 0; b < traced.blocks.size(); ++b)
            r.check(block_digest(traced.blocks[b]) == block_digest(plain.blocks[b]),
                    "gate_lanes: traced block " + std::to_string(b) + " differs from untraced");
    }
    r.set_layer("gates.jit_compiles", static_cast<double>(jit_compiles));
    r.check(jit_compiles == 0, "gate_lanes: JIT compiled inside the timed section");

    check_blocks(plain, o.seed, r);
    for (const Block& b : plain.blocks) r.units.push_back(block_digest(b));
    r.set_e2e("peak_rss_mb", peak_rss_mb());
    return r;
}

}  // namespace perfbench
