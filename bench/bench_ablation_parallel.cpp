// Ablation: parallel configurations (Sec. II-B's acceleration direction).
// Compares, at EQUAL total evaluation budget:
//   * one big population (the plain core),
//   * K seed-parallel engines, best-of: the RT-level IslandSystem with the
//     migration interconnect off (also reports the wall-clock advantage:
//     K engines run concurrently),
//   * K islands with ring migration on the same RT-level ensemble.
#include <chrono>
#include <thread>

#include "bench/common.hpp"
#include "fitness/functions.hpp"
#include "island/island.hpp"

namespace {

using namespace gaip;

/// Four RT-level engines, pop 32 x 32 gens each, one seed per engine, no
/// migration: K independent seed-parallel runs.
island::IslandConfig four_engines(fitness::FitnessId fn) {
    island::IslandConfig cfg;
    cfg.fn = fn;
    cfg.base = {.pop_size = 32, .n_gens = 32, .xover_threshold = 10, .mut_threshold = 1,
                .seed = 0};
    cfg.islands = 4;
    cfg.seeds = {0x2961, 0x061F, 0xB342, 0xAAAA};
    cfg.migration.interval = 0;
    cfg.backend = supervisor::BackendKind::kRtl;
    return cfg;
}

std::uint64_t total_evaluations(const island::IslandResult& r) {
    std::uint64_t evals = 0;
    for (const island::IslandStats& s : r.islands) evals += s.evaluations;
    return evals;
}

/// Host wall-clock of an IslandSystem::run with a given worker pool size;
/// the results must be (and are, see IslandDifferential.ThreadCountInvariant)
/// bit-identical, so only the timing changes.
double timed_run_ms(island::IslandConfig cfg, unsigned threads, island::IslandResult& out) {
    cfg.threads = threads;
    island::IslandSystem sys(cfg);
    const auto t0 = std::chrono::steady_clock::now();
    out = sys.run();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main() {
    bench::banner("Ablation — parallel GA configurations",
                  "single population vs seed-parallel engines vs islands with migration");

    const auto fns = {fitness::FitnessId::kMBf6_2, fitness::FitnessId::kMShubert2D,
                      fitness::FitnessId::kBf6};

    for (const auto fn : fns) {
        std::printf("\n%s (total budget ~4096 evaluations):\n",
                    fitness::fitness_name(fn).c_str());
        util::TextTable table({"Configuration", "Best fitness", "Evaluations",
                               "HW cycles (wall)", "Note"});

        // Single population: pop 64 x 64 gens.
        {
            system::GaSystemConfig cfg;
            cfg.params = {.pop_size = 64, .n_gens = 64, .xover_threshold = 10,
                          .mut_threshold = 1, .seed = 0x2961};
            cfg.internal_fems = {fn};
            cfg.keep_populations = false;
            system::GaSystem sys(cfg);
            const core::RunResult r = sys.run();
            table.add("1 engine, pop 64, 64 gens", r.best_fitness,
                      static_cast<unsigned long long>(r.evaluations),
                      static_cast<unsigned long long>(sys.ga_cycles()), "baseline");
        }

        // Four parallel engines: pop 32 x 32 gens each (same total evals),
        // each with its own seed; they run CONCURRENTLY so the wall-clock
        // cycle count (the makespan) is roughly a quarter of the sequential
        // equivalent.
        {
            const island::IslandResult r = island::run_island_system(four_engines(fn));
            table.add("4 engines, pop 32, 32 gens, best-of", r.best_fitness,
                      static_cast<unsigned long long>(total_evaluations(r)),
                      static_cast<unsigned long long>(r.makespan_cycles),
                      "engine " + std::to_string(r.best_island) + " won");
        }

        // The same four engines with the migration interconnect on: every 8
        // generations each island's best member replaces its ring
        // neighbour's worst (a second BRAM port in HW). The makespan
        // includes the barrier stalls.
        {
            island::IslandConfig cfg = four_engines(fn);
            cfg.topology = island::Topology::kRing;
            cfg.migration.interval = 8;
            cfg.migration.count = 1;
            const island::IslandResult r = island::run_island_system(cfg);
            table.add("4 islands, ring migration every 8 gens", r.best_fitness,
                      static_cast<unsigned long long>(total_evaluations(r)),
                      static_cast<unsigned long long>(r.makespan_cycles),
                      "island " + std::to_string(r.best_island) + " won");
        }

        table.print();
        table.write_csv(bench::out_path(std::string("ablation_parallel_") +
                                        fitness::fitness_name(fn) + ".csv"));
    }

    // Host-side threading ablation: the same 4-engine ensemble simulated by
    // a 1-thread pool vs a 4-thread pool. Each engine owns its kernel, so
    // this is embarrassingly parallel; on a host with at least 4 hardware
    // threads the speedup approaches the engine count. With fewer, the pool
    // time-slices and the ratio measures nothing about scaling.
    {
        constexpr unsigned kPool = 4;
        const unsigned hw = std::thread::hardware_concurrency();
        std::printf("\nHost simulation threading (4 engines, pop 32 x 32 gens, mBF6_2):\n");
        util::TextTable table({"Worker threads", "Wall ms", "Speedup", "Best fitness",
                               "Identical results"});
        const island::IslandConfig cfg = four_engines(fitness::FitnessId::kMBf6_2);

        island::IslandResult seq, pooled;
        const double ms1 = timed_run_ms(cfg, 1, seq);
        const double ms4 = timed_run_ms(cfg, kPool, pooled);
        const bool identical = seq.best_candidate == pooled.best_candidate &&
                               seq.best_fitness == pooled.best_fitness &&
                               seq.best_island == pooled.best_island &&
                               seq.makespan_cycles == pooled.makespan_cycles;
        char speedup[32] = "unmeasured";
        if (hw >= kPool) std::snprintf(speedup, sizeof speedup, "%.2fx", ms1 / ms4);
        table.add("1 (sequential)", static_cast<unsigned long long>(ms1), "1.00x",
                  seq.best_fitness, "-");
        table.add("4 (pool)", static_cast<unsigned long long>(ms4), speedup,
                  pooled.best_fitness, identical ? "yes" : "NO (BUG)");
        table.print();
        table.write_csv(bench::out_path("ablation_parallel_threads.csv"));
        std::printf("(hardware_concurrency=%u; the speedup is unmeasured below %u)\n", hw,
                    kPool);
    }

    std::cout << "\nReadings: at equal budget, seed-parallel engines match or beat the single\n"
                 "large population on multimodal landscapes while finishing in ~1/4 of the\n"
                 "wall-clock cycles (concurrent hardware) — the cheapest use of the core's\n"
                 "programmable seed. Migration adds barrier stalls to the makespan and\n"
                 "shares the best members between the islands.\n";
    return 0;
}
