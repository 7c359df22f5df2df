// Seed-parallel ensembles: IslandSystem with the interconnect off is the
// "K engines with different seeds, best-of" configuration. Each island must
// equal a standalone run with its seed, the ensemble result must be the
// best-of reduction, and the worker count must not change a bit. The suite
// names ParallelGaSystem and IslandGa are those of the engine array and the
// behavioral island model this configuration replaced, so the test ids of
// the behaviours they pinned stay stable.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/behavioral.hpp"
#include "fitness/functions.hpp"
#include "island/island.hpp"
#include "supervisor/supervisor.hpp"
#include "system/ga_system.hpp"

namespace gaip::island {
namespace {

using fitness::FitnessId;
using supervisor::BackendKind;

const core::GaParameters kSmall{.pop_size = 16, .n_gens = 8, .xover_threshold = 10,
                                .mut_threshold = 1, .seed = 0};

/// K isolated RT-level engines with explicit seeds.
IslandConfig engines(FitnessId fn, std::vector<std::uint16_t> seeds,
                     const core::GaParameters& params = kSmall) {
    IslandConfig cfg;
    cfg.fn = fn;
    cfg.base = params;
    cfg.islands = static_cast<unsigned>(seeds.size());
    cfg.seeds = std::move(seeds);
    cfg.migration.interval = 0;
    cfg.backend = BackendKind::kRtl;
    return cfg;
}

TEST(ParallelGaSystem, EnginesMatchStandaloneRunsExactly) {
    // Each engine in the ensemble must behave exactly like a standalone
    // system with the same seed: full isolation between engines.
    const IslandConfig cfg = engines(FitnessId::kMBf6_2, {0x2961, 0x061F, 0xB342});
    IslandSystem sys(cfg);
    const IslandResult r = sys.run();
    ASSERT_EQ(r.islands.size(), 3u);

    for (std::size_t i = 0; i < cfg.seeds.size(); ++i) {
        SCOPED_TRACE("engine " + std::to_string(i));
        system::GaSystemConfig solo;
        solo.params = sys.params();
        solo.params.seed = cfg.seeds[i];
        solo.internal_fems = {FitnessId::kMBf6_2};
        solo.keep_populations = false;
        system::GaSystem ref(solo);
        const core::RunResult rr = ref.run();
        const IslandStats& e = r.islands[i];
        EXPECT_EQ(e.seed, cfg.seeds[i]);
        EXPECT_EQ(e.best_candidate, rr.best_candidate);
        EXPECT_EQ(e.best_fitness, rr.best_fitness);
        EXPECT_EQ(e.evaluations, rr.evaluations);
        ASSERT_EQ(e.best_trajectory.size(), rr.history.size());
        for (std::size_t g = 0; g < rr.history.size(); ++g)
            EXPECT_EQ(e.best_trajectory[g], rr.history[g].best_fit) << "gen " << g;
        // The island counts GA edges from the core's kStart state to kDone;
        // GaSystem counts from start_GA to GA_done as sampled on the
        // peripheral clock, a constant two edges more.
        EXPECT_EQ(e.run_cycles, ref.ga_cycles() - 2);
        EXPECT_EQ(e.stall_cycles, 0u);
    }
}

TEST(ParallelGaSystem, CombinerPicksTheFittestEngine) {
    const IslandResult r =
        IslandSystem(engines(FitnessId::kMShubert2D, {0x2961, 0x061F, 0xB342, 0xAAAA})).run();

    std::uint16_t expect_best = 0;
    for (const IslandStats& e : r.islands) expect_best = std::max(expect_best, e.best_fitness);
    EXPECT_EQ(r.best_fitness, expect_best);
    EXPECT_EQ(r.islands[r.best_island].best_fitness, expect_best);
    for (unsigned i = 0; i < r.best_island; ++i)
        EXPECT_LT(r.islands[i].best_fitness, expect_best) << "ties go to the lowest engine";
    EXPECT_EQ(r.best_candidate, r.islands[r.best_island].best_candidate);
    EXPECT_EQ(r.best_fitness, fitness::fitness_u16(FitnessId::kMShubert2D, r.best_candidate));
}

TEST(ParallelGaSystem, SeedDiversityBeatsOrEqualsAnySingleEngine) {
    const core::GaParameters params{.pop_size = 32, .n_gens = 16, .xover_threshold = 10,
                                    .mut_threshold = 1, .seed = 0};
    const IslandResult r =
        IslandSystem(engines(FitnessId::kBf6, {0x2961, 0x061F, 0xB342, 0xAAAA}, params)).run();
    std::uint64_t longest = 0;
    for (const IslandStats& e : r.islands) {
        EXPECT_GE(r.best_fitness, e.best_fitness);
        longest = std::max(longest, e.run_cycles);
    }
    EXPECT_GT(r.makespan_cycles, 0u);
    EXPECT_EQ(r.makespan_cycles, longest);  // no barriers: the slowest engine
}

TEST(ParallelGaSystem, ThreadCountDoesNotChangeResults) {
    // Engines own disjoint kernels, so the worker-pool schedule must be
    // invisible: sequential (threads=1) and pooled (threads=4) runs are
    // bit-identical down to the per-generation statistics and cycles.
    auto run_with = [](unsigned threads) {
        IslandConfig cfg = engines(FitnessId::kMBf6_2, {0x2961, 0x061F, 0xB342, 0xAAAA});
        cfg.threads = threads;
        return IslandSystem(cfg).run();
    };
    const IslandResult seq = run_with(1);
    const IslandResult par = run_with(4);

    EXPECT_EQ(par.best_candidate, seq.best_candidate);
    EXPECT_EQ(par.best_fitness, seq.best_fitness);
    EXPECT_EQ(par.best_island, seq.best_island);
    EXPECT_EQ(par.makespan_cycles, seq.makespan_cycles);
    ASSERT_EQ(par.islands.size(), seq.islands.size());
    for (std::size_t i = 0; i < par.islands.size(); ++i) {
        SCOPED_TRACE("engine " + std::to_string(i));
        EXPECT_EQ(par.islands[i].best_candidate, seq.islands[i].best_candidate);
        EXPECT_EQ(par.islands[i].best_fitness, seq.islands[i].best_fitness);
        EXPECT_EQ(par.islands[i].evaluations, seq.islands[i].evaluations);
        EXPECT_EQ(par.islands[i].best_trajectory, seq.islands[i].best_trajectory);
        EXPECT_EQ(par.islands[i].run_cycles, seq.islands[i].run_cycles);
    }
}

TEST(IslandGa, SingleIslandEqualsBehavioralGa) {
    IslandConfig cfg;
    cfg.fn = FitnessId::kF2;
    cfg.base = kSmall;
    cfg.islands = 1;
    cfg.seeds = {0xB342};
    cfg.backend = BackendKind::kBehavioral;
    IslandSystem sys(cfg);
    const IslandResult r = sys.run();

    core::GaParameters p = sys.params();
    p.seed = 0xB342;
    const core::RunResult ref = core::run_behavioral_ga(
        p, [](std::uint16_t x) { return fitness::fitness_u16(FitnessId::kF2, x); },
        cfg.rng_kind, /*keep_populations=*/false);
    EXPECT_EQ(r.best_candidate, ref.best_candidate);
    EXPECT_EQ(r.best_fitness, ref.best_fitness);
    EXPECT_EQ(r.islands[0].evaluations, ref.evaluations);
    ASSERT_EQ(r.islands[0].best_trajectory.size(), ref.history.size());
    for (std::size_t g = 0; g < ref.history.size(); ++g)
        EXPECT_EQ(r.islands[0].best_trajectory[g], ref.history[g].best_fit) << "gen " << g;
}

TEST(IslandGa, ZeroIslandsRejected) {
    for (BackendKind backend :
         {BackendKind::kBehavioral, BackendKind::kRtl, BackendKind::kGateLane}) {
        IslandConfig cfg;
        cfg.base = kSmall;
        cfg.islands = 0;
        cfg.backend = backend;
        EXPECT_THROW(IslandSystem{cfg}, std::invalid_argument);
    }
}

}  // namespace
}  // namespace gaip::island
