// BatchGateRunner verification: batched lane-block gate-level GA runs must
// reproduce the RT-level GaSystem results (best fitness/candidate,
// evaluation counts, generation counts) for the same seeds and settings,
// and lanes must be fully independent of batch composition — including
// lanes that live beyond word 0 of a multi-word block.
#include <gtest/gtest.h>

#include "bench/common.hpp"
#include "fault/seu_injector.hpp"
#include "gates/batch_runner.hpp"
#include "gates/jit.hpp"
#include "system/ga_system.hpp"

namespace gaip::gates {
namespace {

using core::GaParameters;
using fitness::FitnessId;

core::RunResult run_rtl(FitnessId fn, const GaParameters& p) {
    system::GaSystemConfig cfg;
    cfg.params = p;
    cfg.internal_fems = {fn};
    cfg.keep_populations = false;
    return system::run_ga_system(cfg);
}

TEST(BatchGateRunner, LanesMatchRtlSystemResults) {
    const FitnessId fn = FitnessId::kMBf6_2;
    const std::vector<GaParameters> lanes = {
        {.pop_size = 8, .n_gens = 3, .xover_threshold = 10, .mut_threshold = 2,
         .seed = 0x2961},
        {.pop_size = 16, .n_gens = 4, .xover_threshold = 12, .mut_threshold = 1,
         .seed = 0x061F},
        {.pop_size = 9, .n_gens = 3, .xover_threshold = 14, .mut_threshold = 4,
         .seed = 0xB342},  // odd population exercises the Mu2 skip
        {.pop_size = 8, .n_gens = 3, .xover_threshold = 10, .mut_threshold = 2,
         .seed = 0xAAAA},
    };

    BatchGateRunner runner(fn, lanes);
    const std::vector<BatchLaneResult> batch = runner.run();
    ASSERT_EQ(batch.size(), lanes.size());

    for (std::size_t k = 0; k < lanes.size(); ++k) {
        SCOPED_TRACE("lane " + std::to_string(k));
        const core::RunResult rtl = run_rtl(fn, lanes[k]);
        EXPECT_TRUE(batch[k].finished);
        EXPECT_EQ(batch[k].best_fitness, rtl.best_fitness);
        EXPECT_EQ(batch[k].best_candidate, rtl.best_candidate);
        EXPECT_EQ(batch[k].evaluations, rtl.evaluations);
        EXPECT_EQ(batch[k].generations + 1, rtl.history.size())
            << "one monitor record per generation plus the initial population";
    }
}

/// The cycle-relation grid: mBF6_2, pop {16,32} x gens {6,12} x two seeds.
std::vector<GaParameters> cycle_grid() {
    std::vector<GaParameters> lanes;
    for (const std::uint8_t pop : {16, 32})
        for (const std::uint32_t gens : {6u, 12u})
            for (const std::uint16_t seed : {0x2961, 0x43BE})
                lanes.push_back({.pop_size = pop, .n_gens = gens, .xover_threshold = 12,
                                 .mut_threshold = 1, .seed = seed});
    return lanes;
}

TEST(BatchGateRunner, DefaultTimingCyclesAreGaSystemPlusTwoPerEvaluation) {
    // The default FEM model answers each request one GA cycle after it
    // rises and drops valid one cycle after the request drops, so every
    // evaluation costs the core two cycles more than against the RT-level
    // block-ROM FEM. Nothing else differs: a lane's ga_cycles is exactly
    // GaSystem::ga_cycles() + 2 x evaluations.
    const FitnessId fn = FitnessId::kMBf6_2;
    const std::vector<GaParameters> lanes = cycle_grid();
    BatchGateRunner runner(fn, lanes);
    const std::vector<BatchLaneResult> batch = runner.run();
    for (std::size_t k = 0; k < lanes.size(); ++k) {
        SCOPED_TRACE("lane " + std::to_string(k));
        system::GaSystemConfig cfg;
        cfg.params = lanes[k];
        cfg.internal_fems = {fn};
        cfg.keep_populations = false;
        system::GaSystem sys(cfg);
        const core::RunResult rtl = sys.run();
        EXPECT_EQ(batch[k].evaluations, rtl.evaluations);
        EXPECT_EQ(batch[k].ga_cycles, sys.ga_cycles() + 2 * rtl.evaluations);
    }
}

TEST(BatchGateRunner, SameCycleTimingCyclesMatchSeuInjectorGolden) {
    // FemTiming::kSameCycle answers inside the request cycle, like the
    // RT-level block-ROM FEM, and counts kStart to kDone: every lane is
    // cycle-exact against the RT-level golden run the fault campaign
    // checks its golden lane against.
    const FitnessId fn = FitnessId::kMBf6_2;
    const std::vector<GaParameters> lanes = cycle_grid();
    BatchGateRunner runner(fn, lanes, 0, Backend::kAuto, FemTiming::kSameCycle);
    const std::vector<BatchLaneResult> batch = runner.run();
    for (std::size_t k = 0; k < lanes.size(); ++k) {
        SCOPED_TRACE("lane " + std::to_string(k));
        const fault::SeuInjector injector(fault::InjectorConfig{.fn = fn, .params = lanes[k]});
        system::GaSystemConfig cfg;
        cfg.params = lanes[k];
        cfg.internal_fems = {fn};
        cfg.keep_populations = false;
        system::GaSystem sys(cfg);
        const core::RunResult rtl = sys.run();
        EXPECT_TRUE(batch[k].finished);
        EXPECT_EQ(batch[k].best_fitness, injector.golden().best_fitness);
        EXPECT_EQ(batch[k].best_candidate, injector.golden().best_candidate);
        EXPECT_EQ(batch[k].generations, injector.golden().generations);
        EXPECT_EQ(batch[k].evaluations, rtl.evaluations);
        EXPECT_EQ(batch[k].ga_cycles, injector.golden().ga_cycles);
        // GaSystem counts from the start_GA edge to the GA_done edge, two
        // cycles more than kStart to kDone.
        EXPECT_EQ(batch[k].ga_cycles + 2, sys.ga_cycles());
    }
}

TEST(BatchGateRunner, FlipLaneRegisterUpsetsOneLaneOnly) {
    // The SEU hook the fault campaign drives: one register bit, one lane.
    const GaParameters p{.pop_size = 8, .n_gens = 2, .xover_threshold = 12,
                         .mut_threshold = 1, .seed = 0x2961};
    BatchGateRunner runner(FitnessId::kOneMax, {p, p, p});
    const Net state0 = runner.register_net("state0");
    EXPECT_THROW((void)runner.register_net("no_such_register0"), std::invalid_argument);
    EXPECT_THROW(runner.flip_lane_register(3, state0), std::invalid_argument);

    runner.begin_run();
    for (int i = 0; i < 40; ++i) runner.step_cycle();
    const std::uint8_t before = runner.lane_state(0);
    runner.flip_lane_register(1, state0);
    EXPECT_EQ(runner.lane_state(0), before);
    EXPECT_EQ(runner.lane_state(1), before ^ 1u);
    EXPECT_EQ(runner.lane_state(2), before);
}

TEST(BatchGateRunner, MultiSeedSweepMatchesRtl) {
    // The paper's six FPGA seeds in one batched simulation (the Table VII
    // sweep pattern at toy size so the RT reference stays fast).
    const FitnessId fn = FitnessId::kOneMax;
    std::vector<GaParameters> lanes;
    for (const std::uint16_t seed : bench::kPaperSeeds)
        lanes.push_back({.pop_size = 8, .n_gens = 2, .xover_threshold = 12,
                         .mut_threshold = 1, .seed = seed});

    BatchGateRunner runner(fn, lanes);
    const auto batch = runner.run();
    for (std::size_t k = 0; k < lanes.size(); ++k) {
        SCOPED_TRACE("seed " + std::to_string(lanes[k].seed));
        const core::RunResult rtl = run_rtl(fn, lanes[k]);
        EXPECT_EQ(batch[k].best_fitness, rtl.best_fitness);
        EXPECT_EQ(batch[k].best_candidate, rtl.best_candidate);
    }
}

TEST(BatchGateRunner, LaneResultsIndependentOfBatchComposition) {
    const FitnessId fn = FitnessId::kMShubert2D;
    const GaParameters probe{.pop_size = 8, .n_gens = 3, .xover_threshold = 12,
                             .mut_threshold = 1, .seed = 0xA0A0};

    BatchGateRunner solo(fn, {probe});
    const auto alone = solo.run();

    std::vector<GaParameters> mixed = {
        {.pop_size = 16, .n_gens = 5, .xover_threshold = 10, .mut_threshold = 3,
         .seed = 0xFFFF},
        probe,
        {.pop_size = 12, .n_gens = 2, .xover_threshold = 14, .mut_threshold = 1,
         .seed = 0x0001},
    };
    BatchGateRunner batch(fn, mixed);
    const auto together = batch.run();

    EXPECT_EQ(together[1].best_fitness, alone[0].best_fitness);
    EXPECT_EQ(together[1].best_candidate, alone[0].best_candidate);
    EXPECT_EQ(together[1].evaluations, alone[0].evaluations);
    EXPECT_EQ(together[1].ga_cycles, alone[0].ga_cycles)
        << "a lane must not even see the other lanes' timing";
}

TEST(BatchGateRunner, RejectsEmptyAndOversizedBatches) {
    EXPECT_THROW(BatchGateRunner(FitnessId::kOneMax, {}), std::invalid_argument);
    // 65 lanes used to be the hard ceiling; with lane blocks it just means
    // a 2-word block. The ceiling is now the widest block (512 lanes).
    std::vector<GaParameters> too_many(BatchGateRunner::kMaxLanes + 1);
    EXPECT_THROW(BatchGateRunner(FitnessId::kOneMax, too_many), std::invalid_argument);
    // An explicit width that cannot hold the requested lanes is refused
    // instead of silently dropping lanes.
    std::vector<GaParameters> sixty_five(65);
    EXPECT_THROW(BatchGateRunner(FitnessId::kOneMax, sixty_five, 1), std::invalid_argument);
}

TEST(BatchGateRunner, AutoWidthPicksSmallestFittingBlock) {
    const GaParameters p{.pop_size = 8, .n_gens = 2, .xover_threshold = 12,
                         .mut_threshold = 1, .seed = 0x2961};
    EXPECT_EQ(BatchGateRunner(FitnessId::kOneMax, {p}).words(), 1u);
    EXPECT_EQ(BatchGateRunner(FitnessId::kOneMax, std::vector<GaParameters>(64, p)).words(), 1u);
    EXPECT_EQ(BatchGateRunner(FitnessId::kOneMax, std::vector<GaParameters>(65, p)).words(), 2u);
    EXPECT_EQ(BatchGateRunner(FitnessId::kOneMax, std::vector<GaParameters>(129, p)).words(),
              4u);
    EXPECT_EQ(BatchGateRunner(FitnessId::kOneMax, std::vector<GaParameters>(257, p)).words(),
              8u);
}

TEST(BatchGateRunner, LaneBeyondWordZeroMatchesSoloRun) {
    // A lane placed past bit 63 (word 1 of a 2-word block) must behave
    // exactly like a solo single-word run of the same config.
    const FitnessId fn = FitnessId::kOneMax;
    const GaParameters probe{.pop_size = 8, .n_gens = 2, .xover_threshold = 12,
                             .mut_threshold = 1, .seed = 0xA0A0};
    BatchGateRunner solo(fn, {probe});
    const auto alone = solo.run();

    std::vector<GaParameters> lanes(70, GaParameters{.pop_size = 8, .n_gens = 2,
                                                     .xover_threshold = 12,
                                                     .mut_threshold = 1, .seed = 0x1111});
    for (std::size_t k = 0; k < lanes.size(); ++k)
        lanes[k].seed = static_cast<std::uint16_t>(0x1111 + 13 * k);
    lanes[68] = probe;
    BatchGateRunner batch(fn, lanes);
    ASSERT_EQ(batch.words(), 2u);
    const auto together = batch.run();
    EXPECT_EQ(together[68].best_fitness, alone[0].best_fitness);
    EXPECT_EQ(together[68].best_candidate, alone[0].best_candidate);
    EXPECT_EQ(together[68].evaluations, alone[0].evaluations);
    EXPECT_EQ(together[68].ga_cycles, alone[0].ga_cycles)
        << "lane timing must not depend on block width or position";
}

TEST(BatchGateRunner, DefaultCycleBoundIsExactAndOverflowSafe) {
    // The bound formula now runs on saturating u64 arithmetic (sat_add_u64
    // / sat_mul_u64 — wrap-to-tiny-bound is impossible by construction;
    // the clamping itself is unit-tested in tests/util/test_bits.cpp).
    // With the max-representable parameters the formula must come out
    // exact and monotone, not wrapped.
    const GaParameters adversarial{.pop_size = 128, .n_gens = 0xFFFFFFFF,
                                   .xover_threshold = 12, .mut_threshold = 1, .seed = 1};
    BatchGateRunner runner(FitnessId::kOneMax, {adversarial});
    const std::uint64_t evals = 128ull * 0x1'0000'0000ull;
    const std::uint64_t per_eval = 64ull + 8ull * 128ull;
    EXPECT_EQ(runner.default_cycle_bound(), evals * per_eval + 100'000ull);
    EXPECT_GT(runner.default_cycle_bound(), evals) << "no wraparound";

    // Sane configs still get the exact formula value.
    const GaParameters sane{.pop_size = 16, .n_gens = 12, .xover_threshold = 12,
                            .mut_threshold = 1, .seed = 0x2961};
    BatchGateRunner ok(FitnessId::kOneMax, {sane});
    EXPECT_EQ(ok.default_cycle_bound(), (16ull * 13ull) * (64ull + 8ull * 16ull) + 100'000ull);
}

TEST(BatchGateRunner, JitBackendReproducesInterpLanes) {
    // The runner's 4th constructor parameter swaps the evaluation engine
    // under both compiled netlists (core + RNG); every per-lane result —
    // fitness, candidate, evaluation/generation counts, cycle timings —
    // must be bit-identical to the interpreter.
    if (!gates::jit::available())
        GTEST_SKIP() << "no host compiler for the JIT backend";
    const FitnessId fn = FitnessId::kMBf6_2;
    const std::vector<GaParameters> lanes = {
        {.pop_size = 8, .n_gens = 3, .xover_threshold = 10, .mut_threshold = 2,
         .seed = 0x2961},
        {.pop_size = 16, .n_gens = 4, .xover_threshold = 12, .mut_threshold = 1,
         .seed = 0x061F},
        {.pop_size = 9, .n_gens = 3, .xover_threshold = 14, .mut_threshold = 4,
         .seed = 0xB342},
    };
    BatchGateRunner interp(fn, lanes, 1, gates::Backend::kInterp);
    BatchGateRunner jitted(fn, lanes, 1, gates::Backend::kJitForce);
    ASSERT_TRUE(jitted.core_sim().jit_active());
    const std::vector<BatchLaneResult> a = interp.run();
    const std::vector<BatchLaneResult> b = jitted.run();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
        SCOPED_TRACE("lane " + std::to_string(k));
        EXPECT_EQ(a[k].finished, b[k].finished);
        EXPECT_EQ(a[k].best_fitness, b[k].best_fitness);
        EXPECT_EQ(a[k].best_candidate, b[k].best_candidate);
        EXPECT_EQ(a[k].generations, b[k].generations);
        EXPECT_EQ(a[k].evaluations, b[k].evaluations);
        EXPECT_EQ(a[k].ga_cycles, b[k].ga_cycles);
    }
}

}  // namespace
}  // namespace gaip::gates
