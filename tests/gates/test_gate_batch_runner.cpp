// BatchGateRunner verification: batched lane-block gate-level GA runs must
// reproduce the RT-level GaSystem results (best fitness/candidate,
// evaluation counts, generation counts) for the same seeds and settings,
// and lanes must be fully independent of batch composition — including
// lanes that live beyond word 0 of a multi-word block, lanes the runner
// placed in another slot, and lanes of words it stopped stepping.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <tuple>

#include "bench/common.hpp"
#include "fault/seu_injector.hpp"
#include "gates/batch_runner.hpp"
#include "gates/jit.hpp"
#include "system/ga_system.hpp"
#include "trace/event.hpp"
#include "trace/vcd.hpp"

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

/// Mixed-length lanes: pop 16..32 x gens 4..20 x four seeds (100 lanes, a
/// 2-word block), so lanes finish at many different cycles.
std::vector<GaParameters> mixed_length_lanes() {
    std::vector<GaParameters> lanes;
    for (const std::uint8_t pop : {16, 20, 24, 28, 32})
        for (const std::uint32_t gens : {4u, 8u, 12u, 16u, 20u})
            for (const std::uint16_t seed : {0x2961, 0x43BE, 0x061F, 0xB342})
                lanes.push_back({.pop_size = pop,
                                 .n_gens = gens,
                                 .xover_threshold = static_cast<std::uint8_t>(seed & 1 ? 10 : 12),
                                 .mut_threshold = 1,
                                 .seed = static_cast<std::uint16_t>(seed + pop + gens)});
    return lanes;
}

TEST(BatchGateRunner, FinishedLanesAreAFixedPoint) {
    // Once a lane has finished, nothing of it moves again: no core register
    // bit, no GA memory cell, not its FSM state or bank bit. The runner
    // relies on this to stop visiting finished lanes and to stop
    // evaluating lane words whose lanes have all finished.
    constexpr std::uint64_t kHold = 2000;
    const std::unique_ptr<GaCoreNetlist> src = build_ga_core_netlist();
    const std::vector<Net> regs = src->nl.register_q_nets();
    const std::vector<GaParameters> lanes = mixed_length_lanes();
    for (const FemTiming timing : {FemTiming::kNextCycle, FemTiming::kSameCycle}) {
        SCOPED_TRACE(timing == FemTiming::kNextCycle ? "kNextCycle" : "kSameCycle");
        BatchGateRunner runner(FitnessId::kMBf6_2, lanes, 2, Backend::kInterp, timing);
        ASSERT_EQ(runner.words(), 2u);
        struct Snapshot {
            std::uint64_t until = 0;  ///< last cycle the lane is held to it
            std::vector<char> regs;
            std::vector<std::uint32_t> mem;
            std::uint8_t state = 0;
            bool bank = false;
        };
        const auto take = [&](unsigned lane) {
            Snapshot s;
            s.until = runner.cycles() + kHold;
            for (const Net q : regs)
                s.regs.push_back(runner.core_sim().value(q, runner.lane_slot(lane)));
            for (unsigned a = 0; a < 256; ++a)
                s.mem.push_back(runner.peek_lane_mem(lane, static_cast<std::uint8_t>(a)));
            s.state = runner.lane_state(lane);
            s.bank = runner.lane_bank(lane);
            return s;
        };
        std::vector<std::optional<Snapshot>> held(lanes.size());
        runner.begin_run();
        const std::uint64_t bound = runner.default_cycle_bound();
        std::uint64_t last_until = bound;
        std::size_t finished = 0;
        while (runner.cycles() < std::min(bound, last_until)) {
            runner.step_cycle();
            for (unsigned k = 0; k < lanes.size(); ++k) {
                std::optional<Snapshot>& h = held[k];
                if (!h) {
                    if (!runner.lane_result(k).finished) continue;
                    h = take(k);
                    if (++finished == lanes.size()) last_until = h->until;
                    continue;
                }
                if (runner.cycles() > h->until) continue;
                const Snapshot now = take(k);
                ASSERT_EQ(now.regs, h->regs) << "lane " << k << " cycle " << runner.cycles();
                ASSERT_EQ(now.mem, h->mem) << "lane " << k << " cycle " << runner.cycles();
                ASSERT_EQ(now.state, h->state) << "lane " << k;
                ASSERT_EQ(now.bank, h->bank) << "lane " << k;
            }
        }
        ASSERT_EQ(finished, lanes.size());
        EXPECT_EQ(runner.cycles(), last_until) << "every lane was held for the full window";
    }
}

TEST(BatchGateRunner, MemoryBackdoorIsInRangeBeforeTheFirstRun) {
    // The GA memory is sized with the lanes, not first by a run: a fresh
    // runner and a reconfigured one both peek and poke in range, zeroed,
    // with the [addr][lane] stride of the current lane count.
    const GaParameters p{.pop_size = 8, .n_gens = 2, .xover_threshold = 12,
                         .mut_threshold = 1, .seed = 0x2961};
    BatchGateRunner runner(FitnessId::kMBf6_2, {p});
    EXPECT_EQ(runner.peek_lane_mem(0, 255), 0u);
    runner.poke_lane_mem(0, 255, 0xDEADBEEF);
    EXPECT_EQ(runner.peek_lane_mem(0, 255), 0xDEADBEEFu);

    runner.reconfigure(FitnessId::kMBf6_2, std::vector<GaParameters>(64, p));
    for (const unsigned lane : {0u, 1u, 62u, 63u})
        for (const unsigned addr : {0u, 1u, 254u, 255u})
            EXPECT_EQ(runner.peek_lane_mem(lane, static_cast<std::uint8_t>(addr)), 0u);
    runner.poke_lane_mem(63, 255, 0x12345678);
    runner.poke_lane_mem(0, 1, 0x9ABCDEF0);
    EXPECT_EQ(runner.peek_lane_mem(63, 255), 0x12345678u);
    EXPECT_EQ(runner.peek_lane_mem(0, 1), 0x9ABCDEF0u);
    EXPECT_EQ(runner.peek_lane_mem(62, 255), 0u);
    EXPECT_EQ(runner.peek_lane_mem(63, 254), 0u);
    EXPECT_EQ(runner.peek_lane_mem(1, 1), 0u);

    runner.reconfigure(FitnessId::kMBf6_2, {p});
    EXPECT_EQ(runner.peek_lane_mem(0, 255), 0u);
    EXPECT_EQ(runner.peek_lane_mem(0, 1), 0u);
    EXPECT_THROW((void)runner.peek_lane_mem(1, 0), std::invalid_argument);
    EXPECT_TRUE(runner.run().front().finished);
}

TEST(BatchGateRunner, ReconfigureDetachesTheVcdWriter) {
    // A writer outlives one run; the next job set must not sample into it.
    const GaParameters p{.pop_size = 8, .n_gens = 2, .xover_threshold = 12,
                         .mut_threshold = 1, .seed = 0x2961};
    const std::string path =
        (std::filesystem::temp_directory_path() / "gaip_reconfigure_vcd.vcd").string();
    BatchGateRunner runner(FitnessId::kOneMax, {p});
    {
        trace::VcdWriter vcd(path);
        runner.add_vcd(&vcd, {0});
        EXPECT_TRUE(runner.run().front().finished);
    }
    const auto size = std::filesystem::file_size(path);
    runner.reconfigure(FitnessId::kOneMax, {p, p});
    EXPECT_TRUE(runner.run().back().finished);
    EXPECT_EQ(std::filesystem::file_size(path), size);
    std::filesystem::remove(path);
}

/// A pool of nine lane configs of different run lengths.
std::vector<GaParameters> length_pool() {
    std::vector<GaParameters> pool;
    for (const std::uint8_t pop : {16, 24, 32})
        for (const std::uint32_t gens : {2u, 5u, 8u})
            pool.push_back({.pop_size = pop,
                            .n_gens = gens,
                            .xover_threshold = 12,
                            .mut_threshold = 1,
                            .seed = static_cast<std::uint16_t>(0x1357 * pop + 31 * gens)});
    return pool;
}

/// Lane k of a shuffled mixed-length batch runs pool config pick[k].
std::vector<unsigned> shuffled_picks(std::size_t lanes, std::size_t pool) {
    std::vector<unsigned> pick(lanes);
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (unsigned& p : pick) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        p = static_cast<unsigned>((x >> 33) % pool);
    }
    return pick;
}

/// Checks a lane's events against a recorded stream as they arrive.
class ExpectSink final : public trace::TraceSink {
public:
    explicit ExpectSink(const std::vector<trace::TraceEvent>* want) : want_(want) {}
    void on_event(const trace::TraceEvent& e) override {
        if (next_ >= want_->size() || (*want_)[next_] != e) ok_ = false;
        ++next_;
    }
    bool matched() const { return ok_ && next_ == want_->size(); }

private:
    const std::vector<trace::TraceEvent>* want_;
    std::size_t next_ = 0;
    bool ok_ = true;
};

struct SoloRun {
    BatchLaneResult result;
    std::vector<trace::TraceEvent> events;
};

SoloRun run_solo(const GaParameters& p, FemTiming timing) {
    BatchGateRunner solo(FitnessId::kMBf6_2, {p}, 1, Backend::kInterp, timing);
    trace::MemorySink sink;
    solo.set_lane_sink(0, &sink);
    return {solo.run().front(), sink.take()};
}

void expect_same_result(const BatchLaneResult& got, const BatchLaneResult& want) {
    EXPECT_TRUE(got.finished);
    EXPECT_EQ(got.best_fitness, want.best_fitness);
    EXPECT_EQ(got.best_candidate, want.best_candidate);
    EXPECT_EQ(got.generations, want.generations);
    EXPECT_EQ(got.evaluations, want.evaluations);
    EXPECT_EQ(got.ga_cycles, want.ga_cycles);
}

TEST(BatchGateRunner, ShuffledMixedLanesMatchSoloRuns) {
    // Placement by run length and event-driven stepping are invisible per
    // lane: in a shuffled mixed-length batch at every width, timing and
    // backend, every lane's result and telemetry stream equal the same
    // config run alone.
    const std::vector<GaParameters> pool = length_pool();
    std::vector<Backend> backends = {Backend::kInterp};
    if (jit::available()) backends.push_back(Backend::kJitForce);
    for (const FemTiming timing : {FemTiming::kNextCycle, FemTiming::kSameCycle}) {
        std::vector<SoloRun> solo;
        for (const GaParameters& p : pool) solo.push_back(run_solo(p, timing));
        for (const unsigned words : {1u, 2u, 4u, 8u}) {
            // A partly filled last word, so the placement crosses words.
            const std::vector<unsigned> pick = shuffled_picks(64 * words - 7, pool.size());
            std::vector<GaParameters> lanes;
            for (const unsigned c : pick) lanes.push_back(pool[c]);
            for (const Backend backend : backends) {
                SCOPED_TRACE(std::string(timing == FemTiming::kNextCycle ? "kNextCycle" : "kSameCycle") +
                             " words=" + std::to_string(words) + " " + backend_name(backend));
                BatchGateRunner runner(FitnessId::kMBf6_2, lanes, words, backend, timing);
                std::vector<ExpectSink> sinks;
                sinks.reserve(lanes.size());
                for (const unsigned c : pick) sinks.emplace_back(&solo[c].events);
                for (unsigned k = 0; k < lanes.size(); ++k) runner.set_lane_sink(k, &sinks[k]);
                const std::vector<BatchLaneResult> got = runner.run();
                bool moved = false;
                for (unsigned k = 0; k < lanes.size(); ++k) {
                    SCOPED_TRACE("lane " + std::to_string(k));
                    expect_same_result(got[k], solo[pick[k]].result);
                    EXPECT_TRUE(sinks[k].matched());
                    moved = moved || runner.lane_slot(k) != k;
                }
                EXPECT_TRUE(moved) << "the placement reordered nothing";
                if (words > 1)
                    EXPECT_LT(runner.usage().live_word_cycles,
                              std::uint64_t{words} * runner.cycles())
                        << "no lane word retired before the end of the run";
            }
        }
    }
}

TEST(BatchGateRunner, PerLaneCallsAddressTheCallersLane) {
    // Lanes listed shortest first, so placement reverses them; every
    // per-lane call must still reach the caller's lane.
    const FitnessId fn = FitnessId::kMBf6_2;
    const std::vector<GaParameters> lanes = length_pool();
    const unsigned probe = 1;  // flipped and traced
    const unsigned extra = 5;  // one more init write
    const Net reg = BatchGateRunner(fn, {lanes[0]}).register_net("best_fit3");

    // Reference: each config alone, with the same per-lane treatment.
    const auto solo = [&](unsigned k, const std::string& vcd_path) {
        BatchGateRunner r(fn, {lanes[k]});
        if (k == extra) r.append_lane_write(0, 7, 0x0102);
        std::unique_ptr<trace::VcdWriter> vcd;
        if (!vcd_path.empty()) {
            vcd = std::make_unique<trace::VcdWriter>(vcd_path);
            r.add_vcd(vcd.get(), {0});
        }
        r.begin_run();
        for (int i = 0; i < 300; ++i) r.step_cycle();
        if (k == probe) r.flip_lane_register(0, reg);
        while (r.step_cycle() != 0) {
        }
        std::vector<std::uint32_t> mem;
        for (unsigned a = 0; a < 256; ++a) mem.push_back(r.peek_lane_mem(0, static_cast<std::uint8_t>(a)));
        return std::make_tuple(r.lane_result(0), mem, r.lane_state(0), r.lane_bank(0));
    };

    const std::filesystem::path dir = std::filesystem::temp_directory_path();
    const std::string batch_vcd = (dir / "gaip_placement_batch.vcd").string();
    const std::string solo_vcd = (dir / "gaip_placement_solo.vcd").string();
    BatchGateRunner runner(fn, lanes);
    runner.append_lane_write(extra, 7, 0x0102);
    {
        trace::VcdWriter vcd(batch_vcd);
        runner.add_vcd(&vcd, {probe});
        runner.begin_run();
        ASSERT_NE(runner.lane_slot(probe), probe);
        for (int i = 0; i < 300; ++i) runner.step_cycle();
        runner.flip_lane_register(probe, reg);
        while (runner.step_cycle() != 0) {
        }
    }
    for (unsigned k = 0; k < lanes.size(); ++k) {
        SCOPED_TRACE("lane " + std::to_string(k));
        const auto [want, mem, state, bank] = solo(k, k == probe ? solo_vcd : "");
        expect_same_result(runner.lane_result(k), want);
        EXPECT_EQ(runner.lane_state(k), state);
        EXPECT_EQ(runner.lane_bank(k), bank);
        for (unsigned a = 0; a < 256; ++a)
            ASSERT_EQ(runner.peek_lane_mem(k, static_cast<std::uint8_t>(a)), mem[a]) << "addr " << a;
    }
    // The probe lane's waveform is the solo one (the longer lanes finish
    // later, but a finished lane's probes no longer change), under the
    // caller's lane number.
    const auto slurp = [](const std::string& path) {
        std::ifstream in(path);
        std::stringstream ss;
        ss << in.rdbuf();
        return ss.str();
    };
    std::string want = slurp(solo_vcd);
    const std::string solo_scope = "$scope module lane0 ";
    const std::size_t at = want.find(solo_scope);
    ASSERT_NE(at, std::string::npos);
    want.replace(at, solo_scope.size(), "$scope module lane" + std::to_string(probe) + " ");
    EXPECT_EQ(slurp(batch_vcd), want);
    std::filesystem::remove(batch_vcd);
    std::filesystem::remove(solo_vcd);

    // A Table IV preset runs a long GA, so compare only its first cycles:
    // the preset lane skips the init handshake, the others do not.
    const unsigned preset = 2;
    BatchGateRunner mixed(fn, lanes);
    mixed.set_lane_preset(preset, 1);
    BatchGateRunner preset_solo(fn, {lanes[preset]});
    preset_solo.set_lane_preset(0, 1);
    BatchGateRunner user_solo(fn, {lanes[0]});
    mixed.begin_run();
    preset_solo.begin_run();
    user_solo.begin_run();
    bool differs = false;
    for (int i = 0; i < 200; ++i) {
        mixed.step_cycle();
        preset_solo.step_cycle();
        user_solo.step_cycle();
        ASSERT_EQ(mixed.lane_state(preset), preset_solo.lane_state(0)) << "cycle " << i;
        ASSERT_EQ(mixed.lane_state(0), user_solo.lane_state(0)) << "cycle " << i;
        differs = differs || preset_solo.lane_state(0) != user_solo.lane_state(0);
    }
    EXPECT_TRUE(differs) << "the preset should change the lane's first cycles";
}

TEST(BatchGateRunner, PokeToParkedLaneIsSeenAfterRelease) {
    // An island migration pokes a parked lane's memory. Once released, the
    // lane must read what the memory holds now, although its address may
    // not have moved while it was parked. Every cell of three parked lanes
    // is poked, and a 256 x 32 write-first RAM model replays the lanes'
    // ports from the release on: each cycle's read data (the next cycle's
    // mem_data_in) must be the model's.
    const std::unique_ptr<GaCoreNetlist> nets = build_ga_core_netlist();
    const std::vector<GaParameters> lanes = mixed_length_lanes();
    const std::vector<unsigned> probes = {0, 57, 99};
    BatchGateRunner runner(FitnessId::kMBf6_2, lanes);
    runner.begin_run();
    runner.arm_generation_barrier(2);
    ASSERT_EQ(runner.run_to_barrier(runner.default_cycle_bound()), 0u);
    std::vector<std::vector<std::uint32_t>> model(probes.size());
    for (std::size_t p = 0; p < probes.size(); ++p) {
        ASSERT_TRUE(runner.lane_parked(probes[p]));
        for (unsigned a = 0; a < 256; ++a) {
            model[p].push_back(0xA5000000u | (probes[p] << 8) | a);
            runner.poke_lane_mem(probes[p], static_cast<std::uint8_t>(a), model[p].back());
        }
    }
    runner.release_lanes();
    runner.disarm_generation_barrier();
    std::vector<std::uint32_t> read(probes.size());
    bool read_a_poke = false;
    for (int cycle = 0; cycle < 8; ++cycle) {
        runner.step_cycle();
        for (std::size_t p = 0; p < probes.size(); ++p) {
            SCOPED_TRACE("lane " + std::to_string(probes[p]) + " cycle " + std::to_string(cycle));
            const unsigned slot = runner.lane_slot(probes[p]);
            const CompiledNetlist& c = runner.core_sim();
            if (cycle > 0) EXPECT_EQ(c.word_value(nets->mem_data_in, slot), read[p]);
            const auto addr = static_cast<std::uint8_t>(c.word_value(nets->mem_address, slot));
            if (c.value(nets->mem_wr, slot))
                model[p][addr] = static_cast<std::uint32_t>(c.word_value(nets->mem_data_out, slot));
            else
                read_a_poke = read_a_poke || (model[p][addr] >> 24) == 0xA5;
            read[p] = model[p][addr];
            EXPECT_EQ(runner.peek_lane_mem(probes[p], addr), model[p][addr]);
        }
    }
    EXPECT_TRUE(read_a_poke) << "no released lane read a poked cell";
}

TEST(BatchGateRunner, PokedCellIsReadWithoutAnAddressChange) {
    // Every cycle, poke the cell each probed lane addresses, then check the
    // next cycle's read against a write-first RAM model: a lane whose
    // address did not move must still read the new word.
    const std::unique_ptr<GaCoreNetlist> nets = build_ga_core_netlist();
    const std::vector<GaParameters> lanes = mixed_length_lanes();
    const std::vector<unsigned> probes = {3, 64, 98};
    BatchGateRunner runner(FitnessId::kMBf6_2, lanes);
    runner.begin_run();
    std::vector<std::vector<std::uint32_t>> model(probes.size(), std::vector<std::uint32_t>(256));
    std::vector<std::uint32_t> read(probes.size());
    std::uint32_t word = 0x5EED;
    std::size_t unmoved_reads = 0;
    std::vector<int> last_addr(probes.size(), -1);
    for (int cycle = 0; cycle < 3000; ++cycle) {
        runner.step_cycle();
        for (std::size_t p = 0; p < probes.size(); ++p) {
            SCOPED_TRACE("lane " + std::to_string(probes[p]) + " cycle " + std::to_string(cycle));
            const unsigned slot = runner.lane_slot(probes[p]);
            const CompiledNetlist& c = runner.core_sim();
            if (cycle > 0) ASSERT_EQ(c.word_value(nets->mem_data_in, slot), read[p]);
            const auto addr = static_cast<std::uint8_t>(c.word_value(nets->mem_address, slot));
            if (c.value(nets->mem_wr, slot)) {
                model[p][addr] = static_cast<std::uint32_t>(c.word_value(nets->mem_data_out, slot));
            } else if (addr == last_addr[p]) {
                ++unmoved_reads;
            }
            last_addr[p] = addr;
            read[p] = model[p][addr];
            // The poke lands after this cycle's read, before the next one.
            word = word * 1103515245u + 12345u;
            model[p][addr] = word;
            runner.poke_lane_mem(probes[p], addr, word);
        }
    }
    EXPECT_GT(unmoved_reads, 0u) << "no lane read twice from one address";
}

TEST(BatchGateRunner, UsageCountersAddUp) {
    const std::vector<GaParameters> lanes = mixed_length_lanes();
    BatchGateRunner runner(FitnessId::kMBf6_2, lanes, 2);
    runner.begin_run();
    std::uint64_t open = 0;
    for (std::size_t left = lanes.size(); left != 0;) {
        left = runner.step_cycle();
        open += left;
    }
    const BatchGateRunner::Usage& u = runner.usage();
    EXPECT_EQ(u.open_lane_cycles, open);
    EXPECT_GT(u.lane_visits, 0u);
    EXPECT_LT(u.lane_visits, u.open_lane_cycles) << "most open lane-cycles have no event";
    EXPECT_LE(u.live_word_cycles, 2 * runner.cycles());
    EXPECT_GE(u.live_word_cycles, runner.cycles());
    runner.begin_run();
    EXPECT_EQ(runner.usage().open_lane_cycles, 0u) << "the counters restart with the run";
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
