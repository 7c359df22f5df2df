// THE scheduler guarantee (ISSUE 9 acceptance): results coming back from
// the daemon are bit-identical to running the same spec directly on the
// underlying engine — the service plane multiplexes jobs (packing gates
// jobs as shared-netlist lanes, interleaving workers) but never alters a
// job's parameter/seed path. 64 concurrent jobs with mixed backends,
// fitness functions, populations and seeds go through a live daemon; every
// outcome is compared against a direct single-job engine run.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "gates/batch_runner.hpp"
#include "core/behavioral.hpp"
#include "core/params.hpp"
#include "fitness/functions.hpp"
#include "prng/rng_module.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "system/ga_system.hpp"

namespace {

using namespace gaip;
using service::Frame;
using service::JobSpec;

struct Expected {
    std::uint16_t best_fitness;
    std::uint16_t best_candidate;
};

/// Direct engine run with EXACTLY the configuration the scheduler uses
/// (see Scheduler::run_behavioral_job / run_rtl_job / run_gate_batch).
Expected direct_run(const JobSpec& spec) {
    switch (spec.backend) {
        case service::JobBackend::kBehavioral: {
            const fitness::FitnessId fn = spec.fn;
            core::BehavioralEngine eng(
                spec.params,
                [fn](std::uint16_t c) { return fitness::fitness_u16(fn, c); },
                prng::RngKind::kCellularAutomaton, /*keep_populations=*/false);
            while (!eng.done()) eng.step_generation();
            return {eng.best_fitness(), eng.best_candidate()};
        }
        case service::JobBackend::kRtl: {
            system::GaSystemConfig cfg;
            cfg.params = spec.params;
            cfg.internal_fems = {spec.fn};
            cfg.fitfunc_select = 0;
            cfg.keep_populations = false;
            const core::RunResult r = system::run_ga_system(cfg);
            return {r.best_fitness, r.best_candidate};
        }
        case service::JobBackend::kGates: {
            // A one-lane runner: lane packing must not change any lane's
            // result, so the single-lane run is the reference.
            gates::BatchGateRunner runner(spec.fn, {spec.params});
            const auto out = runner.run();
            return {out[0].best_fitness, out[0].best_candidate};
        }
    }
    throw std::logic_error("unreachable");
}

TEST(Differential, SixtyFourConcurrentJobsMatchDirectRuns) {
    service::ServerConfig cfg;
    cfg.socket_path = "t_diff.sock";
    cfg.scheduler.workers = 4;
    cfg.scheduler.max_queue = 256;
    service::Daemon d(cfg);
    service::Client c(d.socket_path());

    // 64 jobs cycling through three backends, four fitness functions and
    // the paper's seed set — enough collisions that the scheduler packs
    // same-fn gates jobs into shared lane blocks, and enough variety that
    // a lane/seed mixup cannot cancel out.
    constexpr std::uint16_t kSeeds[] = {0x2961, 0x061F, 0xB342, 0xAAAA, 0xA0A0, 0xFFFF};
    constexpr fitness::FitnessId kFns[] = {
        fitness::FitnessId::kOneMax, fitness::FitnessId::kMBf6_2,
        fitness::FitnessId::kBf6, fitness::FitnessId::kRoyalRoad};
    constexpr service::JobBackend kBackends[] = {
        service::JobBackend::kGates, service::JobBackend::kBehavioral,
        service::JobBackend::kGates, service::JobBackend::kRtl};

    std::vector<JobSpec> specs;
    for (int i = 0; i < 64; ++i) {
        JobSpec s;
        s.fn = kFns[i % std::size(kFns)];
        s.backend = kBackends[i % std::size(kBackends)];
        s.params = core::resolve_parameters(
            0, {.pop_size = static_cast<std::uint8_t>(8 + 8 * (i % 3)),
                .n_gens = static_cast<std::uint32_t>(6 + i % 5),
                .xover_threshold = 12,
                .mut_threshold = static_cast<std::uint8_t>(1 + i % 2),
                .seed = kSeeds[i % std::size(kSeeds)]});
        specs.push_back(s);
    }

    // Whole burst submitted before any result is read: all 64 are in
    // flight together, so the gates jobs actually get packed.
    std::vector<std::uint64_t> ids;
    ids.reserve(specs.size());
    for (const JobSpec& s : specs) ids.push_back(c.submit(s));

    std::size_t packed_lanes = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const Frame end = c.stream(ids[i]);
        ASSERT_EQ(end.str("state"), "done")
            << "job " << ids[i] << ": " << service::to_line(end);
        const Expected want = direct_run(specs[i]);
        EXPECT_EQ(end.u64("best_fitness"), want.best_fitness)
            << "job " << ids[i] << " (" << service::job_backend_name(specs[i].backend)
            << ", seed 0x" << std::hex << specs[i].params.seed << ")";
        EXPECT_EQ(end.u64("best_candidate"), want.best_candidate) << "job " << ids[i];
    }

    const Frame st = c.stats();
    EXPECT_EQ(st.u64("done"), 64u);
    EXPECT_EQ(st.u64("failed"), 0u);
    // Every gates job went through the lane path; whether they packed is
    // timing-dependent here (GatePackingPreservesLaneResults pins it down).
    packed_lanes = st.u64("gate_lanes");
    EXPECT_EQ(packed_lanes, st.u64("done_gates"));
    EXPECT_LE(st.u64("gate_batches"), st.u64("done_gates"));
}

TEST(Differential, GatePackingPreservesLaneResults) {
    // Deterministic packing: one worker pinned on a blocker while 16
    // same-fitness gates jobs pile up behind it. When the blocker dies the
    // worker MUST drain them as lanes of a single batch — and every lane's
    // result must still match its own single-lane direct run.
    service::ServerConfig cfg;
    cfg.socket_path = "t_diff_pack.sock";
    cfg.scheduler.workers = 1;
    service::Daemon d(cfg);
    service::Client c(d.socket_path());

    JobSpec blocker;
    blocker.fn = fitness::FitnessId::kOneMax;
    blocker.backend = service::JobBackend::kBehavioral;
    blocker.params = core::resolve_parameters(
        0, {.pop_size = 128, .n_gens = 50'000'000, .xover_threshold = 12,
            .mut_threshold = 1, .seed = 1});
    const std::uint64_t block_id = c.submit(blocker);
    while (c.status(block_id).str("state") == "queued")
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    std::vector<JobSpec> specs;
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 16; ++i) {
        JobSpec s;
        s.fn = fitness::FitnessId::kOneMax;
        s.backend = service::JobBackend::kGates;
        s.params = core::resolve_parameters(
            0, {.pop_size = 16, .n_gens = 8, .xover_threshold = 12, .mut_threshold = 1,
                .seed = static_cast<std::uint16_t>(0x1000 + i)});
        specs.push_back(s);
        ids.push_back(c.submit(s));
    }
    c.cancel(block_id);

    for (std::size_t i = 0; i < specs.size(); ++i) {
        const Frame end = c.stream(ids[i]);
        ASSERT_EQ(end.str("state"), "done");
        const Expected want = direct_run(specs[i]);
        EXPECT_EQ(end.u64("best_fitness"), want.best_fitness) << "lane " << i;
        EXPECT_EQ(end.u64("best_candidate"), want.best_candidate) << "lane " << i;
    }

    const Frame st = c.stats();
    EXPECT_EQ(st.u64("done_gates"), 16u);
    EXPECT_EQ(st.u64("gate_lanes"), 16u);
    EXPECT_EQ(st.u64("gate_batches"), 1u);  // the whole pile in ONE batch
    // Lane usage of that batch: 16 lanes x its GA cycles, of which the
    // lanes that finish early leave some idle.
    const std::uint64_t lane_cycles = st.u64("gate_lane_cycles");
    const std::uint64_t open = st.u64("gate_open_lane_cycles");
    EXPECT_EQ(lane_cycles % 16, 0u);
    EXPECT_GT(open, 0u);
    EXPECT_LE(open, lane_cycles);
}

TEST(Differential, IslandJobMatchesDirectEnsemble) {
    // Island jobs don't pack, but the daemon must still reproduce the
    // direct IslandSystem result bit-for-bit.
    service::ServerConfig cfg;
    cfg.socket_path = "t_diff_isl.sock";
    cfg.scheduler.workers = 2;
    service::Daemon d(cfg);
    service::Client c(d.socket_path());

    JobSpec s;
    s.fn = fitness::FitnessId::kOneMax;
    s.backend = service::JobBackend::kRtl;
    s.params = core::resolve_parameters(
        0, {.pop_size = 16, .n_gens = 12, .xover_threshold = 12, .mut_threshold = 1,
            .seed = 0x2961});
    s.islands = 4;
    s.migration.interval = 4;
    s.migration.count = 2;

    const Frame a = c.run_job(s);
    const Frame b = c.run_job(s);  // same spec twice: daemon is deterministic
    ASSERT_EQ(a.str("state"), "done");
    EXPECT_EQ(a.u64("best_fitness"), b.u64("best_fitness"));
    EXPECT_EQ(a.u64("best_candidate"), b.u64("best_candidate"));
}

}  // namespace
