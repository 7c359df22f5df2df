// Golden-value regression suite for the Table IV PRESET modes: each of the
// three built-in parameter/seed presets must keep producing the exact
// result recorded from the verified build, bit-exact on every simulation
// substrate (behavioral, RT-level, compiled gates). The presets are the
// paper's fault-tolerance fallback — the mission supervisor delivers them
// verbatim when the programmed job is unrecoverable — so a drifting preset
// result silently corrupts every degraded recovery.
//
// The long combinations (RT-level preset 3 is ~72M cycles, gate-level
// presets 2/3 even more) only run when GAIP_HEAVY_TESTS is set; the cheap
// rows cover every substrate x preset-1 plus behavioral everywhere.
#include <gtest/gtest.h>

#include <cstdlib>

#include "gates/batch_runner.hpp"
#include "core/behavioral.hpp"
#include "core/params.hpp"
#include "fitness/functions.hpp"
#include "prng/rng_module.hpp"
#include "system/ga_system.hpp"

namespace gaip {
namespace {

using fitness::FitnessId;

constexpr FitnessId kFn = FitnessId::kMBf6_2;

struct PresetGolden {
    std::uint8_t preset;
    std::uint16_t expect_best;
    std::uint16_t expect_candidate;
};

// Recorded from the verified build (all three substrates agree).
const PresetGolden kGoldens[] = {
    {1, 8190, 0xFFF0},
    {2, 8190, 0xFFF1},
    {3, 8190, 0xFFF0},
};

bool heavy_enabled() { return std::getenv("GAIP_HEAVY_TESTS") != nullptr; }

class PresetGolds : public ::testing::TestWithParam<PresetGolden> {};

TEST_P(PresetGolds, BehavioralMatchesGolden) {
    const PresetGolden& g = GetParam();
    core::GaParameters p = core::preset_parameters(g.preset);
    p.seed = prng::RngModule::effective_seed(g.preset, 0);
    const core::RunResult r = core::run_behavioral_ga(
        p, [](std::uint16_t x) { return fitness::fitness_u16(kFn, x); });
    EXPECT_EQ(r.best_fitness, g.expect_best) << "preset " << int{g.preset};
    EXPECT_EQ(r.best_candidate, g.expect_candidate) << "preset " << int{g.preset};
}

TEST_P(PresetGolds, RtLevelMatchesGolden) {
    const PresetGolden& g = GetParam();
    if (g.preset == 3 && !heavy_enabled())
        GTEST_SKIP() << "preset 3 RT-level (~72M cycles): set GAIP_HEAVY_TESTS";
    // The fault-tolerance scenario of Table IV: init handshake skipped, the
    // preset pins alone carry the run.
    system::GaSystemConfig scfg;
    scfg.preset = g.preset;
    scfg.skip_initialization = true;
    scfg.internal_fems = {kFn};
    scfg.keep_populations = false;
    system::GaSystem sys(scfg);
    const core::RunResult r = sys.run();
    EXPECT_EQ(r.best_fitness, g.expect_best) << "preset " << int{g.preset};
    EXPECT_EQ(r.best_candidate, g.expect_candidate) << "preset " << int{g.preset};
}

TEST_P(PresetGolds, CompiledGatesMatchGolden) {
    const PresetGolden& g = GetParam();
    if (g.preset != 1 && !heavy_enabled())
        GTEST_SKIP() << "gate-level presets 2/3 are heavy: set GAIP_HEAVY_TESTS";
    gates::BatchGateRunner runner(kFn, {core::preset_parameters(g.preset)});
    runner.set_lane_preset(0, g.preset);
    const std::vector<gates::BatchLaneResult> res = runner.run();
    ASSERT_TRUE(res.front().finished);
    EXPECT_EQ(res.front().best_fitness, g.expect_best) << "preset " << int{g.preset};
    EXPECT_EQ(res.front().best_candidate, g.expect_candidate) << "preset " << int{g.preset};
}

INSTANTIATE_TEST_SUITE_P(TableIV, PresetGolds, ::testing::ValuesIn(kGoldens),
                         [](const ::testing::TestParamInfo<PresetGolden>& info) {
                             return "preset" + std::to_string(info.param.preset);
                         });

}  // namespace
}  // namespace gaip
