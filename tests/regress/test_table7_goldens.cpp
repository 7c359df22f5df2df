// Golden-value regression suite for the Table VII reproduction: the 24
// hardware parameter settings of the mBF6_2 sweep (6 paper seeds x pop
// {32,64} x XR {10,12}, 64 generations) run as ONE 24-lane batched
// simulation of the complete gate-level core + RNG, and every lane must
// keep producing the exact best fitness recorded from the verified build
// (where all 24 lanes were bit-exact against the RT-level GaSystem).
//
// Regenerate deliberately (after an intentional semantic change) with:
//   ./build/bench/bench_table7_gates   (bench_out/table7_gates.csv)
#include <gtest/gtest.h>

#include "bench/bench_tables7_9_common.hpp"
#include "gates/batch_runner.hpp"

namespace gaip {
namespace {

// kPaperSeeds-major, kSweepCells-minor: lane = seed_idx * 4 + cell_idx with
// cells ordered {P32/XR10, P32/XR12, P64/XR10, P64/XR12}.
constexpr std::uint16_t kExpectBest[24] = {
    7667, 8190, 8101, 8145,  // seed 0x2961
    7584, 7584, 7925, 7968,  // seed 0x061F
    7922, 7838, 8190, 7924,  // seed 0xB342
    7838, 8101, 8056, 8094,  // seed 0xAAAA
    7924, 8055, 7924, 7924,  // seed 0xA0A0
    7667, 7541, 7752, 7778,  // seed 0xFFFF
};

TEST(Table7Golds, BatchedGateSweepReproducesPinnedBestFitness) {
    std::vector<core::GaParameters> lanes;
    for (const std::uint16_t seed : bench::kPaperSeeds)
        for (const bench::SweepCell& c : bench::kSweepCells)
            lanes.push_back({.pop_size = c.pop, .n_gens = 64, .xover_threshold = c.xr,
                             .mut_threshold = 1, .seed = seed});
    ASSERT_EQ(lanes.size(), 24u);

    gates::BatchGateRunner runner(fitness::FitnessId::kMBf6_2, lanes);
    const std::vector<gates::BatchLaneResult> batch = runner.run();
    ASSERT_EQ(batch.size(), 24u);

    std::uint16_t best_overall = 0;
    for (std::size_t k = 0; k < batch.size(); ++k) {
        EXPECT_TRUE(batch[k].finished) << "lane " << k << " did not reach GA_done";
        EXPECT_EQ(batch[k].best_fitness, kExpectBest[k])
            << "lane " << k << " (seed 0x" << std::hex << lanes[k].seed << std::dec << ", pop "
            << unsigned(lanes[k].pop_size) << ", xr " << unsigned(lanes[k].xover_threshold)
            << ")";
        best_overall = std::max(best_overall, batch[k].best_fitness);
    }
    // Headline claim of the sweep: the grid reaches the mBF6_2 optimum.
    EXPECT_EQ(best_overall, fitness::grid_optimum(fitness::FitnessId::kMBf6_2).best_value);
}

}  // namespace
}  // namespace gaip
