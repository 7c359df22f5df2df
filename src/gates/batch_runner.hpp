// BatchGateRunner: batched multi-seed / multi-setting GA runs on the
// COMPLETE gate-level GA module (GaCoreNetlist + RngNetlist), one run per
// lane of a single CompiledNetlist N-word lane-block simulation (64 lanes
// per word, up to 512 lanes at words == 8).
//
// Each lane gets its own GaParameters (seed, population size, thresholds,
// generations) and runs the full system flow the RT-level GaSystem runs:
//   * the Sec. III-B.6 init handshake (six index/value writes over
//     ga_load/data_valid/data_ack, snooped by the RNG module for the seed),
//   * the start_GA pulse,
//   * the fitness-evaluation handshake against a software FEM model
//     (fitness_u16 lookup — the same values the block-ROM FEM holds),
//   * a per-lane 256x32 write-first synchronous GA memory model,
// and delivers the per-lane best fitness/candidate when GA_done rises.
//
// The per-lane peripherals are software models driven at GA-clock
// granularity; the handshakes are latency-insensitive by design (the core
// consumes random numbers only in the *Rn states, never while waiting), so
// lane results are identical to the RT-level GaSystem results for the same
// seed/settings — asserted by tests/gates/test_gate_batch_runner.cpp.
//
// The FEM answer latency is the one modelling choice (FemTiming):
//   * kNextCycle (default; islands, service, supervisor, gaip-trace, the
//     Table VII gate bench): the FEM raises valid one GA cycle after the
//     request and drops it one cycle after the request drops. Each
//     evaluation therefore costs two cycles more than on the RT-level
//     system, and a lane's ga_cycles (start_GA pulse to GA_done) is exactly
//     GaSystem::ga_cycles() + 2 x evaluations.
//   * kSameCycle (FaultCampaign): the FEM answers inside the request cycle,
//     as the 200 MHz block-ROM FEM does on the RT-level system. Lanes are
//     cycle-exact against the RT-level core, and ga_cycles counts from the
//     kStart state to the kDone state, the SeuInjector golden-run count.
//
// The compiled cores run with the instruction-stream optimizer's dead-gate
// prune enabled, keeping the observable port surface (everything this
// runner and its VCD/telemetry probes read); the batch width defaults to
// the smallest lane block that fits the requested lane count.
//
// The per-lane peripheral models cost work only where something happens.
// Per lane word, step() builds an event mask on the port bit-planes
// (address moved, memory write, data_ack edge, GA_done or a kStart/kDone
// state match, init handshake, backdoor write, and FEM answers and monitor
// edges for traced lanes or an armed barrier) and runs the models only for
// those lanes, reading each one's fields straight from the planes.
// begin_run() places the longest-running lanes in the lowest lane slots, so
// the trailing words finish first: a word whose lanes have all finished
// leaves the live-word prefix and step() no longer touches it. That is
// exact because a finished lane is a fixed point (pinned by
// BatchGateRunner.FinishedLanesAreAFixedPoint). The compiled netlists still
// evaluate and clock the full block. Every per-lane member takes the
// caller's lane index; the placement shows only through lane_slot().
//
// This is what makes the Table VII-IX grids usable at gate level: the full
// 24-setting grid is ONE batched simulation instead of 24 scalar ones
// (bench_table7_gates.cpp), and what the fault campaign batches its
// injections on (one SEU per lane, src/fault/campaign.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/params.hpp"
#include "fitness/functions.hpp"
#include "gates/compiled.hpp"
#include "gates/ga_core_gates.hpp"
#include "gates/rng_gates.hpp"
#include "trace/event.hpp"

namespace gaip::trace {
class VcdWriter;
}

namespace gaip::gates {

struct BatchLaneResult {
    bool finished = false;
    std::uint16_t best_fitness = 0;
    std::uint16_t best_candidate = 0;
    std::uint32_t generations = 0;
    std::uint64_t evaluations = 0;
    std::uint64_t ga_cycles = 0;  ///< GA-clock cycles from start to GA_done (see FemTiming)
};

/// FEM answer latency of the per-lane peripheral model (see the header
/// comment for which callers use which, and the cycle relation).
enum class FemTiming { kNextCycle, kSameCycle };

class BatchGateRunner {
public:
    static constexpr unsigned kWordBits = CompiledNetlist::kWordBits;
    /// Hard lane ceiling: the widest supported block (8 words = 512 lanes).
    static constexpr unsigned kMaxLanes = CompiledNetlist::kMaxWords * CompiledNetlist::kWordBits;

    /// One lane per entry of `lane_params`. Every lane runs `fn` as its
    /// (internal, slot-0) fitness function. `words` selects the lane-block
    /// width (1/2/4/8 u64 words); 0 picks the smallest block that fits the
    /// requested lane count. `backend` selects the evaluation engine for
    /// both compiled netlists (interpreted kernels vs host-compiled native
    /// code; kAuto defers to GAIP_JIT and defaults to the interpreter).
    BatchGateRunner(fitness::FitnessId fn, std::vector<core::GaParameters> lane_params,
                    unsigned words = 0, Backend backend = Backend::kAuto,
                    FemTiming timing = FemTiming::kNextCycle);

    /// Rebind the runner to a new job set without recompiling the two
    /// netlists — construction's dominant cost, which is what makes a
    /// cached runner worth reusing across service batches (gaipd workers)
    /// and campaign batches. The new lane count must fit the existing
    /// lane-block width; fitness may change freely (the netlists are
    /// function-independent — `fn` only drives the software FEM lookup).
    /// Presets, sinks, the VCD writer and all lane state reset to the
    /// post-construction condition.
    void reconfigure(fitness::FitnessId fn, std::vector<core::GaParameters> lane_params);

    std::size_t lane_count() const noexcept { return lanes_.size(); }
    /// Lane-block width in u64 words (the simulation carries words()*64
    /// lanes; configured lanes beyond lane_count() idle).
    unsigned words() const noexcept { return words_; }
    std::uint64_t cycles() const noexcept { return cycle_; }
    /// The compiled core. Its lanes are lane slots, not caller lanes:
    /// read lane `k` of the batch at core_sim() lane lane_slot(k).
    const CompiledNetlist& core_sim() const noexcept { return *core_; }
    /// Lane slot of caller lane `lane`: begin_run() places lanes by
    /// estimated run length (throws if `lane` is out of range).
    unsigned lane_slot(unsigned lane) const;

    /// Formula cycle bound used when run(max_cycles = 0): saturating u64
    /// arithmetic, so adversarial pop/gens configs clamp to "effectively
    /// unbounded" instead of wrapping to a tiny bound that would flag
    /// healthy runs as hangs. Public for regression tests.
    std::uint64_t default_cycle_bound() const;

    /// Put one lane in a Table IV preset mode (1..3): its preset pins are
    /// driven, the init handshake is skipped (presets bypass all programmed
    /// state — the paper's init-failure fault-tolerance scenario), and the
    /// start pulse is issued right after reset. Mode 0 restores the normal
    /// user-mode flow. The lane's GaParameters entry is then ignored.
    void set_lane_preset(unsigned lane, std::uint8_t preset);

    /// Current controller-FSM state of one lane (the supervisor's watchdog
    /// classification input: kIdle = recoverable, anything else = wedged).
    std::uint8_t lane_state(unsigned lane) const;

    /// Attach a telemetry sink to one lane (borrowed; nullptr detaches).
    /// The lane then emits the same protocol/generation event stream the
    /// RT-level SystemTap produces (minus the RT-only op counters), with
    /// `cycle` counted from the runner's reset and `t` = cycle x 20 ns.
    void set_lane_sink(unsigned lane, trace::TraceSink* sink);

    /// Register per-lane waveform probes of the compiled core on `vcd`
    /// (borrowed; must outlive run()). One scope per requested lane
    /// ("gates.lane<k>"), sampled once per GA cycle with the 50 MHz period
    /// (20'000 ps) as the tick — a per-lane slice of the batched simulation
    /// in GTKWave. One run() per writer (VCD time is monotonic).
    void add_vcd(trace::VcdWriter* vcd, const std::vector<unsigned>& lanes_to_trace);

    /// Reset everything and run until every lane reaches GA_done (or the
    /// cycle bound trips). Returns one result per configured lane.
    std::vector<BatchLaneResult> run(std::uint64_t max_cycles = 0);

    /// Watchdog-friendly variant of run(): a lane that misses the cycle
    /// bound is reported with `finished == false` instead of throwing, so a
    /// supervisor can classify the trip (lane_state()) and walk its
    /// recovery ladder. `max_cycles` counts from reset (init handshake
    /// included); 0 selects the formula bound.
    std::vector<BatchLaneResult> run_bounded(std::uint64_t max_cycles = 0);

    // --- stepwise interface --------------------------------------------
    // The island interconnect (src/island/) drives the batch one GA cycle
    // at a time and parks lanes at generation boundaries: a parked lane's
    // registers are clock-gated (CompiledNetlist::clock_gated) and its
    // peripheral models freeze, so the lane holds its exact architectural
    // state while siblings keep evolving — the cycle-level model of N
    // cores meeting at a migration barrier. While a lane is parked its
    // software GA memory can be poked (migration applies at the same
    // point the RTL backdoor pokes GaMemory: right after the monitor's
    // kGenCheck capture edge, before the next selection read). The fault
    // campaign steps the same way and plants one SEU per lane between
    // steps (flip_lane_register).

    /// Append one {index, value} write to a lane's init program — the
    /// migration extension registers (indices 6/7) ride the handshake
    /// after the six Table III parameters. Call before the run starts.
    void append_lane_write(unsigned lane, std::uint8_t index, std::uint16_t value);

    /// Reset every lane and both compiled netlists for a stepwise run
    /// (run()/run_bounded() do this internally).
    void begin_run() { reset(); }

    /// One GA-clock cycle; returns the count of unfinished lanes (parked
    /// lanes count as unfinished).
    std::size_t step_cycle() { return step(); }

    /// Lane-usage counters since the last reset (begin_run/run), next to
    /// cycles(): plain integers, no timers.
    struct Usage {
        std::uint64_t open_lane_cycles = 0;  ///< sum of step_cycle() returns
        std::uint64_t lane_visits = 0;       ///< per-lane peripheral model runs
        std::uint64_t live_word_cycles = 0;  ///< live lane words, summed over cycles
    };
    const Usage& usage() const noexcept { return usage_; }

    /// Arm the generation-synchronous barrier: an unfinished lane whose
    /// monitor pulse rises with mon_gen_id == `gen` parks right after the
    /// capture edge. Parked lanes stay parked until release_lanes().
    void arm_generation_barrier(std::uint32_t gen) {
        barrier_armed_ = true;
        barrier_gen_ = gen;
    }
    void disarm_generation_barrier() { barrier_armed_ = false; }

    /// Step until every lane is parked at the armed barrier or finished,
    /// or `max_cycles` (counted from reset) elapses. Returns the number of
    /// lanes still running — nonzero means a lane missed the barrier
    /// within the bound (the island watchdog's trip signal).
    std::size_t run_to_barrier(std::uint64_t max_cycles);

    /// Lanes neither finished nor parked at the barrier.
    std::size_t pending_lanes() const noexcept;

    bool lane_parked(unsigned lane) const;

    /// Resume every parked lane (the barrier is normally released for all
    /// islands at once; re-arm for the next boundary before stepping on).
    void release_lanes();

    /// GA cycles a lane spent clock-gated at barriers so far.
    std::uint64_t lane_stall_cycles(unsigned lane) const;

    const BatchLaneResult& lane_result(unsigned lane) const { return lane_at(lane).result; }

    /// Current-population bank bit of one lane (post-edge register value).
    bool lane_bank(unsigned lane) const;

    /// Backdoor access to a lane's software GA memory (256 x 32 words).
    std::uint32_t peek_lane_mem(unsigned lane, std::uint8_t addr) const;
    void poke_lane_mem(unsigned lane, std::uint8_t addr, std::uint32_t word);

    /// The core register-bit net named `name` ("<reg><bit>", the
    /// flip-flop naming FaultSite shares with the RT-level scan chain);
    /// throws std::invalid_argument if the core has no such register.
    Net register_net(const std::string& name) const;

    /// Invert register `q` (a register_net()) in one lane only — the SEU
    /// hook: call between steps, and the lane runs on from the upset state.
    void flip_lane_register(unsigned lane, Net q);

private:
    static constexpr unsigned kMaxWords = CompiledNetlist::kMaxWords;
    /// One lane-block's worth of packed bits for a single signal.
    using WordVec = std::array<std::uint64_t, kMaxWords>;
    using Handle = CompiledNetlist::SlotHandle;

    struct Lane {
        // init-handshake FSM (mirrors system::InitModule at GA granularity)
        std::vector<std::pair<std::uint8_t, std::uint16_t>> program;
        std::size_t init_item = 0;
        bool init_asserting = true;
        bool init_done = false;
        // start pulse
        int start_hold = -1;  ///< -1 = not yet scheduled; >0 = cycles left high
        std::uint64_t start_cycle = 0;
        // software FEM: the value answered for the current request
        std::uint16_t fem_value = 0;
        // island barrier: clock-gated hold at a generation boundary (stall_)
        std::uint64_t park_cycle = 0;    ///< cycle_ when the current hold began
        std::uint64_t stall_cycles = 0;  ///< cycles of completed holds
        trace::TraceSink* sink = nullptr;
        bool init_done_traced = false;
        bool start_traced = false;
        BatchLaneResult result;
    };

    /// Per-word lane masks (bit k = lane slot w*64+k) that step() keeps
    /// beside the Lane records, so events are found without a lane loop.
    struct LaneWord {
        std::uint64_t lanes = 0;     ///< configured slots
        std::uint64_t open = 0;      ///< keep the word live: unfinished, or disturbed since
        std::uint64_t started = 0;
        std::uint64_t finished = 0;
        std::uint64_t traced = 0;    ///< a sink is attached
        std::uint64_t touched = 0;   ///< backdoor write or release since the last visit
        std::uint64_t programming = 0;  ///< init handshake or start pulse in progress
        // last cycle's pre-edge samples (held while parked)
        std::uint64_t ack = 0, pulse = 0, bank = 0;
        std::array<std::uint64_t, 8> addr{};
    };

    /// Validated-once storage handles of every signal step() touches: the
    /// per-call checks inside set_input_word/lanes_word would otherwise
    /// dominate a cycle (~1500 calls per cycle at 8-word blocks).
    struct Ports {
        Handle ga_load, data_valid, start, fit_valid;
        std::array<Handle, 3> index;
        std::array<Handle, 16> value, fit_value, rn;
        std::array<Handle, 32> mem_data_in;
        Handle fit_request, data_ack, ga_done, mem_wr, rn_next, mon_gen_pulse, mon_bank;
        std::array<Handle, 16> candidate;
        std::array<Handle, 8> mem_address;
        std::array<Handle, 32> mem_data_out;
        std::array<Handle, 6> state;
        Handle rng_ga_load, rng_data_valid, rng_start, rng_rn_next;
        std::array<Handle, 3> rng_index;
        std::array<Handle, 16> rng_value, rng_rn;
    };

    const Lane& lane_at(unsigned lane) const { return lanes_[lane_slot(lane)]; }
    Lane& lane_at(unsigned lane) { return lanes_[lane_slot(lane)]; }
    /// A backdoor write to slot `s`: visit it next cycle, and keep it (and
    /// its word) live if it had already finished.
    void disturb(unsigned s);
    std::uint64_t lane_length(std::size_t lane) const;
    void set_lanes(std::vector<core::GaParameters> lane_params);
    WordVec read(Handle h) const {
        WordVec v{};
        core_->read_words(h, v.data());
        return v;
    }
    void reset();
    void drive_handshake();
    void answer_fem(unsigned word, std::uint64_t mask);
    std::size_t step();

    fitness::FitnessId fn_;
    FemTiming timing_;
    std::vector<core::GaParameters> params_;  ///< by caller lane, like presets_
    std::vector<std::uint8_t> presets_;  ///< per-lane Table IV preset mode (0 = user)
    /// Port nets of the two netlists; their gate lists are released once
    /// compiled (a runner would otherwise hold ~0.8 MB it never reads).
    std::unique_ptr<GaCoreNetlist> core_src_;
    std::unique_ptr<RngNetlist> rng_src_;
    std::vector<std::pair<std::string, Net>> registers_;  ///< core register bits by name
    std::optional<CompiledNetlist> core_;
    std::optional<CompiledNetlist> rng_;
    Ports h_{};
    std::uint32_t fit_cone_ = 0;  ///< kSameCycle: fanout of fit_valid/fit_value
    unsigned words_ = 1;
    std::vector<Lane> lanes_;          ///< by lane slot
    std::vector<unsigned> slot_of_;    ///< caller lane -> lane slot
    std::array<LaneWord, kMaxWords> lw_{};
    unsigned live_words_ = 0;          ///< words [0, live_words_) are stepped
    /// Per-lane write-first GA memory, element [addr * lane_count() +
    /// slot]: before lanes diverge they all read the same address, so a
    /// cycle's accesses stay on a few contiguous cache lines.
    std::vector<std::uint32_t> mem_;
    std::vector<std::uint32_t> dout_;  ///< per-slot GA memory read-data register
    std::uint64_t cycle_ = 0;
    Usage usage_;
    // Drive words for the next cycle, kept transposed between steps.
    std::array<WordVec, 32> mdi_w_{};  ///< mem_data_in (bit k of [j][w] = lane w*64+k)
    WordVec fem_valid_w_{};            ///< kNextCycle: fit_valid (last cycle's request)
    std::array<WordVec, 16> fitv_w_{}; ///< fit_value: the answer in every valid lane
    /// True once no lane is programming or pulsing start: the handshake
    /// drive words are all-zero from then on and step() skips them.
    bool inputs_quiet_ = false;
    // island barrier state: per-lane clock-gate mask + armed boundary
    WordVec stall_{};
    bool barrier_armed_ = false;
    std::uint32_t barrier_gen_ = 0;
    bool tracing_ = false;
    trace::VcdWriter* vcd_ = nullptr;
};

}  // namespace gaip::gates
