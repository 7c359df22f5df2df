// gaip-trace — record, filter, and diff run-telemetry streams.
//
//   gaip-trace record --fitness mBF6_2 --pop 64 --gens 64 -o run.jsonl --vcd run.vcd
//   gaip-trace record --backend lanes --fitness OneMax -o lanes.jsonl
//   gaip-trace record --flip best_fit:3:100 -o seu.jsonl
//   gaip-trace filter run.jsonl --kind generation,done --limit 10
//   gaip-trace diff rtl.jsonl lanes.jsonl --ignore rng_draws,crossovers,mutations
//
// `record` replays the full system flow (init handshake, start pulse,
// optimization) on the chosen substrate and streams the telemetry events to
// a JSONL file; `--vcd` additionally dumps the waveform. `--flip reg:bit:c`
// records a faulted run instead: the SEU layer plants the flip and the
// stream gains `fault_inject` and `divergence` events.
//
// `diff` compares two streams structurally (timestamps/cycles ignored
// unless --strict) and reports the first divergence.
//
// Exit status: 0 = success / streams match, 1 = streams differ, 2 = error.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "gates/batch_runner.hpp"
#include "fault/seu_injector.hpp"
#include "gates/jit.hpp"
#include "fitness/functions.hpp"
#include "service/client.hpp"
#include "system/ga_system.hpp"
#include "trace/diff.hpp"
#include "trace/event.hpp"
#include "trace/jsonl.hpp"
#include "trace/vcd.hpp"

namespace {

using namespace gaip;

const std::map<std::string, fitness::FitnessId>& fitness_by_name() {
    static const std::map<std::string, fitness::FitnessId> m = {
        {"BF6", fitness::FitnessId::kBf6},
        {"F2", fitness::FitnessId::kF2},
        {"F3", fitness::FitnessId::kF3},
        {"mBF6_2", fitness::FitnessId::kMBf6_2},
        {"mBF7_2", fitness::FitnessId::kMBf7_2},
        {"mShubert2D", fitness::FitnessId::kMShubert2D},
        {"OneMax", fitness::FitnessId::kOneMax},
        {"RoyalRoad", fitness::FitnessId::kRoyalRoad},
    };
    return m;
}

void usage() {
    std::printf(
        "usage: gaip-trace <command> [options]\n"
        "\n"
        "  record   run the GA and stream telemetry to a JSONL file\n"
        "    --fitness NAME     BF6 F2 F3 mBF6_2 mBF7_2 mShubert2D OneMax RoyalRoad\n"
        "    --pop N --gens N   population / generations (defaults 32/32)\n"
        "    --xover T --mut T  crossover / mutation thresholds (0..15)\n"
        "    --seed S           RNG seed (decimal or 0x hex)\n"
        "    --preset M         preset mode 1..3 (overrides parameters)\n"
        "    --backend B        rtl | gates | lanes (default rtl)\n"
        "                       rtl   = RT-level system\n"
        "                       gates = gate-level GA module in the system\n"
        "                       lanes = lane 0 of the 64-lane batched gate sim\n"
        "    --flip REG:BIT:CYC plant an SEU (rtl backend; adds fault events)\n"
        "    --daemon SOCKET    record through a gaipd daemon (thin client;\n"
        "                       exit 4 = cannot connect, 5 = malformed response)\n"
        "    -o PATH            output JSONL (default trace.jsonl)\n"
        "    --vcd PATH         also dump a VCD waveform\n"
        "\n"
        "  filter <in.jsonl>  print selected events as JSONL on stdout\n"
        "    --kind K1,K2       keep only these event kinds\n"
        "    --limit N          stop after N events\n"
        "\n"
        "  diff <a.jsonl> <b.jsonl>  first structural divergence, if any\n"
        "    --kind K1,K2       compare only these event kinds\n"
        "    --ignore F1,F2     field keys excluded from comparison\n"
        "    --strict           also compare timestamps and cycle counts\n"
        "\n"
        "exit status: 0 = ok / match, 1 = streams differ, 2 = error\n");
}

std::vector<std::string> split_csv(const std::string& s) {
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        const std::size_t comma = s.find(',', pos);
        const std::string item =
            s.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
        if (!item.empty()) out.push_back(item);
        if (comma == std::string::npos) break;
        pos = comma + 1;
    }
    return out;
}

bool parse_u64(const char* s, std::uint64_t& out) {
    try {
        std::size_t used = 0;
        out = std::stoull(s, &used, 0);
        return used == std::strlen(s) && used > 0;
    } catch (...) {
        return false;
    }
}

/// Fail fast on an unwritable output path — BEFORE the (possibly long)
/// simulation runs, not after. An append-mode probe creates the file if the
/// directory allows it and touches nothing that already exists.
bool validate_writable(const std::string& path, const char* what) {
    std::ofstream probe(path, std::ios::app);
    if (!probe) {
        std::fprintf(stderr, "gaip-trace: cannot open %s '%s' for writing\n", what,
                     path.c_str());
        return false;
    }
    return true;
}

struct RecordOptions {
    fitness::FitnessId fn = fitness::FitnessId::kMBf6_2;
    core::GaParameters params{};
    std::uint8_t preset = 0;
    std::string backend = "rtl";
    std::optional<fault::FaultSite> flip;
    std::string out_path = "trace.jsonl";
    std::string vcd_path;
    std::string daemon_socket;
};

/// Thin-client recording: the daemon runs the job and streams its trace
/// events back; we append them to the JSONL file exactly as a local record
/// would have.
int record_via_daemon(const RecordOptions& opt) {
    if (opt.flip.has_value() || !opt.vcd_path.empty()) {
        std::fprintf(stderr, "gaip-trace: --daemon does not support --flip/--vcd\n");
        return 2;
    }
    try {
        service::JobSpec spec;
        spec.fn = opt.fn;
        spec.params = core::resolve_parameters(opt.preset, opt.params);
        if (opt.preset != 0) spec.params.seed = prng::kPresetSeeds[opt.preset - 1];
        spec.backend = opt.backend == "rtl" ? service::JobBackend::kRtl
                                            : service::JobBackend::kGates;
        trace::JsonlSink sink(opt.out_path);
        service::RetryPolicy policy;
        policy.attempts = 3;  // backoff dial keeps a dead daemon fast to diagnose
        service::Client client = service::Client::dial(opt.daemon_socket, policy);
        const service::Frame res =
            client.run_job(spec, [&](const trace::TraceEvent& e) { sink.on_event(e); });
        sink.flush();
        std::printf("daemon job %llu (%s): best=%llu cand=%llu, %llu events -> %s\n",
                    static_cast<unsigned long long>(res.u64("id")), opt.backend.c_str(),
                    static_cast<unsigned long long>(res.u64("best_fitness")),
                    static_cast<unsigned long long>(res.u64("best_candidate")),
                    static_cast<unsigned long long>(sink.events_written()),
                    opt.out_path.c_str());
        return 0;
    } catch (const service::ConnectError& e) {
        std::fprintf(stderr, "gaip-trace: %s\n", e.what());
        return 4;
    } catch (const service::MalformedResponse& e) {
        std::fprintf(stderr, "gaip-trace: %s\n", e.what());
        return 5;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "gaip-trace: %s\n", e.what());
        return 2;
    }
}

int cmd_record(const RecordOptions& opt) {
    if (!validate_writable(opt.out_path, "output file")) return 2;
    if (!opt.vcd_path.empty() && !validate_writable(opt.vcd_path, "VCD file")) return 2;
    if (!opt.daemon_socket.empty()) return record_via_daemon(opt);
    if (opt.flip.has_value()) {
        if (opt.backend != "rtl") {
            std::fprintf(stderr, "gaip-trace: --flip requires the rtl backend\n");
            return 2;
        }
        fault::InjectorConfig icfg;
        icfg.fn = opt.fn;
        icfg.params = opt.params;
        fault::SeuInjector injector(icfg);
        trace::JsonlSink sink(opt.out_path);
        injector.set_sink(&sink);
        const fault::FaultRecord rec =
            injector.run_rtl(*opt.flip, fault::InjectBackend::kPoke);
        sink.flush();
        std::printf("flip %s:%u @cycle %llu -> %s (best=%u cand=%u), %llu events -> %s\n",
                    rec.site.reg.c_str(), rec.site.bit,
                    static_cast<unsigned long long>(rec.inject_cycle),
                    fault::outcome_name(rec.outcome), rec.best_fitness, rec.best_candidate,
                    static_cast<unsigned long long>(sink.events_written()),
                    opt.out_path.c_str());
        return 0;
    }

    if (opt.backend == "lanes") {
        trace::JsonlSink sink(opt.out_path);
        // The compiled engines are built inside the runner constructor, so
        // the JIT telemetry sink (jit_compile / jit_cache_hit /
        // jit_fallback under GAIP_JIT=1) must be attached first; detached
        // before the sink dies.
        gates::jit::set_trace_sink(&sink);
        gates::BatchGateRunner runner(opt.fn, {opt.params});
        gates::jit::set_trace_sink(nullptr);
        runner.set_lane_sink(0, &sink);
        std::unique_ptr<trace::VcdWriter> vcd;
        if (!opt.vcd_path.empty()) {
            vcd = std::make_unique<trace::VcdWriter>(opt.vcd_path);
            runner.add_vcd(vcd.get(), {0});
        }
        const std::vector<gates::BatchLaneResult> res = runner.run();
        sink.flush();
        std::printf("lane 0: best=%u cand=%u gens=%u, %llu events -> %s\n",
                    res[0].best_fitness, res[0].best_candidate, res[0].generations,
                    static_cast<unsigned long long>(sink.events_written()),
                    opt.out_path.c_str());
        return 0;
    }

    system::GaSystemConfig cfg;
    cfg.params = opt.params;
    cfg.preset = opt.preset;
    cfg.internal_fems = {opt.fn};
    cfg.keep_populations = false;
    cfg.trace_path = opt.out_path;
    cfg.vcd_path = opt.vcd_path;
    cfg.use_gate_level_core = opt.backend == "gates";
    system::GaSystem sys(cfg);
    const core::RunResult res = sys.run();
    std::printf("%s: best=%u cand=%u evals=%llu cycles=%llu -> %s%s%s\n",
                opt.backend.c_str(), res.best_fitness, res.best_candidate,
                static_cast<unsigned long long>(res.evaluations),
                static_cast<unsigned long long>(sys.ga_cycles()), opt.out_path.c_str(),
                opt.vcd_path.empty() ? "" : " + ", opt.vcd_path.c_str());
    return 0;
}

int cmd_filter(const std::string& path, const std::vector<std::string>& kinds,
               std::uint64_t limit) {
    const std::vector<trace::TraceEvent> events = trace::load_jsonl(path);
    const std::vector<trace::TraceEvent> kept = trace::filter_events(events, kinds);
    std::uint64_t n = 0;
    for (const trace::TraceEvent& e : kept) {
        if (limit != 0 && n >= limit) break;
        std::printf("%s\n", trace::to_json_line(e).c_str());
        ++n;
    }
    return 0;
}

int cmd_diff(const std::string& path_a, const std::string& path_b,
             const trace::DiffOptions& opt) {
    const std::vector<trace::TraceEvent> a = trace::load_jsonl(path_a);
    const std::vector<trace::TraceEvent> b = trace::load_jsonl(path_b);
    const std::optional<trace::Divergence> d = trace::first_divergence(a, b, opt);
    if (!d.has_value()) {
        std::printf("match: %zu vs %zu events%s\n", a.size(), b.size(),
                    opt.kinds.empty() ? "" : " (filtered)");
        return 0;
    }
    std::printf("diverge at event %zu:\n", d->index);
    std::printf("  a: %s\n",
                d->missing_a ? "<stream ended>" : trace::to_json_line(d->a).c_str());
    std::printf("  b: %s\n",
                d->missing_b ? "<stream ended>" : trace::to_json_line(d->b).c_str());
    return 1;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
        usage();
        return 0;
    }

    try {
        auto need_value = [&](int& i) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "gaip-trace: %s needs a value\n", argv[i]);
                return nullptr;
            }
            return argv[++i];
        };
        auto need_u64 = [&](int& i, std::uint64_t& v) -> bool {
            const char* flag = argv[i];
            const char* s = need_value(i);
            if (s == nullptr) return false;
            if (!parse_u64(s, v)) {
                std::fprintf(stderr, "gaip-trace: %s wants a number, got '%s'\n", flag, s);
                return false;
            }
            return true;
        };

        if (cmd == "record") {
            RecordOptions opt;
            opt.params = {.pop_size = 32, .n_gens = 32, .xover_threshold = 10,
                          .mut_threshold = 1, .seed = 0x2961};
            for (int i = 2; i < argc; ++i) {
                const std::string a = argv[i];
                std::uint64_t v = 0;
                if (a == "--fitness") {
                    const char* s = need_value(i);
                    if (s == nullptr) return 2;
                    const auto it = fitness_by_name().find(s);
                    if (it == fitness_by_name().end()) {
                        std::fprintf(stderr, "gaip-trace: unknown fitness '%s'\n", s);
                        return 2;
                    }
                    opt.fn = it->second;
                } else if (a == "--pop") {
                    if (!need_u64(i, v)) return 2;
                    opt.params.pop_size = core::clamp_pop_size(static_cast<std::uint32_t>(v));
                } else if (a == "--gens") {
                    if (!need_u64(i, v)) return 2;
                    opt.params.n_gens = static_cast<std::uint32_t>(v);
                } else if (a == "--xover") {
                    if (!need_u64(i, v)) return 2;
                    opt.params.xover_threshold = static_cast<std::uint8_t>(v & 0xF);
                } else if (a == "--mut") {
                    if (!need_u64(i, v)) return 2;
                    opt.params.mut_threshold = static_cast<std::uint8_t>(v & 0xF);
                } else if (a == "--seed") {
                    if (!need_u64(i, v)) return 2;
                    opt.params.seed = static_cast<std::uint16_t>(v);
                } else if (a == "--preset") {
                    if (!need_u64(i, v)) return 2;
                    if (v > 3) {
                        std::fprintf(stderr,
                                     "gaip-trace: --preset wants a mode 0..3, got %llu\n",
                                     static_cast<unsigned long long>(v));
                        return 2;
                    }
                    opt.preset = static_cast<std::uint8_t>(v);
                } else if (a == "--backend") {
                    const char* s = need_value(i);
                    if (s == nullptr) return 2;
                    opt.backend = s;
                    if (opt.backend != "rtl" && opt.backend != "gates" &&
                        opt.backend != "lanes") {
                        std::fprintf(stderr, "gaip-trace: unknown backend '%s'\n", s);
                        return 2;
                    }
                } else if (a == "--flip") {
                    const char* s = need_value(i);
                    if (s == nullptr) return 2;
                    const std::string spec = s;
                    const std::size_t c1 = spec.find(':');
                    const std::size_t c2 = spec.find(':', c1 + 1);
                    std::uint64_t bit = 0, cyc = 0;
                    if (c1 == std::string::npos || c2 == std::string::npos ||
                        !parse_u64(spec.substr(c1 + 1, c2 - c1 - 1).c_str(), bit) ||
                        !parse_u64(spec.substr(c2 + 1).c_str(), cyc)) {
                        std::fprintf(stderr, "gaip-trace: --flip wants REG:BIT:CYCLE\n");
                        return 2;
                    }
                    opt.flip = fault::FaultSite{spec.substr(0, c1),
                                                static_cast<unsigned>(bit), cyc};
                } else if (a == "--daemon") {
                    const char* s = need_value(i);
                    if (s == nullptr) return 2;
                    opt.daemon_socket = s;
                } else if (a == "-o" || a == "--out") {
                    const char* s = need_value(i);
                    if (s == nullptr) return 2;
                    opt.out_path = s;
                } else if (a == "--vcd") {
                    const char* s = need_value(i);
                    if (s == nullptr) return 2;
                    opt.vcd_path = s;
                } else {
                    std::fprintf(stderr, "gaip-trace: unknown option '%s'\n", a.c_str());
                    return 2;
                }
            }
            return cmd_record(opt);
        }

        if (cmd == "filter") {
            std::string path;
            std::vector<std::string> kinds;
            std::uint64_t limit = 0;
            for (int i = 2; i < argc; ++i) {
                const std::string a = argv[i];
                if (a == "--kind") {
                    const char* s = need_value(i);
                    if (s == nullptr) return 2;
                    kinds = split_csv(s);
                } else if (a == "--limit") {
                    if (!need_u64(i, limit)) return 2;
                } else if (!a.empty() && a[0] != '-' && path.empty()) {
                    path = a;
                } else {
                    std::fprintf(stderr, "gaip-trace: unknown option '%s'\n", a.c_str());
                    return 2;
                }
            }
            if (path.empty()) {
                std::fprintf(stderr, "gaip-trace: filter needs an input file\n");
                return 2;
            }
            return cmd_filter(path, kinds, limit);
        }

        if (cmd == "diff") {
            std::vector<std::string> paths;
            trace::DiffOptions opt;
            for (int i = 2; i < argc; ++i) {
                const std::string a = argv[i];
                if (a == "--kind") {
                    const char* s = need_value(i);
                    if (s == nullptr) return 2;
                    opt.kinds = split_csv(s);
                } else if (a == "--ignore") {
                    const char* s = need_value(i);
                    if (s == nullptr) return 2;
                    opt.ignore_keys = split_csv(s);
                } else if (a == "--strict") {
                    opt.compare_time = true;
                    opt.compare_cycle = true;
                } else if (!a.empty() && a[0] != '-') {
                    paths.push_back(a);
                } else {
                    std::fprintf(stderr, "gaip-trace: unknown option '%s'\n", a.c_str());
                    return 2;
                }
            }
            if (paths.size() != 2) {
                std::fprintf(stderr, "gaip-trace: diff needs exactly two files\n");
                return 2;
            }
            return cmd_diff(paths[0], paths[1], opt);
        }

        std::fprintf(stderr, "gaip-trace: unknown command '%s'\n", cmd.c_str());
        usage();
        return 2;
    } catch (const std::exception& ex) {
        std::fprintf(stderr, "gaip-trace: %s\n", ex.what());
        return 2;
    }
}
