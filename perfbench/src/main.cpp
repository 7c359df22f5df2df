// perfbench: end-to-end benchmark of the GA IP core simulator stack.
//
//   perfbench --workload <gate_lanes|seu_campaign|rtl_grid|gaipd_mixed>
//             --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//
// Prints, in order: one `PERFBENCH_ENV {...}` line (the environment block),
// one `PERFBENCH_SAMPLES {...}` line (samples behind each end-to-end
// metric), one `PERFBENCH_UNITS [...]` line (the simulated statistics of every
// deterministic unit of work, for the cross-run repeat check in run.py), one
// `PERFBENCH_KNOWN_DEFECTS [...]` line (program defects seen outside the
// benchmarked work, not counted as failed) and, last, the result object
// {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set. See perfbench/README.md for every name.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <set>
#include <string>

#include "common.hpp"

namespace {

using perfbench::Report;

// Units of every metric the benchmark may print; the end-to-end set and the
// per-layer set are exactly what BENCHMARK.json declares.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},
    {"sim_cycles_per_s", "1/s"},
    {"results_per_s", "1/s"},
    {"job_latency_p50_ms", "ms"},
    {"job_latency_p99_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

std::vector<std::pair<std::string, std::string>> layer_metrics() {
    std::vector<std::pair<std::string, std::string>> m = {
        {"gates.build_s", "s"},
        {"gates.compile_s", "s"},
        {"gates.jit_compiles", "count"},
        {"gates.jit_cold_s", "s"},
        {"gates.instructions", "count"},
        {"gates.kernel_s", "s"},
        {"batch_runner.step_s", "s"},
        {"batch_runner.glue_s", "s"},
        {"batch_runner.glue_frac", "fraction"},
        {"batch_runner.lane_occupancy", "fraction"},
        {"fault.setup_s", "s"},
        {"fault.batch_ms_p50", "ms"},
        {"fault.batch_ms_max", "ms"},
        {"fault.batches", "count"},
        {"fault.gate_cycles", "count"},
        {"fault.lane_fill", "fraction"},
        {"fault.kernel_s", "s"},
        {"fault.glue_frac", "fraction"},
        {"fault.scan_replay_disagreements", "count"},
        {"system.run_s", "s"},
        {"rtl.module_evals_per_cycle", "count"},
        {"rtl.settle_passes_per_cycle", "count"},
        {"core.behavioral_s", "s"},
        {"supervisor.run_s", "s"},
        {"supervisor.overhead_frac", "fraction"},
        {"supervisor.attempts", "count"},
        {"service.submit_rpc_ms_p50", "ms"},
        {"service.submit_rpc_ms_p99", "ms"},
        {"service.queue_wait_ms_p50", "ms"},
        {"service.queue_wait_ms_p99", "ms"},
        {"service.run_ms_p50.gates", "ms"},
        {"service.run_ms_p50.rtl", "ms"},
        {"service.run_ms_p50.behavioral", "ms"},
        {"service.run_ms_p50.islands", "ms"},
        {"service.run_ms_p50.supervised", "ms"},
        {"service.deliver_ms_p50", "ms"},
        {"service.lanes_per_batch", "count"},
        {"service.busy_frac", "fraction"},
        {"service.busy_share.gates", "fraction"},
        {"service.busy_share.rtl", "fraction"},
        {"service.busy_share.behavioral", "fraction"},
        {"service.busy_share.islands", "fraction"},
        {"service.busy_share.supervised", "fraction"},
        {"service.journal_records", "count"},
        {"service.journal_append_ms_p50", "ms"},
        {"service.journal_latency_p50_ms", "ms"},
        {"service.journal_latency_p99_ms", "ms"},
        {"trace.overhead_frac", "fraction"},
    };
    for (const char* s : perfbench::kSpanNames)
        m.emplace_back(std::string("span.") + s + ".self_s", "s");
    return m;
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) continue;
        out += c;
    }
    return out;
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <gate_lanes|seu_campaign|rtl_grid|"
                 "gaipd_mixed> --seed <n> --seconds <s> --trace <0|1> --workdir <dir>\n",
                 why);
    std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::Options o;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char* v = argv[i + 1];
        if (k == "--workload") o.workload = v;
        else if (k == "--seed") o.seed = std::strtoull(v, nullptr, 0);
        else if (k == "--seconds") o.seconds = std::strtod(v, nullptr);
        else if (k == "--trace") o.trace = std::strcmp(v, "0") != 0;
        else if (k == "--workdir") o.workdir = v;
        else usage(("unknown option " + k).c_str());
    }
    if (argc % 2 == 0) usage("options come in pairs");
    if (o.workdir.empty()) usage("--workdir is required");
    if (!(o.seconds > 0)) usage("--seconds must be positive");

    const std::map<std::string, Report (*)(const perfbench::Options&)> workloads = {
        {"gate_lanes", perfbench::run_gate_lanes},
        {"seu_campaign", perfbench::run_seu_campaign},
        {"rtl_grid", perfbench::run_rtl_grid},
        {"gaipd_mixed", perfbench::run_gaipd_mixed},
    };
    const auto it = workloads.find(o.workload);
    if (it == workloads.end()) usage(("unknown workload '" + o.workload + "'").c_str());
    std::filesystem::create_directories(o.workdir);

    Report r;
    try {
        r = it->second(o);
    } catch (const std::exception& ex) {
        std::fprintf(stderr, "perfbench: %s aborted: %s\n", o.workload.c_str(), ex.what());
        return 1;
    }

    // The printed set is exactly the declared set: a workload that does not
    // touch a layer reports 0 for it; an undeclared name is a bug.
    const auto declared = o.trace ? layer_metrics() : kEndToEnd;
    std::map<std::string, double> values;
    for (const auto& [k, v] : o.trace ? r.layer : r.e2e) values[k] = v;
    std::set<std::string> names;
    for (const auto& [k, u] : declared) names.insert(k);
    for (const auto& [k, v] : values)
        if (names.count(k) == 0) {
            std::fprintf(stderr, "perfbench: undeclared metric %s\n", k.c_str());
            return 1;
        }

    std::string env = "PERFBENCH_ENV {";
    for (std::size_t i = 0; i < r.env.size(); ++i)
        env += (i ? ", \"" : "\"") + json_escape(r.env[i].first) + "\": \"" +
               json_escape(r.env[i].second) + "\"";
    std::printf("%s}\n", env.c_str());
    std::string samples = "PERFBENCH_SAMPLES {";
    for (std::size_t i = 0; i < r.samples.size(); ++i)
        samples += (i ? ", \"" : "\"") + r.samples[i].first + "\": " +
                   std::to_string(r.samples[i].second);
    std::printf("%s}\n", samples.c_str());
    std::string units = "PERFBENCH_UNITS [";
    for (std::size_t i = 0; i < r.units.size(); ++i)
        units += (i ? ", \"" : "\"") + json_escape(r.units[i]) + "\"";
    std::printf("%s]\n", units.c_str());
    std::string defects = "PERFBENCH_KNOWN_DEFECTS [";
    for (std::size_t i = 0; i < r.known_defects.size(); ++i)
        defects += (i ? ", \"" : "\"") + json_escape(r.known_defects[i]) + "\"";
    std::printf("%s]\n", defects.c_str());

    std::string out = "{\"correct\": ";
    out += r.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(r.attempted, 1));
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < declared.size(); ++i) {
        const auto& [k, unit] = declared[i];
        const auto v = values.find(k);
        out += (i ? ", \"" : "\"") + k + "\": {\"value\": " +
               json_number(v == values.end() ? 0.0 : v->second) + ", \"unit\": \"" + unit +
               "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
    return 0;
}
