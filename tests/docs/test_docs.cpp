// Documentation-drift checks: the docs/ tree must stay in sync with the
// code. Fails when a relative markdown link is broken, a src/ subsystem is
// missing from docs/ARCHITECTURE.md, a bench_out/ artifact is not covered
// by docs/BENCH_DATA.md, or a docs/ page is missing from the docs index;
// and when code includes the bench/ forwarding header of BatchGateRunner.
// GAIP_SOURCE_DIR is injected by tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "service/journal.hpp"
#include "service/protocol.hpp"

namespace fs = std::filesystem;

namespace {

const fs::path kRepo = GAIP_SOURCE_DIR;

std::string slurp(const fs::path& p) {
    std::ifstream f(p);
    EXPECT_TRUE(f.good()) << p;
    return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

/// The markdown files whose links and content the drift checks cover.
std::vector<fs::path> doc_files() {
    std::vector<fs::path> files = {kRepo / "README.md", kRepo / "DESIGN.md"};
    for (const auto& e : fs::directory_iterator(kRepo / "docs"))
        if (e.is_regular_file() && e.path().extension() == ".md") files.push_back(e.path());
    return files;
}

/// Extract every inline markdown link target `](target)` in `text`.
std::vector<std::string> link_targets(const std::string& text) {
    std::vector<std::string> out;
    for (std::size_t at = text.find("]("); at != std::string::npos;
         at = text.find("](", at + 2)) {
        const std::size_t close = text.find(')', at + 2);
        if (close == std::string::npos) break;
        out.push_back(text.substr(at + 2, close - at - 2));
    }
    return out;
}

/// Backticked tokens in `text` (the artifact names/patterns of BENCH_DATA.md).
std::vector<std::string> backticked(const std::string& text) {
    std::vector<std::string> out;
    for (std::size_t open = text.find('`'); open != std::string::npos;
         open = text.find('`', open + 1)) {
        const std::size_t close = text.find('`', open + 1);
        if (close == std::string::npos) break;
        out.push_back(text.substr(open + 1, close - open - 1));
        open = close;
    }
    return out;
}

/// `pattern` matches `name` exactly, or around a single `*` wildcard.
bool covers(const std::string& pattern, const std::string& name) {
    const std::size_t star = pattern.find('*');
    if (star == std::string::npos) return pattern == name;
    const std::string prefix = pattern.substr(0, star);
    const std::string suffix = pattern.substr(star + 1);
    return name.size() >= prefix.size() + suffix.size() &&
           name.compare(0, prefix.size(), prefix) == 0 &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

TEST(Docs, RelativeMarkdownLinksResolve) {
    for (const fs::path& file : doc_files()) {
        const std::string text = slurp(file);
        for (std::string target : link_targets(text)) {
            if (target.find("://") != std::string::npos) continue;  // external URL
            if (target.rfind("mailto:", 0) == 0) continue;
            const std::size_t hash = target.find('#');
            if (hash != std::string::npos) target.resize(hash);  // strip anchor
            if (target.empty()) continue;                        // pure in-page anchor
            const fs::path resolved = file.parent_path() / target;
            EXPECT_TRUE(fs::exists(resolved))
                << file.filename() << " links to missing " << target;
        }
    }
}

TEST(Docs, ArchitectureNamesEverySrcSubsystem) {
    const std::string arch = slurp(kRepo / "docs" / "ARCHITECTURE.md");
    for (const auto& e : fs::directory_iterator(kRepo / "src")) {
        if (!e.is_directory()) continue;
        const std::string mention = "src/" + e.path().filename().string() + "/";
        EXPECT_NE(arch.find(mention), std::string::npos)
            << "docs/ARCHITECTURE.md does not document `" << mention << "`";
    }
}

TEST(Docs, BenchDataCoversEveryArtifact) {
    const fs::path bench_out = kRepo / "bench_out";
    if (!fs::exists(bench_out)) GTEST_SKIP() << "no bench_out/ (benches not run)";
    const std::vector<std::string> patterns = backticked(slurp(kRepo / "docs" / "BENCH_DATA.md"));
    for (const auto& e : fs::directory_iterator(bench_out)) {
        if (!e.is_regular_file()) continue;
        const std::string name = e.path().filename().string();
        bool documented = false;
        for (const std::string& p : patterns)
            if (covers(p, name)) {
                documented = true;
                break;
            }
        EXPECT_TRUE(documented)
            << "bench_out/" << name << " has no matching entry in docs/BENCH_DATA.md";
    }
}

TEST(Docs, GaipdDocumentsEveryVerb) {
    // Every control verb of the service protocol (src/service/protocol.hpp
    // kVerbs) must be documented in docs/GAIPD.md — in backticks, so a
    // passing mention in prose doesn't count as documentation.
    const std::string doc = slurp(kRepo / "docs" / "GAIPD.md");
    const auto backtick = [](const char* word) {
        return std::string("`").append(word).append("`");
    };
    for (const char* verb : gaip::service::kVerbs)
        EXPECT_NE(doc.find(backtick(verb)), std::string::npos)
            << "docs/GAIPD.md does not document the `" << verb << "` verb";
    // The structured error codes are part of the same contract.
    for (const char* code :
         {gaip::service::err::kBadFrame, gaip::service::err::kOversized,
          gaip::service::err::kUnknownVerb, gaip::service::err::kUnknownField,
          gaip::service::err::kBadField, gaip::service::err::kQueueFull,
          gaip::service::err::kNotFound, gaip::service::err::kShuttingDown,
          gaip::service::err::kOverloaded, gaip::service::err::kTooManyConns})
        EXPECT_NE(doc.find(backtick(code)), std::string::npos)
            << "docs/GAIPD.md does not document the `" << code << "` error code";
    // The journal record grammar is a recovery contract: every record kind
    // must be documented (the durability section's format table).
    for (const char* kind : gaip::service::kJournalKinds)
        EXPECT_NE(doc.find(backtick(kind)), std::string::npos)
            << "docs/GAIPD.md does not document the `" << kind << "` journal record";
}

TEST(Docs, IndexLinksEveryDocsPage) {
    const std::string index = slurp(kRepo / "docs" / "README.md");
    for (const auto& e : fs::directory_iterator(kRepo / "docs")) {
        if (!e.is_regular_file() || e.path().extension() != ".md") continue;
        const std::string name = e.path().filename().string();
        if (name == "README.md") continue;
        EXPECT_NE(index.find("(" + name + ")"), std::string::npos)
            << "docs/README.md index does not link " << name;
    }
}

}  // namespace

TEST(Layering, NothingIncludesTheBenchBatchRunnerHeader) {
    // BatchGateRunner lives in src/gates/batch_runner.hpp; the bench/ path
    // is a forwarding header kept only for the benchmark sources.
    const fs::path forwarder = kRepo / "bench" / "gate_batch_runner.hpp";
    const std::string needle = "#include \"bench/gate_batch_runner.hpp\"";
    for (const char* dir : {"src", "tools", "tests", "examples", "bench"}) {
        for (const auto& e : fs::recursive_directory_iterator(kRepo / dir)) {
            if (!e.is_regular_file() || e.path() == forwarder) continue;
            const std::string ext = e.path().extension().string();
            if (ext != ".cpp" && ext != ".hpp" && ext != ".h" && ext != ".inl") continue;
            EXPECT_EQ(slurp(e.path()).find(needle), std::string::npos)
                << e.path() << " includes bench/gate_batch_runner.hpp; include "
                << "gates/batch_runner.hpp instead";
        }
    }
}
