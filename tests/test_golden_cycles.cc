/**
 * @file
 * Golden cycle-count snapshot tests.
 *
 * Every workload is run on the scalar baseline and on the default
 * 4-unit multiscalar machine under a pinned (default) configuration,
 * twice: once with the quiescence fast-forward enabled and once with
 * it disabled (ScalarConfig/MsConfig::fastForward = false). The two
 * runs must agree on every observable — total cycles, instruction
 * count, task counts, program output, and the full per-category cycle
 * accounting — and the fast-forward numbers must match the checked-in
 * snapshot in tests/golden/cycles.json exactly. Any timing drift,
 * intended or not, fails here first.
 *
 * Regenerating the snapshot after an *intended* timing change:
 *
 *     cd build && MSIM_REGEN_GOLDEN=1 ./tests/test_golden_cycles
 *
 * rewrites tests/golden/cycles.json in the source tree (the path is
 * baked in via the MSIM_GOLDEN_DIR compile definition). Commit the
 * regenerated file together with the change that moved the numbers,
 * and explain the movement in the commit message.
 *
 * The same cases also pin the text of the processor's full stats dump
 * (StatRegistry::format(), fast-forward on) as a 64-bit FNV-1a digest
 * plus a line count in tests/golden/stats.json. Every counter, its
 * name, its order and its value is covered, so a refactor of the
 * stats plumbing that changes any printed row fails here. The same
 * MSIM_REGEN_GOLDEN=1 run rewrites both files.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/multiscalar_processor.hh"
#include "core/scalar_processor.hh"
#include "sim/compiled_workload.hh"
#include "sim/runner.hh"
#include "workloads/workload.hh"

namespace msim {
namespace {

/** One snapshot row. */
struct GoldenEntry
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t tasksRetired = 0;
    std::uint64_t tasksSquashed = 0;

    bool
    operator==(const GoldenEntry &o) const
    {
        return cycles == o.cycles && instructions == o.instructions &&
               tasksRetired == o.tasksRetired &&
               tasksSquashed == o.tasksSquashed;
    }
};

std::string
goldenPath()
{
    return std::string(MSIM_GOLDEN_DIR) + "/cycles.json";
}

std::string
statsGoldenPath()
{
    return std::string(MSIM_GOLDEN_DIR) + "/stats.json";
}

bool
regenMode()
{
    const char *env = std::getenv("MSIM_REGEN_GOLDEN");
    return env && *env && std::string(env) != "0";
}

/** Pull the number following "<field>": at/after @p pos. */
std::uint64_t
parseField(const std::string &text, size_t pos, const std::string &field)
{
    const std::string needle = "\"" + field + "\":";
    const size_t at = text.find(needle, pos);
    EXPECT_NE(at, std::string::npos)
        << "golden file is missing field '" << field << "'";
    if (at == std::string::npos)
        return 0;
    return std::strtoull(text.c_str() + at + needle.size(), nullptr, 10);
}

/** Load the whole snapshot file, keyed by "workload/mode". */
const std::map<std::string, GoldenEntry> &
loadGolden()
{
    static const std::map<std::string, GoldenEntry> golden = [] {
        std::map<std::string, GoldenEntry> entries;
        std::ifstream in(goldenPath());
        if (!in)
            return entries;  // missing file reported per test
        std::stringstream ss;
        ss << in.rdbuf();
        const std::string text = ss.str();
        size_t pos = 0;
        while ((pos = text.find("\"key\":", pos)) != std::string::npos) {
            const size_t q0 = text.find('"', pos + 6);
            const size_t q1 = text.find('"', q0 + 1);
            if (q0 == std::string::npos || q1 == std::string::npos)
                break;
            const std::string key = text.substr(q0 + 1, q1 - q0 - 1);
            GoldenEntry e;
            e.cycles = parseField(text, q1, "cycles");
            e.instructions = parseField(text, q1, "instructions");
            e.tasksRetired = parseField(text, q1, "tasksRetired");
            e.tasksSquashed = parseField(text, q1, "tasksSquashed");
            entries[key] = e;
            pos = q1;
        }
        return entries;
    }();
    return golden;
}

/** Measured entries collected for MSIM_REGEN_GOLDEN=1 mode. */
std::map<std::string, GoldenEntry> &
regenEntries()
{
    static std::map<std::string, GoldenEntry> entries;
    return entries;
}

/** One stats snapshot row: digest and size of the stats text. */
struct StatsEntry
{
    std::uint64_t fnv1a = 0;
    std::uint64_t lines = 0;
};

/** Load tests/golden/stats.json, keyed by "workload/mode". */
const std::map<std::string, StatsEntry> &
loadStatsGolden()
{
    static const std::map<std::string, StatsEntry> golden = [] {
        std::map<std::string, StatsEntry> entries;
        std::ifstream in(statsGoldenPath());
        if (!in)
            return entries;  // missing file reported per test
        std::stringstream ss;
        ss << in.rdbuf();
        const std::string text = ss.str();
        size_t pos = 0;
        while ((pos = text.find("\"key\":", pos)) != std::string::npos) {
            const size_t q0 = text.find('"', pos + 6);
            const size_t q1 = text.find('"', q0 + 1);
            if (q0 == std::string::npos || q1 == std::string::npos)
                break;
            const std::string key = text.substr(q0 + 1, q1 - q0 - 1);
            StatsEntry e;
            const size_t h = text.find("\"fnv1a\": \"", q1);
            EXPECT_NE(h, std::string::npos)
                << "stats golden is missing field 'fnv1a'";
            if (h != std::string::npos)
                e.fnv1a = std::strtoull(text.c_str() + h + 10, nullptr, 16);
            e.lines = parseField(text, q1, "lines");
            entries[key] = e;
            pos = q1;
        }
        return entries;
    }();
    return golden;
}

/** Measured stats entries collected for MSIM_REGEN_GOLDEN=1 mode. */
std::map<std::string, StatsEntry> &
regenStatsEntries()
{
    static std::map<std::string, StatsEntry> entries;
    return entries;
}

/** 64-bit FNV-1a over the bytes of @p text. */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Writes the regenerated snapshots after all tests ran. */
class RegenWriter : public ::testing::Environment
{
  public:
    void
    TearDown() override
    {
        if (regenMode())
            writeStats();
        if (!regenMode() || regenEntries().empty())
            return;
        std::ofstream out(goldenPath());
        ASSERT_TRUE(out.good())
            << "cannot write golden file " << goldenPath();
        out << "{\n  \"schema\": \"msim-golden-cycles-v1\",\n"
            << "  \"entries\": [\n";
        size_t i = 0;
        for (const auto &[key, e] : regenEntries()) {
            out << "    { \"key\": \"" << key << "\", \"cycles\": "
                << e.cycles << ", \"instructions\": " << e.instructions
                << ", \"tasksRetired\": " << e.tasksRetired
                << ", \"tasksSquashed\": " << e.tasksSquashed << " }"
                << (++i < regenEntries().size() ? "," : "") << "\n";
        }
        out << "  ]\n}\n";
        std::printf("regenerated %s (%zu entries)\n",
                    goldenPath().c_str(), regenEntries().size());
    }

  private:
    void
    writeStats()
    {
        if (regenStatsEntries().empty())
            return;
        std::ofstream out(statsGoldenPath());
        ASSERT_TRUE(out.good())
            << "cannot write golden file " << statsGoldenPath();
        out << "{\n  \"schema\": \"msim-golden-stats-v1\",\n"
            << "  \"entries\": [\n";
        size_t i = 0;
        for (const auto &[key, e] : regenStatsEntries()) {
            char hex[17];
            std::snprintf(hex, sizeof(hex), "%016llx",
                          static_cast<unsigned long long>(e.fnv1a));
            out << "    { \"key\": \"" << key << "\", \"fnv1a\": \""
                << hex << "\", \"lines\": " << e.lines << " }"
                << (++i < regenStatsEntries().size() ? "," : "") << "\n";
        }
        out << "  ]\n}\n";
        std::printf("regenerated %s (%zu entries)\n",
                    statsGoldenPath().c_str(), regenStatsEntries().size());
    }
};

const ::testing::Environment *const kRegenWriter =
    ::testing::AddGlobalTestEnvironment(new RegenWriter);

/**
 * One golden case. Plain, zero-initialised bytes only: GoogleTest
 * prints a param that has no PrintTo as its raw bytes, and that text
 * is part of every test name ctest discovers. A std::string member put
 * a heap address and stale buffer bytes into those names, so they
 * changed from build to build.
 */
struct Case
{
    /** True = 10x first-beat bus latency (memory-bound regime). */
    bool slowmem = false;
    bool multiscalar = false;
    char workload[38] = {};
};
static_assert(sizeof(Case) == 40, "Case bytes appear in the test names");

Case
makeCase(const std::string &workload, bool multiscalar, bool slowmem = false)
{
    Case c;
    c.slowmem = slowmem;
    c.multiscalar = multiscalar;
    if (workload.size() >= sizeof(c.workload))
        ADD_FAILURE() << "workload name too long for Case: " << workload;
    workload.copy(c.workload, sizeof(c.workload) - 1);
    return c;
}

class GoldenCycles : public ::testing::TestWithParam<Case>
{
};

class GoldenStats : public ::testing::TestWithParam<Case>
{
};

/** The snapshot key of a case, e.g. "gups/ms4-slowmem". */
std::string
caseKey(const Case &c)
{
    return std::string(c.workload) + (c.multiscalar ? "/ms4" : "/scalar") +
           (c.slowmem ? "-slowmem" : "");
}

/**
 * The pinned configuration: library defaults for either machine,
 * optionally with the slow-memory bus (first beat 100 cycles instead
 * of 10 — the latency-tolerance design point of the L2 ablation).
 */
RunSpec
pinnedSpec(bool multiscalar, bool fast_forward, bool slowmem)
{
    RunSpec spec;
    spec.multiscalar = multiscalar;
    spec.ms.fastForward = fast_forward;
    spec.scalar.fastForward = fast_forward;
    if (slowmem) {
        spec.ms.bus.firstBeatLatency = 100;
        spec.scalar.bus.firstBeatLatency = 100;
    }
    return spec;
}

TEST_P(GoldenCycles, FastForwardIsCycleExactAndMatchesSnapshot)
{
    const Case &c = GetParam();
    const workloads::Workload w = workloads::get(c.workload);

    const RunResult on =
        runWorkload(w, pinnedSpec(c.multiscalar, true, c.slowmem));
    const RunResult off =
        runWorkload(w, pinnedSpec(c.multiscalar, false, c.slowmem));

    // The fast-forward must be invisible in every observable.
    EXPECT_EQ(on.cycles, off.cycles);
    EXPECT_EQ(on.instructions, off.instructions);
    EXPECT_EQ(on.squashedInstructions, off.squashedInstructions);
    EXPECT_EQ(on.tasksRetired, off.tasksRetired);
    EXPECT_EQ(on.tasksSquashed, off.tasksSquashed);
    EXPECT_EQ(on.controlSquashes, off.controlSquashes);
    EXPECT_EQ(on.memorySquashes, off.memorySquashes);
    EXPECT_EQ(on.idleCycles, off.idleCycles);
    EXPECT_EQ(on.output, off.output);
    EXPECT_EQ(off.fastForwardedCycles, 0u);

    // Full per-category accounting must match, not just the totals.
    ASSERT_EQ(on.accounting.numUnits, off.accounting.numUnits);
    for (size_t cat = 0; cat < kNumCycleCats; ++cat) {
        EXPECT_EQ(on.accounting.total[cat], off.accounting.total[cat])
            << "category " << cycleCatName(CycleCat(cat));
        for (unsigned u = 0; u < on.accounting.numUnits; ++u) {
            EXPECT_EQ(on.accounting.perUnit[u][cat],
                      off.accounting.perUnit[u][cat])
                << "unit " << u << " category "
                << cycleCatName(CycleCat(cat));
        }
    }

    // The exactness invariant holds for both runs.
    EXPECT_EQ(on.accounting.sum(),
              on.cycles * on.accounting.numUnits);
    EXPECT_EQ(off.accounting.sum(),
              off.cycles * off.accounting.numUnits);

    const std::string key = caseKey(c);
    GoldenEntry measured;
    measured.cycles = on.cycles;
    measured.instructions = on.instructions;
    measured.tasksRetired = on.tasksRetired;
    measured.tasksSquashed = on.tasksSquashed;

    if (regenMode()) {
        regenEntries()[key] = measured;
        return;
    }

    const auto &golden = loadGolden();
    auto it = golden.find(key);
    ASSERT_NE(it, golden.end())
        << "no golden entry for " << key << " in " << goldenPath()
        << " — regenerate with MSIM_REGEN_GOLDEN=1 (see file header)";
    EXPECT_EQ(measured.cycles, it->second.cycles) << key;
    EXPECT_EQ(measured.instructions, it->second.instructions) << key;
    EXPECT_EQ(measured.tasksRetired, it->second.tasksRetired) << key;
    EXPECT_EQ(measured.tasksSquashed, it->second.tasksSquashed) << key;
}

/** Build the processor the run path would, run it, dump its stats. */
template <typename Proc, typename Config>
std::string
statsText(const CompiledWorkload &compiled, const Config &cfg)
{
    Proc proc(compiled.program, cfg);
    if (compiled.workload.init)
        compiled.workload.init(proc.memory(), compiled.program);
    proc.setInput(compiled.workload.input);
    const RunResult r = proc.run();
    EXPECT_TRUE(r.exited);
    return proc.stats().format();
}

TEST_P(GoldenStats, FormatMatchesSnapshot)
{
    const Case &c = GetParam();
    const RunSpec spec = pinnedSpec(c.multiscalar, true, c.slowmem);
    const auto compiled =
        compileWorkload(workloads::get(c.workload), c.multiscalar);
    const std::string text =
        c.multiscalar
            ? statsText<MultiscalarProcessor>(*compiled, spec.ms)
            : statsText<ScalarProcessor>(*compiled, spec.scalar);

    const std::string key = caseKey(c);
    StatsEntry measured;
    measured.fnv1a = fnv1a(text);
    for (char ch : text)
        measured.lines += ch == '\n';

    if (regenMode()) {
        regenStatsEntries()[key] = measured;
        return;
    }

    const auto &golden = loadStatsGolden();
    auto it = golden.find(key);
    ASSERT_NE(it, golden.end())
        << "no golden entry for " << key << " in " << statsGoldenPath()
        << " — regenerate with MSIM_REGEN_GOLDEN=1 (see file header)";
    EXPECT_EQ(measured.lines, it->second.lines) << key;
    EXPECT_EQ(measured.fnv1a, it->second.fnv1a)
        << key << ": stats text differs from the snapshot; full text:\n"
        << text;
}

/** The memory-bound workloads also snapshot the slowmem regime. */
bool
isCacheStress(const std::string &name)
{
    return name == "pointer_chase" || name == "stream_triad" ||
           name == "gups" || name == "stencil" || name == "thrash";
}

std::vector<Case>
allCases()
{
    std::vector<Case> cases;
    for (const auto &[name, factory] : workloads::registry()) {
        (void)factory;
        cases.push_back(makeCase(name, false));
        cases.push_back(makeCase(name, true));
        if (isCacheStress(name)) {
            cases.push_back(makeCase(name, false, true));
            cases.push_back(makeCase(name, true, true));
        }
    }
    return cases;
}

std::string
caseName(const ::testing::TestParamInfo<Case> &info)
{
    return std::string(info.param.workload) +
           (info.param.multiscalar ? "_ms4" : "_scalar") +
           (info.param.slowmem ? "_slowmem" : "");
}

INSTANTIATE_TEST_SUITE_P(All, GoldenCycles, ::testing::ValuesIn(allCases()),
                         caseName);
INSTANTIATE_TEST_SUITE_P(All, GoldenStats, ::testing::ValuesIn(allCases()),
                         caseName);

} // namespace
} // namespace msim
