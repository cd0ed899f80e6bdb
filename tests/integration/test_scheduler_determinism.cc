/**
 * @file
 * Determinism regression suite for the timing-wheel scheduler.
 *
 * Every seed-golden workload is re-run under the new scheduler in BOTH
 * evaluation modes and must reproduce the golden cycle counts
 * bit-identically; on top of the cycle counts, the full component-stat
 * dump of an EventDriven run must equal the TickWorld dump — the
 * event-driven schedule may skip idle evaluations, but no skipped
 * evaluation is allowed to change any modeled counter. Repeated runs
 * must be bitwise-stable, including the kernel's own evaluation
 * metrics.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "apps/workloads.hh"
#include "cpu/system.hh"
#include "runtime/harness.hh"

using namespace picosim;
using namespace picosim::rt;

namespace
{

struct Golden
{
    const char *workload;
    RuntimeKind kind;
    Cycle cycles;
};

/** The test name already says workload and runtime; the parameter
 *  prints as its golden instead of gtest's raw bytes, which hold the
 *  workload pointer and so changed with every build and ASLR base. */
void
PrintTo(const Golden &g, std::ostream *os)
{
    *os << g.cycles << " cycles";
}

// The seed-golden table (default HarnessParams, 8 cores, serial forced
// to 1) — duplicated from test_seed_equivalence so a regression in one
// suite cannot silently weaken the other.
constexpr Golden kGoldens[] = {
    {"task-free", RuntimeKind::Serial, 257'280},
    {"task-free", RuntimeKind::NanosSW, 5'043'488},
    {"task-free", RuntimeKind::NanosRV, 978'924},
    {"task-free", RuntimeKind::NanosAXI, 1'189'170},
    {"task-free", RuntimeKind::Phentos, 51'566},
    {"task-chain", RuntimeKind::Serial, 257'280},
    {"task-chain", RuntimeKind::NanosSW, 4'589'870},
    {"task-chain", RuntimeKind::NanosRV, 2'689'474},
    {"task-chain", RuntimeKind::NanosAXI, 3'097'835},
    {"task-chain", RuntimeKind::Phentos, 289'118},
};

Program
namedWorkload(const char *name)
{
    return std::string(name) == "task-free" ? apps::taskFree(256, 1, 1000)
                                            : apps::taskChain(256, 1, 1000);
}

/** Run one golden config and capture (final cycle, full stat dump). */
std::pair<Cycle, std::string>
runAndDump(const Golden &g, sim::EvalMode mode)
{
    const Program prog = namedWorkload(g.workload);
    cpu::SystemParams sp;
    sp.evalMode = mode;
    sp.numCores = g.kind == RuntimeKind::Serial ? 1 : 8;
    cpu::System sys(sp);
    auto runtime = makeRuntime(g.kind, CostModel{});
    runtime->install(sys, prog);
    EXPECT_TRUE(sys.run(50'000'000'000ull));
    EXPECT_TRUE(runtime->finished());
    std::ostringstream dump;
    sys.stats().dump(dump);
    return {sys.clock().now(), dump.str()};
}

std::string
testName(const Golden &g)
{
    std::string name =
        std::string(g.workload) + "_" + std::string(kindName(g.kind));
    for (char &c : name)
        if (c == '-')
            c = '_';
    return name;
}

} // namespace

class SchedulerDeterminism : public ::testing::TestWithParam<Golden>
{
};

TEST_P(SchedulerDeterminism, GoldenCyclesAndStatsInBothModes)
{
    const Golden &g = GetParam();

    const auto ev = runAndDump(g, sim::EvalMode::EventDriven);
    const auto tw = runAndDump(g, sim::EvalMode::TickWorld);

    // Golden cycle counts, both kernels.
    EXPECT_EQ(ev.first, g.cycles);
    EXPECT_EQ(tw.first, g.cycles);

    // Every modeled counter must agree between the kernels: skipping
    // idle evaluations is only legal because idle ticks are pure no-ops.
    EXPECT_EQ(ev.second, tw.second);
}

TEST_P(SchedulerDeterminism, RepeatedRunsAreBitwiseStable)
{
    const Golden &g = GetParam();
    const Program prog = namedWorkload(g.workload);

    const RunResult a = runProgram(g.kind, prog);
    const RunResult b = runProgram(g.kind, prog);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.cycles, g.cycles);
    EXPECT_EQ(a.evaluatedCycles, b.evaluatedCycles);
    EXPECT_EQ(a.componentTicks, b.componentTicks);
}

INSTANTIATE_TEST_SUITE_P(SeedGoldens, SchedulerDeterminism,
                         ::testing::ValuesIn(kGoldens),
                         [](const auto &info) {
                             return testName(info.param);
                         });
