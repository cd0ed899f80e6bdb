/**
 * @file
 * Checkpoint/resume round-trip tests.
 *
 * A checkpoint is a deterministic cut (cycle + stat-dump digest), and
 * resume is fast-forward replay, so the contract under test is bit
 * identity three ways: (1) taking checkpoints must not perturb a run,
 * (2) a run resumed from any recorded cut must reproduce the original
 * result field-for-field (and stat-for-stat) on every seed golden in
 * both kernels, and (3) a digest mismatch on replay must fail the run
 * loudly instead of silently producing a different experiment.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/workloads.hh"
#include "runtime/harness.hh"
#include "service/wire.hh"

using namespace picosim;
using namespace picosim::rt;

namespace
{

HarnessParams
withMode(sim::EvalMode mode)
{
    HarnessParams hp;
    hp.system.evalMode = mode;
    return hp;
}

Program
namedWorkload(const char *name)
{
    return std::string(name) == "task-free" ? apps::taskFree(256, 1, 1000)
                                            : apps::taskChain(256, 1, 1000);
}

std::string
testName(const char *workload, RuntimeKind kind)
{
    std::string name = std::string(workload) + "_" +
                       std::string(kindName(kind));
    for (char &c : name)
        if (c == '-')
            c = '_';
    return name;
}

/** The whole result as one comparable string, resume provenance
 *  zeroed: resumedFromCycle reports where the replay was verified, so
 *  it is the one field allowed to differ between an original run and
 *  its resumed twin. */
std::string
resultKey(const RunResult &res)
{
    RunResult r = res;
    r.resumedFromCycle = 0;
    return svc::wire::runResultJson(r);
}

struct GoldenRun
{
    const char *workload;
    RuntimeKind kind;
    Cycle cycles;
};

/** The test name already says workload and runtime; the parameter
 *  prints as its golden instead of gtest's raw bytes, which hold the
 *  workload pointer and so changed with every build and ASLR base. */
void
PrintTo(const GoldenRun &g, std::ostream *os)
{
    *os << g.cycles << " cycles";
}

} // namespace

class CheckpointRoundTrip : public ::testing::TestWithParam<GoldenRun>
{
};

TEST_P(CheckpointRoundTrip, ResumeReproducesEverySeedGolden)
{
    const GoldenRun &g = GetParam();
    const Program prog = namedWorkload(g.workload);
    const Cycle every = std::max<Cycle>(g.cycles / 3, 1);

    for (const auto mode :
         {sim::EvalMode::EventDriven, sim::EvalMode::TickWorld}) {
        const char *label =
            mode == sim::EvalMode::EventDriven ? "event" : "tickworld";

        const RunResult pure = runProgram(g.kind, prog, withMode(mode));
        ASSERT_TRUE(pure.completed) << label;
        ASSERT_EQ(pure.cycles, g.cycles) << label;

        // Checkpointing must be a pure observer.
        std::vector<sim::Checkpoint> cuts;
        HarnessParams cp = withMode(mode);
        cp.controls.checkpointEvery = every;
        cp.controls.onCheckpoint = [&cuts](const sim::Checkpoint &c) {
            cuts.push_back(c);
        };
        const RunResult base = runProgram(g.kind, prog, cp);
        EXPECT_EQ(resultKey(base), resultKey(pure)) << label;

        ASSERT_FALSE(cuts.empty()) << label;
        for (std::size_t i = 0; i < cuts.size(); ++i) {
            EXPECT_EQ(cuts[i].seq, i + 1) << label;
            EXPECT_EQ(cuts[i].cycle % every, 0u) << label;
            if (i > 0) {
                EXPECT_GT(cuts[i].cycle, cuts[i - 1].cycle) << label;
            }
        }

        // Resume from a mid-run cut: bit-identical, provenance stamped.
        const sim::Checkpoint mid = cuts[cuts.size() / 2];
        ASSERT_NE(mid.cycle, 0u) << label;
        HarnessParams rp = withMode(mode);
        rp.controls.resumeFrom = &mid;
        const RunResult resumed = runProgram(g.kind, prog, rp);
        EXPECT_EQ(resumed.status, RunStatus::Ok) << label;
        EXPECT_EQ(resumed.resumedFromCycle, mid.cycle) << label;
        EXPECT_EQ(resultKey(resumed), resultKey(pure)) << label;
    }
}

// The ten seed goldens (Fig6Style table of test_seed_equivalence.cc):
// every workload x runtime pair the kernel-equivalence suite pins must
// also round-trip through checkpoint/resume bit-identically.
INSTANTIATE_TEST_SUITE_P(
    Fig6Style, CheckpointRoundTrip,
    ::testing::Values(
        GoldenRun{"task-free", RuntimeKind::Serial, 257'280},
        GoldenRun{"task-free", RuntimeKind::NanosSW, 5'043'488},
        GoldenRun{"task-free", RuntimeKind::NanosRV, 978'924},
        GoldenRun{"task-free", RuntimeKind::NanosAXI, 1'189'170},
        GoldenRun{"task-free", RuntimeKind::Phentos, 51'566},
        GoldenRun{"task-chain", RuntimeKind::Serial, 257'280},
        GoldenRun{"task-chain", RuntimeKind::NanosSW, 4'589'870},
        GoldenRun{"task-chain", RuntimeKind::NanosRV, 2'689'474},
        GoldenRun{"task-chain", RuntimeKind::NanosAXI, 3'097'835},
        GoldenRun{"task-chain", RuntimeKind::Phentos, 289'118}),
    [](const auto &info) {
        return testName(info.param.workload, info.param.kind);
    });

TEST(Checkpoint, ReplayReproducesTheExactCutSequence)
{
    const Program prog = namedWorkload("task-free");
    const Cycle every = 10'000;

    std::vector<sim::Checkpoint> first;
    HarnessParams hp;
    hp.controls.checkpointEvery = every;
    hp.controls.onCheckpoint = [&first](const sim::Checkpoint &c) {
        first.push_back(c);
    };
    const RunResult a = runProgram(RuntimeKind::Phentos, prog, hp);
    ASSERT_TRUE(a.completed);
    ASSERT_GE(first.size(), 3u);

    // Resume with the same stride: the replay must re-take every cut
    // with the same label and digest, and verify the resume point.
    std::vector<sim::Checkpoint> second;
    HarnessParams rp;
    rp.controls.checkpointEvery = every;
    rp.controls.resumeFrom = &first[1];
    rp.controls.onCheckpoint = [&second](const sim::Checkpoint &c) {
        second.push_back(c);
    };
    const RunResult b = runProgram(RuntimeKind::Phentos, prog, rp);
    EXPECT_EQ(b.status, RunStatus::Ok);
    EXPECT_EQ(resultKey(a), resultKey(b));
    ASSERT_EQ(second.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(second[i].cycle, first[i].cycle);
        EXPECT_EQ(second[i].digest, first[i].digest);
    }
}

TEST(Checkpoint, DigestMismatchFailsTheRunLoudly)
{
    const Program prog = namedWorkload("task-free");

    std::vector<sim::Checkpoint> cuts;
    HarnessParams hp;
    hp.controls.checkpointEvery = 10'000;
    hp.controls.onCheckpoint = [&cuts](const sim::Checkpoint &c) {
        cuts.push_back(c);
    };
    ASSERT_TRUE(runProgram(RuntimeKind::Phentos, prog, hp).completed);
    ASSERT_FALSE(cuts.empty());

    sim::Checkpoint corrupt = cuts.front();
    corrupt.digest ^= 1; // a different spec/binary/environment
    HarnessParams rp;
    rp.controls.resumeFrom = &corrupt;
    const RunResult res = runProgram(RuntimeKind::Phentos, prog, rp);
    EXPECT_EQ(res.status, RunStatus::Error);
    EXPECT_FALSE(res.completed);
    EXPECT_NE(res.error.find("digest mismatch"), std::string::npos)
        << res.error;
}

TEST(Checkpoint, StatDumpsCapturedOnlyOnRequest)
{
    const Program prog = namedWorkload("task-free");

    HarnessParams hp;
    hp.controls.checkpointEvery = 20'000;
    std::vector<sim::Checkpoint> plain;
    hp.controls.onCheckpoint = [&plain](const sim::Checkpoint &c) {
        plain.push_back(c);
    };
    ASSERT_TRUE(runProgram(RuntimeKind::Phentos, prog, hp).completed);

    hp.controls.checkpointDumps = true;
    std::vector<sim::Checkpoint> dumped;
    hp.controls.onCheckpoint = [&dumped](const sim::Checkpoint &c) {
        dumped.push_back(c);
    };
    ASSERT_TRUE(runProgram(RuntimeKind::Phentos, prog, hp).completed);

    ASSERT_EQ(plain.size(), dumped.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_TRUE(plain[i].statDump.empty());
        ASSERT_FALSE(dumped[i].statDump.empty());
        // The digest is FNV-1a over exactly the captured text.
        EXPECT_EQ(sim::fnv1a(dumped[i].statDump), dumped[i].digest);
        EXPECT_EQ(dumped[i].digest, plain[i].digest);
    }
}
