/**
 * @file
 * Stall counters kept as intervals.
 *
 * A scheduler blocked on its consumer (a full dependence table, TRS or
 * gateway queue) sleeps until the consumer's pop or retirement wakes it,
 * so nothing retries once per blocked cycle, and TickWorld ticks it at
 * cycles the event kernel skips. Its stall counters therefore count
 * each stall as an interval (sim::StallInterval), flushed whenever the
 * stats are read. The values pinned below are what a model retrying
 * every cycle counted; both kernels must reproduce them, at the end of
 * a run and at checkpoint labels that fall inside an open stall, with
 * identical full stat dumps.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "spec/engine.hh"
#include "spec/run_spec.hh"

using namespace picosim;

namespace
{

struct Pin
{
    const char *stat;
    double value;
};

struct StallConfig
{
    const char *name; ///< test-name suffix
    const char *spec; ///< spec text over the defaults
    std::vector<Pin> pins;
};

void
PrintTo(const StallConfig &c, std::ostream *os)
{
    *os << c.spec;
}

spec::RunSpec
inMode(const char *text, sim::EvalMode mode)
{
    spec::RunSpec s = spec::RunSpec::parse(text);
    s.mode = mode;
    return s;
}

std::string
fullDump(spec::InspectedRun &run)
{
    std::ostringstream os;
    run.system->stats().dump(os);
    run.system->memory().stats().dump(os);
    return os.str();
}

/** The value of @p stat in a stat dump ("name value" lines). */
double
statIn(const std::string &dump, const std::string &stat)
{
    std::istringstream in(dump);
    std::string name;
    double value = 0;
    while (in >> name >> value)
        if (name == stat)
            return value;
    ADD_FAILURE() << stat << " missing from the dump";
    return -1;
}

const std::vector<StallConfig> kConfigs = {
    {"blackscholes_4K_B32_Phentos",
     "workload=blackscholes wl.options=4096 wl.block=32",
     {{"picos.depTableStalls", 64'502}}},
    {"sparselu_N128_M8_Phentos", "workload=sparselu wl.nb=12 wl.bs=48",
     {{"picos.trsStalls", 139'885}}},
    {"blackscholes_16core_4x4",
     "workload=blackscholes cores=16 sched-shards=4 clusters=4",
     {{"sharded.depTableStalls", 94'039},
      {"sharded.gatewayBackpressure", 21'317}}},
    // The stall-link spec of test_fault_injection.cc: the stalled
    // cluster's backpressure is not retried while its link is down.
    {"task_chain_stall_link",
     "workload=task-chain wl.tasks=2000 wl.deps=1 wl.payload=500 "
     "clusters=2 fault.kind=stall-link fault.cycle=50000 "
     "fault.until=150000 fault.target=0",
     {{"sharded.trsStalls", 909'271},
      {"sharded.gatewayBackpressure", 832'961}}},
    // A killed shard's table stall is not retried while it is down; a
    // cluster routing to it keeps retrying.
    {"blackscholes_16K_B16_kill_shard",
     "workload=blackscholes wl.options=16384 wl.block=16 cores=16 "
     "sched-shards=4 clusters=4 fault.kind=kill-shard fault.cycle=30000 "
     "fault.until=400000 fault.target=2",
     {{"sharded.depTableStalls", 397'779},
      {"sharded.gatewayBackpressure", 613'970}}},
};

} // namespace

class StallIntervals : public ::testing::TestWithParam<StallConfig>
{
};

TEST_P(StallIntervals, CountersMatchPerCycleRetriesInBothKernels)
{
    const StallConfig &c = GetParam();
    spec::InspectedRun ev =
        spec::Engine::runInspected(inMode(c.spec, sim::EvalMode::EventDriven));
    spec::InspectedRun tw =
        spec::Engine::runInspected(inMode(c.spec, sim::EvalMode::TickWorld));
    ASSERT_TRUE(ev.result.completed);
    ASSERT_TRUE(tw.result.completed);
    EXPECT_EQ(ev.result.cycles, tw.result.cycles);

    const std::string evDump = fullDump(ev);
    EXPECT_EQ(evDump, fullDump(tw));
    for (const Pin &pin : c.pins)
        EXPECT_EQ(statIn(evDump, pin.stat), pin.value) << pin.stat;
}

INSTANTIATE_TEST_SUITE_P(Configs, StallIntervals,
                         ::testing::ValuesIn(kConfigs),
                         [](const auto &info) {
                             return std::string(info.param.name);
                         });

namespace
{

struct LabelPin
{
    Cycle label;
    std::vector<Pin> pins;
};

/** Every checkpoint of @p text's run, each with its stat dump. */
std::vector<sim::Checkpoint>
checkpoints(const char *text, sim::EvalMode mode, Cycle every)
{
    std::vector<sim::Checkpoint> cuts;
    rt::RunControls ctl;
    ctl.checkpointEvery = every;
    ctl.checkpointDumps = true;
    ctl.onCheckpoint = [&cuts](const sim::Checkpoint &cp) {
        cuts.push_back(cp);
    };
    const spec::InspectedRun run =
        spec::Engine::runInspected(inMode(text, mode), nullptr, ctl);
    EXPECT_TRUE(run.result.completed);
    return cuts;
}

void
expectPinsAtLabels(const char *text, Cycle every,
                   std::initializer_list<LabelPin> labels)
{
    for (const sim::EvalMode mode :
         {sim::EvalMode::EventDriven, sim::EvalMode::TickWorld}) {
        const std::vector<sim::Checkpoint> cuts =
            checkpoints(text, mode, every);
        for (const LabelPin &at : labels) {
            const sim::Checkpoint *cut = nullptr;
            for (const sim::Checkpoint &cp : cuts)
                if (cp.cycle == at.label)
                    cut = &cp;
            ASSERT_NE(cut, nullptr) << "no checkpoint at " << at.label;
            for (const Pin &pin : at.pins)
                EXPECT_EQ(statIn(cut->statDump, pin.stat), pin.value)
                    << pin.stat << " at " << at.label << " in the "
                    << (mode == sim::EvalMode::TickWorld ? "TickWorld"
                                                         : "event")
                    << " kernel";
        }
    }
}

} // namespace

// A checkpoint dispatched past its label (the clock jumped across it)
// counts an open stall as of the label, as a per-cycle retry would have.
TEST(StallIntervalLabels, OpenTableStallCountsUpToTheLabel)
{
    expectPinsAtLabels(
        "workload=stream-deps wl.blocks=128 wl.elems=1024 wl.iters=2",
        50'000,
        {{50'000, {{"picos.depTableStalls", 26'416}}},
         {100'000, {{"picos.depTableStalls", 69'900}}}});
}

// The link goes down at 47,000 while cluster 0 is back-pressured: its
// interval stays open through the outage, which adds nothing to it.
TEST(StallIntervalLabels, LinkDownHoldIsNotCounted)
{
    expectPinsAtLabels(
        "workload=task-chain wl.tasks=2000 wl.deps=1 wl.payload=500 "
        "clusters=2 fault.kind=stall-link fault.cycle=47000 "
        "fault.until=147000 fault.target=0",
        100'000,
        {{100'000,
          {{"sharded.gatewayBackpressure", 214},
           {"sharded.trsStalls", 3'260}}},
         {200'000,
          {{"sharded.gatewayBackpressure", 27'979},
           {"sharded.trsStalls", 33'737}}}});
}

TEST(StallIntervalLabels, KilledShardHoldIsNotCounted)
{
    expectPinsAtLabels(
        "workload=blackscholes wl.options=16384 wl.block=16 cores=16 "
        "sched-shards=4 clusters=4 fault.kind=kill-shard fault.cycle=30000 "
        "fault.until=400000 fault.target=2",
        100'000,
        {{200'000,
          {{"sharded.depTableStalls", 2'181},
           {"sharded.gatewayBackpressure", 169'089}}},
         {400'000,
          {{"sharded.depTableStalls", 2'181},
           {"sharded.gatewayBackpressure", 369'089}}}});
}
