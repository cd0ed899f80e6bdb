/**
 * @file
 * Layer-by-layer replay of one run (traced runs only). The replay calls
 * the same public entry points spec::Engine::run composes — workload
 * build, System build, runtime install, System::run, result collection —
 * each inside its own span, then probes the per-run fixed costs a
 * deployed daemon pays on top: one stat dump + digest (one checkpoint),
 * and the wire encode/decode of the result row.
 */

#ifndef HOSTBENCH_REPLAY_HH
#define HOSTBENCH_REPLAY_HH

#include <cstdint>

#include "runtime/runtime.hh"
#include "spec/run_spec.hh"
#include "trace.hh"

namespace hostbench
{

/** Host costs (seconds) of one replayed run, one entry per layer call. */
struct LayerCosts
{
    double build = 0.0;   ///< apps: Engine::buildProgram
    double system = 0.0;  ///< cpu: Engine::makeSystem
    double install = 0.0; ///< runtime: makeRuntime + install + arming
    double run = 0.0;     ///< sim: System::run
    double dump = 0.0;    ///< runtime: StatGroup::dump + FNV-1a digest
    double encode = 0.0;  ///< service: wire::runResultJson
    double decode = 0.0;  ///< service: wire::runResultFromJson

    /** What a JobManager worker spends producing the row: build,
     *  system, install and run. */
    double rowWork() const { return build + system + install + run; }
};

/** Simulated counters of one replayed run (StatGroup + RunResult). */
struct LayerCounts
{
    std::uint64_t cycles = 0;
    std::uint64_t evaluatedCycles = 0;
    std::uint64_t componentTicks = 0;
    std::uint64_t tasks = 0;
    std::uint64_t depEdges = 0;
    std::uint64_t trsStalls = 0;
    std::uint64_t gatewayStallCycles = 0;
    std::uint64_t crossShardEdges = 0;
    std::uint64_t steals = 0;
    std::uint64_t routingStalls = 0;
    std::uint64_t roccInsts = 0;
    std::uint64_t busStallCycles = 0;
    std::uint64_t dramStallCycles = 0;
    std::uint64_t mshrStallCycles = 0;
    std::uint64_t coreResumes = 0;
    std::uint64_t checkpoints = 0;

    LayerCounts &operator+=(const LayerCounts &o);
};

struct Replayed
{
    /** The run's result record, assembled from the layers' public
     *  accessors. It feeds the wire probe and a sanity check against the
     *  row (same cycles and tasks); the field-for-field gate compares
     *  rows with spec::Engine::run itself. */
    picosim::rt::RunResult result;
    LayerCosts cost;
    LayerCounts counts;
};

/**
 * Replay canonical @p spec. Every layer call is a span under @p parent
 * tagged with @p request. Probes that are not on the request's path are
 * tagged with request 0: the dump probe always, the wire probes unless
 * @p served (the row crossed the daemon's wire). @p checkpointEvery arms
 * the checkpoint stride a journaled daemon runs with (0: none).
 */
Replayed replayRun(const picosim::spec::RunSpec &spec, Tracer &tracer,
                   std::uint64_t parent, std::uint64_t request,
                   picosim::Cycle checkpointEvery, bool served);

} // namespace hostbench

#endif // HOSTBENCH_REPLAY_HH
