#include "replay.hh"

#include <sstream>

#include "runtime/harness.hh"
#include "service/wire.hh"
#include "sim/checkpoint.hh"
#include "spec/engine.hh"

namespace hostbench
{

namespace ps = picosim::spec;
namespace rt = picosim::rt;
namespace wire = picosim::svc::wire;

LayerCounts &
LayerCounts::operator+=(const LayerCounts &o)
{
    cycles += o.cycles;
    evaluatedCycles += o.evaluatedCycles;
    componentTicks += o.componentTicks;
    tasks += o.tasks;
    depEdges += o.depEdges;
    trsStalls += o.trsStalls;
    gatewayStallCycles += o.gatewayStallCycles;
    crossShardEdges += o.crossShardEdges;
    steals += o.steals;
    routingStalls += o.routingStalls;
    roccInsts += o.roccInsts;
    busStallCycles += o.busStallCycles;
    dramStallCycles += o.dramStallCycles;
    mshrStallCycles += o.mshrStallCycles;
    coreResumes += o.coreResumes;
    checkpoints += o.checkpoints;
    return *this;
}

namespace
{

/** Run @p fn inside a span; returns its duration in seconds. */
template <typename Fn>
double
timed(Tracer &tracer, const char *name, const char *layer,
      std::uint64_t parent, std::uint64_t request, Fn &&fn)
{
    const double t0 = tracer.now();
    fn();
    const double t1 = tracer.now();
    tracer.add(name, layer, parent, request, t0, t1);
    return t1 - t0;
}

} // namespace

Replayed
replayRun(const ps::RunSpec &spec, Tracer &tracer, std::uint64_t parent,
          std::uint64_t request, picosim::Cycle checkpointEvery, bool served)
{
    const std::uint64_t wireRequest = served ? request : 0;
    Replayed out;
    const rt::HarnessParams hp = ps::Engine::harnessParams(spec);
    rt::RunControls ctl;
    ctl.checkpointEvery = checkpointEvery;

    rt::Program prog;
    std::unique_ptr<picosim::cpu::System> sys;
    std::unique_ptr<rt::Runtime> runtime;
    std::shared_ptr<rt::CheckpointOutcome> cp;
    bool ok = false;

    out.cost.build = timed(tracer, "apps.build", "apps", parent, request,
                           [&] { prog = ps::Engine::buildProgram(spec); });
    out.cost.system =
        timed(tracer, "cpu.system_build", "cpu", parent, request,
              [&] { sys = ps::Engine::makeSystem(spec); });
    out.cost.install =
        timed(tracer, "runtime.install", "runtime", parent, request, [&] {
            runtime = rt::makeRuntime(spec.runtime, hp.costs);
            runtime->install(*sys, prog);
            rt::armControls(*sys, ctl, hp.fault);
            cp = rt::armCheckpoints(*sys, ctl);
        });
    out.cost.run = timed(tracer, "sim.run", "sim", parent, request,
                         [&] { ok = sys->run(hp.cycleLimit); });

    // The result record, collected the way rt::runProgram collects it.
    rt::RunResult &res = out.result;
    res.runtime = runtime->name();
    res.program = prog.name;
    res.completed = ok && runtime->finished();
    res.status = rt::finishStatus(*sys, ctl, res.completed, hp.fault);
    res.cycles = sys->clock().now();
    res.serialPayload = prog.serialPayloadCycles();
    res.tasks = prog.numTasks();
    res.meanTaskSize = prog.meanTaskSize();
    res.evaluatedCycles = sys->simulator().evaluatedCycles();
    res.componentTicks = sys->simulator().componentTicks();
    res.tickWorldTicks = sys->simulator().tickWorldTicks();
    res.workerSubmits = runtime->tasksSubmittedByWorkers();
    res.inlineTasks = runtime->tasksExecutedInline();
    rt::fillContentionStats(res, *sys);
    if (cp->mismatch) {
        res.status = rt::RunStatus::Error;
        res.error = cp->message;
        res.completed = false;
    }

    out.cost.dump =
        timed(tracer, "runtime.stat_dump", "runtime", parent, 0, [&] {
            std::ostringstream os;
            sys->stats().dump(os);
            sys->memory().stats().dump(os);
            volatile std::uint64_t digest = picosim::sim::fnv1a(os.str());
            (void)digest;
        });
    std::string json;
    out.cost.encode =
        timed(tracer, "service.wire_encode", "service", parent, wireRequest,
              [&] { json = wire::runResultJson(res); });
    out.cost.decode =
        timed(tracer, "service.wire_decode", "service", parent, wireRequest,
              [&] { (void)wire::runResultFromJson(json); });

    const picosim::sim::StatGroup &st = sys->stats();
    LayerCounts &c = out.counts;
    c.cycles = res.cycles;
    c.evaluatedCycles = res.evaluatedCycles;
    c.componentTicks = res.componentTicks;
    c.tasks = res.tasks;
    c.depEdges = static_cast<std::uint64_t>(
        st.scalarValue("picos.depEdges") + st.scalarValue("sharded.depEdges"));
    c.trsStalls = static_cast<std::uint64_t>(
        st.scalarValue("picos.trsStalls") +
        st.scalarValue("sharded.trsStalls"));
    c.gatewayStallCycles = res.schedGatewayStallCycles;
    c.crossShardEdges = res.crossShardEdges;
    c.steals = res.workSteals;
    c.routingStalls = res.schedRoutingStalls;
    c.roccInsts =
        static_cast<std::uint64_t>(st.sumScalars("delegate.", ""));
    c.busStallCycles = res.busStallCycles;
    c.dramStallCycles = res.dramStallCycles;
    c.mshrStallCycles = res.mshrStallCycles;
    c.coreResumes =
        static_cast<std::uint64_t>(st.sumScalars("core", ".resumes"));
    c.checkpoints = cp->taken;
    return out;
}

} // namespace hostbench
