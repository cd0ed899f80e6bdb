#include <map>

#include "bench.hh"
#include "stats.hh"

namespace hostbench
{

namespace
{

/** Median of the non-negative samples of one request phase, ms. */
template <typename Get>
double
phaseMedianMs(const std::vector<RequestSample> &reqs, Get get)
{
    std::vector<double> v;
    for (const RequestSample &r : reqs)
        if (get(r) >= 0.0)
            v.push_back(get(r) * 1e3);
    return median(std::move(v));
}

} // namespace

double
unattributed(const RequestSample &req, const std::vector<Span> &spans,
             const std::map<std::uint64_t, double> &self)
{
    double layers = 0.0;
    for (const Span &s : spans)
        if (s.request == req.request && s.layer != "client" &&
            s.layer != "bench")
            layers += self.at(s.id);
    return req.latency - layers;
}

std::vector<std::pair<std::string, double>>
perLayerMetrics(const LayerInputs &in, const std::vector<Span> &spans)
{
    LayerCounts c;
    double runS = 0.0;
    std::vector<double> build, system, install, dump, encode, decode;
    for (const Replayed &r : in.runs) {
        c += r.counts;
        runS += r.cost.run;
        build.push_back(r.cost.build * 1e3);
        system.push_back(r.cost.system * 1e3);
        install.push_back(r.cost.install * 1e6);
        dump.push_back(r.cost.dump * 1e3);
        encode.push_back(r.cost.encode * 1e6);
        decode.push_back(r.cost.decode * 1e6);
    }
    std::vector<double> parseUs, appendUs;
    for (const double s : in.parseS)
        parseUs.push_back(s * 1e6);
    for (const double s : in.journalAppendS)
        appendUs.push_back(s * 1e6);

    const auto self = selfTimes(spans);
    std::vector<double> unattributedMs, queueWaitMs;
    for (const RequestSample &r : in.requests) {
        unattributedMs.push_back(unattributed(r, spans, self) * 1e3);
        if (r.firstRow >= 0.0 && r.mainRowWork >= 0.0)
            queueWaitMs.push_back(
                (r.submit + r.firstRow - r.mainRowWork) * 1e3);
    }

    const auto ratio = [](double num, double den) {
        return den == 0.0 ? 0.0 : num / den;
    };
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    using P = RequestSample;
    return {
        {"sim.run_s", runS},
        {"sim.ns_per_tick", ratio(runS * 1e9, d(c.componentTicks))},
        {"sim.ticks_per_eval_cycle",
         ratio(d(c.componentTicks), d(c.evaluatedCycles))},
        {"sim.eval_cycle_frac", ratio(d(c.evaluatedCycles), d(c.cycles))},
        {"sim.component_ticks", d(c.componentTicks)},
        {"sim.evaluated_cycles", d(c.evaluatedCycles)},
        {"picos.dep_edges", d(c.depEdges)},
        {"picos.trs_stalls", d(c.trsStalls)},
        {"picos.gateway_stall_cycles", d(c.gatewayStallCycles)},
        {"picos.cross_shard_edges", d(c.crossShardEdges)},
        {"picos.steals", d(c.steals)},
        {"manager.routing_stalls", d(c.routingStalls)},
        {"delegate.rocc_insts", d(c.roccInsts)},
        {"mem.bus_stall_cycles", d(c.busStallCycles)},
        {"mem.dram_stall_cycles", d(c.dramStallCycles)},
        {"mem.mshr_stall_cycles", d(c.mshrStallCycles)},
        {"cpu.system_build_ms", median(system)},
        {"cpu.core_resumes", d(c.coreResumes)},
        {"apps.build_ms", median(build)},
        {"apps.tasks", d(c.tasks)},
        {"runtime.install_us", median(install)},
        {"runtime.stat_dump_ms", median(dump)},
        {"runtime.checkpoints", d(c.checkpoints)},
        {"spec.parse_us", median(parseUs)},
        {"service.submit_ms",
         phaseMedianMs(in.requests, [](const P &r) { return r.submit; })},
        {"service.first_row_ms",
         phaseMedianMs(in.requests, [](const P &r) { return r.firstRow; })},
        {"service.row_gap_ms",
         phaseMedianMs(in.requests, [](const P &r) { return r.rowGap; })},
        {"service.done_gap_ms",
         phaseMedianMs(in.requests, [](const P &r) { return r.doneGap; })},
        {"service.refetch_ms", phaseMedianMs(in.requests, [](const P &r) {
             return r.refetchPhase;
         })},
        {"service.queue_wait_ms", median(queueWaitMs)},
        {"service.journal_append_us", median(appendUs)},
        {"service.journal_records", in.journalRecordsPerRequest},
        {"service.wire_encode_us", median(encode)},
        {"service.wire_decode_us", median(decode)},
        {"service.unattributed_ms", median(unattributedMs)},
        {"service.pool_efficiency", in.poolEfficiency},
        {"service.pool_tail_s", in.poolTailS},
        {"trace.overhead_frac", in.overheadFrac},
    };
}

} // namespace hostbench
