/**
 * @file
 * serve-journaled: an in-process svc::Server on an ephemeral loopback
 * port (two workers, a journal in a fresh disk-backed directory, a
 * checkpoint stride) driven by two closed-loop client connections that
 * each replay picosim_submit's exact sequence: SUBMIT → OK → RESULT →
 * ROW… → DONE. Every fourth request instead re-fetches the RESULT of an
 * earlier finished job of the same client.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "bench.hh"
#include "host.hh"
#include "service/journal.hh"
#include "service/run_plan.hh"
#include "service/server.hh"
#include "service/wire.hh"
#include "spec/engine.hh"
#include "stats.hh"

namespace hostbench
{

namespace svc = picosim::svc;
namespace wire = picosim::svc::wire;

namespace
{

constexpr unsigned kWorkers = 2;
constexpr unsigned kClients = 2;
constexpr picosim::Cycle kCheckpointEvery = 100'000;

/** Submit requests re-run through spec::Engine::run by every untraced
 *  run's gate. */
constexpr std::size_t kOracleSample = 8;

/**
 * One daemon plus its client connections. Everything it acquired — the
 * connections, the serving thread, the journal directory — is released
 * on every exit path, exceptions included.
 */
class Rig
{
  public:
    explicit Rig(const std::string &scratch) : dir_(scratch, "journal")
    {
        try {
            svc::ServerParams p;
            p.host = "127.0.0.1";
            p.port = 0; // ephemeral
            p.manager.workers = kWorkers;
            p.manager.journalDir = dir_.path();
            p.manager.checkpointEvery = kCheckpointEvery;
            server_ = std::make_unique<svc::Server>(p);
            thread_ = std::thread([this] { server_->serveForever(); });
            for (unsigned c = 0; c < kClients; ++c) {
                const int fd = wire::connectTcp(p.host, server_->port());
                if (fd < 0)
                    throw std::runtime_error(
                        "cannot connect to the daemon on port " +
                        std::to_string(server_->port()));
                fds_.push_back(fd);
                readers_.push_back(std::make_unique<wire::LineReader>(fd));
            }
        } catch (...) {
            shutdown();
            throw;
        }
    }

    ~Rig() { shutdown(); }

    Rig(const Rig &) = delete;
    Rig &operator=(const Rig &) = delete;

    /** Close the clients, stop the daemon and join it. The journal
     *  directory stays until destruction. Idempotent. */
    void
    shutdown()
    {
        for (const int fd : fds_)
            ::close(fd);
        fds_.clear();
        if (server_)
            server_->stop();
        if (thread_.joinable())
            thread_.join();
        server_.reset();
    }

    int fd(unsigned c) const { return fds_.at(c); }
    wire::LineReader &reader(unsigned c) { return *readers_.at(c); }
    svc::JobManager &manager() { return server_->manager(); }
    const std::string &dir() const { return dir_.path(); }

  private:
    FreshDir dir_;
    std::unique_ptr<svc::Server> server_;
    std::thread thread_;
    std::vector<int> fds_;
    std::vector<std::unique_ptr<wire::LineReader>> readers_;
};

/** One request as a client made it. */
struct Request
{
    unsigned client = 0;
    std::size_t step = 0;
    ServeRequest script;
    std::uint64_t job = 0;
    std::string state;               ///< DONE <state>, "" on a wire error
    std::vector<picosim::rt::RunResult> rows; ///< decoded ROW lines
    RequestSample sample;
};

/** Stream RESULT @p id: decoded rows and the final state; the times of
 *  the first and last ROW land in @p tFirst / @p tLast. */
bool
streamResult(Rig &rig, unsigned c, std::uint64_t id, const Tracer &clock,
             Request &req, double &tFirst, double &tLast)
{
    if (!wire::sendAll(rig.fd(c), "RESULT " + std::to_string(id) + "\n"))
        return false;
    std::string line;
    bool first = true;
    while (rig.reader(c).readLine(line)) {
        if (line.rfind("ROW ", 0) == 0) {
            tLast = clock.now();
            if (first)
                tFirst = tLast;
            first = false;
            const std::size_t sp = line.find(' ', 4);
            const std::size_t idx =
                std::strtoull(line.substr(4, sp - 4).c_str(), nullptr, 10);
            if (sp == std::string::npos || idx >= 64)
                return false;
            if (req.rows.size() <= idx)
                req.rows.resize(idx + 1);
            req.rows[idx] = wire::runResultFromJson(line.substr(sp + 1));
        } else if (line.rfind("DONE ", 0) == 0) {
            req.state = line.substr(5);
            return true;
        } else {
            return false; // ERR or garbage
        }
    }
    return false;
}

/** One SUBMIT → OK → RESULT → ROW… → DONE round trip. */
void
submit(Rig &rig, unsigned c, const Tracer &clock, Request &req)
{
    RequestSample &s = req.sample;
    const std::string &text = req.script.text;
    const double t0 = clock.now();
    if (!wire::sendAll(rig.fd(c), "SUBMIT " + std::to_string(text.size()) +
                                      "\n" + text))
        return;
    std::string line;
    while (rig.reader(c).readLine(line)) {
        if (line.rfind("WARN ", 0) == 0)
            continue;
        if (line.rfind("OK ", 0) == 0)
            req.job = std::strtoull(line.c_str() + 3, nullptr, 10);
        break;
    }
    const double tOk = clock.now();
    if (req.job == 0)
        return;
    double tFirst = tOk, tLast = tOk;
    if (!streamResult(rig, c, req.job, clock, req, tFirst, tLast))
        return;
    const double tDone = clock.now();
    s.latency = tDone - t0;
    s.submit = tOk - t0;
    s.firstRow = tFirst - tOk;
    s.rowGap = tLast - tFirst;
    s.doneGap = tDone - tLast;
}

/** A re-fetch: RESULT of an earlier job → ROW… → DONE. */
void
refetch(Rig &rig, unsigned c, const Tracer &clock, Request &req)
{
    const double t0 = clock.now();
    double tFirst = t0, tLast = t0;
    if (!streamResult(rig, c, req.job, clock, req, tFirst, tLast))
        return;
    req.sample.latency = clock.now() - t0;
    req.sample.refetchPhase = req.sample.latency;
}

/** Record a finished request's client-side spans. */
void
traceRequest(Tracer &tr, const Request &req, double t0)
{
    const RequestSample &s = req.sample;
    const std::uint64_t root = tr.reserveId();
    const std::uint64_t id = s.request;
    if (req.script.refetch) {
        tr.add("wire.refetch", "client", root, id, t0, t0 + s.latency);
    } else {
        double t = t0;
        for (const auto &[name, d] :
             {std::pair{"wire.submit", s.submit},
              std::pair{"wire.first_row", s.firstRow},
              std::pair{"wire.row_gap", s.rowGap},
              std::pair{"wire.done_gap", s.doneGap}}) {
            tr.add(name, "client", root, id, t, t + d);
            t += d;
        }
    }
    tr.addWithId(root, "request", "client", 0, id, t0, t0 + s.latency);
}

/**
 * Steps [@p begin, @p end) of every client's script, closed loop: client
 * c runs them on its own connection, all clients concurrently. Fills
 * @p reqs in (client, step) order; returns the round's wall seconds.
 */
double
runRound(Rig &rig, const std::vector<std::vector<ServeRequest>> &scripts,
         std::vector<Request> &reqs, std::size_t begin, std::size_t end,
         Tracer &tracer, std::uint64_t firstRequestId)
{
    const std::size_t steps = scripts.front().size();
    const double start = tracer.now();
    const auto client = [&](unsigned c) {
        for (std::size_t i = begin; i < end; ++i) {
            Request &req = reqs[c * steps + i];
            req.client = c;
            req.step = i;
            req.script = scripts[c][i];
            req.sample.request = firstRequestId + c * steps + i;
            req.sample.refetch = req.script.refetch;
            const double t0 = tracer.now();
            try {
                if (req.script.refetch) {
                    req.job = reqs[c * steps + req.script.refetchOf].job;
                    refetch(rig, c, tracer, req);
                } else {
                    submit(rig, c, tracer, req);
                }
            } catch (const std::exception &) {
                // A malformed reply; the gate reports the request as
                // failed (no final state).
                req.state.clear();
                req.rows.clear();
            }
            if (tracer.enabled())
                traceRequest(tracer, req, t0);
        }
    };
    std::vector<std::thread> threads;
    for (unsigned c = 1; c < kClients; ++c)
        threads.emplace_back(client, c);
    client(0);
    for (std::thread &t : threads)
        t.join();
    return tracer.now() - start;
}

/** Gate one request against the daemon's own rows (and, for a
 *  re-fetch, the rows its original submit streamed). */
bool
gateRequest(Gate &gate, svc::JobManager &mgr, const Request &req,
            const std::vector<Request> &phase, std::size_t steps)
{
    const std::string what = "client " + std::to_string(req.client) +
                             " step " + std::to_string(req.step);
    if (!gate.check(what, req.state == "done" && req.rows.size() == 2,
                    "job " + std::to_string(req.job) + " ended '" +
                        req.state + "' with " +
                        std::to_string(req.rows.size()) + " rows"))
        return false;
    const std::vector<svc::RunRow> local = mgr.runRows(req.job);
    bool ok = gate.check(what, local.size() == req.rows.size(),
                         "row count differs from the daemon's");
    for (std::size_t i = 0; ok && i < req.rows.size(); ++i) {
        ok = gate.check(what + " row " + std::to_string(i),
                        runOk(req.rows[i]), "not finished Ok") &&
             gate.same(what + " row " + std::to_string(i) + " vs daemon",
                       local[i].result, req.rows[i]);
        if (ok && req.script.refetch) {
            const Request &orig =
                phase[req.client * steps + req.script.refetchOf];
            ok = orig.rows.size() == req.rows.size() &&
                 gate.same(what + " re-fetch row " + std::to_string(i),
                           orig.rows[i], req.rows[i]);
        }
    }
    return ok;
}

/** Gate @p req's rows against a direct spec::Engine::run of each run
 *  its spec text plans. */
bool
gateOracle(Gate &gate, const Request &req)
{
    const auto plan =
        svc::RunPlan::make({picosim::spec::RunSpec::parse(req.script.text)});
    bool ok = true;
    for (std::size_t i = 0; i < plan.runs.size() && i < req.rows.size(); ++i)
        ok = gate.same("client " + std::to_string(req.client) + " step " +
                           std::to_string(req.step) + " row " +
                           std::to_string(i) + " vs spec::Engine::run",
                       picosim::spec::Engine::run(plan.runs[i]),
                       req.rows[i]) &&
             ok;
    return ok;
}

/** Journal payloads shaped like the JobManager's own records for one
 *  submitted request (sizes matter, not the exact bytes). */
std::vector<std::string>
journalRecords(const Request &req, const svc::RunPlan &plan,
               const std::vector<Replayed> &runs)
{
    std::string submitRec =
        "{\"type\":\"submit\",\"id\":" + std::to_string(req.job) +
        ",\"tag\":\"\",\"timeout\":0,\"maxInFlight\":0,\"capture\":0,"
        "\"runs\":" + std::to_string(plan.runs.size());
    for (std::size_t i = 0; i < plan.runs.size(); ++i)
        submitRec += ",\"run" + std::to_string(i) +
                     "\":" + wire::jsonString(plan.runs[i].serialize());
    std::vector<std::string> out{submitRec + "}"};
    for (std::size_t i = 0; i < runs.size(); ++i) {
        for (std::uint64_t k = 0; k < runs[i].counts.checkpoints; ++k)
            out.push_back("{\"type\":\"checkpoint\",\"id\":" +
                          std::to_string(req.job) +
                          ",\"run\":" + std::to_string(i) +
                          ",\"cycle\":" +
                          std::to_string((k + 1) * kCheckpointEvery) +
                          ",\"seq\":" + std::to_string(k + 1) +
                          ",\"digest\":18446744073709551557}");
        out.push_back("{\"type\":\"row\",\"id\":" + std::to_string(req.job) +
                      ",\"run\":" + std::to_string(i) + ",\"result\":" +
                      wire::jsonString(wire::runResultJson(runs[i].result)) +
                      "}");
    }
    out.push_back("{\"type\":\"state\",\"id\":" + std::to_string(req.job) +
                  ",\"state\":\"done\",\"error\":\"\"}");
    return out;
}

/** Medians of the latency and of its two decompositions over @p reqs
 *  (submit requests): protocol phases, and layer self time plus the
 *  unattributed rest. */
std::string
accounting(const std::vector<RequestSample> &reqs,
           const std::vector<Span> &spans)
{
    const auto self = selfTimes(spans);
    std::vector<double> lat, sub, first, gap, done, layers, rest;
    for (const RequestSample &r : reqs) {
        if (r.refetch)
            continue;
        const double u = unattributed(r, spans, self);
        lat.push_back(r.latency);
        sub.push_back(r.submit);
        first.push_back(r.firstRow);
        gap.push_back(r.rowGap);
        done.push_back(r.doneGap);
        layers.push_back(r.latency - u);
        rest.push_back(u);
    }
    const double p50 = median(lat);
    const double phases =
        median(sub) + median(first) + median(gap) + median(done);
    const double layered = median(layers) + median(rest);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "accounting (submit requests, medians): latency %.3f ms = "
                  "phases %.3f ms (%+.1f%%) = layers %.3f + unattributed "
                  "%.3f ms (%+.1f%%)",
                  p50 * 1e3, phases * 1e3, (phases / p50 - 1) * 100,
                  median(layers) * 1e3, median(rest) * 1e3,
                  (layered / p50 - 1) * 100);
    return buf;
}

} // namespace

Outcome
runServe(Context &ctx)
{
    const Options &opt = ctx.opt;
    Outcome out;

    // Steps per client: ~10 per --seconds at today's request latency,
    // in kRounds rounds.
    const auto perRound = static_cast<std::size_t>(
        std::max(20L, std::lround(opt.seconds * 10) / long{kRounds}));
    const std::size_t steps = perRound * kRounds;

    // One set-up: a daemon on a fresh journal, connected clients, their
    // seeded scripts, and the warm-up request over the wire. The first
    // is kept for the timed phase; another follows every round (torn
    // down outside the clock).
    std::vector<std::vector<ServeRequest>> scripts;
    const auto setUp = [&] {
        const auto t0 = SteadyClock::now();
        auto r = std::make_unique<Rig>(opt.scratch);
        scripts.clear();
        for (unsigned c = 0; c < kClients; ++c)
            scripts.push_back(serveScript(opt.seed, c, steps));
        Tracer clock(false);
        Request warm;
        warm.script.text = kWarmupSpecText;
        submit(*r, 0, clock, warm);
        ctx.gate.check("warm-up",
                       warm.state == "done" && !warm.rows.empty() &&
                           warm.rows[0].cycles == kWarmupGoldenCycles,
                       "expected the " +
                           std::to_string(kWarmupGoldenCycles) +
                           "-cycle blackscholes golden over the wire");
        out.setupS.push_back(secondsBetween(t0, SteadyClock::now()));
        return r;
    };
    const std::unique_ptr<Rig> rig = setUp();
    out.notes.push_back("journal: " + rig->dir() + " on " +
                        filesystemKind(rig->dir()));
    if (filesystemKind(rig->dir()) == "tmpfs")
        out.notes.push_back("warning: the journal is on tmpfs; its fsync "
                            "costs nothing a deployed daemon would not pay");

    Tracer off(false);
    double wallS = 0.0, tracedWallS = 0.0;
    std::vector<Request> phase(kClients * steps), traced;
    out.calibBeforeMs = calibrationMs();
    for (std::size_t r = 0; r < kRounds; ++r) {
        wallS += runRound(*rig, scripts, phase, r * perRound,
                          (r + 1) * perRound, off, 1);
        setUp();
    }
    if (opt.trace) {
        traced.resize(kClients * steps);
        tracedWallS = runRound(*rig, scripts, traced, 0, steps, ctx.tracer,
                               1 + kClients * steps);
    }
    out.calibAfterMs = calibrationMs();

    // Result gate: every row equals the daemon's field for field, every
    // re-fetch equals its original, a seeded sample equals Engine::run.
    std::vector<char> bad;
    std::size_t submits = 0, sampled = 0;
    for (const std::vector<Request> *ph : {&phase, &traced}) {
        for (const Request &req : *ph) {
            bool ok = gateRequest(ctx.gate, rig->manager(), req, *ph, steps);
            if (ok && !opt.trace && !req.script.refetch &&
                sampled < kOracleSample &&
                (opt.seed + submits++) % 13 == 0) {
                ++sampled;
                ok = gateOracle(ctx.gate, req);
            }
            bad.push_back(ok ? 0 : 1);
        }
    }
    rig->shutdown(); // stop and join the daemon before metrics print
    const std::size_t records =
        svc::Journal::readAll(rig->dir(), nullptr).size();

    std::vector<double> speedups;
    for (const Request &req : opt.trace ? traced : phase) {
        if (!opt.trace)
            out.latencyMs.push_back(req.sample.latency * 1e3);
        if (req.script.refetch || req.rows.size() != 2)
            continue;
        out.simCycles += req.rows[0].cycles + req.rows[1].cycles;
        if (req.rows[0].cycles != 0)
            speedups.push_back(static_cast<double>(req.rows[1].cycles) /
                               static_cast<double>(req.rows[0].cycles));
    }
    out.wallS = wallS;
    out.simMcyclesPerS = static_cast<double>(out.simCycles) / 1e6 / wallS;
    out.simSpeedup = geomean(speedups);
    out.attempted = bad.size();
    out.failed =
        static_cast<std::uint64_t>(std::count(bad.begin(), bad.end(), 1));
    out.notes.push_back("serve-journaled: " + std::to_string(kClients) +
                        " clients x " + std::to_string(steps) +
                        " requests per phase, " + std::to_string(records) +
                        " journal records");
    if (!opt.trace)
        return out;

    // Traced run: replay each traced submit through the layers, with its
    // journal appends, and gate it against Engine::run.
    LayerInputs in;
    Tracer &tr = ctx.tracer;
    const FreshDir jdir(opt.scratch, "journal-replay");
    svc::Journal journal(jdir.path());
    double work = 0.0;
    for (std::size_t k = 0; k < traced.size(); ++k) {
        const Request &req = traced[k];
        RequestSample s = req.sample;
        if (!req.script.refetch) {
            const std::uint64_t id = s.request;
            const Tracer::Scope root(tr, "replay", "bench", 0, id);
            const double p0 = tr.now();
            const picosim::spec::RunSpec parsed =
                picosim::spec::RunSpec::parse(req.script.text);
            in.parseS.push_back(tr.now() - p0);
            tr.add("spec.parse", "spec", root.id(), id, p0,
                   p0 + in.parseS.back());
            const svc::RunPlan plan = svc::RunPlan::make({parsed});
            std::vector<Replayed> runs;
            for (std::size_t i = 0; i < plan.runs.size(); ++i) {
                runs.push_back(replayRun(plan.runs[i], tr, root.id(), id,
                                         kCheckpointEvery, true));
                picosim::rt::RunResult oracle;
                {
                    const Tracer::Scope o(tr, "oracle", "bench",
                                          root.id());
                    oracle = picosim::spec::Engine::run(plan.runs[i]);
                }
                if (i >= req.rows.size() ||
                    !ctx.gate.same("traced request " +
                                       std::to_string(id) + " row " +
                                       std::to_string(i) +
                                       " vs spec::Engine::run",
                                   oracle, req.rows[i]))
                    bad[phase.size() + k] = 1;
            }
            for (const std::string &rec :
                 journalRecords(req, plan, runs)) {
                const double a0 = tr.now();
                journal.append(rec);
                in.journalAppendS.push_back(tr.now() - a0);
                tr.add("service.journal_append", "service", root.id(),
                       id, a0, a0 + in.journalAppendS.back());
            }
            s.mainRowWork = runs.front().cost.rowWork();
            for (Replayed &r : runs) {
                work += r.cost.rowWork();
                in.runs.push_back(std::move(r));
            }
        }
        in.requests.push_back(s);
    }

    in.journalRecordsPerRequest =
        static_cast<double>(records) /
        static_cast<double>(1 + phase.size() + traced.size());
    in.poolEfficiency = work / (kWorkers * tracedWallS);
    in.overheadFrac = tracedWallS / wallS - 1.0;
    const std::vector<Span> spans = tr.spans();
    out.perLayer = perLayerMetrics(in, spans);
    out.notes.push_back(accounting(in.requests, spans));
    out.failed =
        static_cast<std::uint64_t>(std::count(bad.begin(), bad.end(), 1));
    return out;
}

} // namespace hostbench
