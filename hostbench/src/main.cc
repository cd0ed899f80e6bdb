/**
 * @file
 * hostbench: run one benchmark workload of picosim through the front
 * doors its users use and print the measured metrics.
 *
 *   hostbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--corrupt-expected]
 *
 * Run it from the repository root (hostbench/run.py does). --trace 0
 * prints the end-to-end metrics; --trace 1 runs the same workload and
 * seed with spans recorded around every call into a layer, prints the
 * per-layer metrics and writes the spans as a Chrome trace into
 * .bench_build/hostbench/scratch. The last line of stdout is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. The exit code
 * is 0 only when every simulated result passed the result gate; 2 when
 * the run could not start (bad arguments, bind/connect failure).
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hh"
#include "host.hh"
#include "stats.hh"

using namespace hostbench;

namespace
{

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "hostbench: %s\nusage: hostbench --workload "
                 "fig9-sweep|manycore-sharded|serve-journaled --seed N "
                 "--seconds S --trace 0|1 [--corrupt-expected]\n",
                 msg.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--corrupt-expected") {
            opt.corruptExpected = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            const auto w = workloadFromName(value);
            if (!w)
                usage("unknown workload '" + value + "'");
            opt.workload = *w;
            haveWorkload = true;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                usage("--seed expects an unsigned integer");
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(opt.seconds > 0.0))
                usage("--seconds expects a positive number");
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace expects 0 or 1");
            opt.trace = value == "1";
        } else {
            usage("unknown argument '" + arg + "'");
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    return opt;
}

std::string
metric(const char *name, double value, const char *unit)
{
    return std::string("\"") + name + "\": {\"value\": " + fullDigits(value) +
           ", \"unit\": \"" + unit + "\"}";
}

/** Unit of a per-layer metric, from its name's suffix. */
const char *
layerUnit(const std::string &name)
{
    const auto ends = [&](const char *suffix) {
        const std::string s = suffix;
        return name.size() >= s.size() &&
               name.compare(name.size() - s.size(), s.size(), s) == 0;
    };
    if (ends("_ms"))
        return "ms";
    if (ends("_us"))
        return "us";
    if (ends("_s"))
        return "s";
    if (ends("ns_per_tick"))
        return "ns";
    if (ends("_frac") || ends("_efficiency") || ends("per_eval_cycle") ||
        ends("journal_records"))
        return "ratio";
    return "count";
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    std::error_code ec;
    std::filesystem::create_directories(opt.scratch, ec);
    Context ctx(opt);

    Outcome out;
    try {
        switch (opt.workload) {
        case Workload::Fig9Sweep: out = runFig9(ctx); break;
        case Workload::ManycoreSharded: out = runManycore(ctx); break;
        case Workload::ServeJournaled: out = runServe(ctx); break;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hostbench: %s\n", e.what());
        return 2;
    }

    std::printf("host: %s\n", hostStampJson().c_str());
    std::printf("calibration: before %.3f ms, after %.3f ms\n",
                out.calibBeforeMs, out.calibAfterMs);
    if (opt.trace) {
        const std::string path = opt.scratch + "/spans-" +
                                 workloadName(opt.workload) + "-seed" +
                                 std::to_string(opt.seed) + ".json";
        if (!ctx.tracer.writeChrome(path)) {
            std::fprintf(stderr, "hostbench: cannot write %s\n",
                         path.c_str());
            return 2;
        }
        std::printf("spans: %s (%zu spans)\n", path.c_str(),
                    ctx.tracer.spans().size());
    }
    for (const std::string &note : out.notes)
        std::printf("%s\n", note.c_str());
    for (const std::string &f : ctx.gate.failures())
        std::fprintf(stderr, "RESULT GATE FAILED: %s\n", f.c_str());

    const bool correct = ctx.gate.passed() && out.failed == 0;
    std::string metrics;
    if (!opt.trace) {
        const Percentile p50 = percentile(out.latencyMs, 50);
        const Percentile p90 = percentile(out.latencyMs, 90);
        std::printf("latency: %zu samples, %zu beyond p90%s\n", p90.samples,
                    p90.beyond,
                    p90.tailOk() ? "" : " (fewer than ten: p90 is not a "
                                        "tail statistic here)");
        const double completed =
            out.attempted == 0
                ? 0.0
                : static_cast<double>(out.attempted - out.failed) /
                      static_cast<double>(out.attempted);
        metrics = metric("setup_s", median(out.setupS), "s") + ", " +
                  metric("wall_s", out.wallS, "s") + ", " +
                  metric("sim_mcycles_per_s", out.simMcyclesPerS,
                         "Mcycles/s") +
                  ", " + metric("latency_p50_ms", p50.value, "ms") + ", " +
                  metric("latency_p90_ms", p90.value, "ms") + ", " +
                  metric("completed_frac", completed, "fraction") + ", " +
                  metric("sim_cycles", static_cast<double>(out.simCycles),
                         "cycles") +
                  ", " + metric("sim_speedup", out.simSpeedup, "x") + ", " +
                  metric("peak_rss_mib", peakRssMib(), "MiB");
    } else {
        for (const auto &[name, value] : out.perLayer) {
            if (!validMetricName(name)) {
                std::fprintf(stderr, "hostbench: bad metric name '%s'\n",
                             name.c_str());
                return 2;
            }
            if (!metrics.empty())
                metrics += ", ";
            metrics += metric(name.c_str(), value, layerUnit(name));
        }
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                metrics.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
