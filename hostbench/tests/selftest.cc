/**
 * @file
 * Self-tests of the benchmark's own arithmetic and inputs: percentiles
 * with the ten-beyond rule, fastest-of-K, span self time with nested and
 * overlapping children, seed determinism of every workload's inputs, the
 * result gate, and the metric-name charset (checked against
 * BENCHMARK.json when its path is given as the first argument).
 *
 *   hostbench_selftest [path/to/BENCHMARK.json]
 */

#include <cstdio>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hh"
#include "gate.hh"
#include "inputs.hh"
#include "spec/engine.hh"
#include "stats.hh"
#include "trace.hh"

using namespace hostbench;

namespace
{

int failures = 0;
int checks = 0;

#define CHECK(cond)                                                         \
    do {                                                                    \
        ++checks;                                                           \
        if (!(cond)) {                                                      \
            ++failures;                                                     \
            std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);     \
        }                                                                   \
    } while (0)

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) // unsorted on purpose
        v.push_back(i);
    return v;
}

void
testPercentiles()
{
    const Percentile p50 = percentile(oneTo(100), 50);
    CHECK(p50.value == 50 && p50.samples == 100 && p50.beyond == 50);
    const Percentile p90 = percentile(oneTo(100), 90);
    CHECK(p90.value == 90 && p90.beyond == 10 && p90.tailOk());
    CHECK(!percentile(oneTo(99), 90).tailOk()); // nine beyond
    CHECK(percentile(oneTo(10), 90).value == 9);
    CHECK(percentile(oneTo(1), 90).value == 1);
    CHECK(percentile({}, 90).samples == 0);
    CHECK(percentile(oneTo(1000), 99).beyond == 10);
    CHECK(!percentile(oneTo(999), 99).tailOk());
    CHECK(percentile(oneTo(20), 50).beyond == 10);
    CHECK(median({3, 1, 2}) == 2);
    CHECK(median({4, 1, 3, 2}) == 2.5);
    CHECK(median({}) == 0);
    CHECK(geomean({2, 8}) == 4);
}

void
testFastest()
{
    CHECK(fastest({0.34, 0.19, 0.27}) == 0.19);
    CHECK(fastest({5}) == 5);
    bool threw = false;
    try {
        (void)fastest({});
    } catch (const std::invalid_argument &) {
        threw = true;
    }
    CHECK(threw);
}

Span
span(std::uint64_t id, std::uint64_t parent, double start, double end)
{
    Span s;
    s.id = id;
    s.parent = parent;
    s.start = start;
    s.end = end;
    return s;
}

void
testSelfTime()
{
    const Span root = span(1, 0, 0, 10);
    CHECK(selfTime(root, {}) == 10);
    // Overlapping children count once; a child sticking out is clipped.
    CHECK(selfTime(root, {span(2, 1, 1, 3), span(3, 1, 2, 5),
                          span(4, 1, 8, 12)}) == 4);
    // A child fully inside another adds nothing.
    CHECK(selfTime(root, {span(2, 1, 1, 9), span(3, 1, 2, 3)}) == 2);
    // Nested: the grandchild is part of its parent's time, not the root's.
    const std::vector<Span> all = {root, span(2, 1, 2, 6), span(3, 2, 3, 4),
                                   span(4, 1, 5, 7)};
    const auto self = selfTimes(all);
    CHECK(self.at(1) == 5); // 10 - union([2,6], [5,7]) = 10 - 5
    CHECK(self.at(2) == 3); // 4 - 1
    CHECK(self.at(3) == 1);
    CHECK(self.at(4) == 2);
    // Children recorded from several threads under one parent.
    Tracer tr(true);
    const std::uint64_t id = tr.add("p", "bench", 0, 7, 0.0, 1.0);
    std::thread t([&] { tr.add("c", "sim", id, 7, 0.2, 0.6); });
    tr.add("c", "sim", id, 7, 0.4, 0.8);
    t.join();
    CHECK(selfTimes(tr.spans()).at(id) > 0.39 &&
          selfTimes(tr.spans()).at(id) < 0.41);
    CHECK(Tracer(false).add("x", "sim", 0, 0, 0, 1) == 0);
}

std::uint64_t
sparseluTasks(const std::vector<picosim::spec::RunSpec> &runs)
{
    std::uint64_t n = 0;
    for (const auto &r : runs)
        if (r.workload == "sparselu")
            n += picosim::spec::Engine::buildProgram(r).numTasks();
    return n;
}

void
testSeeds()
{
    // The same seed gives an identical spec list, for every workload.
    CHECK(fig9Runs(7) == fig9Runs(7));
    CHECK(manycoreSpec(7) == manycoreSpec(7));
    for (unsigned c = 0; c < 2; ++c) {
        const auto a = serveScript(11, c, 40), b = serveScript(11, c, 40);
        bool same = a.size() == b.size();
        for (std::size_t i = 0; same && i < a.size(); ++i)
            same = a[i].text == b[i].text && a[i].refetch == b[i].refetch &&
                   a[i].refetchOf == b[i].refetchOf;
        CHECK(same);
    }

    // Another seed changes the sparselu task count (and nothing else).
    const auto a = fig9Runs(42), b = fig9Runs(7);
    CHECK(a.size() == 148 && b.size() == 148);
    CHECK(sparseluTasks(a) != sparseluTasks(b));
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].workload != "sparselu")
            CHECK(a[i] == b[i]);
    const auto many42 = picosim::spec::Engine::buildProgram(manycoreSpec(42));
    const auto many7 = picosim::spec::Engine::buildProgram(manycoreSpec(7));
    CHECK(many42.numTasks() != many7.numTasks());
    for (const std::uint64_t n : {many42.numTasks(), many7.numTasks()})
        CHECK(n >= 937 && n <= 955); // 946 +- 1%
    for (const unsigned nb : {8u, 12u, 16u}) {
        const std::uint64_t target = sparseluTargetTasks(nb);
        for (std::uint64_t seed = 0; seed < 20; ++seed) {
            picosim::spec::RunSpec s;
            s.workload = "sparselu";
            s.wl = {{"nb", nb}, {"seed", sizedSparseluSeed(nb, seed)}};
            s.canonicalize();
            const auto n = picosim::spec::Engine::buildProgram(s).numTasks();
            CHECK(n * 100 >= target * 99 && n * 100 <= target * 101);
        }
    }
    const auto texts = [](std::uint64_t seed, unsigned client) {
        std::vector<std::string> out;
        for (const ServeRequest &r : serveScript(seed, client, 40))
            out.push_back(r.text);
        return out;
    };
    CHECK(texts(1, 0) != texts(2, 0));
    CHECK(texts(1, 0) != texts(1, 1));

    // Every daemon request parses; every fourth re-fetches an earlier
    // submit of the same client.
    const auto script = serveScript(5, 1, 64);
    for (std::size_t i = 0; i < script.size(); ++i) {
        if (i % 4 == 3) {
            CHECK(script[i].refetch && script[i].refetchOf < i &&
                  !script[script[i].refetchOf].refetch);
        } else {
            CHECK(!script[i].refetch);
            CHECK(picosim::spec::RunSpec::parse(script[i].text).workload !=
                  "");
        }
    }
}

void
testGate()
{
    picosim::rt::RunResult r;
    r.cycles = 10;
    r.runtime = "Phentos";
    Gate corrupt(true);
    CHECK(!corrupt.same("first", r, r)); // the corrupted expectation
    CHECK(corrupt.same("second", r, r));
    CHECK(!corrupt.passed() && corrupt.failures().size() == 1);
    Gate gate;
    picosim::rt::RunResult other = r;
    other.workSteals = 3;
    CHECK(firstDifference(r, other) == "workSteals");
    CHECK(!gate.same("x", r, other));
    CHECK(gate.check("y", true) && gate.failures().size() == 1);
}

std::set<std::string>
benchmarkNames(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    std::set<std::string> names;
    const std::regex re("\"name\"\\s*:\\s*\"([^\"]*)\"");
    for (auto it = std::sregex_iterator(text.begin(), text.end(), re);
         it != std::sregex_iterator(); ++it)
        names.insert((*it)[1]);
    return names;
}

void
testMetricNames(const char *benchmarkJson)
{
    CHECK(validMetricName("sim.run_s"));
    CHECK(validMetricName("latency_p50_ms"));
    CHECK(validMetricName("0-x.y_z"));
    CHECK(!validMetricName(""));
    CHECK(!validMetricName("_leading"));
    CHECK(!validMetricName("has space"));
    CHECK(!validMetricName("a/b"));
    CHECK(!validMetricName("ms\xc2\xb5"));
    CHECK(!validMetricName(std::string(65, 'a')));
    CHECK(validMetricName(std::string(64, 'a')));

    const auto layer = perLayerMetrics(LayerInputs{}, {});
    std::set<std::string> seen;
    for (const auto &[name, value] : layer) {
        CHECK(validMetricName(name));
        CHECK(seen.insert(name).second);
    }
    if (benchmarkJson == nullptr)
        return;
    const std::set<std::string> declared = benchmarkNames(benchmarkJson);
    // Three workloads, nine end-to-end metrics, and exactly the per-layer
    // metrics a traced run prints.
    CHECK(declared.size() == 3 + 9 + seen.size());
    for (const std::string &name : declared)
        CHECK(validMetricName(name));
    for (const std::string &name : seen) {
        const bool found = declared.count(name) > 0;
        if (!found)
            std::printf("per-layer metric %s missing from %s\n",
                        name.c_str(), benchmarkJson);
        CHECK(found);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    testPercentiles();
    testFastest();
    testSelfTime();
    testSeeds();
    testGate();
    testMetricNames(argc > 1 ? argv[1] : nullptr);
    std::printf("hostbench self-test: %d checks, %d failed\n", checks,
                failures);
    return failures == 0 ? 0 : 1;
}
