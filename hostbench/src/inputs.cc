#include "inputs.hh"

#include <array>
#include <stdexcept>

#include "apps/workloads.hh"

namespace hostbench
{

namespace ps = picosim::spec;
using picosim::rt::RuntimeKind;

namespace
{

/** splitmix64: a fixed, portable mixer for seeds and draws (the
 *  standard library's distributions are not specified bit-exactly). */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

class Draw
{
  public:
    explicit Draw(std::uint64_t seed) : state_(mix(seed)) {}

    std::uint64_t next() { return state_ = mix(state_); }

    template <typename T, std::size_t N>
    T pick(const std::array<T, N> &choices)
    {
        return choices[next() % N];
    }

  private:
    std::uint64_t state_;
};

} // namespace

std::uint64_t
sparseluTargetTasks(unsigned nb)
{
    switch (nb) {
    case 8: return 100;
    case 12: return 368;
    case 16: return 946;
    }
    throw std::invalid_argument("no sparselu size target for nb=" +
                                std::to_string(nb));
}

std::uint64_t
sizedSparseluSeed(unsigned nb, std::uint64_t seed)
{
    const std::uint64_t target = sparseluTargetTasks(nb);
    Draw d(mix(seed) ^ mix(0x5a11u + nb));
    for (unsigned i = 0; i < 100000; ++i) {
        const std::uint64_t candidate = d.next();
        // The block size scales task payloads, never the task graph.
        const std::uint64_t n =
            picosim::apps::sparseLu(nb, 1, candidate).numTasks();
        if (n * 100 >= target * 99 && n * 100 <= target * 101)
            return candidate;
    }
    throw std::runtime_error("no sparselu pattern of the target size");
}

const char *
workloadName(Workload w)
{
    switch (w) {
    case Workload::Fig9Sweep: return "fig9-sweep";
    case Workload::ManycoreSharded: return "manycore-sharded";
    case Workload::ServeJournaled: return "serve-journaled";
    }
    return "?";
}

std::optional<Workload>
workloadFromName(std::string_view name)
{
    for (const Workload w : {Workload::Fig9Sweep, Workload::ManycoreSharded,
                             Workload::ServeJournaled})
        if (name == workloadName(w))
            return w;
    return std::nullopt;
}

std::vector<ps::RunSpec>
fig9Runs(std::uint64_t seed)
{
    static constexpr std::array<RuntimeKind, kFig9KindsPerInput> kKinds = {
        RuntimeKind::Serial, RuntimeKind::NanosSW, RuntimeKind::NanosRV,
        RuntimeKind::Phentos};
    std::vector<ps::RunSpec> runs;
    for (const auto &input : picosim::apps::figure9Inputs()) {
        ps::RunSpec base;
        base.workload = input.program;
        base.wl = input.args;
        if (input.program == "sparselu")
            base.wl["seed"] = sizedSparseluSeed(
                static_cast<unsigned>(input.args.at("nb")), seed);
        base.canonicalize();
        for (const RuntimeKind kind : kKinds) {
            ps::RunSpec run = base;
            run.runtime = kind;
            runs.push_back(std::move(run));
        }
    }
    return runs;
}

ps::RunSpec
manycoreSpec(std::uint64_t seed)
{
    ps::RunSpec s;
    s.workload = "sparselu";
    s.wl = {{"nb", 16}, {"bs", 24}, {"seed", sizedSparseluSeed(16, seed)}};
    s.cores = 32;
    s.schedShards = 4;
    s.clusters = 4;
    s.steal = true;
    s.mem = picosim::mem::MemMode::Timed;
    s.runtime = RuntimeKind::Phentos;
    s.canonicalize();
    return s;
}

std::vector<ServeRequest>
serveScript(std::uint64_t seed, unsigned client, std::size_t steps)
{
    Draw d(mix(seed) ^ mix(0xc11e47u + client));
    // Balanced mix: each client cycles through the six spec families in
    // a seeded order and alternates the runtime, so only the parameters
    // within a family are drawn per request.
    std::array<int, 6> families = {0, 1, 2, 3, 4, 5};
    for (std::size_t i = families.size() - 1; i > 0; --i)
        std::swap(families[i], families[d.next() % (i + 1)]);
    const std::uint64_t runtimeOffset = d.next() % 2;

    std::vector<ServeRequest> script;
    std::vector<std::size_t> submits; // indices of this client's submits
    for (std::size_t i = 0; i < steps; ++i) {
        ServeRequest req;
        if (i % 4 == 3) {
            req.refetch = true;
            req.refetchOf = submits[d.next() % submits.size()];
            script.push_back(std::move(req));
            continue;
        }
        const std::size_t k = submits.size();
        std::string text;
        switch (families[k % families.size()]) {
        case 0:
            text = "workload=blackscholes wl.options=" +
                   std::to_string(d.pick(std::array{256, 512})) +
                   " wl.block=" + std::to_string(d.pick(std::array{16, 32}));
            break;
        case 1:
            text = "workload=sparselu wl.nb=" +
                   std::to_string(d.pick(std::array{4, 5})) +
                   " wl.bs=" + std::to_string(d.pick(std::array{6, 12})) +
                   " wl.seed=" + std::to_string(d.next() % 1000000);
            break;
        case 2:
        case 3:
            text = std::string("workload=") +
                   (families[k % families.size()] == 2 ? "stream-deps"
                                                       : "stream-barr") +
                   " wl.blocks=" + std::to_string(d.pick(std::array{4, 8})) +
                   " wl.elems=" + std::to_string(d.pick(std::array{8, 16}));
            break;
        case 4:
            text = "workload=task-free wl.tasks=" +
                   std::to_string(d.pick(std::array{32, 64})) +
                   " wl.payload=" +
                   std::to_string(d.pick(std::array{250, 500}));
            break;
        default:
            text = "workload=task-tree wl.fanout=" +
                   std::to_string(d.pick(std::array{2, 3})) + " wl.depth=2";
            break;
        }
        // Alternate per pass over the families, so every family runs
        // under both runtimes equally often.
        text += (k / families.size() + runtimeOffset) % 2 == 0
                    ? " runtime=phentos"
                    : " runtime=nanos-rv";
        req.text = std::move(text);
        submits.push_back(i);
        script.push_back(std::move(req));
    }
    return script;
}

} // namespace hostbench
