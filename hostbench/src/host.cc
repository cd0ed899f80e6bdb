#include "host.hh"

#include <sys/resource.h>
#include <sys/statfs.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "service/wire.hh"

#ifndef HOSTBENCH_COMPILER
#define HOSTBENCH_COMPILER "unknown"
#endif
#ifndef HOSTBENCH_FLAGS
#define HOSTBENCH_FLAGS "unknown"
#endif

namespace hostbench
{

namespace wire = picosim::svc::wire;

namespace
{

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

} // namespace

std::string
hostStampJson()
{
    const char *commit = std::getenv("HOSTBENCH_COMMIT");
    return "{\"hw_threads\":" +
           std::to_string(std::thread::hardware_concurrency()) +
           ",\"cpu\":" + wire::jsonString(cpuModel()) +
           ",\"compiler\":" + wire::jsonString(HOSTBENCH_COMPILER) +
           ",\"flags\":" + wire::jsonString(HOSTBENCH_FLAGS) +
           ",\"commit\":" +
           wire::jsonString(commit != nullptr ? commit : "unknown") + "}";
}

double
calibrationMs()
{
    const auto t0 = std::chrono::steady_clock::now();
    // A fixed dependent chain of multiply/xor-shift steps: no memory
    // traffic, no allocation, the same instruction stream every time.
    volatile std::uint64_t sink = 0;
    std::uint64_t x = 0x243f6a8885a308d3ull;
    for (std::uint32_t i = 0; i < 20'000'000u; ++i) {
        x ^= x >> 29;
        x *= 0xbf58476d1ce4e5b9ull;
        x += i;
    }
    sink = x;
    (void)sink;
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

double
peakRssMib()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

FreshDir::FreshDir(const std::string &parent, const std::string &stem)
{
    std::filesystem::create_directories(parent);
    path_ = parent + "/" + stem + "-XXXXXX";
    if (::mkdtemp(path_.data()) == nullptr)
        throw std::runtime_error("cannot create a directory in " + parent);
}

FreshDir::~FreshDir()
{
    std::error_code ec; // best effort: nothing to report it to
    std::filesystem::remove_all(path_, ec);
}

std::string
filesystemKind(const std::string &path)
{
    struct statfs fs{};
    if (::statfs(path.c_str(), &fs) != 0)
        return "unknown";
    constexpr long kTmpfsMagic = 0x01021994;
    constexpr long kRamfsMagic = 0x858458f6;
    return fs.f_type == kTmpfsMagic || fs.f_type == kRamfsMagic ? "tmpfs"
                                                                : "disk";
}

} // namespace hostbench
