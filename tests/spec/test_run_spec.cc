/** @file Unit tests for the RunSpec parse/serialize/canonicalize layer. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "spec/run_spec.hh"

using namespace picosim;
using namespace picosim::spec;

namespace
{

/** Canonicalized copy of @p s (the canonical form is what serialize()
 *  round-trips). */
RunSpec
canon(RunSpec s)
{
    s.canonicalize();
    return s;
}

} // namespace

TEST(RunSpec, DefaultsRoundTrip)
{
    const RunSpec s = canon(RunSpec{});
    EXPECT_EQ(RunSpec::parse(s.serialize()), s);
    EXPECT_EQ(RunSpec::parse(s.serialize('\n')), s);
}

TEST(RunSpec, EveryKeyNonDefaultRoundTrips)
{
    RunSpec s;
    const std::vector<std::pair<std::string, std::string>> pairs = {
        {"workload", "sparselu"},  {"wl.nb", "9"},
        {"runtime", "nanos-rv"},   {"cores", "12"},
        {"mode", "tickworld"},     {"mem", "timed"},
        {"mshrs", "8"},            {"bus-bytes", "32"},
        {"mem-occupancy", "16"},   {"sched-shards", "2"},
        {"clusters", "2"},         {"steal", "off"},
        {"cluster-link", "3"},     {"xshard-dep", "5"},
        {"xshard-notify", "7"},    {"steal-penalty", "11"},
        {"gateway-depth", "6"},    {"rocc-latency", "4"},
        {"core-ready-depth", "3"}, {"bandwidth-alpha", "0.125"},
        {"repeat", "2"},           {"seed", "99"},
        {"cycle-limit", "123456789"},
    };
    for (const auto &[key, value] : pairs)
        s.setKey(key, value);
    s.canonicalize();
    EXPECT_EQ(RunSpec::parse(s.serialize()), s);
}

TEST(RunSpec, EachKeyRoundTripsIndividually)
{
    // Property sweep: a canonical spec that differs from the default in
    // exactly one key must survive parse(serialize()) bit-exactly.
    const std::vector<std::pair<std::string, std::string>> mutations = {
        {"workload", "jacobi"},   {"runtime", "serial"},
        {"cores", "17"},          {"mode", "tickworld"},
        {"mem", "timed"},         {"mshrs", "2"},
        {"bus-bytes", "64"},      {"mem-occupancy", "3"},
        {"sched-shards", "8"},    {"steal", "off"},
        {"cluster-link", "0"},    {"xshard-dep", "0"},
        {"xshard-notify", "1"},   {"steal-penalty", "0"},
        {"gateway-depth", "1"},   {"rocc-latency", "160"},
        {"core-ready-depth", "8"},
        {"bandwidth-alpha", "0.029"},
        {"repeat", "1000000"},
        {"seed", "18446744073709551615"},
        {"cycle-limit", "1"},
    };
    for (const auto &[key, value] : mutations) {
        RunSpec s;
        s.setKey(key, value);
        s.canonicalize();
        EXPECT_EQ(RunSpec::parse(s.serialize()), s)
            << key << "=" << value;
    }
}

TEST(RunSpec, BandwidthAlphaSerializesShortestExactForm)
{
    RunSpec s = canon(RunSpec{});
    EXPECT_NE(s.serialize().find("bandwidth-alpha=0.058"),
              std::string::npos);
    s.setKey("bandwidth-alpha", "0.1");
    EXPECT_NE(s.serialize().find("bandwidth-alpha=0.1"),
              std::string::npos);
    EXPECT_EQ(RunSpec::parse(s.serialize()).bandwidthAlpha, 0.1);
}

TEST(RunSpec, SpecFileCommentsAndJsonAccepted)
{
    RunSpec file;
    file.merge("# an experiment\ncores=12 # trailing comment\n"
               "workload=task-free\nwl.tasks=32\n");
    file.canonicalize();
    EXPECT_EQ(file.cores, 12u);
    EXPECT_EQ(file.wl.at("tasks"), 32u);

    RunSpec json;
    json.merge(R"({"cores": 12, "workload": "task-free",)"
               R"( "wl.tasks": 32, "steal": false})");
    json.canonicalize();
    EXPECT_EQ(json.cores, 12u);
    EXPECT_FALSE(json.steal);
    file.steal = false;
    EXPECT_EQ(json, file);
}

TEST(RunSpec, UnknownKeySuggestsNearest)
{
    RunSpec s;
    try {
        s.setKey("coers", "8");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_STREQ(e.what(),
                     "unknown key 'coers' (did you mean 'cores'?)");
    }
    try {
        s.setKey("coers", "8", "--");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_STREQ(e.what(),
                     "unknown flag '--coers' (did you mean '--cores'?)");
    }
}

TEST(RunSpec, ErrorsNameKeyValueAndRange)
{
    RunSpec s;
    try {
        s.setKey("cores", "0", "--");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_STREQ(e.what(),
                     "--cores expects an integer in [1, 4096], got '0'");
    }
    try {
        s.setKey("cores", "8q");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_STREQ(e.what(),
                     "cores expects an integer in [1, 4096], got '8q'");
    }
    try {
        s.setKey("runtime", "bogus");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_STREQ(e.what(),
                     "unknown runtime 'bogus' (valid: serial, nanos-sw, "
                     "nanos-rv, nanos-axi, phentos)");
    }
    try {
        s.setKey("bandwidth-alpha", "1.5");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_STREQ(e.what(), "bandwidth-alpha expects a number in "
                               "[0, 1], got '1.5'");
    }
    EXPECT_THROW(s.merge("cores"), SpecError);
    EXPECT_THROW(s.merge("=8"), SpecError);
    EXPECT_THROW(s.merge("{\"cores\" 8}"), SpecError);
}

TEST(RunSpec, Figure9LabelRewritesToRegistryForm)
{
    RunSpec s;
    s.workload = "4K B32";
    s.canonicalize();
    EXPECT_EQ(s.workload, "blackscholes");
    EXPECT_EQ(s.wl.at("options"), 4096u);
    EXPECT_EQ(s.wl.at("block"), 32u);
    // Explicit wl.* keys win over the label's parameters.
    RunSpec t;
    t.workload = "4K B32";
    t.wl["block"] = 64;
    t.canonicalize();
    EXPECT_EQ(t.wl.at("block"), 64u);
}

TEST(RunSpec, NestedFoldsIntoTaskTree)
{
    RunSpec s;
    s.workload = "task-chain";
    s.wl["payload"] = 77;
    s.nested = true;
    s.canonicalize();
    EXPECT_EQ(s.workload, "task-tree");
    EXPECT_FALSE(s.nested);
    EXPECT_EQ(s.wl.at("chained"), 1u);
    EXPECT_EQ(s.wl.at("payload"), 77u);
    // Canonical specs never serialize a nested key.
    EXPECT_EQ(s.serialize().find("nested"), std::string::npos);

    RunSpec bad;
    bad.workload = "jacobi";
    bad.nested = true;
    EXPECT_THROW(bad.canonicalize(), SpecError);
}

TEST(RunSpec, CanonicalizeIsIdempotent)
{
    RunSpec s;
    s.workload = "task-chain";
    s.nested = true;
    s.canonicalize();
    RunSpec again = s;
    again.canonicalize();
    EXPECT_EQ(again, s);
}

TEST(RunSpec, GlobalSeedFillsWorkloadSeed)
{
    RunSpec s;
    s.workload = "sparselu";
    s.seed = 7;
    s.canonicalize();
    EXPECT_EQ(s.wl.at("seed"), 7u);

    RunSpec t;
    t.workload = "sparselu";
    t.seed = 7;
    t.wl["seed"] = 3; // explicit parameter wins
    t.canonicalize();
    EXPECT_EQ(t.wl.at("seed"), 3u);
}

TEST(RunSpec, CrossKeyConstraints)
{
    RunSpec s;
    s.cores = 4;
    s.clusters = 8;
    try {
        s.canonicalize("--");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_STREQ(e.what(),
                     "--clusters=8 exceeds --cores=4 (each cluster needs "
                     "at least one core)");
    }
}

// Every spec serialized before the conservative-PDES kernel was removed
// (--dump-spec files, journal submit records, BENCH spec stamps) carries
// pdes=auto, pdes-domains=auto and host-threads=1. Exactly those values
// still load as no-ops — from text, JSON and flags alike — with one
// warning, and the canonical result is the spec without them.
TEST(RunSpec, LegacyKeysLoadAsNoOpsWithOneWarning)
{
    const RunSpec plain = canon(RunSpec{});
    const std::string kWarning =
        "warning: ignoring the removed keys pdes, pdes-domains and "
        "host-threads (legacy no-op values; the conservative-PDES kernel "
        "was removed)";

    std::vector<std::string> warnings;
    EXPECT_EQ(RunSpec::parse(plain.serialize('\n') +
                                 "\npdes=auto\npdes-domains=auto\n"
                                 "host-threads=1\n",
                             &warnings),
              plain);
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_EQ(warnings[0], kWarning);

    RunSpec json;
    json.merge(R"({"pdes": "auto", "pdes-domains": "auto",)"
               R"( "host-threads": 1})");
    EXPECT_EQ(json.canonicalize(), std::vector<std::string>{kWarning});
    EXPECT_EQ(json, plain);

    RunSpec flag;
    flag.setKey("host-threads", "1", "--");
    EXPECT_EQ(flag.canonicalize("--"), std::vector<std::string>{kWarning});
    EXPECT_EQ(flag, plain);
    // Canonicalizing folds the marker away: the warning fires once and
    // nothing legacy is ever serialized.
    EXPECT_TRUE(flag.canonicalize("--").empty());
    EXPECT_EQ(flag.serialize().find("pdes"), std::string::npos);
    EXPECT_EQ(flag.serialize().find("host-threads"), std::string::npos);
}

// Any other value asked for the partitioned kernel, which no longer
// exists: it fails loudly rather than quietly re-running as a different
// machine.
TEST(RunSpec, LegacyKeysRejectAnyOtherValue)
{
    const std::vector<std::pair<std::string, std::string>> rejected = {
        {"pdes", "force"},      {"pdes", "off"},
        {"pdes-domains", "4"},  {"host-threads", "2"},
        {"host-threads", "0"},  {"host-threads", ""},
    };
    for (const auto &[key, value] : rejected) {
        RunSpec s;
        try {
            s.setKey(key, value, "--");
            FAIL() << key << "=" << value << " was accepted";
        } catch (const SpecError &e) {
            const std::string msg = e.what();
            EXPECT_EQ(msg.rfind("--" + key + "=" + value +
                                    " is no longer supported: the "
                                    "conservative-PDES kernel was removed",
                                0),
                      0u)
                << msg;
            EXPECT_NE(msg.find("DESIGN.md"), std::string::npos) << msg;
        }
    }
}

TEST(RunSpec, UnknownWorkloadSuggestsNearest)
{
    RunSpec s;
    s.workload = "blackscoles";
    try {
        s.canonicalize();
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_STREQ(e.what(),
                     "unknown workload 'blackscoles' (try "
                     "--list-workloads) (did you mean 'blackscholes'?)");
    }
}

TEST(RunSpec, KeysAreUniqueAndNearestKeyWorks)
{
    const auto keys = RunSpec::keys();
    EXPECT_GE(keys.size(), 26u);
    for (std::size_t i = 0; i < keys.size(); ++i)
        for (std::size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_NE(keys[i], keys[j]);
    EXPECT_EQ(RunSpec::nearestKey("cors"), "cores");
    EXPECT_EQ(RunSpec::nearestKey("schedshards"), "sched-shards");
}
