/**
 * @file
 * Unit tests for the foundation library: logging format helpers,
 * integer math, deterministic RNG, and the statistics package.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <sstream>
#include <utility>

#include "base/intmath.hh"
#include "base/logging.hh"
#include "base/rng.hh"
#include "base/stats.hh"

#include "mini_json.hh"

using namespace swex;

TEST(Strfmt, FormatsLikePrintf)
{
    EXPECT_EQ(strfmt("x=%d y=%s", 7, "abc"), "x=7 y=abc");
    EXPECT_EQ(strfmt("%#llx", 0x10ULL), "0x10");
    EXPECT_EQ(strfmt("plain"), "plain");
}

TEST(IntMath, PowersOfTwo)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(64));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(48));
}

TEST(IntMath, Logs)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(floorLog2(65), 6u);
    EXPECT_EQ(ceilLog2(64), 6u);
    EXPECT_EQ(ceilLog2(65), 7u);
}

TEST(IntMath, DivCeilAndRoundUp)
{
    EXPECT_EQ(divCeil(10, 4), 3u);
    EXPECT_EQ(divCeil(8, 4), 2u);
    EXPECT_EQ(roundUp(13, 8), 16u);
    EXPECT_EQ(roundUp(16, 8), 16u);
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    bool differs = false;
    Rng a2(42);
    for (int i = 0; i < 100; ++i)
        differs |= (a2.next() != c.next());
    EXPECT_TRUE(differs);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RealInUnitInterval)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i) {
        double d = r.real();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Stats, ScalarAccumulates)
{
    stats::Group g;
    stats::Scalar s(&g, "s", "a scalar");
    ++s;
    s += 2.5;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(Stats, DistributionMoments)
{
    stats::Group g;
    stats::Distribution d(&g, "d", "a distribution");
    d.sample(1);
    d.sample(3);
    d.sample(5);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.mean(), 3.0);
    EXPECT_DOUBLE_EQ(d.minValue(), 1.0);
    EXPECT_DOUBLE_EQ(d.maxValue(), 5.0);
    EXPECT_NEAR(d.stddev(), 2.0, 1e-9);
}

TEST(Stats, HistogramBuckets)
{
    stats::Group g;
    stats::Histogram h(&g, "h", "a histogram");
    h.init(4, 10.0);
    h.sample(0);
    h.sample(9.9);
    h.sample(10);
    h.sample(1000);   // clamps to last bucket
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.totalCount(), 4u);
}

TEST(Stats, GroupFindByDottedPath)
{
    stats::Group root;
    stats::Group child(&root, "node0");
    stats::Scalar s(&child, "hits", "hits");
    s += 4;
    const stats::Stat *found = root.find("node0.hits");
    ASSERT_NE(found, nullptr);
    EXPECT_DOUBLE_EQ(
        dynamic_cast<const stats::Scalar *>(found)->value(), 4.0);
    EXPECT_EQ(root.find("node0.misses"), nullptr);
    EXPECT_EQ(root.find("nodeX.hits"), nullptr);
}

namespace
{

constexpr double nan_ = std::numeric_limits<double>::quiet_NaN();
constexpr double inf_ = std::numeric_limits<double>::infinity();

/** Values whose printf form differs from a shortest round-trip form,
 *  with the bytes printf("%g") and printf("%.17g") give for them. */
struct NumberCase
{
    double v;
    const char *g;
    const char *g17;
};

const NumberCase numberCases[] = {
    {0.1, "0.1", "0.10000000000000001"},
    {1.0 / 3, "0.333333", "0.33333333333333331"},
    {9007199254740992.0, "9.0072e+15", "9007199254740992"},
    {1e-300, "1e-300", "1e-300"},
    {1e-5, "1e-05", "1.0000000000000001e-05"},
    {std::numeric_limits<double>::denorm_min(), "4.94066e-324",
     "4.9406564584124654e-324"},
    {-0.0, "-0", "-0"},
    {123456789.0, "1.23457e+08", "123456789"},
    {nan_, "nan", "nan"},
    {-nan_, "-nan", "-nan"},
    {inf_, "inf", "inf"},
    {-inf_, "-inf", "-inf"},
};

std::string
printfNumber(const char *fmt, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, v);
    return buf;
}

} // anonymous namespace

TEST(Stats, DumpFormat)
{
    stats::Group root;
    stats::Group child(&root, "net");
    stats::Scalar s(&child, "msgs", "messages");
    s += 12;
    std::ostringstream os;
    root.dump(os);
    EXPECT_NE(os.str().find("net.msgs 12"), std::string::npos);

    for (const NumberCase &c : numberCases) {
        SCOPED_TRACE(c.g17);
        // The table holds what printf prints on this host.
        ASSERT_EQ(printfNumber("%g", c.v), c.g);
        ASSERT_EQ(printfNumber("%.17g", c.v), c.g17);

        stats::Group g;
        stats::Group net(&g, "net");
        stats::Scalar v(&net, "v", "a value");
        v = c.v;
        std::ostringstream out;
        g.dump(out);
        EXPECT_EQ(out.str(), std::string("net.v ") + c.g + " # a value\n");
        // An ostream at its default precision prints the same bytes.
        std::ostringstream ref;
        ref << c.v;
        EXPECT_EQ(ref.str(), c.g);
    }

    stats::Group dist;
    stats::Distribution d(&dist, "lat", "latency");
    d.sample(0.1);
    d.sample(1.0 / 3);
    std::string text;
    dist.dump(text);
    EXPECT_EQ(text, "lat::count 2 # latency\n"
                    "lat::mean " + printfNumber("%g", d.mean()) + "\n"
                    "lat::min 0.1\n"
                    "lat::max 0.333333\n"
                    "lat::stddev " + printfNumber("%g", d.stddev()) +
                        "\n");
}

TEST(Stats, DumpJsonRoundTrip)
{
    stats::Group root;
    stats::Group net(&root, "net");
    stats::Scalar msgs(&net, "msgs", "messages");
    msgs += 12;
    stats::Group node(&root, "node0");
    stats::Distribution lat(&node, "lat", "latency");
    lat.sample(2);
    lat.sample(4);
    stats::Histogram hist(&node, "hist", "a histogram");
    hist.init(2, 10.0);
    hist.sample(1);
    hist.sample(15);

    std::ostringstream os;
    root.dumpJson(os);
    minijson::Value v = minijson::parse(os.str());

    ASSERT_EQ(v.type, minijson::Value::Type::Object);
    EXPECT_DOUBLE_EQ(v.at("net").at("msgs").number, 12.0);

    const minijson::Value &d = v.at("node0").at("lat");
    EXPECT_DOUBLE_EQ(d.at("count").number, 2.0);
    EXPECT_DOUBLE_EQ(d.at("mean").number, 3.0);
    EXPECT_DOUBLE_EQ(d.at("min").number, 2.0);
    EXPECT_DOUBLE_EQ(d.at("max").number, 4.0);

    const minijson::Value &h = v.at("node0").at("hist");
    EXPECT_DOUBLE_EQ(h.at("total").number, 2.0);
    ASSERT_EQ(h.at("buckets").array.size(), 2u);
    EXPECT_DOUBLE_EQ(h.at("buckets").array[0].number, 1.0);
    EXPECT_DOUBLE_EQ(h.at("buckets").array[1].number, 1.0);

    // Deterministic key order: children appear in registration order.
    ASSERT_EQ(v.object.size(), 2u);
    EXPECT_EQ(v.object[0].first, "net");
    EXPECT_EQ(v.object[1].first, "node0");
}

TEST(Stats, DumpJsonEscapesAndNonFinite)
{
    stats::Group root;
    stats::Scalar s(&root, "odd\"name\\x", "an awkward name");
    s += 1.0 / 0.0;   // infinity must not leak into JSON
    std::ostringstream os;
    root.dumpJson(os);
    minijson::Value v = minijson::parse(os.str());
    EXPECT_DOUBLE_EQ(v.at("odd\"name\\x").number, 0.0);
    EXPECT_EQ(os.str(), "{\"odd\\\"name\\\\x\":0}");

    // Finite numbers print as printf("%.17g"); NaN and infinities
    // clamp to 0.
    for (const NumberCase &c : numberCases) {
        SCOPED_TRACE(c.g17);
        const bool finite = c.v == c.v && c.v != inf_ && c.v != -inf_;
        stats::Group g;
        stats::Scalar x(&g, "v", "a value");
        x = c.v;
        stats::Histogram h(&g, "h", "a histogram");
        h.init(1, 0.1);
        std::string json;
        g.dumpJson(json);
        EXPECT_EQ(json, std::string("{\"v\":") + (finite ? c.g17 : "0") +
                            ",\"h\":{\"total\":0,\"width\":"
                            "0.10000000000000001,\"buckets\":[0]}}");
    }
}
