/**
 * @file
 * Tests for the shared JSON serializer (common/json.h) and the
 * Metrics JSON/CSV emission built on it.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "common/json.h"
#include "sim/metrics.h"

namespace h2 {
namespace {

TEST(JsonWriter, CompactObject)
{
    JsonWriter w(/*pretty=*/false);
    w.beginObject()
        .kv("name", "lbm")
        .kv("count", u64(3))
        .kv("ratio", 0.5)
        .kv("ok", true)
        .endObject();
    EXPECT_EQ(w.str(),
              "{\"name\":\"lbm\",\"count\":3,\"ratio\":0.5,\"ok\":true}");
}

TEST(JsonWriter, PrettyNesting)
{
    JsonWriter w;
    w.beginObject().key("runs").beginArray().value(u64(1)).value(u64(2))
        .endArray().endObject();
    EXPECT_EQ(w.str(), "{\n  \"runs\": [\n    1,\n    2\n  ]\n}");
}

TEST(JsonWriter, EmptyContainers)
{
    JsonWriter w(false);
    w.beginObject().key("a").beginArray().endArray().key("o")
        .beginObject().endObject().endObject();
    EXPECT_EQ(w.str(), "{\"a\":[],\"o\":{}}");
}

TEST(JsonWriter, StringEscaping)
{
    EXPECT_EQ(JsonWriter::escape("plain"), "plain");
    EXPECT_EQ(JsonWriter::escape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(JsonWriter::escape("tab\there"), "tab\\there");
    EXPECT_EQ(JsonWriter::escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull)
{
    JsonWriter w(false);
    w.beginArray()
        .value(std::nan(""))
        .value(INFINITY)
        .value(1.5)
        .endArray();
    EXPECT_EQ(w.str(), "[null,null,1.5]");
}

TEST(JsonWriter, FormatDoubleNonFiniteRendersZero)
{
    // formatDouble feeds the CSV renderer directly (no null escape
    // hatch there): to_chars' "nan"/"inf" spellings must never reach a
    // report.
    EXPECT_EQ(JsonWriter::formatDouble(std::nan("")), "0");
    EXPECT_EQ(JsonWriter::formatDouble(INFINITY), "0");
    EXPECT_EQ(JsonWriter::formatDouble(-INFINITY), "0");
}

TEST(JsonWriter, DoubleRoundTrip)
{
    // Shortest-representation formatting survives a parse round trip.
    double v = 1.9841301329101368;
    // strtod is the independent reference parser here — using our own
    // h2::tryParseF64 would make the round trip self-certifying.
    EXPECT_EQ(std::strtod(JsonWriter::formatDouble(v).c_str(), nullptr), v);
    EXPECT_EQ(JsonWriter::formatDouble(0.0), "0");
}

TEST(MetricsJson, ContainsEveryScalarAndDetail)
{
    sim::Metrics m;
    m.workload = "lbm";
    m.design = "DFC-1024";
    m.instructions = 42;
    m.timePs = 1000;
    m.ipc = 1.5;
    m.detail.add("dfc.tagCacheMisses", 7.0);

    std::string json = m.toJson();
    EXPECT_NE(json.find("\"workload\": \"lbm\""), std::string::npos);
    EXPECT_NE(json.find("\"design\": \"DFC-1024\""), std::string::npos);
    EXPECT_NE(json.find("\"instructions\": 42"), std::string::npos);
    EXPECT_NE(json.find("\"time_ps\": 1000"), std::string::npos);
    EXPECT_NE(json.find("\"ipc\": 1.5"), std::string::npos);
    EXPECT_NE(json.find("\"dfc.tagCacheMisses\": 7"), std::string::npos);
}

TEST(MetricsCsv, RowMatchesHeaderWidth)
{
    sim::Metrics m;
    m.workload = "lbm";
    m.design = "BASELINE";
    auto count = [](const std::string &s) {
        size_t n = 1;
        for (char c : s)
            n += c == ',';
        return n;
    };
    EXPECT_EQ(count(sim::Metrics::csvHeader()), count(m.toCsvRow()));
}

TEST(JsonParser, ScalarsAndContainers)
{
    std::string err;
    auto doc = parseJson(
        R"({"s":"hi","n":3,"f":0.5,"b":true,"z":null,"a":[1,2]})", &err);
    ASSERT_TRUE(doc) << err;
    ASSERT_TRUE(doc->isObject());
    EXPECT_EQ(doc->find("s")->asString(), "hi");
    EXPECT_EQ(doc->find("n")->asU64(), 3u);
    EXPECT_EQ(doc->find("f")->asDouble(), 0.5);
    EXPECT_TRUE(doc->find("b")->asBool());
    EXPECT_TRUE(doc->find("z")->isNull());
    ASSERT_TRUE(doc->find("a")->isArray());
    EXPECT_EQ(doc->find("a")->items.size(), 2u);
    EXPECT_EQ(doc->find("missing"), nullptr);
}

TEST(JsonParser, U64FullPrecision)
{
    // Counters round-trip at 64-bit precision, beyond double's 2^53.
    std::string err;
    auto doc = parseJson("18446744073709551615", &err);
    ASSERT_TRUE(doc) << err;
    EXPECT_EQ(doc->asU64(), ~u64(0));
}

TEST(JsonParser, StringEscapes)
{
    std::string err;
    auto doc = parseJson(
        "[\"a\\\"b\\\\c\", \"tab\\there\", \"A\\u00e9\"]", &err);
    ASSERT_TRUE(doc) << err;
    EXPECT_EQ(doc->items[0].asString(), "a\"b\\c");
    EXPECT_EQ(doc->items[1].asString(), "tab\there");
    // é decodes to the two-byte UTF-8 form of e-acute.
    EXPECT_EQ(doc->items[2].asString(), "A\xc3\xa9");
}

TEST(JsonParser, RejectsMalformedInput)
{
    std::string err;
    EXPECT_FALSE(parseJson("", &err));
    EXPECT_FALSE(parseJson("{", &err));
    EXPECT_FALSE(parseJson("{\"a\":}", &err));
    EXPECT_FALSE(parseJson("[1,]", &err));
    EXPECT_FALSE(parseJson("tru", &err));
    EXPECT_FALSE(parseJson("{} trailing", &err));
    EXPECT_FALSE(parseJson("\"unterminated", &err));
    // The last error message names a byte offset for debugging.
    EXPECT_NE(err.find("at byte"), std::string::npos);
}

TEST(JsonParser, WriterOutputRoundTrips)
{
    // The writer and parser are two halves of the same format: every
    // document the writer emits must parse back with equal values.
    JsonWriter w;
    w.beginObject()
        .kv("name", "lbm|dfc")
        .kv("count", ~u64(0))
        .kv("ratio", 1.9841301329101368)
        .kv("flag", false);
    w.key("nested").beginArray().value(u64(1)).null().endArray();
    w.endObject();

    std::string err;
    auto doc = parseJson(w.str(), &err);
    ASSERT_TRUE(doc) << err;
    EXPECT_EQ(doc->find("name")->asString(), "lbm|dfc");
    EXPECT_EQ(doc->find("count")->asU64(), ~u64(0));
    EXPECT_EQ(doc->find("ratio")->asDouble(), 1.9841301329101368);
    EXPECT_FALSE(doc->find("flag")->asBool());
    EXPECT_TRUE(doc->find("nested")->items[1].isNull());
}

TEST(MetricsJson, FromJsonRoundTripsExactly)
{
    sim::Metrics m;
    m.workload = "lbm";
    m.design = "DFC-1024";
    m.instructions = 123456789;
    m.timePs = 987654321;
    m.cycles = 4321;
    m.ipc = 1.9841301329101368;
    m.mpki = 0.1 + 0.2; // deliberately not exactly 0.3
    m.servedFromNm = 2.0 / 3.0;
    m.dynamicEnergyPj = 1e18;
    m.detail.add("dfc.tagCacheMisses", 7.125);
    m.detail.add("mc.queueDepth.mean", 1.0 / 3.0);

    std::string err;
    auto doc = parseJson(m.toJson(), &err);
    ASSERT_TRUE(doc) << err;
    auto back = sim::Metrics::fromJson(*doc, &err);
    ASSERT_TRUE(back) << err;
    // Field-exact: shortest-round-trip doubles reparse bit-identically,
    // which is what makes journal resume bit-identical.
    EXPECT_EQ(*back, m);
}

TEST(MetricsJson, FromJsonRejectsTypeMismatch)
{
    std::string err;
    auto doc = parseJson(R"({"workload": 7})", &err);
    ASSERT_TRUE(doc) << err;
    EXPECT_FALSE(sim::Metrics::fromJson(*doc, &err));
    EXPECT_NE(err.find("workload"), std::string::npos);

    auto arr = parseJson("[1,2]", &err);
    ASSERT_TRUE(arr) << err;
    EXPECT_FALSE(sim::Metrics::fromJson(*arr, &err));
}

} // namespace
} // namespace h2
