/**
 * @file
 * Unit tests for the common substrate: strong ids, RNG, Hungarian
 * assignment, disjoint sets, statistics helpers, locale-independent
 * text formatting, and the JSON record emitter.
 */
#include <algorithm>
#include <atomic>
#include <clocale>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/atomic_file.h"
#include "common/check.h"
#include "common/disjoint_set.h"
#include "common/hungarian.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/text_format.h"
#include "common/types.h"

namespace tiqec {
namespace {

TEST(StrongIdTest, DefaultIsInvalid)
{
    QubitId q;
    EXPECT_FALSE(q.valid());
    EXPECT_EQ(q.value, QubitId::kInvalid);
}

TEST(StrongIdTest, ComparesByValue)
{
    EXPECT_EQ(QubitId(3), QubitId(3));
    EXPECT_NE(QubitId(3), QubitId(4));
    EXPECT_LT(QubitId(3), QubitId(4));
}

TEST(StrongIdTest, HashDistinguishesValues)
{
    std::hash<QubitId> h;
    EXPECT_NE(h(QubitId(1)), h(QubitId(2)));
}

TEST(CoordTest, Distances)
{
    const Coord a{0.0, 0.0};
    const Coord b{3.0, 4.0};
    EXPECT_DOUBLE_EQ(DistanceSquared(a, b), 25.0);
    EXPECT_DOUBLE_EQ(ManhattanDistance(a, b), 7.0);
}

TEST(RngTest, Deterministic)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.Next(), b.Next());
    }
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        same += a.Next() == b.Next() ? 1 : 0;
    }
    EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.NextDouble();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(RngTest, NextBelowRespectsBound)
{
    Rng rng(11);
    for (int i = 0; i < 10000; ++i) {
        EXPECT_LT(rng.NextBelow(17), 17u);
    }
}

TEST(RngTest, NextBelowCoversRange)
{
    Rng rng(13);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 8000; ++i) {
        ++seen[rng.NextBelow(8)];
    }
    for (const int count : seen) {
        EXPECT_GT(count, 800);  // ~1000 expected per bucket
    }
}

TEST(RngTest, BinomialSmallN)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LE(rng.NextBinomial(10, 0.5), 10u);
    }
}

TEST(RngTest, BinomialEdgeCases)
{
    Rng rng(5);
    EXPECT_EQ(rng.NextBinomial(0, 0.5), 0u);
    EXPECT_EQ(rng.NextBinomial(100, 0.0), 0u);
    EXPECT_EQ(rng.NextBinomial(100, 1.0), 100u);
}

TEST(RngTest, BinomialMeanSmallP)
{
    Rng rng(17);
    const std::uint64_t n = 100000;
    const double p = 1e-3;
    double total = 0.0;
    const int reps = 200;
    for (int i = 0; i < reps; ++i) {
        total += static_cast<double>(rng.NextBinomial(n, p));
    }
    const double mean = total / reps;
    EXPECT_NEAR(mean, n * p, 5.0);  // sd of the mean ~ 0.7
}

TEST(RngTest, BinomialMeanLargeP)
{
    Rng rng(19);
    const std::uint64_t n = 10000;
    const double p = 0.3;
    double total = 0.0;
    const int reps = 300;
    for (int i = 0; i < reps; ++i) {
        total += static_cast<double>(rng.NextBinomial(n, p));
    }
    EXPECT_NEAR(total / reps, n * p, 20.0);
}

TEST(HungarianTest, Identity)
{
    // Diagonal is cheapest.
    const std::vector<double> cost = {0, 9, 9,
                                      9, 0, 9,
                                      9, 9, 0};
    const auto a = SolveAssignment(cost, 3, 3);
    EXPECT_EQ(a, (std::vector<int>{0, 1, 2}));
}

TEST(HungarianTest, Permutation)
{
    const std::vector<double> cost = {9, 0, 9,
                                      9, 9, 0,
                                      0, 9, 9};
    const auto a = SolveAssignment(cost, 3, 3);
    EXPECT_EQ(a, (std::vector<int>{1, 2, 0}));
}

TEST(HungarianTest, Rectangular)
{
    // 2 rows, 4 columns: best columns are 3 and 0.
    const std::vector<double> cost = {5, 7, 9, 1,
                                      2, 8, 8, 8};
    const auto a = SolveAssignment(cost, 2, 4);
    EXPECT_EQ(a[0], 3);
    EXPECT_EQ(a[1], 0);
    EXPECT_DOUBLE_EQ(AssignmentCost(cost, 4, a), 3.0);
}

TEST(HungarianTest, OptimalAgainstBruteForce)
{
    // Random 5x5 instances, compared with exhaustive permutation search.
    Rng rng(23);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<double> cost(25);
        for (double& c : cost) {
            c = rng.NextDouble() * 100.0;
        }
        const auto a = SolveAssignment(cost, 5, 5);
        const double got = AssignmentCost(cost, 5, a);
        std::vector<int> perm = {0, 1, 2, 3, 4};
        double best = 1e300;
        do {
            double total = 0.0;
            for (int r = 0; r < 5; ++r) {
                total += cost[r * 5 + perm[r]];
            }
            best = std::min(best, total);
        } while (std::next_permutation(perm.begin(), perm.end()));
        EXPECT_NEAR(got, best, 1e-9) << "trial " << trial;
    }
}

TEST(HungarianTest, AssignmentIsAMatching)
{
    Rng rng(29);
    std::vector<double> cost(6 * 10);
    for (double& c : cost) {
        c = rng.NextDouble();
    }
    const auto a = SolveAssignment(cost, 6, 10);
    std::vector<char> used(10, 0);
    for (const int col : a) {
        ASSERT_GE(col, 0);
        ASSERT_LT(col, 10);
        EXPECT_FALSE(used[col]);
        used[col] = 1;
    }
}

TEST(DisjointSetTest, BasicUnionFind)
{
    DisjointSet ds(5);
    EXPECT_EQ(ds.NumSets(), 5);
    ds.Union(0, 1);
    ds.Union(3, 4);
    EXPECT_EQ(ds.NumSets(), 3);
    EXPECT_TRUE(ds.Connected(0, 1));
    EXPECT_FALSE(ds.Connected(1, 2));
    EXPECT_EQ(ds.SetSize(0), 2);
    ds.Union(1, 3);
    EXPECT_TRUE(ds.Connected(0, 4));
    EXPECT_EQ(ds.SetSize(4), 4);
}

TEST(DisjointSetTest, ResetRestoresSingletons)
{
    DisjointSet ds(4);
    ds.Union(0, 1);
    ds.Union(2, 3);
    ds.Reset();
    EXPECT_EQ(ds.NumSets(), 4);
    EXPECT_FALSE(ds.Connected(0, 1));
}

TEST(StatsTest, RunningStats)
{
    RunningStats s;
    for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
        s.Add(x);
    }
    EXPECT_EQ(s.Count(), 8);
    EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
    EXPECT_NEAR(s.StdDev(), 2.138, 1e-3);
}

TEST(StatsTest, WilsonIntervalContainsRate)
{
    const auto est = WilsonInterval(10, 1000);
    EXPECT_DOUBLE_EQ(est.rate, 0.01);
    EXPECT_LT(est.low, 0.01);
    EXPECT_GT(est.high, 0.01);
    EXPECT_GE(est.low, 0.0);
}

TEST(StatsTest, WilsonIntervalZeroSuccesses)
{
    const auto est = WilsonInterval(0, 100);
    EXPECT_DOUBLE_EQ(est.rate, 0.0);
    EXPECT_DOUBLE_EQ(est.low, 0.0);
    EXPECT_GT(est.high, 0.0);
}

TEST(StatsTest, WilsonIntervalEmpty)
{
    const auto est = WilsonInterval(0, 0);
    EXPECT_DOUBLE_EQ(est.rate, 0.0);
}

TEST(StatsTest, WilsonIntervalRejectsMoreSuccessesThanTrials)
{
    // k > n has no binomial interpretation; it used to silently return
    // an interval around a rate above 1. The check must hold in release
    // builds too (TIQEC_CHECK, not assert).
    EXPECT_THROW(WilsonInterval(11, 10), CheckError);
    EXPECT_THROW(WilsonInterval(1, 0), CheckError);
    // The boundary k == n stays valid.
    const auto est = WilsonInterval(10, 10);
    EXPECT_DOUBLE_EQ(est.rate, 1.0);
    EXPECT_DOUBLE_EQ(est.high, 1.0);
    EXPECT_LT(est.low, 1.0);
}

TEST(StatsTest, CheckMacroReportsConditionAndContext)
{
    try {
        TIQEC_CHECK(1 == 2, "context " << 42);
        FAIL() << "TIQEC_CHECK(false) must throw";
    } catch (const CheckError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("1 == 2"), std::string::npos);
        EXPECT_NE(what.find("context 42"), std::string::npos);
        EXPECT_NE(what.find("common_test.cc"), std::string::npos);
    }
}

TEST(StatsTest, LineFitExact)
{
    const auto fit = FitLine({1, 2, 3, 4}, {3, 5, 7, 9});
    EXPECT_NEAR(fit.slope, 2.0, 1e-12);
    EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
    EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(StatsTest, LineFitRejectsMismatchedOrTinyInputs)
{
    // These size invariants were debug-only asserts; in release builds a
    // mismatch read out of bounds. They must throw in every build type.
    EXPECT_THROW(FitLine({1.0, 2.0}, {1.0}), CheckError);
    EXPECT_THROW(FitLine({1.0}, {1.0}), CheckError);
    EXPECT_THROW(FitLine({}, {}), CheckError);
}

TEST(StatsTest, LineFitNoisy)
{
    Rng rng(31);
    std::vector<double> xs, ys;
    for (int i = 0; i < 200; ++i) {
        const double x = i * 0.1;
        xs.push_back(x);
        ys.push_back(-0.7 * x + 2.0 + (rng.NextDouble() - 0.5) * 0.01);
    }
    const auto fit = FitLine(xs, ys);
    EXPECT_NEAR(fit.slope, -0.7, 1e-3);
    EXPECT_NEAR(fit.intercept, 2.0, 1e-2);
    EXPECT_GT(fit.r_squared, 0.999);
}

TEST(TextFormatTest, ExactDoubleIsShortestRoundTripForm)
{
    // Shortest form, not the %.17g blowup: 0.1 prints as "0.1", never
    // "0.10000000000000001".
    EXPECT_EQ(text::ExactDouble(0.1), "0.1");
    EXPECT_EQ(text::ExactDouble(1.0), "1");
    EXPECT_EQ(text::ExactDouble(-2.5e-7), "-2.5e-07");
    // And it round-trips bit-exactly through the paired parser.
    for (const double v : {0.1, 1.0 / 3.0, 6.02214076e23, -0.0,
                           5e-324, 1.7976931348623157e308}) {
        const double parsed =
            text::ParseDouble(text::ExactDouble(v), "test");
        EXPECT_EQ(std::memcmp(&parsed, &v, sizeof v), 0)
            << text::ExactDouble(v);
    }
}

TEST(JsonRecordTest, EmitsShortestDoublesAndNullForNonFinite)
{
    common::JsonRecord r;
    r.Add("p", 0.1);
    r.Add("one", 1.0);
    r.Add("nan", std::nan(""));
    r.Add("n", std::int64_t{42});
    r.Add("s", "a\"b");
    EXPECT_EQ(r.Object(), "{\"p\":0.1,\"one\":1,\"nan\":null,"
                          "\"n\":42,\"s\":\"a\\\"b\"}");
}

TEST(JsonRecordTest, EscapeReplacesIllFormedUtf8)
{
    // Valid 2-, 3- and 4-byte characters pass through; each maximal
    // ill-formed subpart becomes one U+FFFD escape, as Python's
    // bytes.decode("utf-8", "replace") reads it.
    const std::pair<std::string, std::string> cases[] = {
        {"caf\xC3\xA9", "caf\xC3\xA9"},
        {"\xE2\x82\xAC", "\xE2\x82\xAC"},
        {"\xF0\x9F\x98\x80", "\xF0\x9F\x98\x80"},
        {"\xF4\x8F\xBF\xBF", "\xF4\x8F\xBF\xBF"},
        {"a\xFF" "b", "a\\ufffdb"},
        {"\xE2\x82", "\\ufffd"},
        {"\xC0\x80", "\\ufffd\\ufffd"},
        {"\xED\xA0\x80", "\\ufffd\\ufffd\\ufffd"},
        {"\xF4\x90\x80\x80", "\\ufffd\\ufffd\\ufffd\\ufffd"},
    };
    for (const auto& [in, escaped] : cases) {
        EXPECT_EQ(common::JsonRecord::Escape(in), escaped) << escaped;
    }
}

TEST(JsonRecordTest, DoublesAreLocaleIndependent)
{
    // Force a comma-decimal LC_NUMERIC if the host has one. The old
    // snprintf("%.17g") emitter wrote "0,1" under such locales —
    // invalid JSON that broke the bench-regression gate.
    const char* saved = std::setlocale(LC_NUMERIC, nullptr);
    const std::string restore = saved != nullptr ? saved : "C";
    const char* candidates[] = {"de_DE.UTF-8", "de_DE.utf8", "de_DE",
                                "fr_FR.UTF-8", "fr_FR.utf8", "fr_FR",
                                "it_IT.utf8",  "es_ES.utf8",  "nl_NL.utf8"};
    bool forced = false;
    for (const char* name : candidates) {
        if (std::setlocale(LC_NUMERIC, name) != nullptr) {
            char probe[32];
            std::snprintf(probe, sizeof probe, "%.1f", 1.5);
            if (std::string(probe) == "1,5") {
                forced = true;
                break;
            }
        }
    }
    if (!forced) {
        std::setlocale(LC_NUMERIC, restore.c_str());
        GTEST_SKIP() << "no comma-decimal locale installed on this host";
    }
    common::JsonRecord r;
    r.Add("p", 0.1);
    r.Add("half", 1.5);
    const std::string object = r.Object();
    std::setlocale(LC_NUMERIC, restore.c_str());
    EXPECT_EQ(object, "{\"p\":0.1,\"half\":1.5}");
}

// Two writers publish different contents to one path while a reader
// reads it: every read must see one writer's whole content, every write
// must succeed, and no temp file may be left. A temp name shared by the
// writers would let one truncate the other's file mid-write.
TEST(AtomicFileTest, ConcurrentWritersNeverTearTheFile)
{
    const std::filesystem::path dir =
        ::testing::TempDir() + "tiqec_atomic_write_race";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "artifact").string();
    const std::string contents[2] = {std::string(1 << 20, 'A'),
                                     std::string(300000, 'B')};
    std::string error;
    ASSERT_TRUE(common::AtomicWriteFile(path, contents[0], &error)) << error;

    std::atomic<int> writers_left{2};
    std::atomic<int> failed_writes{0};
    int reads = 0;
    int torn_reads = 0;
    std::vector<std::thread> writers;
    for (const std::string& content : contents) {
        writers.emplace_back([&, &content = content] {
            for (int i = 0; i < 400; ++i) {
                if (!common::AtomicWriteFile(path, content)) {
                    failed_writes.fetch_add(1);
                }
            }
            writers_left.fetch_sub(1);
        });
    }
    std::thread reader([&] {
        std::string read;
        bool last = false;
        while (!last) {
            last = writers_left.load() == 0;
            ASSERT_TRUE(common::ReadFile(path, &read));
            ++reads;
            if (read != contents[0] && read != contents[1]) {
                ++torn_reads;
            }
        }
    });
    for (std::thread& writer : writers) {
        writer.join();
    }
    reader.join();

    EXPECT_EQ(torn_reads, 0) << "of " << reads << " reads";
    EXPECT_EQ(failed_writes.load(), 0);
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        EXPECT_EQ(entry.path().filename(), "artifact");
    }
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tiqec
