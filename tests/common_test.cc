#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <future>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/attribute_set.h"
#include "common/bitmap.h"
#include "common/csv.h"
#include "common/hash.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_pool.h"
#include "common/thread_pool.h"

namespace uguide {
namespace {

// --- Status / Result -------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad input");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad input");
  EXPECT_EQ(st.ToString(), "Invalid argument: bad input");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::IoError("x"));
}

TEST(StatusTest, EveryCodeHasName) {
  for (int code = 0; code <= 9; ++code) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(code)),
                 "Unknown");
  }
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> DoublePositive(int x) {
  UGUIDE_ASSIGN_OR_RETURN(int value, ParsePositive(x));
  return value * 2;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 7;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*DoublePositive(4), 8);
  EXPECT_FALSE(DoublePositive(-1).ok());
  EXPECT_EQ(DoublePositive(-1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string moved = std::move(r).ValueOrDie();
  EXPECT_EQ(moved, "payload");
}

// --- AttributeSet -----------------------------------------------------------

TEST(BitmapTest, AllSetNeverYieldsIdsPastSize) {
  for (size_t size : {0u, 1u, 63u, 64u, 65u, 130u}) {
    SCOPED_TRACE(size);
    Bitmap bits(size, true);
    std::vector<size_t> seen;
    bits.ForEachSetBit([&](size_t i) { seen.push_back(i); });
    ASSERT_EQ(seen.size(), size);
    for (size_t i = 0; i < size; ++i) EXPECT_EQ(seen[i], i);
  }
}

TEST(BitmapTest, TestAndSetAndClear) {
  Bitmap bits(100);
  EXPECT_FALSE(bits.Test(70));
  EXPECT_TRUE(bits.TestAndSet(70));
  EXPECT_FALSE(bits.TestAndSet(70));
  bits.TestAndSet(3);
  bits.TestAndSet(99);
  bits.Clear(70);
  std::vector<size_t> seen;
  bits.ForEachSetBit([&](size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<size_t>{3, 99}));
  EXPECT_EQ(bits.MemoryBytes(), 2 * sizeof(uint64_t));
}

TEST(AttributeSetTest, EmptyByDefault) {
  AttributeSet s;
  EXPECT_TRUE(s.Empty());
  EXPECT_EQ(s.Size(), 0);
}

TEST(AttributeSetTest, AddRemoveContains) {
  AttributeSet s;
  s.Add(3);
  s.Add(5);
  EXPECT_TRUE(s.Contains(3));
  EXPECT_TRUE(s.Contains(5));
  EXPECT_FALSE(s.Contains(4));
  EXPECT_EQ(s.Size(), 2);
  s.Remove(3);
  EXPECT_FALSE(s.Contains(3));
  EXPECT_EQ(s.Size(), 1);
}

TEST(AttributeSetTest, InitializerListAndFull) {
  AttributeSet s = {0, 2, 4};
  EXPECT_EQ(s.Size(), 3);
  EXPECT_EQ(AttributeSet::Full(5).Size(), 5);
  EXPECT_EQ(AttributeSet::Full(64).Size(), 64);
  EXPECT_EQ(AttributeSet::Full(0).Size(), 0);
}

TEST(AttributeSetTest, SetAlgebra) {
  AttributeSet a = {0, 1, 2};
  AttributeSet b = {2, 3};
  EXPECT_EQ(a.Union(b), AttributeSet({0, 1, 2, 3}));
  EXPECT_EQ(a.Intersect(b), AttributeSet({2}));
  EXPECT_EQ(a.Minus(b), AttributeSet({0, 1}));
  EXPECT_TRUE(AttributeSet({1}).IsSubsetOf(a));
  EXPECT_TRUE(AttributeSet({1}).IsStrictSubsetOf(a));
  EXPECT_FALSE(a.IsStrictSubsetOf(a));
  EXPECT_TRUE(a.IsSubsetOf(a));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(AttributeSet({0}).Intersects(b));
}

TEST(AttributeSetTest, WithWithoutAreNonMutating) {
  const AttributeSet a = {1};
  EXPECT_EQ(a.With(2), AttributeSet({1, 2}));
  EXPECT_EQ(a.Without(1), AttributeSet());
  EXPECT_EQ(a, AttributeSet({1}));
}

TEST(AttributeSetTest, LowestHighestIteration) {
  AttributeSet s = {5, 9, 63};
  EXPECT_EQ(s.Lowest(), 5);
  EXPECT_EQ(s.Highest(), 63);
  EXPECT_EQ(s.ToVector(), (std::vector<int>{5, 9, 63}));
  std::vector<int> seen;
  for (int a : s) seen.push_back(a);
  EXPECT_EQ(seen, s.ToVector());
}

TEST(AttributeSetTest, ToStringForms) {
  AttributeSet s = {0, 2};
  EXPECT_EQ(s.ToString(), "{0,2}");
  EXPECT_EQ(s.ToString({"zip", "city", "state"}), "zip,state");
  EXPECT_EQ(AttributeSet().ToString(), "{}");
}

TEST(AttributeSetTest, HashDistinguishesNearbyMasks) {
  AttributeSetHash hash;
  std::set<size_t> values;
  for (uint64_t mask = 0; mask < 128; ++mask) {
    values.insert(hash(AttributeSet(mask)));
  }
  EXPECT_EQ(values.size(), 128u);
}

// Property sweep: subset/union/minus laws over a range of masks.
class AttributeSetLawsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AttributeSetLawsTest, AlgebraLaws) {
  const AttributeSet a(GetParam());
  const AttributeSet b(GetParam() * 0x9e3779b97f4a7c15ULL >> 32);
  EXPECT_TRUE(a.Intersect(b).IsSubsetOf(a));
  EXPECT_TRUE(a.IsSubsetOf(a.Union(b)));
  EXPECT_EQ(a.Minus(b).Intersect(b), AttributeSet());
  EXPECT_EQ(a.Minus(b).Union(a.Intersect(b)), a);
  EXPECT_EQ(a.Union(b).Size() + a.Intersect(b).Size(),
            a.Size() + b.Size());
}

INSTANTIATE_TEST_SUITE_P(Masks, AttributeSetLawsTest,
                         ::testing::Values(0ULL, 1ULL, 0b1010ULL, 0xffULL,
                                           0xdeadbeefULL, 0x8000000000000000ULL,
                                           ~0ULL, 0x5555555555555555ULL));

// --- Rng --------------------------------------------------------------------

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123), c(124);
  std::vector<uint64_t> va, vb, vc;
  for (int i = 0; i < 32; ++i) {
    va.push_back(a.Next());
    vb.push_back(b.Next());
    vc.push_back(c.Next());
  }
  EXPECT_EQ(va, vb);
  EXPECT_NE(va, vc);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(10), 10u);
    int64_t v = rng.NextInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BoundedCoversAllValues) {
  Rng rng(99);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBounded(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, WeightedRespectsZeroWeights) {
  Rng rng(5);
  std::vector<double> weights = {0.0, 1.0, 0.0, 3.0};
  for (int i = 0; i < 200; ++i) {
    size_t pick = rng.NextWeighted(weights);
    EXPECT_TRUE(pick == 1 || pick == 3);
  }
}

TEST(RngTest, WeightedIsRoughlyProportional) {
  Rng rng(6);
  std::vector<double> weights = {1.0, 9.0};
  int heavy = 0;
  for (int i = 0; i < 5000; ++i) {
    if (rng.NextWeighted(weights) == 1) ++heavy;
  }
  EXPECT_GT(heavy, 4200);
  EXPECT_LT(heavy, 4800);
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(8);
  int first = 0, last = 0;
  for (int i = 0; i < 3000; ++i) {
    size_t r = rng.NextZipf(10, 1.5);
    if (r == 0) ++first;
    if (r == 9) ++last;
  }
  EXPECT_GT(first, 10 * last);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(10);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = items;
  rng.Shuffle(shuffled);
  std::multiset<int> a(items.begin(), items.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

// --- StringPool -------------------------------------------------------------

TEST(StringPoolTest, InternIsIdempotent) {
  StringPool pool;
  ValueCode a = pool.Intern("alpha");
  ValueCode b = pool.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.Intern("alpha"), a);
  EXPECT_EQ(pool.Size(), 2u);
}

TEST(StringPoolTest, LookupRoundTrips) {
  StringPool pool;
  ValueCode a = pool.Intern("value");
  EXPECT_EQ(pool.Lookup(a), "value");
}

TEST(StringPoolTest, FindWithoutIntern) {
  StringPool pool;
  pool.Intern("present");
  EXPECT_EQ(pool.Find("present"), 0);
  EXPECT_EQ(pool.Find("absent"), kNullValueCode);
}

TEST(StringPoolTest, EmptyStringIsAValue) {
  StringPool pool;
  ValueCode e = pool.Intern("");
  EXPECT_EQ(pool.Lookup(e), "");
}

// --- CSV --------------------------------------------------------------------

TEST(CsvTest, ParsesSimpleTable) {
  auto r = ParseCsv("a,b\n1,2\n3,4\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->header, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[1], (std::vector<std::string>{"3", "4"}));
}

TEST(CsvTest, HandlesQuotedFields) {
  auto r = ParseCsv("a,b\n\"x,y\",\"say \"\"hi\"\"\"\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0], "x,y");
  EXPECT_EQ(r->rows[0][1], "say \"hi\"");
}

TEST(CsvTest, HandlesCrLfAndMissingTrailingNewline) {
  auto r = ParseCsv("a,b\r\n1,2\r\n3,4");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[1][1], "4");
}

TEST(CsvTest, RejectsRaggedRows) {
  auto r = ParseCsv("a,b\n1\n");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // The message names the 1-based physical line and both field counts.
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("expected 2 fields, got 1"),
            std::string::npos)
      << r.status().message();
}

TEST(CsvTest, RaggedRowReportsPhysicalLineAcrossQuotedNewlines) {
  // The quoted field on line 2 spans two physical lines, so the ragged
  // row is record #3 but starts on physical line 4.
  auto r = ParseCsv("a,b\n\"x\ny\",2\n1,2,3\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 4"), std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("expected 2 fields, got 3"),
            std::string::npos)
      << r.status().message();
}

TEST(CsvTest, RejectsUnterminatedQuote) {
  auto r = ParseCsv("a\n\"oops\n");
  ASSERT_FALSE(r.ok());
  // Points at the line the quote opened on, not the end of input.
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("unterminated quoted field"),
            std::string::npos)
      << r.status().message();
}

TEST(CsvTest, RejectsQuoteInsideUnquotedField) {
  auto r = ParseCsv("a,b\n1,2\nx\"y,2\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("quote inside unquoted field"),
            std::string::npos)
      << r.status().message();
}

TEST(CsvTest, RejectsEmptyInput) { EXPECT_FALSE(ParseCsv("").ok()); }

TEST(CsvTest, StripsUtf8Bom) {
  // Spreadsheet exports prepend a BOM; it must not become part of the
  // first header name.
  auto r = ParseCsv("\xEF\xBB\xBF"
                    "a,b\n1,2\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->header, (std::vector<std::string>{"a", "b"}));
}

TEST(CsvTest, BomDoesNotShiftErrorLineNumbers) {
  auto r = ParseCsv("\xEF\xBB\xBF"
                    "a,b\n1\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos)
      << r.status().message();
}

TEST(CsvTest, BomAloneIsEmptyInput) {
  EXPECT_FALSE(ParseCsv("\xEF\xBB\xBF").ok());
}

TEST(CsvTest, EmbeddedNulIsData) {
  // A NUL byte is field content, not a terminator: parsing must neither
  // crash nor truncate the field.
  const std::string text{"a,b\n1\x00"
                         "2,3\n",
                         10};
  auto r = ParseCsv(text);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0], (std::string{"1\x00"
                                        "2",
                                        3}));
  EXPECT_EQ(r->rows[0][1], "3");
}

TEST(CsvTest, QuotedCrLfKeepsLineNumbers) {
  // CRLF terminators plus a quoted field spanning lines: the ragged row
  // is still reported at its 1-based physical line.
  auto r = ParseCsv("a,b\r\n\"x\r\ny\",2\r\n1,2,3\r\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 4"), std::string::npos)
      << r.status().message();
}

TEST(CsvTest, WriteQuotesOnlyWhenNeeded) {
  CsvTable t;
  t.header = {"a", "b"};
  t.rows = {{"plain", "with,comma"}, {"with\"quote", "line\nbreak"}};
  std::string text = WriteCsv(t);
  EXPECT_EQ(text,
            "a,b\nplain,\"with,comma\"\n\"with\"\"quote\",\"line\nbreak\"\n");
}

TEST(CsvTest, RoundTrip) {
  CsvTable t;
  t.header = {"x", "y", "z"};
  t.rows = {{"1", "a,b", ""}, {"\"q\"", "plain", "end"}};
  auto parsed = ParseCsv(WriteCsv(t));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->header, t.header);
  EXPECT_EQ(parsed->rows, t.rows);
}

TEST(CsvTest, FileRoundTrip) {
  CsvTable t;
  t.header = {"k", "v"};
  t.rows = {{"1", "one"}, {"2", "two"}};
  const std::string path = ::testing::TempDir() + "/uguide_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(t, path).ok());
  auto r = ReadCsvFile(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows, t.rows);
}

TEST(CsvTest, ReadMissingFileFails) {
  auto r = ReadCsvFile("/nonexistent/uguide.csv");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  // The path and the OS reason both appear.
  EXPECT_NE(r.status().message().find("/nonexistent/uguide.csv"),
            std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("No such file"), std::string::npos)
      << r.status().message();
}

TEST(CsvTest, ReadFileWrapsParseErrorsWithPath) {
  const std::string path = ::testing::TempDir() + "/uguide_ragged.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << "a,b\n1,2,3\n";
  }
  auto r = ReadCsvFile(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find(path), std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos)
      << r.status().message();
}

// --- ThreadPool ------------------------------------------------------------

TEST(ThreadPoolTest, AutoResolvesToAtLeastOneThread) {
  ThreadPool pool;  // kAuto
  EXPECT_GE(pool.num_threads(), 1);
}

TEST(ThreadPoolTest, SingleThreadedFallbackRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  pool.ParallelFor(8, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);  // no synchronization needed: inline execution
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  bool ran = false;
  pool.Submit([&] { ran = true; });  // synchronous in the fallback
  EXPECT_TRUE(ran);
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndTinyRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](size_t) { ++calls; });  // n == 1 runs inline
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ParallelMapPreservesInputOrder) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    std::vector<int> in(1000);
    for (size_t i = 0; i < in.size(); ++i) in[i] = static_cast<int>(i);
    std::vector<int> out = pool.ParallelMap(in, [](const int& v) {
      return v * v;
    });
    ASSERT_EQ(out.size(), in.size());
    for (size_t i = 0; i < in.size(); ++i) {
      ASSERT_EQ(out[i], in[i] * in[i]);
    }
  }
}

TEST(ThreadPoolTest, PoolIsReusableAcrossForkJoins) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 20; ++round) {
    pool.ParallelFor(100, [&](size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 2000);
}

TEST(ThreadPoolTest, SubmittedTasksAllRunBeforeDestruction) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&] { ran.fetch_add(1); });
    }
  }  // destructor drains the queue and joins
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPoolTest, ParallelForSurfacesTaskException) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  EXPECT_THROW(
      pool.ParallelFor(10000,
                       [&](size_t i) {
                         calls.fetch_add(1);
                         if (i == 137) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // Cancellation is chunk-granular: some iterations never ran.
  EXPECT_GT(calls.load(), 0);
  // The pool survives a throwing fork/join and is fully reusable.
  std::atomic<int> total{0};
  pool.ParallelFor(500, [&](size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 500);
}

TEST(ThreadPoolTest, ParallelForDoesNotWaitForHelpersQueuedBehindBusyWorkers) {
  // Every worker is blocked until the test thread's fork has returned — the
  // shape of a caller that forks while holding a lock the workers wait on.
  // The join must not wait for the helper tasks queued behind them.
  constexpr int kThreads = 4;
  ThreadPool pool(kThreads);
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  bool released = false;
  std::atomic<int> timed_out{0};
  for (int w = 1; w < kThreads; ++w) {
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      ++started;
      cv.notify_all();
      if (!cv.wait_for(lock, std::chrono::seconds(5),
                       [&] { return released; })) {
        timed_out.fetch_add(1);
      }
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return started == kThreads - 1; });
  }
  std::atomic<int> calls{0};
  pool.ParallelFor(1000, [&](size_t) { calls.fetch_add(1); });
  // Read before releasing: a join that waited for the queued helpers could
  // only have returned after the workers' waits timed out.
  const int timed_out_before_return = timed_out.load();
  {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
  }
  cv.notify_all();
  EXPECT_EQ(calls.load(), 1000);
  EXPECT_EQ(timed_out_before_return, 0);
  // The abandoned helpers run later as no-ops; the pool stays usable.
  std::atomic<int> total{0};
  pool.ParallelFor(500, [&](size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 500);
}

TEST(ThreadPoolTest, InlineParallelForPropagatesException) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.ParallelFor(
                   8, [](size_t i) {
                     if (i == 3) throw std::runtime_error("inline boom");
                   }),
               std::runtime_error);
}

TEST(ThreadPoolTest, SubmitCapturesTaskException) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.TakeSubmitError(), nullptr);
  pool.Submit([] { throw std::runtime_error("async boom"); });
  // The single worker runs tasks in order and records a throw before it
  // takes the next task, so once a later task has run the error is in.
  std::promise<void> drained;
  pool.Submit([&drained] { drained.set_value(); });
  drained.get_future().wait();
  std::exception_ptr error = pool.TakeSubmitError();
  ASSERT_NE(error, nullptr);
  EXPECT_THROW(std::rethrow_exception(error), std::runtime_error);
  // Taking the error clears the slot.
  EXPECT_EQ(pool.TakeSubmitError(), nullptr);
}

}  // namespace
}  // namespace uguide
