#include <fcntl.h>
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/common/file.h"
#include "src/common/hash.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/common/strings.h"

namespace rose {
namespace {

TEST(WorkerPoolTest, DefaultParallelismIsAtLeastOne) {
  EXPECT_GE(WorkerPool::DefaultParallelism(), 1);
}

TEST(WorkerPoolTest, ClampsThreadCountToAtLeastOne) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1);
}

TEST(WorkerPoolTest, DrainsAllEnqueuedJobsBeforeShutdown) {
  std::atomic<int> executed{0};
  {
    WorkerPool pool(4);
    for (int i = 0; i < 100; i++) {
      pool.Enqueue([&executed] { executed.fetch_add(1); });
    }
    // The destructor must wait for (and finish) every queued job.
  }
  EXPECT_EQ(executed.load(), 100);
}

TEST(OrderedBatchTest, SerialModeIsLazyAndSkipsUnconsumedTasks) {
  std::atomic<int> executed{0};
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 4; i++) {
    tasks.push_back([&executed, i] {
      executed.fetch_add(1);
      return i * 10;
    });
  }
  {
    OrderedBatch<int> batch(nullptr, std::move(tasks));
    EXPECT_EQ(executed.load(), 0);  // Nothing runs until Get().
    EXPECT_EQ(batch.Get(0), 0);
    EXPECT_EQ(batch.Get(1), 10);
    EXPECT_EQ(executed.load(), 2);
    batch.Abandon();
  }
  // Tasks 2 and 3 were never consumed, so serial mode never ran them —
  // exactly what a serial loop with an early break would do.
  EXPECT_EQ(executed.load(), 2);
}

TEST(OrderedBatchTest, SingleThreadPoolBehavesSerially) {
  WorkerPool pool(1);
  std::atomic<int> executed{0};
  std::vector<std::function<int()>> tasks;
  tasks.push_back([&executed] {
    executed.fetch_add(1);
    return 7;
  });
  OrderedBatch<int> batch(&pool, std::move(tasks));
  EXPECT_EQ(executed.load(), 0);  // A 1-thread pool stays lazy.
  EXPECT_EQ(batch.Get(0), 7);
}

TEST(OrderedBatchTest, ParallelResultsArriveInSubmissionOrder) {
  WorkerPool pool(4);
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 32; i++) {
    tasks.push_back([i] { return i * i; });
  }
  OrderedBatch<int> batch(&pool, std::move(tasks));
  for (int i = 0; i < 32; i++) {
    EXPECT_EQ(batch.Get(static_cast<size_t>(i)), i * i);
  }
}

TEST(OrderedBatchTest, AbandonSkipsTasksThatHaveNotStarted) {
  WorkerPool pool(2);
  std::mutex mutex;
  std::condition_variable cv;
  int started = 0;
  bool release = false;
  std::atomic<int> executed{0};

  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 10; i++) {
    tasks.push_back([&, i] {
      executed.fetch_add(1);
      std::unique_lock<std::mutex> lock(mutex);
      started++;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
      return i;
    });
  }
  {
    OrderedBatch<int> batch(&pool, std::move(tasks));
    {
      // Both workers are now parked inside tasks 0 and 1.
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return started == 2; });
    }
    batch.Abandon();
    {
      std::lock_guard<std::mutex> lock(mutex);
      release = true;
    }
    cv.notify_all();
    // The batch destructor waits for the two in-flight tasks and skips the
    // other eight.
  }
  EXPECT_EQ(executed.load(), 2);
}

TEST(OrderedBatchTest, AbandonFreesResultsAndIdleWaitsForRunningTasks) {
  WorkerPool pool(2);
  std::mutex mutex;
  std::condition_variable cv;
  bool started = false;
  bool release = false;
  std::weak_ptr<int> landed;
  std::weak_ptr<int> late;

  std::vector<std::function<std::shared_ptr<int>()>> tasks;
  tasks.push_back([&] {
    auto result = std::make_shared<int>(0);
    landed = result;
    return result;
  });
  tasks.push_back([&] {
    std::unique_lock<std::mutex> lock(mutex);
    started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
    auto result = std::make_shared<int>(1);
    late = result;
    return result;
  });
  for (int i = 2; i < 6; i++) {
    tasks.push_back([i] { return std::make_shared<int>(i); });
  }
  OrderedBatch<std::shared_ptr<int>> batch(&pool, std::move(tasks));
  EXPECT_EQ(*batch.Get(0), 0);
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return started; });
  }
  batch.Abandon();
  EXPECT_TRUE(landed.expired());  // Freed by Abandon, though already taken.
  EXPECT_FALSE(batch.Idle());     // Task 1 is still running.
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  while (!batch.Idle()) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(late.expired());  // Finished after Abandon: dropped, not stored.
}

// Cache keys, ring placement, canonical hashes and execution-index digests
// are all built from these two primitives and travel on the wire and on
// disk, so their outputs are pinned to the published reference values.
TEST(HashTest, FnvAndMix64MatchReferenceValues) {
  EXPECT_EQ(FnvMix(kFnvOffset, std::string_view()), 0xcbf29ce484222325ULL);
  EXPECT_EQ(FnvMix(kFnvOffset, std::string_view("a")), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(FnvMix(kFnvOffset, std::string_view("foobar")), 0x85944171f73967e8ULL);
  // The word overload folds the eight bytes least significant first.
  EXPECT_EQ(FnvMix(kFnvOffset, uint64_t{0x61}),
            FnvMix(kFnvOffset, std::string_view("a\0\0\0\0\0\0\0", 8)));
  // SplitMix64's first output from state 0.
  EXPECT_EQ(Mix64(0x9e3779b97f4a7c15ULL), 0xe220a8397b1dcdafULL);
  uint64_t state = 0;
  EXPECT_EQ(SplitMix64(state), 0xe220a8397b1dcdafULL);
}

// A fresh, empty directory under the test temp dir.
std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(FileTest, ReadFileBytesReadsRegularFilesOnly) {
  const std::string dir = FreshDir("rose_file_read");
  const std::string path = dir + "/data.bin";
  const std::string bytes("abc\0def", 7);
  ASSERT_TRUE(WriteFile(path, bytes));
  std::string out;
  int err = -1;
  ASSERT_TRUE(ReadFileBytes(path, &out, &err));
  EXPECT_EQ(out, bytes);
  EXPECT_EQ(err, 0);

  EXPECT_FALSE(ReadFileBytes(dir + "/missing", &out, &err));
  EXPECT_EQ(err, ENOENT);
  EXPECT_FALSE(ReadFileBytes(dir, &out, &err));
  EXPECT_EQ(err, EISDIR);
  // A device never ends; refusing it keeps readers from looping forever.
  if (std::filesystem::is_character_file("/dev/zero")) {
    EXPECT_FALSE(ReadFileBytes("/dev/zero", &out, &err));
    EXPECT_EQ(err, EINVAL);
  }
  std::filesystem::remove_all(dir);
}

TEST(FileTest, WriteFileTruncatesAndFailsOnAFullDisk) {
  const std::string dir = FreshDir("rose_file_write");
  const std::string path = dir + "/out.yaml";
  ASSERT_TRUE(WriteFile(path, "a longer first version\n"));
  ASSERT_TRUE(WriteFile(path, "short\n"));
  std::string out;
  ASSERT_TRUE(ReadFileBytes(path, &out));
  EXPECT_EQ(out, "short\n");
  EXPECT_FALSE(WriteFile(dir + "/no-such-dir/out.yaml", "x"));
  if (std::filesystem::is_character_file("/dev/full")) {
    // Every write to /dev/full fails with ENOSPC.
    EXPECT_FALSE(WriteFile("/dev/full", "confirmed schedule\n"));
  }
  std::filesystem::remove_all(dir);
}

TEST(FileTest, WriteFileAtomicReplacesWholeOrLeavesTargetUntouched) {
  const std::string dir = FreshDir("rose_file_atomic");
  const std::string path = dir + "/entry.meta";
  ASSERT_TRUE(WriteFileAtomic(path, "v1\n"));
  ASSERT_TRUE(WriteFileAtomic(path, "v2\n"));
  std::string out;
  ASSERT_TRUE(ReadFileBytes(path, &out));
  EXPECT_EQ(out, "v2\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // A directory in the way: the rename fails, the temp file is removed and
  // the directory keeps its contents.
  const std::string blocked = dir + "/blocked";
  std::filesystem::create_directories(blocked);
  ASSERT_TRUE(WriteFile(blocked + "/inside", "keep"));
  EXPECT_FALSE(WriteFileAtomic(blocked, "payload"));
  EXPECT_FALSE(std::filesystem::exists(blocked + ".tmp"));
  EXPECT_TRUE(std::filesystem::is_directory(blocked));
  ASSERT_TRUE(ReadFileBytes(blocked + "/inside", &out));
  EXPECT_EQ(out, "keep");
  std::filesystem::remove_all(dir);
}

TEST(FileTest, WriteAtReadAtRoundTripFixedSlots) {
  const std::string dir = FreshDir("rose_file_slots");
  const std::string path = dir + "/ring.spill";
  File file = File::Open(path, O_RDWR | O_CREAT | O_TRUNC);
  ASSERT_TRUE(file.valid());
  // Slots written out of order, one overwritten, as a ring does.
  ASSERT_TRUE(file.WriteAt(8, "slot-one", 8));
  ASSERT_TRUE(file.WriteAt(0, "slot-zer", 8));
  ASSERT_TRUE(file.WriteAt(16, "slot-two", 8));
  ASSERT_TRUE(file.WriteAt(0, "slot-0v2", 8));
  char slot[8];
  ASSERT_TRUE(file.ReadAt(0, slot, sizeof(slot)));
  EXPECT_EQ(std::string(slot, sizeof(slot)), "slot-0v2");
  ASSERT_TRUE(file.ReadAt(16, slot, sizeof(slot)));
  EXPECT_EQ(std::string(slot, sizeof(slot)), "slot-two");
  EXPECT_FALSE(file.ReadAt(20, slot, sizeof(slot)));  // Runs past the end.
  EXPECT_TRUE(file.Sync());
  ASSERT_TRUE(file.Truncate(8));
  EXPECT_FALSE(file.ReadAt(8, slot, sizeof(slot)));
  EXPECT_TRUE(file.Close());
  EXPECT_FALSE(file.valid());
  EXPECT_FALSE(file.WriteAt(0, "x", 1));
  std::string out;
  ASSERT_TRUE(ReadFileBytes(path, &out));
  EXPECT_EQ(out, "slot-0v2");
  std::filesystem::remove_all(dir);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; i++) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; i++) {
    if (a.Next() == b.Next()) {
      equal++;
    }
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; i++) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 10000; i++) {
    const int64_t value = rng.NextInRange(-3, 3);
    EXPECT_GE(value, -3);
    EXPECT_LE(value, 3);
    seen.insert(value);
  }
  EXPECT_EQ(seen.size(), 7u);  // All 7 values hit.
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; i++) {
    const double value = rng.NextDouble();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(RngTest, NextBoolRoughlyMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 100000; i++) {
    if (rng.NextBool(0.3)) {
      hits++;
    }
  }
  EXPECT_NEAR(static_cast<double>(hits) / 100000.0, 0.3, 0.02);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(5);
  Rng child = parent.Fork();
  EXPECT_NE(parent.Next(), child.Next());
}

TEST(ZipfianTest, SkewsTowardLowItems) {
  Rng rng(3);
  ZipfianGenerator zipf(100, 0.99);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; i++) {
    const uint64_t item = zipf.Next(rng);
    ASSERT_LT(item, 100u);
    counts[item]++;
  }
  // Item 0 should be much more popular than item 50.
  EXPECT_GT(counts[0], counts[50] * 5);
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  const auto parts = Split("a||b|", '|');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitSingleToken) {
  const auto parts = Split("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(StringsTest, JoinRoundTrip) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, ","), "x,y,z");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringsTest, StrFormatBasics) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%05d", 7), "00007");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringsTest, PrefixSuffixContains) {
  EXPECT_TRUE(StartsWith("sock:10.0.0.1", "sock:"));
  EXPECT_FALSE(StartsWith("so", "sock:"));
  EXPECT_TRUE(EndsWith("raft.log", ".log"));
  EXPECT_FALSE(EndsWith("g", ".log"));
  EXPECT_TRUE(Contains("abcdef", "cde"));
  EXPECT_FALSE(Contains("abcdef", "xyz"));
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  abc \n"), "abc");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
  EXPECT_EQ(StripWhitespace("x"), "x");
}

TEST(StringsTest, ParseUint64) {
  uint64_t value = 0;
  EXPECT_TRUE(ParseUint64("12345", &value));
  EXPECT_EQ(value, 12345u);
  EXPECT_FALSE(ParseUint64("", &value));
  EXPECT_FALSE(ParseUint64("12a", &value));
  EXPECT_FALSE(ParseUint64("-3", &value));
  EXPECT_TRUE(ParseUint64("18446744073709551615", &value));
  EXPECT_EQ(value, UINT64_MAX);
  // 2^64 + 3 used to wrap around to 3.
  EXPECT_FALSE(ParseUint64("18446744073709551619", &value));
  EXPECT_FALSE(ParseUint64("99999999999999999999999", &value));
}

TEST(StringsTest, ParseInt64) {
  int64_t value = 0;
  EXPECT_TRUE(ParseInt64("-42", &value));
  EXPECT_EQ(value, -42);
  EXPECT_TRUE(ParseInt64("+7", &value));
  EXPECT_EQ(value, 7);
  EXPECT_FALSE(ParseInt64("--1", &value));
  EXPECT_FALSE(ParseInt64("4.2", &value));
  EXPECT_TRUE(ParseInt64("9223372036854775807", &value));
  EXPECT_EQ(value, INT64_MAX);
  EXPECT_TRUE(ParseInt64("-9223372036854775808", &value));
  EXPECT_EQ(value, INT64_MIN);
  EXPECT_FALSE(ParseInt64("9223372036854775808", &value));
  EXPECT_FALSE(ParseInt64("-9223372036854775809", &value));
}

// Property sweep: split/join round-trips for seeds' worth of random strings.
class SplitJoinProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SplitJoinProperty, RoundTrips) {
  Rng rng(GetParam());
  std::vector<std::string> parts;
  const int n = static_cast<int>(rng.NextBelow(8)) + 1;
  for (int i = 0; i < n; i++) {
    std::string part;
    const int len = static_cast<int>(rng.NextBelow(6));
    for (int j = 0; j < len; j++) {
      part += static_cast<char>('a' + rng.NextBelow(26));
    }
    parts.push_back(part);
  }
  const std::string joined = Join(parts, "|");
  EXPECT_EQ(Split(joined, '|'), parts);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplitJoinProperty, ::testing::Range<uint64_t>(0, 25));

}  // namespace
}  // namespace rose
