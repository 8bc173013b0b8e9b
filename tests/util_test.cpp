// Unit tests for src/util: rng, strings, table, cli, errors/retry, fsio
// fault injection, subprocess/frame plumbing, and the budget/deadline
// stride behaviour.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "util/byte_channel.hpp"
#include "util/chaos_proxy.hpp"
#include "util/cli.hpp"
#include "util/deadline.hpp"
#include "util/errors.hpp"
#include "util/fsio.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"
#include "util/strings.hpp"
#include "util/subprocess.hpp"
#include "util/table.hpp"

namespace motsim {
namespace {

// ---------------------------------------------------------------- Rng ----

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i) differing += a.next_u64() != b.next_u64();
  EXPECT_GT(differing, 12);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextInInclusiveRange) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const std::int64_t v = rng.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
  // Degenerate single-value range.
  EXPECT_EQ(rng.next_in(9, 9), 9);
}

TEST(Rng, NextBoolProbabilityEdges) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(Rng, NextBoolRoughlyFair) {
  Rng rng(13);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.next_bool();
  EXPECT_GT(heads, 4700);
  EXPECT_LT(heads, 5300);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.shuffle(v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(Rng, ShuffleHandlesSmallContainers) {
  Rng rng(29);
  std::vector<int> empty;
  rng.shuffle(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one = {42};
  rng.shuffle(one);
  EXPECT_EQ(one, std::vector<int>{42});
}

TEST(Rng, PickReturnsElementFromContainer) {
  Rng rng(31);
  std::vector<int> v = {10, 20, 30};
  for (int i = 0; i < 50; ++i) {
    const int x = rng.pick(v);
    EXPECT_TRUE(x == 10 || x == 20 || x == 30);
  }
}

// ------------------------------------------------------------ strings ----

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\t a b \n"), "a b");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitSingleField) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, SplitWsDropsEmptyFields) {
  const auto parts = split_ws("  a \t b\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, IEquals) {
  EXPECT_TRUE(iequals("NAND", "nand"));
  EXPECT_TRUE(iequals("", ""));
  EXPECT_FALSE(iequals("NAND", "NOR"));
  EXPECT_FALSE(iequals("AB", "ABC"));
}

TEST(Strings, ToUpper) { EXPECT_EQ(to_upper("DfF7x"), "DFF7X"); }

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-", "--"));
}

TEST(Strings, ParseU64) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_u64("0", v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_u64("18446744073709551615", v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_FALSE(parse_u64("18446744073709551616", v));  // overflow
  EXPECT_FALSE(parse_u64("", v));
  EXPECT_FALSE(parse_u64("12a", v));
  EXPECT_FALSE(parse_u64("-1", v));
}

TEST(Strings, StrFormat) {
  EXPECT_EQ(str_format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(str_format("%.2f", 1.5), "1.50");
  EXPECT_EQ(str_format("empty"), "empty");
}

// -------------------------------------------------------------- Table ----

TEST(Table, RendersHeaderRuleAndAlignment) {
  Table t({"name", "count"});
  t.new_row().add("alpha").add(7);
  t.new_row().add("b").add(12345);
  const std::string out = t.render();
  EXPECT_NE(out.find("| name  |"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("12345"), std::string::npos);
  // Numeric cells right-align: " 7" not "7 " within its column.
  EXPECT_NE(out.find("|     7 |"), std::string::npos);
}

TEST(Table, DoubleFormatting) {
  Table t({"v"});
  t.new_row().add(3.14159, 3);
  EXPECT_NE(t.render().find("3.142"), std::string::npos);
}

TEST(Table, RowAccessors) {
  Table t({"a", "b"});
  t.new_row().add("x").add(1);
  ASSERT_EQ(t.row_count(), 1u);
  EXPECT_EQ(t.row(0)[0], "x");
}

// ------------------------------------------------------------ CliArgs ----

TEST(Cli, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog", "pos1", "--name", "value", "--flag",
                        "--k=v", "pos2"};
  CliArgs args(7, argv);
  EXPECT_TRUE(args.ok());
  EXPECT_EQ(args.get("name", ""), "value");
  EXPECT_EQ(args.get("k", ""), "v");
  EXPECT_TRUE(args.get_bool("flag"));
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "pos1");
  EXPECT_EQ(args.positional()[1], "pos2");
}

TEST(Cli, Defaults) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  EXPECT_EQ(args.get("missing", "def"), "def");
  EXPECT_EQ(args.get_int("missing", 42), 42);
  EXPECT_FALSE(args.get_bool("missing"));
  EXPECT_TRUE(args.get_bool("missing", true));
}

TEST(Cli, GetInt) {
  const char* argv[] = {"prog", "--n", "128", "--neg", "-5"};
  CliArgs args(5, argv);
  EXPECT_EQ(args.get_int("n", 0), 128);
  // "-5" is treated as a value (not a flag) because it lacks "--".
  EXPECT_EQ(args.get_int("neg", 0), -5);
}

TEST(CliArgs, CountAcceptsNonNegativeDecimalsUpToMax) {
  const char* argv[] = {"prog", "--n", "128", "--zero", "0", "--cap", "1024"};
  const CliArgs args(7, argv);
  EXPECT_EQ(args.get_count("n", 7), 128u);
  EXPECT_EQ(args.get_count("zero", 7), 0u);
  EXPECT_EQ(args.get_count("cap", 7, 1024), 1024u);
  EXPECT_EQ(args.get_count("missing", 7), 7u);
  EXPECT_TRUE(args.ok()) << args.error();
}

// A signed, unparsed or out-of-range count must never become a silent 0, a
// prefix, or SIZE_MAX: each is an error naming the flag, and the getter
// falls back to the default.
TEST(CliArgs, MalformedCountIsAnErrorNamingTheFlag) {
  const char* bad[] = {"abc", "-1", "4x", "", "+4", " 4", "1e3",
                       "18446744073709551616", "1025"};
  for (const char* value : bad) {
    const std::string arg = std::string("--threads=") + value;
    const char* argv[] = {"prog", arg.c_str()};
    const CliArgs args(2, argv);
    EXPECT_TRUE(args.ok());
    EXPECT_EQ(args.get_count("threads", 3, 1024), 3u) << value;
    EXPECT_FALSE(args.ok()) << value;
    EXPECT_NE(args.error().find("--threads"), std::string::npos)
        << args.error();
  }
}

TEST(CliArgs, FirstMalformedFlagIsTheOneReported) {
  const char* argv[] = {"prog", "--workers", "4x", "--threads", "abc"};
  const CliArgs args(5, argv);
  args.get_count("workers", 0);
  args.get_count("threads", 0);
  EXPECT_EQ(args.error().rfind("--workers", 0), 0u) << args.error();
}

TEST(CliArgs, SignedIntKeepsItsSignButRejectsGarbage) {
  const char* argv[] = {"prog", "--abort", "-1", "--bad", "-x", "--tail",
                        "12ab"};
  const CliArgs args(7, argv);
  EXPECT_EQ(args.get_int("abort", 0), -1);
  EXPECT_TRUE(args.ok());
  EXPECT_EQ(args.get_int("bad", 5), 5);
  EXPECT_FALSE(args.ok());
  EXPECT_NE(args.error().find("--bad"), std::string::npos) << args.error();
  EXPECT_EQ(args.get_int("tail", 6), 6);
}

// `--stats circuit.bench` hands the path to --stats as its value; reading
// it as false would drop both the flag and the file without a word.
TEST(CliArgs, BoolRejectsAValueThatIsNotABoolean) {
  const char* argv[] = {"prog", "--a", "no", "--b=1", "--stats", "c.bench"};
  const CliArgs args(6, argv);
  EXPECT_FALSE(args.get_bool("a", true));
  EXPECT_TRUE(args.get_bool("b"));
  EXPECT_TRUE(args.ok());
  EXPECT_FALSE(args.get_bool("stats"));
  EXPECT_FALSE(args.ok());
  EXPECT_EQ(args.error(), "--stats: expected true or false, got 'c.bench'");
}

TEST(CliArgs, FinishRejectsAnUnqueriedFlagByName) {
  const char* argv[] = {"prog", "--used", "1", "--typo", "2"};
  const CliArgs args(5, argv);
  args.get("used", "");
  EXPECT_TRUE(args.ok());
  EXPECT_FALSE(args.finish());
  EXPECT_FALSE(args.ok());
  EXPECT_EQ(args.error(), "unknown flag --typo");
}

TEST(CliArgs, FinishCountsAFlagReadOnlyThroughHasAsQueried) {
  const char* argv[] = {"prog", "--verbose", "--n", "3"};
  const CliArgs args(4, argv);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get_count("n", 0), 3u);
  EXPECT_TRUE(args.finish()) << args.error();
}

TEST(CliArgs, FinishKeepsAnEarlierMalformedValueAsTheError) {
  const char* argv[] = {"prog", "--threads", "abc", "--typo", "2"};
  const CliArgs args(5, argv);
  EXPECT_EQ(args.get_count("threads", 1), 1u);
  EXPECT_FALSE(args.finish());
  EXPECT_EQ(args.error().rfind("--threads", 0), 0u) << args.error();
}

// ------------------------------------------------------------- Errors ----

TEST(Errors, ClassifyErrnoSplitsTransientFromPermanent) {
  for (int e : {EINTR, EAGAIN, EWOULDBLOCK, EBUSY, ENOBUFS}) {
    EXPECT_EQ(classify_errno(e), ErrorClass::Transient) << e;
  }
  for (int e : {ENOSPC, EIO, EBADF, EROFS, ENOENT, EACCES, 0}) {
    EXPECT_EQ(classify_errno(e), ErrorClass::Permanent) << e;
  }
}

TEST(Errors, RetryScheduleIsDeterministicAndBounded) {
  RetryPolicy policy;
  policy.base_delay_us = 1000;
  policy.max_delay_us = 3000;
  RetrySchedule a(policy);
  RetrySchedule b(policy);
  std::uint64_t expected_base = policy.base_delay_us;
  for (std::size_t retry = 1; retry <= 6; ++retry) {
    const std::uint64_t da = a.delay_us(retry);
    // Same policy, same stream: the schedule is a pure function of the seed.
    EXPECT_EQ(da, b.delay_us(retry)) << retry;
    // Jitter stays within [delay/2, delay] of the un-jittered exponential.
    EXPECT_GE(da, expected_base / 2) << retry;
    EXPECT_LE(da, expected_base) << retry;
    expected_base = std::min(expected_base * 2, policy.max_delay_us);
  }
}

TEST(Errors, RetryTransientRetriesOnlyTransientErrors) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  std::vector<std::uint64_t> sleeps;
  const auto sleeper = [&](std::uint64_t us) { sleeps.push_back(us); };

  int calls = 0;
  EXPECT_EQ(retry_transient(
                policy, [&] { return ++calls < 3 ? EAGAIN : 0; }, sleeper),
            0);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(sleeps.size(), 2u);

  // A permanent error is returned immediately, without sleeping.
  calls = 0;
  sleeps.clear();
  EXPECT_EQ(retry_transient(
                policy, [&] { ++calls; return ENOSPC; }, sleeper),
            ENOSPC);
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(sleeps.empty());

  // Exhausted attempts return the last transient errno.
  calls = 0;
  EXPECT_EQ(retry_transient(policy, [&] { ++calls; return EINTR; }, sleeper),
            EINTR);
  EXPECT_EQ(calls, 4);
}

TEST(Errors, SanitizeTokenProducesJournalSafeTokens) {
  EXPECT_EQ(sanitize_token(""), "-");
  EXPECT_EQ(sanitize_token("clean-token"), "clean-token");
  EXPECT_EQ(sanitize_token("two words; with\tjunk\n"), "two_words__with_junk_");
}

TEST(Errors, SanitizeTokenMarksTruncationAndNeverReturnsEmpty) {
  // Over-length inputs are truncated to max_len with a visible '~' marker —
  // a capped diagnostic must not be mistaken for the whole message.
  EXPECT_EQ(sanitize_token(std::string(200, 'x'), 8), "xxxxxxx~");
  // Exactly max_len is not truncation: no marker.
  EXPECT_EQ(sanitize_token(std::string(8, 'x'), 8), "xxxxxxxx");
  EXPECT_EQ(sanitize_token(std::string(7, 'x'), 8), "xxxxxxx");
  // One past the cap flips the last kept character to the marker.
  EXPECT_EQ(sanitize_token(std::string(9, 'x'), 8), "xxxxxxx~");
  // Degenerate caps still yield a non-empty, journal-safe token.
  EXPECT_EQ(sanitize_token("anything", 0), "-");
  EXPECT_EQ(sanitize_token("ab", 1), "~");
  EXPECT_EQ(sanitize_token("a", 1), "a");
  // The marker itself is a single graphic character: the token still
  // round-trips through a space-separated journal record.
  const std::string t = sanitize_token(std::string(500, ' '), 16);
  EXPECT_EQ(t.size(), 16u);
  EXPECT_EQ(t.find(' '), std::string::npos);
  EXPECT_EQ(t.back(), '~');
}

// --------------------------------------------------------------- Fsio ----

TEST(Fsio, WriteAllRestartsEintrAndBoundsZeroWrites) {
  const std::string path = testing::TempDir() + "/fsio_writeall_test";
  const std::string data = "hello fault injection world";

  // EINTR in the middle of the stream is restarted, not surfaced.
  {
    fsio::FaultPlan plan;
    plan.fail_at_op = 2;
    plan.kind = fsio::FaultKind::Errno;
    plan.err = EINTR;
    plan.fail_count = 3;
    fsio::FaultInjectingFsIo io(plan);
    const int fd = io.open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);
    EXPECT_EQ(fsio::write_all(io, fd, data.data(), data.size()), 0);
    io.close(fd);
    std::string back;
    EXPECT_EQ(fsio::read_file(fsio::FsIo::real(), path, back), 0);
    EXPECT_EQ(back, data);
  }

  // A bounded burst of zero-byte writes makes progress eventually...
  {
    fsio::FaultPlan plan;
    plan.fail_at_op = 2;
    plan.kind = fsio::FaultKind::ZeroWrite;
    plan.fail_count = 3;
    fsio::FaultInjectingFsIo io(plan);
    const int fd = io.open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);
    EXPECT_EQ(fsio::write_all(io, fd, data.data(), data.size()), 0);
    io.close(fd);
  }

  // ...but a persistent zero-byte writer is reported as EIO instead of
  // spinning forever — the classic `len -= 0` infinite loop.
  {
    fsio::FaultPlan plan;
    plan.fail_at_op = 2;
    plan.kind = fsio::FaultKind::ZeroWrite;
    plan.fail_count = UINT64_MAX;
    fsio::FaultInjectingFsIo io(plan);
    const int fd = io.open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);
    EXPECT_EQ(fsio::write_all(io, fd, data.data(), data.size()), EIO);
    io.close(fd);
  }
  std::remove(path.c_str());
}

TEST(Fsio, ShortWritesCompleteAndCrashIsPermanent) {
  const std::string path = testing::TempDir() + "/fsio_short_test";
  const std::string data(1000, 'a');
  {
    fsio::FaultPlan plan;
    plan.fail_at_op = 2;
    plan.kind = fsio::FaultKind::ShortWrite;
    plan.fail_count = 4;
    fsio::FaultInjectingFsIo io(plan);
    const int fd = io.open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);
    EXPECT_EQ(fsio::write_all(io, fd, data.data(), data.size()), 0);
    io.close(fd);
    std::string back;
    EXPECT_EQ(fsio::read_file(fsio::FsIo::real(), path, back), 0);
    EXPECT_EQ(back, data);
  }
  {
    fsio::FaultPlan plan;
    plan.fail_at_op = 2;
    plan.kind = fsio::FaultKind::Crash;
    fsio::FaultInjectingFsIo io(plan);
    const int fd = io.open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);
    EXPECT_NE(fsio::write_all(io, fd, data.data(), data.size()), 0);
    EXPECT_TRUE(io.crashed());
    // The "filesystem" never comes back.
    EXPECT_EQ(io.fsync(fd), -1);
    io.close(fd);
  }
  std::remove(path.c_str());
}

// ------------------------------------------------------------- Budget ----

// Pin the work-limit boundary exactly: a limit of N polls exhausts on poll
// number N (used_ reaches the limit), one unit earlier than N+1 and one
// later than N-1 — and the stride plays no role in the work cap, which is
// checked on every poll.
TEST(Budget, WorkLimitExhaustsExactlyAtTheLimit) {
  using WB = WorkBudget;
  for (const std::uint64_t limit :
       {WB::kClockStride - 1, WB::kClockStride, WB::kClockStride + 1,
        2 * WB::kClockStride - 1, 2 * WB::kClockStride,
        2 * WB::kClockStride + 1}) {
    WorkBudget budget(Deadline{}, limit);
    for (std::uint64_t poll = 1; poll < limit; ++poll) {
      EXPECT_FALSE(budget.poll()) << "limit " << limit << " poll " << poll;
    }
    EXPECT_TRUE(budget.poll()) << "limit " << limit;
    EXPECT_EQ(budget.stop(), BudgetStop::WorkLimit) << "limit " << limit;
    EXPECT_EQ(budget.work_used(), limit);
  }
}

// The cancel token is consulted on the first poll and then once per stride:
// a token tripped after poll 1 is seen exactly at poll kClockStride + 1.
TEST(Budget, CancelTokenIsSeenAtStrideBoundaries) {
  CancelToken cancel;
  WorkBudget budget(Deadline{}, /*work_limit=*/0, nullptr, &cancel);

  // Poll 1 checks the token (next_check_ starts at 0) — not yet cancelled.
  EXPECT_FALSE(budget.poll());
  cancel.cancel();
  // Polls 2..kClockStride fall inside the stride window: not seen yet.
  for (std::uint64_t poll = 2; poll <= WorkBudget::kClockStride; ++poll) {
    EXPECT_FALSE(budget.poll()) << "poll " << poll;
  }
  // Poll kClockStride + 1 crosses the boundary and latches the stop.
  EXPECT_TRUE(budget.poll());
  EXPECT_EQ(budget.stop(), BudgetStop::Cancelled);

  // A token tripped before the very first poll is seen immediately.
  CancelToken early;
  early.cancel();
  WorkBudget prompt(Deadline{}, 0, nullptr, &early);
  EXPECT_TRUE(prompt.poll());
  EXPECT_EQ(prompt.stop(), BudgetStop::Cancelled);
}

// --------------------------------------------------------- Subprocess ----

namespace sp = subprocess;

// Drains one complete frame from a reader backed by a readable fd.
bool read_one_frame(sp::FrameReader& reader, std::uint8_t& type,
                    std::string& payload) {
  for (int spins = 0; spins < 10000; ++spins) {
    if (reader.next(type, payload)) return true;
    if (reader.corrupt()) return false;
    int err = 0;
    const auto fs = reader.feed(err);
    if (fs == sp::FrameReader::FeedStatus::Eof ||
        fs == sp::FrameReader::FeedStatus::Error) {
      return false;
    }
  }
  return false;
}

TEST(Subprocess, FrameRoundTripsOverARealPipe) {
  sp::Pipe p;
  ASSERT_EQ(sp::make_pipe(p), 0);
  const std::string payloads[] = {"", "x", std::string("with\0nul", 8),
                                  std::string(5000, 'q')};
  for (std::uint8_t type = 1; type <= 4; ++type) {
    ASSERT_EQ(sp::write_frame(p.write_fd, type, payloads[type - 1]), 0);
  }
  sp::FrameReader reader(p.read_fd);
  for (std::uint8_t want = 1; want <= 4; ++want) {
    std::uint8_t type = 0;
    std::string payload;
    ASSERT_TRUE(read_one_frame(reader, type, payload));
    EXPECT_EQ(type, want);
    EXPECT_EQ(payload, payloads[want - 1]);
  }
  ::close(p.write_fd);
  ::close(p.read_fd);
}

TEST(Subprocess, FrameReaderReassemblesByteDribbles) {
  // The coordinator's non-blocking reads can deliver a frame one byte at a
  // time; the reader must hold partial frames until they complete.
  sp::Pipe p;
  ASSERT_EQ(sp::make_pipe(p), 0);
  const std::string payload = "partial frame payload";
  std::string wire;
  wire.push_back(static_cast<char>(7));
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) wire.push_back(static_cast<char>(len >> (8 * i)));
  wire += payload;

  sp::FrameReader reader(p.read_fd);
  std::uint8_t type = 0;
  std::string got;
  for (const char ch : wire) {
    EXPECT_FALSE(reader.next(type, got));
    ASSERT_EQ(::write(p.write_fd, &ch, 1), 1);
    int err = 0;
    ASSERT_EQ(reader.feed(err), sp::FrameReader::FeedStatus::Data);
  }
  ASSERT_TRUE(reader.next(type, got));
  EXPECT_EQ(type, 7);
  EXPECT_EQ(got, payload);
  EXPECT_FALSE(reader.corrupt());
  ::close(p.write_fd);
  ::close(p.read_fd);
}

TEST(Subprocess, FrameReaderFlagsImpossibleLengthAsCorrupt) {
  sp::Pipe p;
  ASSERT_EQ(sp::make_pipe(p), 0);
  // Type byte + a length far beyond kMaxFramePayload.
  const unsigned char wire[5] = {1, 0xff, 0xff, 0xff, 0x7f};
  ASSERT_EQ(::write(p.write_fd, wire, sizeof wire), 5);
  sp::FrameReader reader(p.read_fd);
  int err = 0;
  ASSERT_EQ(reader.feed(err), sp::FrameReader::FeedStatus::Data);
  std::uint8_t type = 0;
  std::string payload;
  EXPECT_FALSE(reader.next(type, payload));
  EXPECT_TRUE(reader.corrupt());
  ::close(p.write_fd);
  ::close(p.read_fd);
}

TEST(Subprocess, WriteFrameReportsDeadReader) {
  ::signal(SIGPIPE, SIG_IGN);
  sp::Pipe p;
  ASSERT_EQ(sp::make_pipe(p), 0);
  ::close(p.read_fd);
  EXPECT_EQ(sp::write_frame(p.write_fd, 1, "payload"), EPIPE);
  ::close(p.write_fd);
}

TEST(Subprocess, SpawnEchoChildAndCleanExit) {
  sp::ChildHandles child;
  ASSERT_EQ(sp::spawn(
                [](int cmd_fd, int res_fd) {
                  sp::FrameReader reader(cmd_fd);
                  std::uint8_t type = 0;
                  std::string payload;
                  if (!read_one_frame(reader, type, payload)) return 3;
                  if (sp::write_frame(res_fd, type, payload) != 0) return 4;
                  return 0;
                },
                child),
            0);
  ASSERT_EQ(sp::write_frame(child.command_fd, 9, "ping"), 0);
  sp::FrameReader reader(child.result_fd);
  std::uint8_t type = 0;
  std::string payload;
  ASSERT_TRUE(read_one_frame(reader, type, payload));
  EXPECT_EQ(type, 9);
  EXPECT_EQ(payload, "ping");
  int status = 0;
  EXPECT_EQ(sp::wait_blocking(child.pid, status), 0);
  EXPECT_TRUE(sp::exited_cleanly(status));
  EXPECT_EQ(sp::describe_wait_status(status), "exit_0");
  ::close(child.command_fd);
  ::close(child.result_fd);
}

TEST(Subprocess, DescribeWaitStatusNamesSignals) {
  // A SIGKILLed child produces the one-token diagnostic the supervisor
  // records against poisoned faults.
  sp::ChildHandles child;
  ASSERT_EQ(sp::spawn(
                [](int cmd_fd, int) {
                  // Block until the parent kills us.
                  char ch = 0;
                  while (::read(cmd_fd, &ch, 1) == 0) {
                  }
                  return 0;
                },
                child),
            0);
  ASSERT_EQ(::kill(child.pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(sp::wait_blocking(child.pid, status), 0);
  EXPECT_FALSE(sp::exited_cleanly(status));
  const std::string token = sp::describe_wait_status(status);
  EXPECT_EQ(token.rfind("signal_9", 0), 0u) << token;
  // Journal-token-safe by construction: single token, no spaces.
  EXPECT_EQ(token.find(' '), std::string::npos);
  EXPECT_EQ(sanitize_token(token), token);
  ::close(child.command_fd);
  ::close(child.result_fd);
}

TEST(Subprocess, TryWaitSeesRunningThenReaped) {
  sp::ChildHandles child;
  ASSERT_EQ(sp::spawn(
                [](int cmd_fd, int) {
                  sp::FrameReader reader(cmd_fd);
                  std::uint8_t type = 0;
                  std::string payload;
                  read_one_frame(reader, type, payload);
                  return 0;
                },
                child),
            0);
  int status = 0;
  EXPECT_EQ(sp::try_wait(child.pid, status), 0);  // still blocked on a frame
  ASSERT_EQ(sp::write_frame(child.command_fd, 1, ""), 0);
  ASSERT_EQ(sp::wait_blocking(child.pid, status), 0);
  EXPECT_TRUE(sp::exited_cleanly(status));
  ::close(child.command_fd);
  ::close(child.result_fd);
}

// ------------------------------------------------------------- netio -----

// A connected AF_UNIX channel pair, or the test fails.
void make_channel_pair(std::unique_ptr<netio::SocketChannel>& a,
                       std::unique_ptr<netio::SocketChannel>& b) {
  ASSERT_EQ(netio::tcp_socketpair(a, b), 0);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
}

TEST(ByteChannel, FdChannelRoundTripsOverAPipePair) {
  sp::Pipe p;
  ASSERT_EQ(sp::make_pipe(p), 0);
  netio::FdChannel chan(p.read_fd, p.write_fd);  // owns both ends
  int err = 0;
  ASSERT_EQ(chan.write("hello", 5, err), 5);
  char buf[16] = {};
  ASSERT_EQ(chan.read(buf, sizeof buf, err), 5);
  EXPECT_EQ(std::string(buf, 5), "hello");
  chan.close();
  EXPECT_EQ(chan.poll_fd(), -1);
  EXPECT_EQ(chan.read(buf, sizeof buf, err), 0);   // closed reads are EOF
  EXPECT_EQ(chan.write("x", 1, err), -1);          // closed writes fail
  EXPECT_EQ(err, EBADF);
}

TEST(ByteChannel, BorrowedFdChannelLeavesTheFdAlive) {
  sp::Pipe p;
  ASSERT_EQ(sp::make_pipe(p), 0);
  {
    netio::FdChannel borrowed(p.read_fd, p.write_fd, /*own=*/false);
    int err = 0;
    ASSERT_EQ(borrowed.write("q", 1, err), 1);
  }  // destructor must only forget the fds, not ::close them
  char ch = 0;
  EXPECT_EQ(::read(p.read_fd, &ch, 1), 1);
  EXPECT_EQ(ch, 'q');
  ::close(p.read_fd);
  ::close(p.write_fd);
}

TEST(ByteChannel, InjectedErrnoFiresOnTheScriptedOpThenClears) {
  std::unique_ptr<netio::SocketChannel> a, b;
  make_channel_pair(a, b);
  int err = 0;
  ASSERT_EQ(b->write("abcd", 4, err), 4);

  netio::ChannelFaultPlan plan;
  plan.fail_at_op = 1;
  plan.kind = netio::ChannelFaultKind::Errno;
  plan.err = ECONNRESET;
  netio::FaultInjectingChannel chan(plan, *a);
  char buf[8] = {};
  EXPECT_EQ(chan.read(buf, sizeof buf, err), -1);  // op 1: injected
  EXPECT_EQ(err, ECONNRESET);
  ASSERT_EQ(chan.read(buf, sizeof buf, err), 4);   // op 2: plan spent
  EXPECT_EQ(std::string(buf, 4), "abcd");
  EXPECT_EQ(chan.ops(), 2u);
}

TEST(ByteChannel, InjectedShortReadAndShortWriteHalveTheTransfer) {
  std::unique_ptr<netio::SocketChannel> a, b;
  make_channel_pair(a, b);
  int err = 0;
  ASSERT_EQ(b->write("12345678", 8, err), 8);

  netio::ChannelFaultPlan plan;
  plan.fail_at_op = 1;
  plan.kind = netio::ChannelFaultKind::ShortRead;
  plan.fail_count = UINT64_MAX;
  netio::FaultInjectingChannel reader(plan, *a);
  char buf[8] = {};
  const ssize_t n = reader.read(buf, sizeof buf, err);
  ASSERT_GT(n, 0);
  EXPECT_LE(n, 4);  // at most half of the requested bytes

  plan.kind = netio::ChannelFaultKind::ShortWrite;
  netio::FaultInjectingChannel writer(plan, *b);
  const ssize_t w = writer.write("abcdefgh", 8, err);
  ASSERT_GT(w, 0);
  EXPECT_LE(w, 4);  // partial writes are normal; callers must loop
}

TEST(ByteChannel, InjectedStallReportsEagainThenRecovers) {
  std::unique_ptr<netio::SocketChannel> a, b;
  make_channel_pair(a, b);
  int err = 0;
  ASSERT_EQ(b->write("z", 1, err), 1);

  netio::ChannelFaultPlan plan;
  plan.fail_at_op = 1;
  plan.kind = netio::ChannelFaultKind::Stall;
  plan.fail_count = 2;
  netio::FaultInjectingChannel chan(plan, *a);
  char buf[4] = {};
  EXPECT_EQ(chan.read(buf, sizeof buf, err), -1);
  EXPECT_EQ(err, EAGAIN);
  EXPECT_EQ(chan.read(buf, sizeof buf, err), -1);
  EXPECT_EQ(err, EAGAIN);
  ASSERT_EQ(chan.read(buf, sizeof buf, err), 1);  // link unstuck
  EXPECT_EQ(buf[0], 'z');
}

TEST(ByteChannel, InjectedDropLatchesForever) {
  std::unique_ptr<netio::SocketChannel> a, b;
  make_channel_pair(a, b);
  int err = 0;
  ASSERT_EQ(b->write("pending", 7, err), 7);

  netio::ChannelFaultPlan plan;
  plan.fail_at_op = 1;
  plan.kind = netio::ChannelFaultKind::Drop;
  plan.fail_count = 1;  // ignored: a dropped link stays dropped
  netio::FaultInjectingChannel chan(plan, *a);
  char buf[8] = {};
  EXPECT_EQ(chan.read(buf, sizeof buf, err), 0);  // EOF despite queued bytes
  EXPECT_TRUE(chan.dropped());
  EXPECT_EQ(chan.write("x", 1, err), -1);
  EXPECT_EQ(err, EPIPE);
  EXPECT_EQ(chan.read(buf, sizeof buf, err), 0);  // still dropped
}

TEST(ByteChannel, EintrIsRetriedByTheFramePlumbing) {
  // Regression for the supervisor's signal handling: the CLI installs
  // handlers without SA_RESTART, so EINTR can surface from any socket op.
  // Both write_frame and FrameReader::feed must retry it — an interrupted
  // call is never a dead peer.
  std::unique_ptr<netio::SocketChannel> a, b;
  make_channel_pair(a, b);

  netio::ChannelFaultPlan plan;
  plan.fail_at_op = 1;
  plan.kind = netio::ChannelFaultKind::Errno;
  plan.err = EINTR;
  plan.fail_count = 3;
  netio::FaultInjectingChannel wchan(plan, *b);
  ASSERT_EQ(sp::write_frame(wchan, 6, "heartbeat"), 0);
  EXPECT_GE(wchan.ops(), 4u);  // three interrupted attempts plus the real one

  netio::FaultInjectingChannel rchan(plan, *a);
  sp::FrameReader reader(rchan);
  std::uint8_t type = 0;
  std::string payload;
  ASSERT_TRUE(read_one_frame(reader, type, payload));
  EXPECT_EQ(type, 6);
  EXPECT_EQ(payload, "heartbeat");
  EXPECT_FALSE(reader.corrupt());
}

TEST(ByteChannel, MaximumSizeFrameRoundTripsUnderBackpressure) {
  // A frame of exactly kMaxFramePayload is legal; one byte more is hostile.
  // The writer runs on its own thread because the whole frame is far larger
  // than any socket buffer — this also exercises write_frame's partial-write
  // loop over a real kernel stream.
  std::unique_ptr<netio::SocketChannel> a, b;
  make_channel_pair(a, b);
  const std::string big(sp::kMaxFramePayload, 'M');
  std::thread writer(
      [&] { EXPECT_EQ(sp::write_frame(*b, 11, big), 0); });
  sp::FrameReader reader(*a);
  std::uint8_t type = 0;
  std::string payload;
  ASSERT_TRUE(read_one_frame(reader, type, payload));
  writer.join();
  EXPECT_EQ(type, 11);
  EXPECT_EQ(payload.size(), big.size());
  EXPECT_EQ(payload, big);
  EXPECT_FALSE(reader.corrupt());
}

TEST(ByteChannel, HostileLengthFuzzNeverAllocatesOrParses) {
  // Fuzz the reader with corrupt headers: any declared length above
  // kMaxFramePayload must flag corruption from the header alone — before
  // allocating payload space — no matter how the bytes dribble in.
  Rng rng(20260809);
  for (int round = 0; round < 32; ++round) {
    sp::Pipe p;
    ASSERT_EQ(sp::make_pipe(p), 0);
    const std::uint32_t len =
        static_cast<std::uint32_t>(sp::kMaxFramePayload) + 1 +
        static_cast<std::uint32_t>(rng.next_below(0x7000'0000));
    unsigned char wire[5];
    wire[0] = static_cast<unsigned char>(rng.next_below(256));
    for (int i = 0; i < 4; ++i) {
      wire[1 + i] = static_cast<unsigned char>(len >> (8 * i));
    }
    sp::FrameReader reader(p.read_fd);
    std::uint8_t type = 0;
    std::string payload;
    // Deliver the header in 1..5-byte slices (seeded), feeding after each.
    std::size_t sent = 0;
    while (sent < sizeof wire) {
      const std::size_t slice =
          std::min(sizeof wire - sent, 1 + rng.next_below(5));
      ASSERT_EQ(::write(p.write_fd, wire + sent, slice),
                static_cast<ssize_t>(slice));
      sent += slice;
      int err = 0;
      ASSERT_EQ(reader.feed(err), sp::FrameReader::FeedStatus::Data);
      EXPECT_FALSE(reader.next(type, payload));
    }
    EXPECT_TRUE(reader.corrupt()) << "round " << round << " len " << len;
    // A corrupt reader stays corrupt: feeding more bytes cannot revive it.
    ASSERT_EQ(::write(p.write_fd, "junk", 4), 4);
    int err = 0;
    reader.feed(err);
    EXPECT_FALSE(reader.next(type, payload));
    EXPECT_TRUE(reader.corrupt());
    ::close(p.write_fd);
    ::close(p.read_fd);
  }
}

TEST(Netio, ParseHostportAcceptsAndRejects) {
  std::string host, error;
  std::uint16_t port = 0;
  EXPECT_TRUE(netio::parse_hostport("127.0.0.1:9000", host, port, error));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 9000);
  EXPECT_TRUE(netio::parse_hostport("0.0.0.0:0", host, port, error));
  EXPECT_EQ(port, 0);
  for (const char* bad : {"nocolon", ":9000", "host:", "host:65536",
                          "host:-1", "host:12x", ""}) {
    error.clear();
    EXPECT_FALSE(netio::parse_hostport(bad, host, port, error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(Netio, FramesRoundTripOverLoopbackTcp) {
  std::string error;
  const int listen_fd = netio::tcp_listen("127.0.0.1", 0, error);
  ASSERT_GE(listen_fd, 0) << error;
  const std::uint16_t port = netio::local_port(listen_fd);
  ASSERT_NE(port, 0);

  const int cfd = netio::tcp_connect("127.0.0.1", port, 2000, error);
  ASSERT_GE(cfd, 0) << error;
  int err = 0;
  const int sfd = netio::tcp_accept(listen_fd, err);
  ASSERT_GE(sfd, 0) << err;

  netio::SocketChannel client(cfd), server(sfd);
  ASSERT_EQ(sp::write_frame(client, 3, "to-coordinator"), 0);
  ASSERT_EQ(sp::write_frame(server, 1, "to-worker"), 0);
  sp::FrameReader sr(server), cr(client);
  std::uint8_t type = 0;
  std::string payload;
  ASSERT_TRUE(read_one_frame(sr, type, payload));
  EXPECT_EQ(type, 3);
  EXPECT_EQ(payload, "to-coordinator");
  ASSERT_TRUE(read_one_frame(cr, type, payload));
  EXPECT_EQ(type, 1);
  EXPECT_EQ(payload, "to-worker");
  ::close(listen_fd);
}

TEST(Netio, ConnectToADeadPortFailsWithinTheDeadline) {
  // Bind an ephemeral port, then free it: connecting there must fail fast
  // (refused), not hang the worker's reconnect loop.
  std::string error;
  const int listen_fd = netio::tcp_listen("127.0.0.1", 0, error);
  ASSERT_GE(listen_fd, 0) << error;
  const std::uint16_t port = netio::local_port(listen_fd);
  ASSERT_NE(port, 0);
  ::close(listen_fd);
  const int fd = netio::tcp_connect("127.0.0.1", port, 2000, error);
  EXPECT_LT(fd, 0);
  EXPECT_FALSE(error.empty());
}

TEST(Netio, ChaosCoinIsDeterministic) {
  int severs = 0;
  for (std::uint64_t chunk = 0; chunk < 2000; ++chunk) {
    const bool a = netio::chaos_proxy_should_sever(42, 1, chunk, 100);
    const bool b = netio::chaos_proxy_should_sever(42, 1, chunk, 100);
    EXPECT_EQ(a, b);
    severs += a;
  }
  // ~100/1000 per mille over 2000 draws: the coin is biased as configured.
  EXPECT_GT(severs, 100);
  EXPECT_LT(severs, 350);
  // Different seeds and connections decide independently.
  bool diverged = false;
  for (std::uint64_t chunk = 0; chunk < 256 && !diverged; ++chunk) {
    diverged = netio::chaos_proxy_should_sever(1, 0, chunk, 500) !=
               netio::chaos_proxy_should_sever(2, 0, chunk, 500);
  }
  EXPECT_TRUE(diverged);
}

TEST(Netio, ChaosProxyRelaysCleanlyWithAnEmptyPlan) {
  // Upstream: a one-shot echo server on its own thread.
  std::string error;
  const int listen_fd = netio::tcp_listen("127.0.0.1", 0, error);
  ASSERT_GE(listen_fd, 0) << error;
  const std::uint16_t upstream_port = netio::local_port(listen_fd);
  std::thread echo([listen_fd] {
    int err = 0;
    const int fd = netio::tcp_accept(listen_fd, err);
    if (fd < 0) return;
    netio::SocketChannel chan(fd);
    sp::FrameReader reader(chan);
    std::uint8_t type = 0;
    std::string payload;
    if (read_one_frame(reader, type, payload)) {
      sp::write_frame(chan, type, payload);
    }
  });

  netio::ChaosProxy proxy(upstream_port, netio::ChaosProxyPlan{});
  ASSERT_TRUE(proxy.ok()) << proxy.error();
  const int cfd = netio::tcp_connect("127.0.0.1", proxy.port(), 2000, error);
  ASSERT_GE(cfd, 0) << error;
  netio::SocketChannel client(cfd);
  ASSERT_EQ(sp::write_frame(client, 4, "through the proxy"), 0);
  sp::FrameReader reader(client);
  std::uint8_t type = 0;
  std::string payload;
  ASSERT_TRUE(read_one_frame(reader, type, payload));
  EXPECT_EQ(type, 4);
  EXPECT_EQ(payload, "through the proxy");
  EXPECT_EQ(proxy.severed(), 0u);
  echo.join();
  ::close(listen_fd);
  proxy.shutdown();
}

TEST(Netio, ChaosProxySeversAfterTheConfiguredBytes) {
  // Upstream sink: accepts and drains until EOF.
  std::string error;
  const int listen_fd = netio::tcp_listen("127.0.0.1", 0, error);
  ASSERT_GE(listen_fd, 0) << error;
  const std::uint16_t upstream_port = netio::local_port(listen_fd);
  std::thread sink([listen_fd] {
    int err = 0;
    const int fd = netio::tcp_accept(listen_fd, err);
    if (fd < 0) return;
    netio::SocketChannel chan(fd);
    char buf[4096];
    while (chan.read(buf, sizeof buf, err) > 0) {
    }
  });

  netio::ChaosProxyPlan plan;
  plan.sever_after_bytes = 64;
  netio::ChaosProxy proxy(upstream_port, plan);
  ASSERT_TRUE(proxy.ok()) << proxy.error();
  const int cfd = netio::tcp_connect("127.0.0.1", proxy.port(), 2000, error);
  ASSERT_GE(cfd, 0) << error;
  netio::SocketChannel client(cfd);
  // Keep pushing until the severed link surfaces as EPIPE/ECONNRESET (or a
  // dead write); the proxy guarantees it after ~64 relayed bytes. Yield
  // between writes — on a single core the relay thread otherwise never runs
  // while the kernel send buffer swallows everything.
  const std::string chunk(32, 'c');
  bool dead = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!dead && std::chrono::steady_clock::now() < deadline) {
    int err = 0;
    const ssize_t n = client.write(chunk.data(), chunk.size(), err);
    if (n < 0 && err != EINTR && err != EAGAIN) dead = true;
    if (!dead) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(dead);
  EXPECT_GE(proxy.severed(), 1u);
  sink.join();
  ::close(listen_fd);
  proxy.shutdown();
}

}  // namespace
}  // namespace motsim
