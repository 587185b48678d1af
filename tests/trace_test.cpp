#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <sstream>
#include <string>

#include "trace/gantt.hpp"
#include "trace/swf.hpp"
#include "util/check.hpp"
#include "workload/generator.hpp"

namespace cosched::trace {
namespace {

workload::Job finished_job(JobId id, int nodes, SimTime start,
                           SimDuration runtime,
                           std::vector<NodeId> alloc) {
  workload::Job j;
  j.id = id;
  j.app = 0;
  j.nodes = nodes;
  j.submit_time = 0;
  j.base_runtime = runtime;
  j.walltime_limit = runtime * 2;
  j.state = workload::JobState::kCompleted;
  j.start_time = start;
  j.end_time = start + runtime;
  j.alloc_nodes = std::move(alloc);
  return j;
}

TEST(Swf, WriteReadRoundTrip) {
  std::vector<SwfRecord> records(3);
  for (int i = 0; i < 3; ++i) {
    records[static_cast<std::size_t>(i)].job_number = i + 1;
    records[static_cast<std::size_t>(i)].submit_time = i * 60;
    records[static_cast<std::size_t>(i)].run_time = 600 + i;
    records[static_cast<std::size_t>(i)].procs_requested = 1 << i;
    records[static_cast<std::size_t>(i)].time_requested = 1200;
    records[static_cast<std::size_t>(i)].status = 1;
  }
  std::stringstream stream;
  write_swf(stream, records, "unit test");
  const auto parsed = read_swf(stream);
  ASSERT_EQ(parsed.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    const auto& r = parsed[static_cast<std::size_t>(i)];
    EXPECT_EQ(r.job_number, i + 1);
    EXPECT_EQ(r.submit_time, i * 60);
    EXPECT_EQ(r.run_time, 600 + i);
    EXPECT_EQ(r.procs_requested, 1 << i);
  }
}

TEST(Swf, SkipsCommentsAndBlanks) {
  std::stringstream in(
      "; header comment\n"
      "\n"
      "1 0 -1 100 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1 ; trailing\n"
      ";\n");
  const auto records = read_swf(in);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].job_number, 1);
  EXPECT_EQ(records[0].run_time, 100);
}

TEST(Swf, SkipsTruncatedLinesWithCount) {
  // Archive traces do contain short lines; the reader must keep going and
  // report how many it dropped instead of abandoning the replay.
  std::stringstream in(
      "; header\n"
      "1 0 -1 100 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
      "2 5 -1 100 4\n"  // truncated mid-record
      "3 10 -1 100 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
      "4 15 -1\n"       // truncated mid-record
      "5 20 -1 100 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n");
  std::size_t malformed = 0;
  const auto records = read_swf(in, &malformed);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].job_number, 1);
  EXPECT_EQ(records[1].job_number, 3);
  EXPECT_EQ(records[2].job_number, 5);
  EXPECT_EQ(malformed, 2u);
}

// A NaN or infinite field is no short line: the replay must stop with an
// error naming the job and the field, not skip the job and run on.
void expect_swf_error(const std::function<void()>& read,
                      const std::string& expected) {
  try {
    read();
    ADD_FAILURE() << "no error; expected: " << expected;
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), expected);
  }
}

TEST(Swf, MaterializedReadRejectsNonFiniteFields) {
  expect_swf_error(
      [] {
        std::stringstream in(
            "1 0 -1 100 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
            "2 5 -1 nan 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n");
        read_swf(in);
      },
      "SWF job 2 run time is nan, not a finite number");
  expect_swf_error(
      [] {
        std::stringstream in(
            "3 5 -1 100 4 Infinity -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n");
        read_swf(in);
      },
      "SWF job 3 average CPU time is Infinity, not a finite number");
  expect_swf_error(
      [] {
        std::stringstream in(
            "; header\n"
            "-nan 5 -1 100 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n");
        read_swf(in);
      },
      "SWF line 2 job number is -nan, not a finite number");
}

TEST(Swf, StreamingSourceRejectsNonFiniteFields) {
  std::stringstream in(
      "1 0 -1 100 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
      "2 5 -1 100 4 -1 -1 4 inf -1 1 -1 -1 -1 -1 -1 -1 -1\n"
      "3 10 -1 100 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n");
  SwfJobSource source(in, 0);
  ASSERT_TRUE(source.next().has_value());
  expect_swf_error([&] { source.next(); },
                   "SWF job 2 requested time is inf, not a finite number");
  EXPECT_EQ(source.malformed_lines(), 0u);
}

// A record has exactly 18 fields, each integer field a whole integer: a
// fraction in an integer field (not split into two fields) or a 19th
// field makes a line malformed in either replay mode, while a leading '+'
// and a CRLF ending still read.
TEST(Swf, FractionalAndExtraFieldsAreMalformedInBothModes) {
  const std::string text =
      "1 0 -1 100 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
      "2 10 0 100 5.5 -1 -1 4 200 -1 1 1 1 1 1 1 -1 -1\n"
      "3 10 0 100 4 -1 -1 4 200 -1 1 1 1 1 1 1 -1 -1 7 8\n"
      "4 20 -1 100 +4 2.5 -1 +4 200 -1 1 -1 -1 -1 -1 -1 -1 -1\r\n";
  std::stringstream batch_in(text);
  std::size_t malformed = 0;
  const auto records = read_swf(batch_in, &malformed);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].job_number, 1);
  EXPECT_EQ(records[1].job_number, 4);
  EXPECT_EQ(records[1].procs_requested, 4);
  EXPECT_EQ(records[1].avg_cpu_time, 2.5);
  EXPECT_EQ(records[1].think_time, -1);
  EXPECT_EQ(malformed, 2u);

  std::stringstream stream_in(text);
  SwfJobSource source(stream_in, 0);
  std::vector<JobId> ids;
  while (auto job = source.next()) ids.push_back(job->id);
  EXPECT_EQ(ids, (std::vector<JobId>{1, 4}));
  EXPECT_EQ(source.malformed_lines(), 2u);
}

// A field past the range of a double is rejected like an infinite one,
// also behind a fraction that already made the line malformed.
TEST(Swf, RejectsFieldsPastTheRangeOfADouble) {
  expect_swf_error(
      [] {
        std::stringstream in(
            "5 0.5 -1 1e999 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n");
        read_swf(in);
      },
      "SWF job 5 run time is 1e999, not a finite number");
}

TEST(Swf, StreamingSourceMatchesMaterialized) {
  std::vector<SwfRecord> records(4);
  for (int i = 0; i < 4; ++i) {
    auto& r = records[static_cast<std::size_t>(i)];
    r.job_number = i + 1;
    r.submit_time = i * 30;
    r.run_time = 120 + i;
    r.time_requested = 600;
    r.procs_requested = 1 << i;
    r.user_id = i;
    r.app_number = i;
    r.status = 1;
  }
  std::stringstream buffer;
  write_swf(buffer, records);
  const std::string text = buffer.str();

  std::stringstream batch_in(text);
  const auto batch = jobs_from_swf(read_swf(batch_in), /*app_count=*/3);

  std::stringstream stream_in(text);
  SwfJobSource source(stream_in, /*app_count=*/3);
  workload::JobList streamed;
  while (auto job = source.next()) streamed.push_back(*job);

  ASSERT_EQ(streamed.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(streamed[i].id, batch[i].id);
    EXPECT_EQ(streamed[i].submit_time, batch[i].submit_time);
    EXPECT_EQ(streamed[i].base_runtime, batch[i].base_runtime);
    EXPECT_EQ(streamed[i].walltime_limit, batch[i].walltime_limit);
    EXPECT_EQ(streamed[i].nodes, batch[i].nodes);
    EXPECT_EQ(streamed[i].app, batch[i].app);
    EXPECT_EQ(streamed[i].user, batch[i].user);
  }
  EXPECT_EQ(source.malformed_lines(), 0u);
}

TEST(Swf, StreamingSourceSkipsMalformedLines) {
  std::stringstream in(
      "1 0 -1 100 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
      "2 5 -1 100\n"  // truncated
      "3 10 -1 100 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n");
  SwfJobSource source(in, 0);
  workload::JobList streamed;
  while (auto job = source.next()) streamed.push_back(*job);
  ASSERT_EQ(streamed.size(), 2u);
  EXPECT_EQ(streamed[0].id, 1);
  EXPECT_EQ(streamed[1].id, 3);
  EXPECT_EQ(source.malformed_lines(), 1u);
}

TEST(Swf, StreamingSourceSurfacesSkipsAsRegistryCounter) {
  std::stringstream in(
      "1 0 -1 100 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
      "2 5 -1 100\n"   // truncated
      "garbled text\n"  // not even a job number
      "3 10 -1 100 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n");
  obs::Registry registry;
  SwfJobSource source(in, 0);
  source.bind_registry(&registry);
  workload::JobList streamed;
  while (auto job = source.next()) streamed.push_back(*job);
  ASSERT_EQ(streamed.size(), 2u);
  // The truncated record and the "garbled text" line (no job number) both
  // count as malformed, and the total surfaces as the swf_malformed_lines
  // counter at end of stream.
  EXPECT_EQ(source.malformed_lines(), 2u);
  EXPECT_EQ(registry.counter("swf_malformed_lines").value(), 2u);
  // Draining past the end must not double-count.
  EXPECT_FALSE(source.next().has_value());
  EXPECT_EQ(registry.counter("swf_malformed_lines").value(), 2u);
}

// Every replay streams, so the source itself logs the skip total at drain,
// once, with no registry bound: the count never reaches only a counter.
TEST(Swf, StreamingSourceWarnsSkipTotalAtDrain) {
  std::stringstream in(
      "1 0 -1 100 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
      "2 5 -1 100\n"   // truncated
      "garbled text\n"  // not even a job number
      "3 10 -1 100 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n");
  SwfJobSource source(in, 0);
  ::testing::internal::CaptureStderr();
  while (source.next()) {
  }
  EXPECT_FALSE(source.next().has_value());
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("SWF line 2: expected 18 numeric fields"),
            std::string::npos)
      << err;
  const std::size_t total = err.find("skipped 2 malformed line(s)");
  EXPECT_NE(total, std::string::npos) << err;
  EXPECT_EQ(err.find("skipped", total + 1), std::string::npos) << err;
}

// A data line whose first field is not a number is a malformed line, not
// a blank one: skipped and counted like a short line.
TEST(Swf, MaterializedReadCountsNonNumericFirstField) {
  std::stringstream in(
      "; header\n"
      "1 0 -1 100 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
      "x2 5 -1 100 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
      "   ; indented comment\n"
      "3 10 -1 100 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n");
  std::size_t malformed = 0;
  const auto records = read_swf(in, &malformed);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].job_number, 1);
  EXPECT_EQ(records[1].job_number, 3);
  EXPECT_EQ(malformed, 1u);
}

TEST(Swf, ReaderCountsBytesRead) {
  // bytes_read is the evidence the reader streams line-by-line instead of
  // slurping: it must equal the input size once the stream is drained.
  const std::string text =
      "; UnixStartTime: 0\n"
      "1 0 -1 100 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
      "2 5 -1 100 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
  std::stringstream in(text);
  SwfReader reader(in);
  while (reader.next()) {
  }
  EXPECT_EQ(reader.bytes_read(), text.size());
}

TEST(Swf, StreamingSourceSurfacesBytesReadCounter) {
  const std::string text =
      "1 0 -1 100 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
      "2 5 -1 100 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
  std::stringstream in(text);
  obs::Registry registry;
  SwfJobSource source(in, 0);
  source.bind_registry(&registry);
  workload::JobList streamed;
  while (auto job = source.next()) streamed.push_back(*job);
  ASSERT_EQ(streamed.size(), 2u);
  EXPECT_EQ(registry.counter("swf_bytes_read").value(), text.size());
  // Draining past the end must not double-count.
  EXPECT_FALSE(source.next().has_value());
  EXPECT_EQ(registry.counter("swf_bytes_read").value(), text.size());
}

TEST(Swf, StreamingSourceRequiresSortedTrace) {
  std::stringstream in(
      "1 100 -1 100 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
      "2 50 -1 100 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n");
  SwfJobSource source(in, 0);
  EXPECT_TRUE(source.next().has_value());
  EXPECT_THROW(source.next(), Error);  // lazy submission needs sorted input
}

TEST(Swf, MaterializedReplayRejectsUnsortedTrace) {
  // The same trace must fail the materialized replay too, with the
  // streaming source's message, so no file runs in one mode only.
  const std::string text =
      "1 100 -1 100 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
      "2 50 -1 100 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
  const std::string message =
      "SWF trace not sorted by submit time at job 2; replay needs a sorted "
      "trace";
  std::stringstream batch_in(text);
  try {
    (void)jobs_from_swf(read_swf(batch_in), 0);
    ADD_FAILURE() << "materialized replay accepted an unsorted trace";
  } catch (const Error& e) {
    EXPECT_EQ(e.what(), message);
  }
  std::stringstream stream_in(text);
  SwfJobSource source(stream_in, 0);
  ASSERT_TRUE(source.next().has_value());
  try {
    (void)source.next();
    ADD_FAILURE() << "streaming replay accepted an unsorted trace";
  } catch (const Error& e) {
    EXPECT_EQ(e.what(), message);
  }
}

TEST(Swf, JobsFromSwfBasics) {
  SwfRecord r;
  r.job_number = 5;
  r.submit_time = 120;
  r.run_time = 300;
  r.time_requested = 600;
  r.procs_requested = 8;
  r.user_id = 3;
  r.app_number = 10;
  const auto jobs = jobs_from_swf({r}, /*app_count=*/8);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].id, 5);
  EXPECT_EQ(jobs[0].submit_time, 120 * kSecond);
  EXPECT_EQ(jobs[0].base_runtime, 300 * kSecond);
  EXPECT_EQ(jobs[0].walltime_limit, 600 * kSecond);
  EXPECT_EQ(jobs[0].nodes, 8);
  EXPECT_EQ(jobs[0].app, 10 % 8);
}

TEST(Swf, JobsFromSwfClampsWalltimeBelowRuntime) {
  SwfRecord r;
  r.job_number = 1;
  r.run_time = 700;
  r.time_requested = 600;  // ran past its request (archive artefact)
  r.procs_requested = 1;
  const auto jobs = jobs_from_swf({r}, 0);
  EXPECT_EQ(jobs[0].walltime_limit, jobs[0].base_runtime);
}

TEST(Swf, JobsFromSwfFallsBackBetweenFields) {
  SwfRecord only_runtime;
  only_runtime.job_number = 1;
  only_runtime.run_time = 300;
  only_runtime.procs_used = 2;  // no procs_requested
  const auto jobs = jobs_from_swf({only_runtime}, 0);
  EXPECT_EQ(jobs[0].nodes, 2);
  EXPECT_EQ(jobs[0].walltime_limit, 300 * kSecond);
}

TEST(Swf, JobsFromSwfRejectsUnusable) {
  SwfRecord r;
  r.job_number = 1;  // no procs at all
  EXPECT_THROW(jobs_from_swf({r}, 0), Error);
}

/// One SWF data line for `job`: the named fields as given, every other
/// field -1.
std::string swf_line(JobId job, std::int64_t submit, std::int64_t run,
                     std::int64_t procs_used, std::int64_t procs_requested,
                     std::int64_t time_requested) {
  std::ostringstream line;
  line << job << ' ' << submit << " -1 " << run << ' ' << procs_used
       << " -1 -1 " << procs_requested << ' ' << time_requested
       << " -1 1 -1 -1 -1 -1 -1 -1 -1\n";
  return line.str();
}

/// Materialized and streaming replay must both reject `line` with
/// `message`.
void expect_rejected(const std::string& line, const std::string& message) {
  std::stringstream batch_in(line);
  try {
    (void)jobs_from_swf(read_swf(batch_in), 0);
    ADD_FAILURE() << "materialized replay accepted " << line;
  } catch (const Error& e) {
    EXPECT_EQ(e.what(), message);
  }
  std::stringstream stream_in(line);
  SwfJobSource source(stream_in, 0);
  try {
    (void)source.next();
    ADD_FAILURE() << "streaming replay accepted " << line;
  } catch (const Error& e) {
    EXPECT_EQ(e.what(), message);
  }
}

TEST(Swf, RejectsRequestedProcessorsBeyondInt) {
  // 2^32 + 2 used to narrow to a 2-node job, 2^31 to a negative one.
  expect_rejected(swf_line(2, 0, 100, -1, 4294967298, 200),
                  "SWF job 2 requested processors 4294967298 exceeds the "
                  "limit of 2147483647");
  expect_rejected(swf_line(2, 0, 100, 4, 2147483648, 200),
                  "SWF job 2 requested processors 2147483648 exceeds the "
                  "limit of 2147483647");
}

TEST(Swf, RejectsUsedProcessorsBeyondInt) {
  expect_rejected(swf_line(3, 0, 100, 2147483648, -1, 200),
                  "SWF job 3 used processors 2147483648 exceeds the limit "
                  "of 2147483647");
}

TEST(Swf, RejectsSubmitTimeBeyondLimit) {
  expect_rejected(swf_line(4, 10000000000000, 100, -1, 4, 200),
                  "SWF job 4 submit time 10000000000000 s exceeds the "
                  "limit of " + std::to_string(kMaxInputSeconds) + " s");
}

TEST(Swf, RejectsRunTimeBeyondLimit) {
  expect_rejected(swf_line(5, 0, 10000000000000, -1, 4, 200),
                  "SWF job 5 run time 10000000000000 s exceeds the limit "
                  "of " + std::to_string(kMaxInputSeconds) + " s");
}

TEST(Swf, RejectsRequestedTimeBeyondLimit) {
  const std::string message =
      "SWF job 6 requested time 10000000000000 s exceeds the limit of " +
      std::to_string(kMaxInputSeconds) + " s";
  expect_rejected(swf_line(6, 0, 100, -1, 4, 10000000000000), message);
  // Without a run time the request is the runtime too.
  expect_rejected(swf_line(6, 0, -1, -1, 4, 10000000000000), message);
}

TEST(Swf, AcceptsFieldsAtTheirLimits) {
  const std::string line =
      swf_line(7, kMaxInputSeconds, kMaxInputSeconds, -1,
               std::numeric_limits<int>::max(), kMaxInputSeconds);
  std::stringstream batch_in(line);
  const auto batch = jobs_from_swf(read_swf(batch_in), 0);
  std::stringstream stream_in(line);
  SwfJobSource source(stream_in, 0);
  const auto streamed = source.next();
  ASSERT_EQ(batch.size(), 1u);
  ASSERT_TRUE(streamed.has_value());
  for (const workload::Job& job : {batch[0], *streamed}) {
    EXPECT_EQ(job.nodes, std::numeric_limits<int>::max());
    EXPECT_EQ(job.submit_time, kMaxInputSeconds * kSecond);
    EXPECT_EQ(job.base_runtime, kMaxInputSeconds * kSecond);
    EXPECT_EQ(job.walltime_limit, kMaxInputSeconds * kSecond);
    EXPECT_GT(job.submit_time + job.walltime_limit, job.submit_time);
  }
}

TEST(Swf, JobsToSwfEncodesStates) {
  auto j = finished_job(3, 2, 100 * kSecond, 50 * kSecond, {0, 1});
  j.submit_time = 10 * kSecond;
  const auto records = jobs_to_swf({j});
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].job_number, 3);
  EXPECT_EQ(records[0].status, 1);
  EXPECT_EQ(records[0].wait_time, 90);
  EXPECT_EQ(records[0].run_time, 50);
  EXPECT_EQ(records[0].procs_used, 2);
}

TEST(Swf, FullCircleThroughJobs) {
  auto j1 = finished_job(1, 4, 0, 600 * kSecond, {0, 1, 2, 3});
  auto j2 = finished_job(2, 1, 60 * kSecond, 120 * kSecond, {4});
  std::stringstream stream;
  write_swf(stream, jobs_to_swf({j1, j2}));
  const auto replay = jobs_from_swf(read_swf(stream), 0);
  ASSERT_EQ(replay.size(), 2u);
  EXPECT_EQ(replay[0].nodes, 4);
  EXPECT_EQ(replay[0].base_runtime, 600 * kSecond);
  EXPECT_EQ(replay[1].base_runtime, 120 * kSecond);
}

TEST(Gantt, CsvHasRowPerJobNode) {
  const auto catalog = apps::Catalog::trinity();
  const auto j = finished_job(1, 2, 0, 100 * kSecond, {0, 1});
  std::stringstream out;
  write_gantt_csv(out, {j}, catalog);
  std::string line;
  int rows = 0;
  while (std::getline(out, line)) ++rows;
  EXPECT_EQ(rows, 3);  // header + 2 node rows
}

TEST(Gantt, SkipsUnstartedJobs) {
  const auto catalog = apps::Catalog::trinity();
  workload::Job pending;
  pending.id = 1;
  pending.app = 0;
  std::stringstream out;
  write_gantt_csv(out, {pending}, catalog);
  std::string all = out.str();
  EXPECT_EQ(std::count(all.begin(), all.end(), '\n'), 1);  // header only
}

TEST(Gantt, AsciiShowsSharingDepth) {
  const auto j1 = finished_job(1, 1, 0, 100 * kSecond, {0});
  auto j2 = finished_job(2, 1, 0, 100 * kSecond, {0});
  j2.alloc_kind = cluster::AllocationKind::kSecondary;
  const std::string art = ascii_gantt({j1, j2}, 2, 20);
  EXPECT_NE(art.find('2'), std::string::npos);  // shared depth on node 0
  EXPECT_NE(art.find('.'), std::string::npos);  // idle node 1
}

TEST(Gantt, AsciiEmptySchedule) {
  EXPECT_EQ(ascii_gantt({}, 4, 20), "(empty schedule)\n");
}

}  // namespace
}  // namespace cosched::trace
