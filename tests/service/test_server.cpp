// Socket-level tests for idlewaved's front-end: a real Server on a real
// AF_UNIX socket, driven by raw protocol lines. Covers the full
// submit/stream/status/cancel/results/shutdown surface plus the disconnect
// fault: a client that vanishes mid-stream has its jobs abandoned and its
// queue share reclaimed, while completed physics stays in the shared cache;
// and the line bound: an unterminated request line over the limit is
// refused.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "service/protocol.hpp"
#include "service/server.hpp"
#include "support/framing.hpp"
#include "support/json.hpp"
#include "sweep/spec.hpp"

namespace iw::service {
namespace {

sweep::SweepSpec quick_spec(std::vector<double> delays) {
  sweep::SweepSpec spec;
  spec.delay_ms = std::move(delays);
  spec.msg_bytes = {4096};
  spec.np = {6};
  spec.steps = 6;
  spec.texec = milliseconds(1.0);
  spec.system_noise = "none";
  return spec;
}

/// Client-side line reader with a receive timeout, so a daemon bug fails
/// the test instead of hanging it.
class TimedReader {
 public:
  explicit TimedReader(int fd) : fd_(fd) {
    timeval tv{};
    tv.tv_sec = 30;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }

  bool next(std::string& line) {
    while (!buf_.next_line(line)) {
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n <= 0) return false;
      buf_.feed(chunk, static_cast<std::size_t>(n));
    }
    return true;
  }

 private:
  int fd_;
  LineBuffer buf_;
};

/// Polls `pred` until it holds or ~5 s elapse.
template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 500; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

class ServerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions options;
    options.socket_path = ::testing::TempDir() + "iw_test_" +
                          std::to_string(::getpid()) + ".sock";
    options.service.threads = 2;
    options.service.batch_points = 2;
    server_ = std::make_unique<Server>(std::move(options));
    server_->start();
  }

  void TearDown() override {
    server_->stop();
    server_->wait();
  }

  [[nodiscard]] ScopedFd connect() const {
    return unix_connect(server_->socket_path());
  }

  std::unique_ptr<Server> server_;
};

TEST_F(ServerFixture, SubmitStreamsRecordsThenDone) {
  ScopedFd fd = connect();
  ASSERT_TRUE(
      send_line(fd.get(), submit_line("alice", 0, quick_spec({6.0, 12.0}))));

  TimedReader reader(fd.get());
  std::string line;
  ASSERT_TRUE(reader.next(line));
  const json::Value accepted = json::parse(line);
  ASSERT_EQ(accepted.find("type")->text, "accepted");
  EXPECT_EQ(accepted.find("points")->number, 2.0);

  std::size_t records = 0;
  while (reader.next(line)) {
    if (is_record_line(line)) {
      records += 1;
      continue;
    }
    const json::Value done = json::parse(line);
    EXPECT_EQ(done.find("type")->text, "done");
    EXPECT_EQ(done.find("records")->number, 2.0);
    break;
  }
  EXPECT_EQ(records, 2u);
}

TEST_F(ServerFixture, StatusAndMalformedLinesAnswerInline) {
  ScopedFd fd = connect();
  TimedReader reader(fd.get());
  std::string line;

  ASSERT_TRUE(send_line(fd.get(), status_line()));
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(json::parse(line).find("type")->text, "status");

  // A malformed request gets a structured error, not a dropped connection.
  ASSERT_TRUE(send_line(fd.get(), "this is not json"));
  ASSERT_TRUE(reader.next(line));
  const json::Value err = json::parse(line);
  EXPECT_EQ(err.find("type")->text, "error");
  EXPECT_EQ(err.find("code")->text, "bad-request");

  // The connection survives: status still answers.
  ASSERT_TRUE(send_line(fd.get(), status_line()));
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(json::parse(line).find("type")->text, "status");
}

TEST_F(ServerFixture, OverlongLineGetsErrorThenEof) {
  {
    ScopedFd fd = connect();
    // 2 MiB with no '\n'. The daemon closes the connection once it holds
    // more than Server::kMaxLineBytes, so the tail of this send may fail.
    const std::string flood(2 * Server::kMaxLineBytes, 'x');
    (void)send_all(fd.get(), flood.data(), flood.size());

    TimedReader reader(fd.get());
    std::string line;
    ASSERT_TRUE(reader.next(line));
    const json::Value err = json::parse(line);
    EXPECT_EQ(err.find("type")->text, "error");
    EXPECT_EQ(err.find("code")->text, "line-too-long");
    EXPECT_FALSE(reader.next(line)) << "expected EOF, got: " << line;
  }

  // The daemon is unharmed: a fresh connection still completes a job.
  ScopedFd fd = connect();
  ASSERT_TRUE(send_line(fd.get(), submit_line("bob", 0, quick_spec({6.0}))));
  TimedReader reader(fd.get());
  std::string line;
  ASSERT_TRUE(reader.next(line));
  ASSERT_EQ(json::parse(line).find("type")->text, "accepted");
  while (reader.next(line) && is_record_line(line)) {
  }
  EXPECT_EQ(json::parse(line).find("type")->text, "done");
}

TEST_F(ServerFixture, DeeplyNestedLineGetsErrorAndDaemonSurvives) {
  {
    ScopedFd fd = connect();
    // ~100 KB, under Server::kMaxLineBytes: it reaches the JSON reader.
    const std::string nested =
        R"({"type":"submit","spec":)" + std::string(100'000, '[');
    ASSERT_TRUE(send_line(fd.get(), nested));
    TimedReader reader(fd.get());
    std::string line;
    ASSERT_TRUE(reader.next(line));
    const json::Value err = json::parse(line);
    EXPECT_EQ(err.find("type")->text, "error");
    EXPECT_EQ(err.find("code")->text, "bad-request");
  }

  // The daemon is unharmed: a second connection still completes a job.
  ScopedFd fd = connect();
  ASSERT_TRUE(send_line(fd.get(), submit_line("bob", 0, quick_spec({6.0}))));
  TimedReader reader(fd.get());
  std::string line;
  ASSERT_TRUE(reader.next(line));
  ASSERT_EQ(json::parse(line).find("type")->text, "accepted");
  while (reader.next(line) && is_record_line(line)) {
  }
  EXPECT_EQ(json::parse(line).find("type")->text, "done");
}

TEST_F(ServerFixture, DisconnectMidStreamReclaimsJobAndSlot) {
  std::uint64_t job = 0;
  {
    ScopedFd fd = connect();
    ASSERT_TRUE(send_line(
        fd.get(),
        submit_line("ghost", 0, quick_spec({3.0, 6.0, 9.0, 12.0, 15.0}))));
    TimedReader reader(fd.get());
    std::string line;
    ASSERT_TRUE(reader.next(line));
    const json::Value accepted = json::parse(line);
    ASSERT_EQ(accepted.find("type")->text, "accepted");
    job = static_cast<std::uint64_t>(accepted.find("job")->number);
    // fd closes here: the client vanishes while the campaign runs.
  }

  // The daemon notices the hangup, abandons the job, and drains the queue.
  ASSERT_TRUE(eventually([&] { return server_->service().finished(job); }));
  const json::Value status = json::parse(server_->service().status_json());
  EXPECT_EQ(status.find("queue_depth")->number, 0.0);
  EXPECT_EQ(status.find("jobs_open")->number, 0.0);

  // A fresh client can immediately run the same campaign; whatever the
  // abandoned run completed is served from the cache.
  ScopedFd fd = connect();
  ASSERT_TRUE(send_line(
      fd.get(),
      submit_line("ghost", 0, quick_spec({3.0, 6.0, 9.0, 12.0, 15.0}))));
  TimedReader reader(fd.get());
  std::string line;
  std::size_t records = 0;
  bool done = false;
  while (reader.next(line)) {
    if (is_record_line(line)) {
      records += 1;
      continue;
    }
    const json::Value msg = json::parse(line);
    if (msg.find("type")->text == "accepted") continue;
    EXPECT_EQ(msg.find("type")->text, "done");
    done = true;
    break;
  }
  EXPECT_TRUE(done);
  EXPECT_EQ(records, 5u);
}

TEST_F(ServerFixture, CancelFromAnotherConnection) {
  ScopedFd submitter = connect();
  // A slow campaign: enough points that the cancel races nothing.
  ASSERT_TRUE(send_line(
      submitter.get(),
      submit_line("slow", 0,
                  quick_spec({1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0}))));
  TimedReader reader(submitter.get());
  std::string line;
  ASSERT_TRUE(reader.next(line));
  const json::Value accepted = json::parse(line);
  ASSERT_EQ(accepted.find("type")->text, "accepted");
  const auto job = static_cast<std::uint64_t>(accepted.find("job")->number);

  ScopedFd controller = connect();
  ASSERT_TRUE(send_line(controller.get(), cancel_line(job)));
  TimedReader creader(controller.get());
  ASSERT_TRUE(creader.next(line));
  const json::Value ack = json::parse(line);
  EXPECT_EQ(ack.find("type")->text, "cancel-ack");

  // The submitter's stream ends with a terminal line — "cancelled" if any
  // work remained, "done" if the campaign beat the cancel.
  std::string type;
  while (reader.next(line)) {
    if (is_record_line(line)) continue;
    type = json::parse(line).find("type")->text;
    break;
  }
  EXPECT_TRUE(type == "cancelled" || type == "done") << type;
}

TEST_F(ServerFixture, ResultsFromAnotherConnectionReplaysTheStream) {
  std::vector<double> delays;
  for (int i = 1; i <= 18; ++i) delays.push_back(0.5 * i);
  ScopedFd submitter = connect();
  ASSERT_TRUE(send_line(submitter.get(),
                        submit_line("alice", 0, quick_spec(delays))));
  TimedReader reader(submitter.get());
  std::string line;
  ASSERT_TRUE(reader.next(line));
  const json::Value accepted = json::parse(line);
  ASSERT_EQ(accepted.find("type")->text, "accepted");
  const auto job = static_cast<std::uint64_t>(accepted.find("job")->number);
  std::string streamed;
  while (reader.next(line) && is_record_line(line)) {
    streamed += line;
    streamed += '\n';
  }
  ASSERT_EQ(json::parse(line).find("type")->text, "done");

  // A second connection asks for the finished job's records: the same
  // bytes, then the "results" terminator counting them.
  ScopedFd other = connect();
  ASSERT_TRUE(send_line(other.get(), results_line(job)));
  TimedReader oreader(other.get());
  std::string replayed;
  while (oreader.next(line) && is_record_line(line)) {
    replayed += line;
    replayed += '\n';
  }
  EXPECT_EQ(replayed, streamed);
  const json::Value results = json::parse(line);
  EXPECT_EQ(results.find("type")->text, "results");
  EXPECT_EQ(results.find("records")->number, 18.0);
}

TEST_F(ServerFixture, ResultsForAnUnknownJobIsAnError) {
  ScopedFd fd = connect();
  TimedReader reader(fd.get());
  std::string line;
  ASSERT_TRUE(send_line(fd.get(), results_line(4242)));
  ASSERT_TRUE(reader.next(line));
  const json::Value err = json::parse(line);
  EXPECT_EQ(err.find("type")->text, "error");
  EXPECT_EQ(err.find("code")->text, "unknown-job");

  // The connection stays usable.
  ASSERT_TRUE(send_line(fd.get(), status_line()));
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(json::parse(line).find("type")->text, "status");
}

TEST_F(ServerFixture, ShutdownVerbStopsTheServer) {
  ScopedFd fd = connect();
  ASSERT_TRUE(send_line(fd.get(), shutdown_line()));
  TimedReader reader(fd.get());
  std::string line;
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(json::parse(line).find("type")->text, "bye");
  server_->wait();  // returns: the verb shut both threads down
}

}  // namespace
}  // namespace iw::service
